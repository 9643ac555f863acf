package datalog

// Interner maps distinct terms (constants, variables and labeled
// nulls) to dense int32 ids, so the storage and evaluation layers can
// represent tuples as []int32 rows and compare terms by integer
// equality instead of hashing strings.
//
// Ids are handed out in first-intern order starting at 0 and are never
// reused or invalidated: an Interner only grows. The zero id is a
// valid term id; evaluation code uses negative values (see NoID) as
// "unbound" sentinels in register banks.
//
// An Interner is not safe for concurrent use, matching the rest of the
// storage layer. Instances created by Clone share their parent's
// interner: append-only interning keeps ids valid across clones, but
// it also means a clone and its parent must not be mutated from
// different goroutines without external synchronization.
type Interner struct {
	ids   map[Term]int32
	terms []Term
	// parent records fork lineage (see Fork and DescendsFrom): plans
	// compiled against an ancestor interner stay valid on descendants,
	// because Fork preserves every id assignment made before the fork.
	parent *Interner
}

// NoID is the sentinel used for "no term": it is never a valid id.
const NoID int32 = -1

// NewInterner returns an empty interner.
func NewInterner() *Interner {
	return &Interner{ids: make(map[Term]int32)}
}

// ID returns the id of t, interning it first if needed.
func (in *Interner) ID(t Term) int32 {
	if id, ok := in.ids[t]; ok {
		return id
	}
	id := int32(len(in.terms))
	in.ids[t] = id
	in.terms = append(in.terms, t)
	return id
}

// Lookup returns the id of t without interning; ok is false when t has
// never been interned.
func (in *Interner) Lookup(t Term) (int32, bool) {
	id, ok := in.ids[t]
	return id, ok
}

// TermOf returns the term with the given id. It panics on ids the
// interner never produced, which always indicates engine corruption.
func (in *Interner) TermOf(id int32) Term { return in.terms[id] }

// Len returns the number of interned terms (ids are 0..Len()-1).
func (in *Interner) Len() int { return len(in.terms) }

// IDs interns every term of the tuple and appends the ids to dst,
// returning the extended slice. Pass dst[:0] to reuse a buffer.
func (in *Interner) IDs(tuple []Term, dst []int32) []int32 {
	for _, t := range tuple {
		dst = append(dst, in.ID(t))
	}
	return dst
}

// Terms maps ids back to terms, appending to dst.
func (in *Interner) Terms(ids []int32, dst []Term) []Term {
	for _, id := range ids {
		dst = append(dst, in.terms[id])
	}
	return dst
}

// Fork returns an independent copy of the interner with identical id
// assignments. Engines that derive new facts over a cloned instance
// fork the interner first, so interning fresh symbols (invented nulls,
// rule-head constants) never mutates the input instance's interner —
// keeping read-only callers free of shared mutable state.
func (in *Interner) Fork() *Interner {
	out := &Interner{
		ids:    make(map[Term]int32, len(in.ids)),
		terms:  append([]Term(nil), in.terms...),
		parent: in,
	}
	for t, id := range in.ids {
		out.ids[t] = id
	}
	return out
}

// Parent returns the interner this one was forked from, or nil for a
// root interner. Two forks of the same parent with equal Len hold
// identical id assignments (forking copies the parent's table and a
// frozen fork never interns), which is what lets a shape-keyed plan
// cache rebind plans across sibling snapshots of one session.
func (in *Interner) Parent() *Interner { return in.parent }

// DescendsFrom reports whether in is anc or a (transitive) fork of
// anc. Ids assigned by an ancestor before forking are preserved in
// every descendant, so read structures compiled against anc (plans,
// projections) remain valid against descendants — provided the
// ancestor is no longer interning new terms, which could reuse ids the
// descendant assigned independently. Engine code enforces that
// discipline: prepared artifacts freeze their interner before sessions
// fork it.
func (in *Interner) DescendsFrom(anc *Interner) bool {
	for cur := in; cur != nil; cur = cur.parent {
		if cur == anc {
			return true
		}
	}
	return false
}

// HashInt32s is FNV-1a over a row of term ids (or any int32 slice),
// the shared hash for row dedup buckets and trigger memos.
func HashInt32s(row []int32) uint64 {
	h := uint64(14695981039346656037)
	for _, id := range row {
		v := uint32(id)
		h = (h ^ uint64(v&0xff)) * 1099511628211
		h = (h ^ uint64((v>>8)&0xff)) * 1099511628211
		h = (h ^ uint64((v>>16)&0xff)) * 1099511628211
		h = (h ^ uint64(v>>24)) * 1099511628211
	}
	return h
}

// Int32Arena carves copies of small int32 rows out of chunked backing
// arrays, one allocation per chunk instead of one per row. The zero
// value is ready to use. Used for interned tuple rows, staged batch
// rows and chase trigger snapshots.
type Int32Arena struct {
	buf []int32
}

// arenaChunkRows is the chunk size in rows (times the row length).
const arenaChunkRows = 256

// Copy stores a copy of src and returns the capped view.
func (a *Int32Arena) Copy(src []int32) []int32 {
	n := len(src)
	if cap(a.buf)-len(a.buf) < n {
		chunk := arenaChunkRows * n
		if chunk < n {
			chunk = n
		}
		a.buf = make([]int32, 0, chunk)
	}
	start := len(a.buf)
	a.buf = append(a.buf, src...)
	return a.buf[start : start+n : start+n]
}
