// Package storage implements the in-memory relational substrate the
// ontologies run on: named relations of ground tuples (constants and
// labeled nulls), per-position hash indexes, compiled join plans for
// conjunctions, and utilities for diffing and pretty-printing that the
// experiment harness uses to regenerate the paper's tables.
//
// A tuple is stored once, as a row of interned term ids ([]int32) from
// the instance's interner. Dedup, index probes and join execution all
// work on the integer rows, so no string keys are built on insert,
// lookup or match; terms are decoded through the interner only at the
// edges (Tuples, SortedTuples, formatting, persistence).
package storage

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/datalog"
)

// Schema describes a relation: its name and attribute names. Attribute
// names are carried for documentation and table printing; matching is
// positional.
type Schema struct {
	Name  string
	Attrs []string
}

// Arity returns the number of attributes.
func (s Schema) Arity() int { return len(s.Attrs) }

// String renders the schema as Name(attr1, ..., attrN).
func (s Schema) String() string {
	return s.Name + "(" + strings.Join(s.Attrs, ", ") + ")"
}

// Relation is a set of ground tuples under a schema, with hash indexes
// on every position maintained incrementally. Tuples are deduplicated.
type Relation struct {
	schema Schema
	in     *datalog.Interner
	rows   [][]int32 // interned tuples, insertion order
	// buckets maps a row hash to the indices of rows with that hash;
	// candidates are confirmed by integer comparison, so dedup never
	// builds a string key.
	buckets map[uint64][]int
	indexes []map[int32][]int // position -> term id -> tuple indices
	// A chunked arena backs the rows, so bulk loads and chase/eval
	// insert storms cost one allocation per chunk instead of one per
	// tuple. Stored rows are never written again: rebuilds re-carve.
	rowArena datalog.Int32Arena
	// postArena backs the bucket and index posting lists the same way:
	// full lists regrow into chunk-carved segments instead of fresh
	// heap slices, eliminating the per-position growth allocations that
	// dominate insert storms.
	postArena postingArena
	// maxBucket[pos] is the length of the largest posting list of
	// indexes[pos] — the most-frequent-value bucket size, maintained
	// incrementally on append (no scans). Together with Len and the
	// index map sizes (distinct counts) it forms the live statistics
	// the cost-based planner reads.
	maxBucket []int
	// frozen marks an immutable snapshot relation: every mutating
	// method fails. Snapshots share tuple storage with the live
	// relation they were taken from (see Instance.Snapshot).
	frozen bool
	// shared marks a live relation whose storage is shared with at
	// least one snapshot: the first mutation after a snapshot replaces
	// the shared storage with a private copy (copy-on-write), so the
	// snapshot's view never changes.
	shared bool
}

// errFrozen is returned (or panicked, for methods without an error
// path) by mutating methods on frozen snapshot relations.
func errFrozen(name string) error {
	return fmt.Errorf("storage: relation %s is a frozen snapshot", name)
}

// ensureOwned implements the copy-on-write step: if the relation's
// storage is shared with a snapshot, replace it with a private deep
// copy before the first mutation. Slices and maps the snapshot holds
// are never touched again by this relation afterwards.
func (r *Relation) ensureOwned() {
	if !r.shared {
		return
	}
	c := r.Clone()
	r.rows, r.buckets, r.indexes = c.rows, c.buckets, c.indexes
	// Old arena chunks stay referenced by the snapshot's rows; fresh
	// chunks keep the writer's new tuples fully private. The clone's
	// posting lists are capacity-capped, so the first append to any of
	// them re-carves from the fresh posting arena.
	r.rowArena = datalog.Int32Arena{}
	r.postArena = postingArena{}
	r.shared = false
}

// Frozen reports whether the relation is an immutable snapshot.
func (r *Relation) Frozen() bool { return r.frozen }

// bytes estimates the memory held by the relation's storage: each
// row's slice header and cells, one posting entry per row in the
// row-hash buckets and in every position index, and one map entry per
// distinct bucket or index key. It is O(arity).
func (r *Relation) bytes() int64 {
	const sliceHdr, intSize = 24, 8
	n, arity := int64(len(r.rows)), int64(r.schema.Arity())
	b := n * (sliceHdr + 4*arity)               // rows
	b += n * intSize * (1 + arity)              // posting entries
	b += int64(len(r.buckets)) * (8 + sliceHdr) // bucket keys + list headers
	for _, idx := range r.indexes {
		b += int64(len(idx)) * (4 + sliceHdr)
	}
	return b
}

// sharesStorage reports whether r and o hold the same row storage: a
// snapshot and the relation it was taken from, or two snapshots taken
// with no write to the live relation in between. The first write
// after a snapshot copies the storage, which ends the sharing.
func (r *Relation) sharesStorage(o *Relation) bool {
	if len(r.rows) != len(o.rows) {
		return false
	}
	return len(r.rows) == 0 || &r.rows[0] == &o.rows[0]
}

// snapshot returns a frozen view sharing this relation's storage, and
// flips the live relation into copy-on-write mode. in is the forked
// interner the snapshot resolves terms against.
func (r *Relation) snapshot(in *datalog.Interner) *Relation {
	r.shared = true
	return &Relation{
		schema:  r.schema,
		in:      in,
		rows:    r.rows,
		buckets: r.buckets,
		indexes: r.indexes,
		// The stats slice is copied: the writer keeps updating its own
		// in place, and the snapshot's stats must stay consistent with
		// the tuple storage it shares.
		maxBucket: append([]int(nil), r.maxBucket...),
		frozen:    true,
	}
}

// NewRelation creates an empty relation with a private interner. Use
// Instance.CreateRelation when relations must share an interner (which
// all relations of one instance do).
func NewRelation(schema Schema) *Relation {
	return newRelation(schema, datalog.NewInterner())
}

func newRelation(schema Schema, in *datalog.Interner) *Relation {
	r := &Relation{
		schema:  schema,
		in:      in,
		buckets: map[uint64][]int{},
	}
	r.indexes = make([]map[int32][]int, schema.Arity())
	for i := range r.indexes {
		r.indexes[i] = map[int32][]int{}
	}
	r.maxBucket = make([]int, schema.Arity())
	return r
}

// Schema returns the relation schema.
func (r *Relation) Schema() Schema { return r.schema }

// Name returns the relation name.
func (r *Relation) Name() string { return r.schema.Name }

// Len returns the number of tuples.
func (r *Relation) Len() int { return len(r.rows) }

// Interner returns the interner backing this relation's rows.
func (r *Relation) Interner() *datalog.Interner { return r.in }

func rowsEqual(a, b []int32) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// lookupRow returns the index of the row equal to ids, if present.
func (r *Relation) lookupRow(ids []int32) (int, bool) {
	for _, idx := range r.buckets[datalog.HashInt32s(ids)] {
		if rowsEqual(r.rows[idx], ids) {
			return idx, true
		}
	}
	return 0, false
}

// appendRow stores an already-deduplicated, arena-carved row. Posting
// lists grow through the posting arena (chunk-carved segments instead
// of per-list heap growth), and the per-position max-bucket statistic
// is maintained in the same pass.
func (r *Relation) appendRow(ids []int32) {
	idx := len(r.rows)
	r.rows = append(r.rows, ids)
	h := datalog.HashInt32s(ids)
	r.buckets[h] = r.postArena.grow(r.buckets[h], idx)
	for pos, id := range ids {
		lst := r.postArena.grow(r.indexes[pos][id], idx)
		r.indexes[pos][id] = lst
		if len(lst) > r.maxBucket[pos] {
			r.maxBucket[pos] = len(lst)
		}
	}
}

// DistinctAt returns the number of distinct term ids stored at
// argument position pos — the live distinct-count statistic, free off
// the per-position index map.
func (r *Relation) DistinctAt(pos int) int { return len(r.indexes[pos]) }

// MaxBucketAt returns the size of the largest posting list at
// position pos: the frequency of the most common value, an upper
// bound on any index probe at that position.
func (r *Relation) MaxBucketAt(pos int) int { return r.maxBucket[pos] }

// BucketLen returns the exact posting-list length for term id at
// position pos — what an index probe on that constant would scan.
func (r *Relation) BucketLen(pos int, id int32) int { return len(r.indexes[pos][id]) }

// postingArena carves posting-list storage out of chunked backing
// arrays. A list that still has spare capacity appends in place; a
// full list is migrated to a fresh segment of double capacity carved
// from the current chunk. Amortized, a relation's posting lists cost
// O(rows/chunk) allocations instead of O(distinct values × growth
// steps). Abandoned segments are wasted until the next rebuild, but
// total waste is bounded by ~2× the live list volume plus one chunk
// tail. The zero value is ready to use.
type postingArena struct {
	buf []int
}

// postingChunk is the chunk size in ints.
const postingChunk = 1024

// grow appends v to list, re-carving it from the arena when full. The
// returned slice's spare capacity belongs exclusively to this list:
// segments are capacity-capped at carve time and later carves start
// beyond them.
func (a *postingArena) grow(list []int, v int) []int {
	if len(list) < cap(list) {
		return append(list, v)
	}
	need := 2 * cap(list)
	if need < 4 {
		need = 4
	}
	if cap(a.buf)-len(a.buf) < need {
		size := postingChunk
		if size < need {
			size = need
		}
		a.buf = make([]int, 0, size)
	}
	start := len(a.buf)
	seg := a.buf[start : start : start+need]
	a.buf = a.buf[:start+need]
	seg = append(seg, list...)
	return append(seg, v)
}

// Reset drops the current chunk so retired lists can be collected.
func (a *postingArena) Reset() { *a = postingArena{} }

// Insert adds a ground tuple. It returns true if the tuple was new, and
// an error on arity mismatch or non-ground terms.
func (r *Relation) Insert(tuple []datalog.Term) (bool, error) {
	if r.frozen {
		return false, errFrozen(r.schema.Name)
	}
	if len(tuple) != r.schema.Arity() {
		return false, fmt.Errorf("storage: %s expects %d attributes, got %d", r.schema.Name, r.schema.Arity(), len(tuple))
	}
	for _, t := range tuple {
		if t.IsVar() {
			return false, fmt.Errorf("storage: cannot insert non-ground tuple into %s: %v", r.schema.Name, datalog.TermsString(tuple))
		}
	}
	var buf [16]int32
	ids := r.in.IDs(tuple, buf[:0])
	if _, dup := r.lookupRow(ids); dup {
		return false, nil
	}
	r.ensureOwned()
	r.appendRow(r.rowArena.Copy(ids))
	return true, nil
}

// InsertRow adds a tuple given as interned term ids. The ids must come
// from this relation's interner; the slice is copied. It reports
// whether the row was new.
func (r *Relation) InsertRow(ids []int32) (bool, error) {
	_, isNew, err := r.insertRowStored(ids)
	return isNew, err
}

// insertRowStored is the core of InsertRow: it validates, dedups and
// stores the row, returning the arena-stored copy when the row was
// new (nil otherwise). Batch merging uses the stored slice to build
// delta-fact lists without re-copying.
func (r *Relation) insertRowStored(ids []int32) ([]int32, bool, error) {
	if r.frozen {
		return nil, false, errFrozen(r.schema.Name)
	}
	if len(ids) != r.schema.Arity() {
		return nil, false, fmt.Errorf("storage: %s expects %d attributes, got %d", r.schema.Name, r.schema.Arity(), len(ids))
	}
	for _, id := range ids {
		if id < 0 || int(id) >= r.in.Len() {
			return nil, false, fmt.Errorf("storage: %s: row id %d outside interner range", r.schema.Name, id)
		}
		if r.in.TermOf(id).IsVar() {
			return nil, false, fmt.Errorf("storage: cannot insert non-ground row into %s", r.schema.Name)
		}
	}
	if _, dup := r.lookupRow(ids); dup {
		return nil, false, nil
	}
	r.ensureOwned()
	stored := r.rowArena.Copy(ids)
	r.appendRow(stored)
	return stored, true, nil
}

// Contains reports whether the ground tuple is present. It allocates
// nothing: unknown terms short-circuit to false.
func (r *Relation) Contains(tuple []datalog.Term) bool {
	if len(tuple) != r.schema.Arity() {
		return false
	}
	var buf [16]int32
	ids := buf[:0]
	if len(tuple) > len(buf) {
		ids = make([]int32, 0, len(tuple))
	}
	for _, t := range tuple {
		id, ok := r.in.Lookup(t)
		if !ok {
			return false
		}
		ids = append(ids, id)
	}
	_, ok := r.lookupRow(ids)
	return ok
}

// ContainsRow reports whether the row of interned ids is present.
func (r *Relation) ContainsRow(ids []int32) bool {
	if len(ids) != r.schema.Arity() {
		return false
	}
	_, ok := r.lookupRow(ids)
	return ok
}

// Row returns the interned row at index i. The slice is owned by the
// relation; callers must not modify it.
func (r *Relation) Row(i int) []int32 { return r.rows[i] }

// Delete removes a ground tuple if present, reporting whether it was.
// Deletion rebuilds the relation's indexes; it is intended for
// low-frequency cleaning operations, not hot loops.
func (r *Relation) Delete(tuple []datalog.Term) bool {
	if r.frozen {
		panic(errFrozen(r.schema.Name))
	}
	if len(tuple) != r.schema.Arity() {
		return false
	}
	var buf [16]int32
	ids := buf[:0]
	for _, t := range tuple {
		id, ok := r.in.Lookup(t)
		if !ok {
			return false
		}
		ids = append(ids, id)
	}
	idx, ok := r.lookupRow(ids)
	if !ok {
		return false
	}
	rest := make([][]int32, 0, len(r.rows)-1)
	rest = append(append(rest, r.rows[:idx]...), r.rows[idx+1:]...)
	r.rebuild(rest, nil)
	return true
}

// rebuild replaces the relation's storage with rows — rewritten
// through remap when non-nil — re-carved into a fresh arena and
// deduplicated in first-occurrence order, with buckets, indexes and
// statistics rebuilt from scratch. It never writes into the storage it
// replaces, so any snapshot sharing that storage keeps its view and
// copy-on-write ends here.
func (r *Relation) rebuild(rows [][]int32, remap map[int32]int32) {
	fresh := newRelation(r.schema, r.in)
	fresh.buckets = make(map[uint64][]int, len(rows))
	var buf [16]int32
	for _, row := range rows {
		ids := append(buf[:0], row...)
		for i, id := range ids {
			if to, ok := remap[id]; ok {
				ids[i] = to
			}
		}
		if _, dup := fresh.lookupRow(ids); !dup {
			fresh.appendRow(fresh.rowArena.Copy(ids))
		}
	}
	*r = *fresh
}

// Tuples decodes the tuples in insertion order. Every call returns
// fresh slices the caller owns, carved from one backing array; per-row
// hot paths walk Rows and decode through the interner instead.
func (r *Relation) Tuples() [][]datalog.Term { return r.decode(r.rows) }

// decode maps rows back to terms through the relation's interner.
func (r *Relation) decode(rows [][]int32) [][]datalog.Term {
	arity := r.schema.Arity()
	flat := make([]datalog.Term, 0, len(rows)*arity)
	out := make([][]datalog.Term, len(rows))
	for i, row := range rows {
		start := len(flat)
		flat = r.in.Terms(row, flat)
		out[i] = flat[start:len(flat):len(flat)]
	}
	return out
}

// Rows returns the interned rows in insertion order. The slice and its
// elements are owned by the relation; callers must not modify them.
func (r *Relation) Rows() [][]int32 { return r.rows }

// SortedRows returns the rows ordered lexicographically by term
// (Term.Compare), for deterministic output. The outer slice is fresh;
// the rows themselves are owned by the relation.
func (r *Relation) SortedRows() [][]int32 {
	out := append([][]int32(nil), r.rows...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		for k := range a {
			if a[k] == b[k] {
				continue
			}
			return r.in.TermOf(a[k]).Compare(r.in.TermOf(b[k])) < 0
		}
		return false
	})
	return out
}

// SortedTuples decodes the tuples sorted lexicographically, for
// deterministic display. Like Tuples, the result belongs to the
// caller.
func (r *Relation) SortedTuples() [][]datalog.Term { return r.decode(r.SortedRows()) }

// ReplaceTerm rewrites every occurrence of old with new, deduplicating
// the result. It returns the number of tuples modified. It is the
// primitive used when the chase enforces an EGD by merging a labeled
// null into another term.
func (r *Relation) ReplaceTerm(old, new datalog.Term) int {
	return r.ReplaceTerms(map[datalog.Term]datalog.Term{old: new})
}

// ReplaceTerms applies a batch of term rewrites in one pass, following
// chains (a->b, b->c rewrites a to c) and rebuilding indexes exactly
// once. It returns the number of tuples modified. EGD enforcement uses
// it so one merge cascade triggers one rebuild instead of one per
// merge.
func (r *Relation) ReplaceTerms(repl map[datalog.Term]datalog.Term) int {
	if r.frozen {
		panic(errFrozen(r.schema.Name))
	}
	if len(repl) == 0 {
		return 0
	}
	// Resolve chains up front so each id lookup is a single map hit.
	// Cyclic requests ({a->b, b->a}) are treated as merge classes: every
	// member of a cycle maps to the cycle's Compare-least term, so the
	// result is a deterministic merge rather than a parity-dependent
	// rotation. A term the interner has never seen occurs in no row.
	targets := make(map[int32]datalog.Term, len(repl))
	for old := range repl {
		if id, ok := r.in.Lookup(old); ok {
			if to := resolveReplacement(repl, old); to != old {
				targets[id] = to
			}
		}
	}
	if len(targets) == 0 {
		return 0
	}
	// Replacement targets are interned on first use, in row order, so
	// the interner only learns terms some row actually takes on.
	remap := make(map[int32]int32, len(targets))
	changed := 0
	for _, row := range r.rows {
		touched := false
		for _, id := range row {
			if to, ok := targets[id]; ok {
				if _, done := remap[id]; !done {
					remap[id] = r.in.ID(to)
				}
				touched = true
			}
		}
		if touched {
			changed++
		}
	}
	if changed > 0 {
		r.rebuild(r.rows, remap)
	}
	return changed
}

// resolveReplacement follows the replacement chain from old to its
// terminal term. A chain that runs into a cycle resolves to the
// cycle's least member under Term.Compare.
func resolveReplacement(repl map[datalog.Term]datalog.Term, old datalog.Term) datalog.Term {
	cur := old
	var path []datalog.Term
	seen := map[datalog.Term]int{}
	for {
		next, ok := repl[cur]
		if !ok || next == cur {
			return cur
		}
		if at, dup := seen[cur]; dup {
			min := path[at]
			for _, t := range path[at+1:] {
				if t.Compare(min) < 0 {
					min = t
				}
			}
			return min
		}
		seen[cur] = len(path)
		path = append(path, cur)
		cur = next
	}
}

// Clone returns a deep copy of the relation in O(rows): rows, hash
// buckets and indexes are bulk-copied instead of re-inserted. The
// clone shares the interner (interning is append-only, so sharing is
// safe and keeps term ids compatible across clones).
func (r *Relation) Clone() *Relation {
	out := &Relation{
		schema:  r.schema,
		in:      r.in,
		rows:    make([][]int32, len(r.rows)),
		buckets: make(map[uint64][]int, len(r.buckets)),
		indexes: make([]map[int32][]int, len(r.indexes)),
		// Stats are copied so the clone's planner sees the same picture;
		// its appendRow keeps them current independently afterwards.
		maxBucket: append([]int(nil), r.maxBucket...),
	}
	arity := r.schema.Arity()
	// One flat backing array covers every row copy.
	flatIDs := make([]int32, len(r.rows)*arity)
	for i, row := range r.rows {
		dst := flatIDs[i*arity : (i+1)*arity : (i+1)*arity]
		copy(dst, row)
		out.rows[i] = dst
	}
	// Bucket and index posting lists sum to exactly one entry per row
	// (per position), so a single flat backing array serves each map.
	flatBuckets := make([]int, 0, len(r.rows))
	for h, idxs := range r.buckets {
		start := len(flatBuckets)
		flatBuckets = append(flatBuckets, idxs...)
		out.buckets[h] = flatBuckets[start:len(flatBuckets):len(flatBuckets)]
	}
	for pos, index := range r.indexes {
		m := make(map[int32][]int, len(index))
		flat := make([]int, 0, len(r.rows))
		for id, idxs := range index {
			start := len(flat)
			flat = append(flat, idxs...)
			m[id] = flat[start:len(flat):len(flat)]
		}
		out.indexes[pos] = m
	}
	return out
}
