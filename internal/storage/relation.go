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
//
// Snapshots share rows and posting lists with the live relation they
// were taken from; the first write after a snapshot copies only the
// dedup slot table and the per-position key maps (see Relation).
package storage

import (
	"fmt"
	"maps"
	"math/bits"
	"slices"
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
//
// Storage is shared between a live relation and its snapshots under
// one invariant: every backing array — the row-header array, row arena
// chunks and posting segments — has exactly one appender, the live
// relation that carved it. A frozen snapshot holds slice headers
// captured when it was taken and reads rows and posting lists only
// below those lengths, so the writer's appends past them are invisible
// to it and do not race with its readers. What the writer updates in
// place rather than appends to — the slot table and the key maps — it
// copies on its first write after a snapshot (ensureOwned). A deep
// Clone never appends into storage it did not carve: its rows and
// posting lists are fresh and capacity-capped. rebuild (Delete,
// ReplaceTerms) re-carves everything into fresh storage, and a
// MergeBatch cold fill (reserve, giveBack) only swaps in fresh
// row-header arrays and slot tables.
type Relation struct {
	schema Schema
	in     *datalog.Interner
	rows   [][]int32 // interned tuples, insertion order
	// slots is the dedup table: open addressing over row indices,
	// probed linearly from the row hash, where 0 marks an empty slot
	// and i+1 names row i. Its length is a power of two at least twice
	// the row count. It holds no pointers, so the collector never
	// scans it and one copy duplicates it.
	slots   []int32
	indexes []map[int32][]int32 // position -> term id -> row indices
	// A chunked arena backs the rows, so bulk loads and chase/eval
	// insert storms cost one allocation per chunk instead of one per
	// tuple. Stored rows are never written again: rebuilds re-carve.
	rowArena datalog.Int32Arena
	// postArena backs the index posting lists the same way: full lists
	// regrow into chunk-carved segments instead of fresh heap slices,
	// eliminating the per-position growth allocations that dominate
	// insert storms.
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
	// shared marks a live relation whose slot table and key maps are
	// shared with at least one snapshot: the first mutation after a
	// snapshot copies them (copy-on-write), so the snapshot's view
	// never changes.
	shared bool
}

// errFrozen is returned (or panicked, for methods without an error
// path) by mutating methods on frozen snapshot relations.
func errFrozen(name string) error {
	return fmt.Errorf("storage: relation %s is a frozen snapshot", name)
}

// ensureOwned implements the copy-on-write step: if the relation's
// slot table and key maps are shared with a snapshot, replace them
// with private copies before the first mutation. The copied maps hold
// the same posting-list headers, and rows, the row arena and the
// posting arena stay shared too: the writer only appends to them,
// past every length a snapshot captured.
func (r *Relation) ensureOwned() {
	if !r.shared {
		return
	}
	r.slots = slices.Clone(r.slots)
	indexes := make([]map[int32][]int32, len(r.indexes))
	for pos, idx := range r.indexes {
		indexes[pos] = maps.Clone(idx)
	}
	r.indexes = indexes
	r.shared = false
}

// Frozen reports whether the relation is an immutable snapshot.
func (r *Relation) Frozen() bool { return r.frozen }

// keyBytes estimates the structures the first write after a snapshot
// copies: the slot table and one entry per distinct key of every
// position's index map. It is O(arity).
func (r *Relation) keyBytes() int64 {
	const sliceHdr = 24
	b := 4 * int64(len(r.slots))
	for _, idx := range r.indexes {
		b += int64(len(idx)) * (4 + sliceHdr)
	}
	return b
}

// rowBytes estimates the storage snapshots share as a prefix: each
// row's slice header and cells, and one 4-byte posting entry per row
// in every position index.
func (r *Relation) rowBytes() int64 {
	const sliceHdr = 24
	n, arity := int64(len(r.rows)), int64(r.schema.Arity())
	return n * (sliceHdr + 4*arity + 4*arity)
}

// exclusiveBytes estimates the memory snapshot r holds that next, a
// later snapshot of the same relation, does not (nil: r is the only
// holder). next shares r's rows and posting lists while r's row
// headers are a prefix of next's: appends keep that true until one
// reallocates the row-header array, and a rebuild ends it. next shares
// r's slot table and key maps until a write between the two copies
// them.
func (r *Relation) exclusiveBytes(next *Relation) int64 {
	if next == nil || !isPrefix(r.rows, next.rows) {
		return r.keyBytes() + r.rowBytes()
	}
	if len(r.slots) != len(next.slots) || !isPrefix(r.slots, next.slots) {
		return r.keyBytes()
	}
	return 0
}

// isPrefix reports whether a is a prefix view of b's backing array.
func isPrefix[T any](a, b []T) bool {
	return len(a) <= len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// snapshot returns a frozen view sharing all of this relation's
// storage, and flips the live relation into copy-on-write mode: its
// next write copies the slot table and key maps, and its appends land
// past the lengths the view captured. in is the forked interner the
// snapshot resolves terms against.
func (r *Relation) snapshot(in *datalog.Interner) *Relation {
	r.shared = true
	return &Relation{
		schema:  r.schema,
		in:      in,
		rows:    r.rows,
		slots:   r.slots,
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
	r := &Relation{schema: schema, in: in}
	r.indexes = make([]map[int32][]int32, schema.Arity())
	for i := range r.indexes {
		r.indexes[i] = map[int32][]int32{}
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
	row, _ := r.find(ids, datalog.HashInt32s(ids))
	return row, row >= 0
}

// find probes the slot table for ids, whose row hash is h. It returns
// the index of the equal row and its slot, or row -1 and the empty
// slot where ids would go (-1 too while the table is empty), so an
// insert after a miss hashes the row only once.
func (r *Relation) find(ids []int32, h uint64) (row, slot int) {
	if len(r.slots) == 0 {
		return -1, -1
	}
	mask := len(r.slots) - 1
	for i := slotOf(h, len(r.slots)); ; i = (i + 1) & mask {
		s := r.slots[i]
		if s == 0 {
			return -1, i
		}
		if rowsEqual(r.rows[s-1], ids) {
			return int(s - 1), i
		}
	}
}

// slotOf maps a row hash to its home slot in a table of n slots (a
// power of two) by Fibonacci hashing, so every hash bit reaches the
// slot index.
func slotOf(h uint64, n int) int {
	return int((h * 0x9e3779b97f4a7c15) >> (64 - bits.TrailingZeros(uint(n))))
}

// freeSlot returns the first empty slot of slots on the probe path of
// hash h; slots must have one.
func freeSlot(slots []int32, h uint64) int {
	mask := len(slots) - 1
	i := slotOf(h, len(slots))
	for slots[i] != 0 {
		i = (i + 1) & mask
	}
	return i
}

// minSlots is the size of a relation's first slot table.
const minSlots = 8

// slotsFor is the slot-table size row-at-a-time inserts reach with n
// rows: the smallest power of two at least max(minSlots, 2n).
func slotsFor(n int) int {
	if n <= minSlots/2 {
		return minSlots
	}
	return 1 << bits.Len(uint(2*n-1))
}

// setSlots replaces the slot table with a fresh one of size slots
// holding rows[:n], which must fill it at most half. It never writes
// the table it replaces, so a snapshot sharing that table keeps its
// view.
func (r *Relation) setSlots(size, n int) {
	slots := make([]int32, size)
	for i, row := range r.rows[:n] {
		slots[freeSlot(slots, datalog.HashInt32s(row))] = int32(i + 1)
	}
	r.slots = slots
}

// insert stores a copy of ids, carved from the row arena, unless an
// equal row is present, and reports whether it did.
func (r *Relation) insert(ids []int32) bool {
	h := datalog.HashInt32s(ids)
	row, slot := r.find(ids, h)
	if row >= 0 {
		return false
	}
	r.appendRow(r.rowArena.Copy(ids), h, slot)
	return true
}

// appendRow stores a row that find(ids, h) just missed at slot. It
// keeps the slot table at most half full, rebuilding it from rows at
// double the size when it would not be. Posting lists grow through the
// posting arena (chunk-carved segments instead of per-list heap
// growth), and the per-position max-bucket statistic is maintained in
// the same pass.
func (r *Relation) appendRow(ids []int32, h uint64, slot int) {
	r.ensureOwned()
	idx := len(r.rows)
	r.rows = append(r.rows, ids)
	if 2*len(r.rows) > len(r.slots) {
		r.setSlots(max(minSlots, 2*len(r.slots)), idx)
		slot = freeSlot(r.slots, h)
	}
	r.slots[slot] = int32(idx + 1)
	for pos, id := range ids {
		lst := r.postArena.grow(r.indexes[pos][id], int32(idx))
		r.indexes[pos][id] = lst
		if len(lst) > r.maxBucket[pos] {
			r.maxBucket[pos] = len(lst)
		}
	}
}

// reserve sizes an empty relation for n incoming rows: row headers
// for 5n/4 (the slack append's growth leaves), and a slot table that
// n rows fill at most half. The merge that reserves calls giveBack
// once its rows are in.
func (r *Relation) reserve(n int) {
	r.ensureOwned()
	r.rows = make([][]int32, 0, n+n/4)
	r.slots = make([]int32, slotsFor(n))
}

// giveBack returns what a reservation sized for rows that dedup
// dropped left unused: a slot table larger than row-at-a-time inserts
// would have grown is rebuilt at their size, and row headers whose
// capacity passed 2·len+16 are re-fitted to 5/4 of len. Both get
// fresh arrays, so snapshots sharing the old ones keep their view.
func (r *Relation) giveBack() {
	n := len(r.rows)
	if want := slotsFor(n); len(r.slots) > want {
		r.setSlots(want, n)
	}
	if cap(r.rows) > 2*n+16 {
		r.rows = append(make([][]int32, 0, n+n/4), r.rows...)
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
	buf []int32
}

// postingChunk is the chunk size in entries.
const postingChunk = 1024

// grow appends v to list, re-carving it from the arena when full. The
// returned slice's spare capacity belongs exclusively to this list:
// segments are capacity-capped at carve time and later carves start
// beyond them.
func (a *postingArena) grow(list []int32, v int32) []int32 {
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
		a.buf = make([]int32, 0, size)
	}
	start := len(a.buf)
	seg := a.buf[start : start : start+need]
	a.buf = a.buf[:start+need]
	seg = append(seg, list...)
	return append(seg, v)
}

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
	return r.insert(r.in.IDs(tuple, buf[:0])), nil
}

// InsertRow adds a tuple given as interned term ids. The ids must come
// from this relation's interner; the slice is copied. It reports
// whether the row was new.
func (r *Relation) InsertRow(ids []int32) (bool, error) {
	if r.frozen {
		return false, errFrozen(r.schema.Name)
	}
	if len(ids) != r.schema.Arity() {
		return false, fmt.Errorf("storage: %s expects %d attributes, got %d", r.schema.Name, r.schema.Arity(), len(ids))
	}
	for _, id := range ids {
		if id < 0 || int(id) >= r.in.Len() {
			return false, fmt.Errorf("storage: %s: row id %d outside interner range", r.schema.Name, id)
		}
		if r.in.TermOf(id).IsVar() {
			return false, fmt.Errorf("storage: cannot insert non-ground row into %s", r.schema.Name)
		}
	}
	return r.insert(ids), nil
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
// deduplicated in first-occurrence order, with the slot table, indexes
// and statistics rebuilt from scratch. It never writes into the
// storage it replaces, so any snapshot sharing that storage keeps its
// view and copy-on-write ends here.
func (r *Relation) rebuild(rows [][]int32, remap map[int32]int32) {
	fresh := newRelation(r.schema, r.in)
	var buf [16]int32
	for _, row := range rows {
		ids := append(buf[:0], row...)
		for i, id := range ids {
			if to, ok := remap[id]; ok {
				ids[i] = to
			}
		}
		fresh.insert(ids)
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
// (Term.CompareTotal), for deterministic output: the order is total on
// distinct rows, so it never depends on insertion order. The outer
// slice is fresh; the rows themselves are owned by the relation.
func (r *Relation) SortedRows() [][]int32 {
	out := slices.Clone(r.rows)
	slices.SortFunc(out, func(a, b []int32) int {
		for k := range a {
			// Distinct ids of one interner are distinct terms, which
			// CompareTotal never ties.
			if a[k] != b[k] {
				return r.in.TermOf(a[k]).CompareTotal(r.in.TermOf(b[k]))
			}
		}
		return 0
	})
	return out
}

// SortedView returns a frozen relation under schema holding r's rows
// in SortedRows order. It shares r's interner and row cells; only the
// row headers, the dedup slots and the indexes are its own, so it
// costs no decoding, interning or row copies. r must be frozen: a
// frozen relation's interner never interns again, which is what makes
// sharing it safe for concurrent readers. schema must have r's arity.
func (r *Relation) SortedView(schema Schema) (*Relation, error) {
	if !r.frozen {
		return nil, fmt.Errorf("storage: sorted view of %s needs a frozen relation", r.schema.Name)
	}
	if schema.Arity() != r.schema.Arity() {
		return nil, fmt.Errorf("storage: sorted view of %s: schema %s has arity %d, want %d", r.schema.Name, schema, schema.Arity(), r.schema.Arity())
	}
	out := newRelation(schema, r.in)
	rows := r.SortedRows()
	out.rows = make([][]int32, 0, len(rows))
	// Size the slot table once: appendRow rebuilds it only when it is
	// more than half full.
	out.slots = make([]int32, slotsFor(len(rows)))
	for _, row := range rows {
		h := datalog.HashInt32s(row)
		_, slot := out.find(row, h)
		out.appendRow(row, h, slot)
	}
	out.frozen = true
	return out, nil
}

// NewFrozenRelation returns an empty relation under schema that
// rejects every mutation, like a snapshot relation with no rows.
func NewFrozenRelation(schema Schema) *Relation {
	r := NewRelation(schema)
	r.frozen = true
	return r
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
	// member of a cycle maps to the cycle's CompareTotal-least term, so the
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
// cycle's least member under Term.CompareTotal, which is the same
// member wherever the chain entered the cycle.
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
				if t.CompareTotal(min) < 0 {
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

// Clone returns a deep copy of the relation in O(rows): rows, the slot
// table and indexes are bulk-copied instead of re-inserted. The clone
// shares the interner (interning is append-only, so sharing is safe
// and keeps term ids compatible across clones).
func (r *Relation) Clone() *Relation {
	out := &Relation{
		schema:  r.schema,
		in:      r.in,
		rows:    make([][]int32, len(r.rows)),
		slots:   slices.Clone(r.slots),
		indexes: make([]map[int32][]int32, len(r.indexes)),
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
	// Index posting lists sum to exactly one entry per row per
	// position, so a single flat backing array serves each map.
	for pos, index := range r.indexes {
		m := make(map[int32][]int32, len(index))
		flat := make([]int32, 0, len(r.rows))
		for id, idxs := range index {
			start := len(flat)
			flat = append(flat, idxs...)
			m[id] = flat[start:len(flat):len(flat)]
		}
		out.indexes[pos] = m
	}
	return out
}
