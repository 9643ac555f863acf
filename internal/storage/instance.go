package storage

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/datalog"
)

// Instance is a database instance: a collection of relations by name.
// Relations are created explicitly (with attribute names) or implicitly
// on first insert (with synthesized attribute names). All relations of
// an instance share one term interner, so interned rows and compiled
// join plans are valid across the whole instance (and across clones,
// which share the interner too).
type Instance struct {
	relations map[string]*Relation
	order     []string // creation order, for deterministic iteration
	in        *datalog.Interner
	// frozen marks an immutable snapshot (see Snapshot): relation
	// creation and every tuple mutation fail.
	frozen bool
}

// NewInstance returns an empty instance.
func NewInstance() *Instance {
	return &Instance{relations: map[string]*Relation{}, in: datalog.NewInterner()}
}

// NewInstanceWith returns an empty instance over the given interner.
// The persistence layer uses it to materialize decoded snapshots
// against a fork of a live prepared base, so restored rows keep the
// exact ids the compiled plans were built against.
func NewInstanceWith(in *datalog.Interner) *Instance {
	return &Instance{relations: map[string]*Relation{}, in: in}
}

// Interner returns the instance's shared term interner.
func (db *Instance) Interner() *datalog.Interner { return db.in }

// CreateRelation registers an empty relation. It errors if the name is
// taken with a different schema.
func (db *Instance) CreateRelation(name string, attrs ...string) (*Relation, error) {
	if rel, ok := db.relations[name]; ok {
		if rel.Schema().Arity() != len(attrs) {
			return nil, fmt.Errorf("storage: relation %s already exists with arity %d", name, rel.Schema().Arity())
		}
		return rel, nil
	}
	if db.frozen {
		return nil, fmt.Errorf("storage: cannot create relation %s in a frozen snapshot", name)
	}
	rel := newRelation(Schema{Name: name, Attrs: attrs}, db.in)
	db.relations[name] = rel
	db.order = append(db.order, name)
	return rel, nil
}

// Relation returns the named relation, or nil if absent.
func (db *Instance) Relation(name string) *Relation { return db.relations[name] }

// RelationNames returns the relation names in creation order.
func (db *Instance) RelationNames() []string {
	out := make([]string, len(db.order))
	copy(out, db.order)
	return out
}

// ensure returns the relation, creating it with synthetic attribute
// names a0..aN-1 if needed.
func (db *Instance) ensure(name string, arity int) (*Relation, error) {
	if rel, ok := db.relations[name]; ok {
		if rel.Schema().Arity() != arity {
			return nil, fmt.Errorf("storage: relation %s has arity %d, got tuple of arity %d", name, rel.Schema().Arity(), arity)
		}
		return rel, nil
	}
	attrs := make([]string, arity)
	for i := range attrs {
		attrs[i] = fmt.Sprintf("a%d", i)
	}
	rel, err := db.CreateRelation(name, attrs...)
	if err != nil {
		return nil, err
	}
	return rel, nil
}

// Insert adds a ground tuple to the named relation, creating the
// relation if necessary. It reports whether the tuple was new.
func (db *Instance) Insert(name string, tuple ...datalog.Term) (bool, error) {
	rel, err := db.ensure(name, len(tuple))
	if err != nil {
		return false, err
	}
	return rel.Insert(tuple)
}

// InsertAtom adds a ground atom as a tuple.
func (db *Instance) InsertAtom(a datalog.Atom) (bool, error) {
	if !a.IsGround() {
		return false, fmt.Errorf("storage: atom %s is not ground", a)
	}
	return db.Insert(a.Pred, a.Args...)
}

// MustInsert inserts and panics on error; for test and example setup
// where schemas are static.
func (db *Instance) MustInsert(name string, tuple ...datalog.Term) {
	if _, err := db.Insert(name, tuple...); err != nil {
		panic(err)
	}
}

// ContainsAtom reports whether the ground atom is present.
func (db *Instance) ContainsAtom(a datalog.Atom) bool {
	rel := db.relations[a.Pred]
	if rel == nil {
		return false
	}
	return rel.Contains(a.Args)
}

// InsertRow adds a tuple of interned term ids to the named relation,
// creating the relation if necessary. The ids must come from this
// instance's interner; the slice is copied.
func (db *Instance) InsertRow(name string, ids []int32) (bool, error) {
	rel, err := db.ensure(name, len(ids))
	if err != nil {
		return false, err
	}
	return rel.InsertRow(ids)
}

// ContainsRow reports whether the named relation holds the row of
// interned term ids.
func (db *Instance) ContainsRow(name string, ids []int32) bool {
	rel := db.relations[name]
	if rel == nil {
		return false
	}
	return rel.ContainsRow(ids)
}

// DeleteAtom removes the ground atom if present.
func (db *Instance) DeleteAtom(a datalog.Atom) bool {
	rel := db.relations[a.Pred]
	if rel == nil {
		return false
	}
	return rel.Delete(a.Args)
}

// Lens snapshots every relation's row count. Relations only append
// between rebuilds, so the rows of a relation past its count in an
// earlier Lens are exactly the rows inserted since: the semi-naive
// rounds of the chase and eval read their deltas as such windows (see
// PivotPlan.Units).
func (db *Instance) Lens() map[string]int {
	lens := make(map[string]int, len(db.order))
	for _, name := range db.order {
		lens[name] = db.relations[name].Len()
	}
	return lens
}

// TotalTuples returns the number of tuples across all relations.
func (db *Instance) TotalTuples() int {
	n := 0
	for _, rel := range db.relations {
		n += rel.Len()
	}
	return n
}

// Clone returns a deep copy of the instance's data in O(rows): every
// relation is bulk-copied (see Relation.Clone). The term interner is
// shared with the parent — ids stay compatible with plans compiled
// against either — which means a clone and its parent (or two clones)
// must not be mutated from different goroutines without external
// synchronization, even though their tuple data is independent.
func (db *Instance) Clone() *Instance {
	out := &Instance{
		relations: make(map[string]*Relation, len(db.relations)),
		order:     append([]string(nil), db.order...),
		in:        db.in,
	}
	for _, name := range db.order {
		out.relations[name] = db.relations[name].Clone()
	}
	return out
}

// Snapshot returns a frozen, immutable view of the instance that
// shares tuple storage with the live relations. The writer keeps
// appending rows and posting entries into that storage past the
// lengths the snapshot captured, where the snapshot never reads; the
// first mutation of a live relation after a snapshot copies only its
// slot table and key maps, so the snapshot's view never changes (see
// Relation). The snapshot gets a forked interner, so concurrent
// readers of the snapshot never race with a writer interning new
// terms into the live instance. Taking a snapshot is O(relations +
// interned terms), independent of the number of tuples.
//
// Concurrency contract: Snapshot must be called from the (single)
// writer goroutine — or with the writer quiescent — after which the
// snapshot may be read freely from any number of goroutines while the
// writer keeps mutating the live instance.
func (db *Instance) Snapshot() *Instance {
	out := &Instance{
		relations: make(map[string]*Relation, len(db.relations)),
		order:     append([]string(nil), db.order...),
		in:        db.in.Fork(),
		frozen:    true,
	}
	for _, name := range db.order {
		out.relations[name] = db.relations[name].snapshot(out.in)
	}
	return out
}

// Frozen reports whether the instance is an immutable snapshot.
func (db *Instance) Frozen() bool { return db.frozen }

// ExclusiveBytes estimates the memory snapshot db holds that the newer
// snapshot next does not: db's own structures and forked interner,
// plus, per relation, the slot table and key maps a write between the
// two copied, and the rows and posting lists next no longer shares as
// a prefix (after a rebuild, or an append that reallocated the
// row-header array). A nil next prices db's own structures alone — the
// newest snapshot shares all its relations with the live instance
// until the next write.
func (db *Instance) ExclusiveBytes(next *Instance) int64 {
	const instCost = 256 // instance header, relation map and name list
	const relCost = 192  // relation header, map slot and stats copy
	const termCost = 64  // one forked interned term: table slot + map entry
	b := instCost + int64(len(db.order))*relCost + int64(db.in.Len())*termCost
	if next == nil {
		return b
	}
	for _, name := range db.order {
		b += db.relations[name].exclusiveBytes(next.relations[name])
	}
	return b
}

// CloneDetached returns a deep copy with its own forked interner: the
// clone can intern new symbols (invented nulls, derived constants)
// without touching the parent's interner. The chase and eval engines
// use it for their output instances, so their inputs stay completely
// unmodified. Existing ids are preserved, so rows — and plans compiled
// against the clone — remain valid.
func (db *Instance) CloneDetached() *Instance {
	out := db.Clone()
	out.in = db.in.Fork()
	for _, rel := range out.relations {
		rel.in = out.in
	}
	return out
}

// ReplaceTerm rewrites old to new across all relations, returning the
// number of modified tuples. Used for EGD enforcement (null merging).
func (db *Instance) ReplaceTerm(old, new datalog.Term) int {
	return db.ReplaceTerms(map[datalog.Term]datalog.Term{old: new})
}

// ReplaceTerms applies a batch of term rewrites across all relations in
// one pass per relation (one index rebuild each), returning the number
// of modified tuples. The chase uses it to enforce a whole EGD merge
// cascade with a single rebuild.
func (db *Instance) ReplaceTerms(repl map[datalog.Term]datalog.Term) int {
	n := 0
	for _, rel := range db.relations {
		n += rel.ReplaceTerms(repl)
	}
	return n
}

// Merge copies every tuple of src into dst, creating relations as
// needed (attribute names are taken from src when the relation is
// new). It errors on arity conflicts.
func Merge(dst, src *Instance) error {
	for _, name := range src.order {
		if err := dst.CopyRelation(src.relations[name]); err != nil {
			return err
		}
	}
	return nil
}

// CopyRelation inserts every tuple of src into db's relation of the
// same name, creating it under src's attribute names when absent. Rows
// are decoded through src's interner into one reused buffer and
// re-interned into db's, so src may belong to any instance. It errors
// on an arity conflict.
func (db *Instance) CopyRelation(src *Relation) error {
	dst, err := db.CreateRelation(src.Name(), src.schema.Attrs...)
	if err != nil {
		return err
	}
	buf := make([]datalog.Term, 0, src.schema.Arity())
	for _, row := range src.rows {
		if _, err := dst.Insert(src.in.Terms(row, buf[:0])); err != nil {
			return err
		}
	}
	return nil
}

// Diff returns the tuples of db not present in other, as ground atoms,
// across all relations of db.
func (db *Instance) Diff(other *Instance) []datalog.Atom {
	var out []datalog.Atom
	var buf []datalog.Term
	for _, name := range db.order {
		rel := db.relations[name]
		orel := other.relations[name]
		for _, row := range rel.rows {
			buf = rel.in.Terms(row, buf[:0])
			if orel == nil || !orel.Contains(buf) {
				out = append(out, datalog.Atom{Pred: name, Args: datalog.CloneTerms(buf)})
			}
		}
	}
	return out
}

// Equal reports whether both instances hold exactly the same tuples.
func (db *Instance) Equal(other *Instance) bool {
	return len(db.Diff(other)) == 0 && len(other.Diff(db)) == 0
}

// String renders every relation as a formatted table, sorted by
// relation name.
func (db *Instance) String() string {
	names := make([]string, len(db.order))
	copy(names, db.order)
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		b.WriteString(FormatRelation(db.relations[name]))
		b.WriteByte('\n')
	}
	return b.String()
}
