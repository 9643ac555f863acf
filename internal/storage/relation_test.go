package storage

import (
	"testing"

	dl "repro/internal/datalog"
)

func measurementsRel(t *testing.T) *Relation {
	t.Helper()
	r := NewRelation(Schema{Name: "Measurements", Attrs: []string{"Time", "Patient", "Value"}})
	rows := [][]string{
		{"Sep/5-12:10", "Tom Waits", "38.2"},
		{"Sep/6-11:50", "Tom Waits", "37.1"},
		{"Sep/7-12:15", "Tom Waits", "37.7"},
		{"Sep/9-12:00", "Tom Waits", "37.0"},
		{"Sep/6-11:05", "Lou Reed", "37.5"},
		{"Sep/5-12:05", "Lou Reed", "38.0"},
	}
	for _, row := range rows {
		added, err := r.Insert([]dl.Term{dl.C(row[0]), dl.C(row[1]), dl.C(row[2])})
		if err != nil || !added {
			t.Fatalf("insert %v: added=%v err=%v", row, added, err)
		}
	}
	return r
}

// planCandidates compiles pat as a one-atom read-only plan over r
// (with the variables s binds declared bound and seeded) and returns
// how many rows the executor will walk: the smallest index bucket
// among the ground positions, or every row when none is ground.
func planCandidates(r *Relation, pat dl.Atom, s dl.Subst) int {
	db := &Instance{relations: map[string]*Relation{r.Name(): r}, order: []string{r.Name()}, in: r.in}
	var bound []dl.Term
	for _, v := range dl.VarsOfAtoms([]dl.Atom{pat}) {
		if s.Apply(v) != v {
			bound = append(bound, v)
		}
	}
	p := CompileQueryPlan(db, []dl.Atom{pat}, bound...)
	regs := p.NewRegs()
	for _, v := range bound {
		regs[p.Slot(v)], _ = r.in.Lookup(s.Apply(v))
	}
	bucket, ok := p.candidates(r, &p.atoms[0], regs)
	if !ok {
		return r.Len()
	}
	return len(bucket)
}

func TestRelationInsertDedup(t *testing.T) {
	r := measurementsRel(t)
	if r.Len() != 6 {
		t.Fatalf("Len = %d, want 6 (Table I)", r.Len())
	}
	added, err := r.Insert([]dl.Term{dl.C("Sep/5-12:10"), dl.C("Tom Waits"), dl.C("38.2")})
	if err != nil {
		t.Fatal(err)
	}
	if added {
		t.Error("duplicate tuple must not be added")
	}
	if r.Len() != 6 {
		t.Errorf("Len after dup insert = %d, want 6", r.Len())
	}
}

func TestRelationInsertErrors(t *testing.T) {
	r := NewRelation(Schema{Name: "P", Attrs: []string{"a", "b"}})
	if _, err := r.Insert([]dl.Term{dl.C("x")}); err == nil {
		t.Error("arity mismatch must error")
	}
	if _, err := r.Insert([]dl.Term{dl.C("x"), dl.V("v")}); err == nil {
		t.Error("variable in tuple must error")
	}
	// Nulls are ground and allowed.
	if _, err := r.Insert([]dl.Term{dl.C("x"), dl.N("1")}); err != nil {
		t.Errorf("null insert must succeed: %v", err)
	}
}

func TestRelationContainsAndDelete(t *testing.T) {
	r := measurementsRel(t)
	tom := []dl.Term{dl.C("Sep/5-12:10"), dl.C("Tom Waits"), dl.C("38.2")}
	if !r.Contains(tom) {
		t.Error("Contains must find inserted tuple")
	}
	if !r.Delete(tom) {
		t.Error("Delete must report success")
	}
	if r.Contains(tom) {
		t.Error("tuple must be gone after Delete")
	}
	if r.Delete(tom) {
		t.Error("second Delete must report false")
	}
	if r.Len() != 5 {
		t.Errorf("Len = %d, want 5", r.Len())
	}
	// Index must still work after delete-triggered rebuild.
	pat := dl.A("Measurements", dl.V("t"), dl.C("Lou Reed"), dl.V("v"))
	if found := planCandidates(r, pat, dl.NewSubst()); found != 2 {
		t.Errorf("index candidates for Lou Reed = %d, want 2", found)
	}
}

func TestRelationReplaceTerm(t *testing.T) {
	r := NewRelation(Schema{Name: "Shifts", Attrs: []string{"Ward", "Day", "Nurse", "Shift"}})
	null := dl.N("z0")
	mustIns := func(ts ...dl.Term) {
		if _, err := r.Insert(ts); err != nil {
			t.Fatal(err)
		}
	}
	mustIns(dl.C("W1"), dl.C("Sep/9"), dl.C("Mark"), null)
	mustIns(dl.C("W2"), dl.C("Sep/9"), dl.C("Mark"), null)
	mustIns(dl.C("W4"), dl.C("Sep/5"), dl.C("Cathy"), dl.C("night"))
	n := r.ReplaceTerm(null, dl.C("morning"))
	if n != 2 {
		t.Errorf("ReplaceTerm modified %d tuples, want 2", n)
	}
	if !r.Contains([]dl.Term{dl.C("W1"), dl.C("Sep/9"), dl.C("Mark"), dl.C("morning")}) {
		t.Error("replacement missing")
	}
	if r.Contains([]dl.Term{dl.C("W1"), dl.C("Sep/9"), dl.C("Mark"), null}) {
		t.Error("old tuple still present")
	}
	if got := r.ReplaceTerm(dl.N("unused"), dl.C("x")); got != 0 {
		t.Errorf("replacing absent term modified %d tuples", got)
	}
}

func TestRelationReplaceTermMergesDuplicates(t *testing.T) {
	r := NewRelation(Schema{Name: "P", Attrs: []string{"a"}})
	if _, err := r.Insert([]dl.Term{dl.N("1")}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Insert([]dl.Term{dl.C("a")}); err != nil {
		t.Fatal(err)
	}
	r.ReplaceTerm(dl.N("1"), dl.C("a"))
	if r.Len() != 1 {
		t.Errorf("Len after merging replacement = %d, want 1 (dedup)", r.Len())
	}
}

func TestRelationCloneIndependence(t *testing.T) {
	r := measurementsRel(t)
	c := r.Clone()
	if c.Len() != r.Len() {
		t.Fatalf("clone Len = %d, want %d", c.Len(), r.Len())
	}
	if _, err := c.Insert([]dl.Term{dl.C("x"), dl.C("y"), dl.C("z")}); err != nil {
		t.Fatal(err)
	}
	if r.Len() == c.Len() {
		t.Error("insert into clone must not affect original")
	}
}

func TestRelationSortedTuples(t *testing.T) {
	r := measurementsRel(t)
	sorted := r.SortedTuples()
	for i := 1; i < len(sorted); i++ {
		prev, cur := sorted[i-1], sorted[i]
		cmp := 0
		for k := 0; k < len(prev) && cmp == 0; k++ {
			cmp = prev[k].Compare(cur[k])
		}
		if cmp > 0 {
			t.Fatalf("SortedTuples out of order at %d: %v > %v", i, prev, cur)
		}
	}
	// Original order untouched.
	if r.Tuples()[0][0] != dl.C("Sep/5-12:10") {
		t.Error("SortedTuples must not reorder the relation")
	}
}

func TestMatchCandidatesUsesSmallestBucket(t *testing.T) {
	r := measurementsRel(t)
	// Patient = Lou Reed has 2 tuples; with no constants, all 6.
	pat := dl.A("Measurements", dl.V("t"), dl.C("Lou Reed"), dl.V("v"))
	if got := planCandidates(r, pat, dl.NewSubst()); got != 2 {
		t.Errorf("candidates = %d, want 2 (index on Patient)", got)
	}
	open := dl.A("Measurements", dl.V("t"), dl.V("p"), dl.V("v"))
	if got := planCandidates(r, open, dl.NewSubst()); got != 6 {
		t.Errorf("candidates = %d, want 6 (full scan)", got)
	}
	// Bound variable in substitution counts as ground.
	s := dl.NewSubst()
	s.Bind("p", dl.C("Tom Waits"))
	if got := planCandidates(r, open, s); got != 4 {
		t.Errorf("candidates = %d, want 4 (index via binding)", got)
	}
}

func TestSchemaString(t *testing.T) {
	s := Schema{Name: "P", Attrs: []string{"a", "b"}}
	if s.String() != "P(a, b)" {
		t.Errorf("Schema.String = %q", s.String())
	}
	if s.Arity() != 2 {
		t.Errorf("Arity = %d", s.Arity())
	}
}

// TestSortedRowsBreaksNumericTiesByName pins the output order of
// distinct constants that compare numerically equal: "37" and "37.0"
// must come out in one order whichever was inserted first.
func TestSortedRowsBreaksNumericTiesByName(t *testing.T) {
	orders := [][]string{{"37", "37.0"}, {"37.0", "37"}}
	var got [][]string
	for _, order := range orders {
		r := NewRelation(Schema{Name: "R", Attrs: []string{"a", "b"}})
		for _, v := range order {
			if _, err := r.Insert([]dl.Term{dl.C("x"), dl.C(v)}); err != nil {
				t.Fatal(err)
			}
		}
		var vals []string
		for _, tup := range r.SortedTuples() {
			vals = append(vals, tup[1].Name)
		}
		got = append(got, vals)
	}
	want := []string{"37", "37.0"}
	for i, vals := range got {
		if len(vals) != 2 || vals[0] != want[0] || vals[1] != want[1] {
			t.Fatalf("insertion order %v sorted to %v, want %v", orders[i], vals, want)
		}
	}
}

// TestSortedView covers the frozen, sorted view a quality version is
// exposed as: it renames the attributes, holds the rows in SortedRows
// order, shares the source's interner and row cells, keeps its
// indexes consistent with the new order, and rejects mutation and
// live sources.
func TestSortedView(t *testing.T) {
	db := NewInstance()
	if _, err := db.CreateRelation("Measurements", "a0", "a1", "a2"); err != nil {
		t.Fatal(err)
	}
	for _, tup := range measurementsRel(t).Tuples() {
		db.MustInsert("Measurements", tup...)
	}
	live := db.Relation("Measurements")
	schema := Schema{Name: "Measurements", Attrs: []string{"Time", "Patient", "Value"}}
	if _, err := live.SortedView(schema); err == nil {
		t.Fatal("a sorted view of a live relation must fail")
	}
	src := db.Snapshot().Relation("Measurements")
	if _, err := src.SortedView(Schema{Name: "M", Attrs: []string{"Time"}}); err == nil {
		t.Fatal("a sorted view under a schema of another arity must fail")
	}
	v, err := src.SortedView(schema)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Frozen() || v.Interner() != src.Interner() {
		t.Fatalf("view frozen=%v, shares interner=%v", v.Frozen(), v.Interner() == src.Interner())
	}
	if v.Schema().String() != schema.String() {
		t.Fatalf("view schema %s, want %s", v.Schema(), schema)
	}
	sorted := src.SortedRows()
	if v.Len() != len(sorted) {
		t.Fatalf("view has %d rows, want %d", v.Len(), len(sorted))
	}
	cells := map[*int32]bool{}
	for _, row := range src.Rows() {
		cells[&row[0]] = true
	}
	for i, row := range v.Rows() {
		if &row[0] != &sorted[i][0] || !cells[&row[0]] {
			t.Fatalf("view row %d is not the source's row cell in sorted position", i)
		}
	}
	// Lookups and index probes see the new row order.
	for _, tup := range src.Tuples() {
		if !v.Contains(tup) {
			t.Fatalf("view misses %v", tup)
		}
	}
	pat := dl.A("Measurements", dl.V("t"), dl.C("Lou Reed"), dl.V("v"))
	if got := planCandidates(v, pat, dl.NewSubst()); got != 2 {
		t.Fatalf("index probe on the view walks %d rows, want 2", got)
	}
	if _, err := v.Insert([]dl.Term{dl.C("t"), dl.C("p"), dl.C("1")}); err == nil {
		t.Fatal("insert into a sorted view must fail")
	}
	empty := NewFrozenRelation(schema)
	if _, err := empty.Insert([]dl.Term{dl.C("t"), dl.C("p"), dl.C("1")}); err == nil || empty.Len() != 0 {
		t.Fatal("insert into an empty frozen relation must fail")
	}
}
