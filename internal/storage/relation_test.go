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
