package storage

import (
	"strings"
	"testing"

	dl "repro/internal/datalog"
)

// hospitalInstance builds the dimension data of Fig. 1 plus Table I,
// used across the storage tests.
func hospitalInstance(t *testing.T) *Instance {
	t.Helper()
	db := NewInstance()
	if _, err := db.CreateRelation("PatientWard", "Ward", "Day", "Patient"); err != nil {
		t.Fatal(err)
	}
	db.MustInsert("PatientWard", dl.C("W1"), dl.C("Sep/5"), dl.C("Tom Waits"))
	db.MustInsert("PatientWard", dl.C("W2"), dl.C("Sep/6"), dl.C("Tom Waits"))
	db.MustInsert("PatientWard", dl.C("W3"), dl.C("Sep/7"), dl.C("Tom Waits"))
	db.MustInsert("PatientWard", dl.C("W4"), dl.C("Sep/9"), dl.C("Tom Waits"))
	db.MustInsert("UnitWard", dl.C("Standard"), dl.C("W1"))
	db.MustInsert("UnitWard", dl.C("Standard"), dl.C("W2"))
	db.MustInsert("UnitWard", dl.C("Intensive"), dl.C("W3"))
	db.MustInsert("UnitWard", dl.C("Terminal"), dl.C("W4"))
	return db
}

func TestInstanceCreateRelation(t *testing.T) {
	db := NewInstance()
	if _, err := db.CreateRelation("P", "a", "b"); err != nil {
		t.Fatal(err)
	}
	// Same schema is idempotent.
	if _, err := db.CreateRelation("P", "a", "b"); err != nil {
		t.Errorf("idempotent create failed: %v", err)
	}
	// Different arity errors.
	if _, err := db.CreateRelation("P", "a"); err == nil {
		t.Error("conflicting arity must error")
	}
}

func TestInstanceImplicitCreation(t *testing.T) {
	db := NewInstance()
	added, err := db.Insert("Q", dl.C("a"), dl.C("b"))
	if err != nil || !added {
		t.Fatalf("implicit insert: %v %v", added, err)
	}
	rel := db.Relation("Q")
	if rel == nil || rel.Schema().Arity() != 2 {
		t.Fatal("implicit relation not created properly")
	}
	if _, err := db.Insert("Q", dl.C("a")); err == nil {
		t.Error("arity drift must error")
	}
}

func TestInstanceInsertAtomAndContains(t *testing.T) {
	db := NewInstance()
	atom := dl.A("Ward", dl.C("W1"))
	if _, err := db.InsertAtom(atom); err != nil {
		t.Fatal(err)
	}
	if !db.ContainsAtom(atom) {
		t.Error("ContainsAtom must find the inserted atom")
	}
	if db.ContainsAtom(dl.A("Ward", dl.C("W9"))) {
		t.Error("absent atom reported present")
	}
	if db.ContainsAtom(dl.A("Nope", dl.C("W1"))) {
		t.Error("absent relation reported present")
	}
	if _, err := db.InsertAtom(dl.A("Ward", dl.V("x"))); err == nil {
		t.Error("non-ground atom insert must error")
	}
}

func TestInstanceDeleteAtom(t *testing.T) {
	db := hospitalInstance(t)
	a := dl.A("UnitWard", dl.C("Standard"), dl.C("W1"))
	if !db.DeleteAtom(a) {
		t.Error("DeleteAtom must report success")
	}
	if db.ContainsAtom(a) {
		t.Error("atom still present after delete")
	}
	if db.DeleteAtom(dl.A("Missing", dl.C("x"))) {
		t.Error("delete on absent relation must report false")
	}
}

// match runs the conjunction through a read-only compiled plan, the
// way top-down QA and derivation explanations query an instance.
func match(db *Instance, body []dl.Atom, s dl.Subst, fn func(dl.Subst) bool) bool {
	return CompileQueryPlan(db, body).Run(db, s, fn)
}

func TestInstanceMatchAtom(t *testing.T) {
	db := hospitalInstance(t)
	var wards []string
	pat := dl.A("PatientWard", dl.V("w"), dl.V("d"), dl.C("Tom Waits"))
	match(db, []dl.Atom{pat}, dl.NewSubst(), func(s dl.Subst) bool {
		wards = append(wards, s.Apply(dl.V("w")).Name)
		return true
	})
	if len(wards) != 4 {
		t.Fatalf("matches = %v, want 4 wards", wards)
	}
	// Early stop.
	count := 0
	completed := match(db, []dl.Atom{pat}, dl.NewSubst(), func(dl.Subst) bool {
		count++
		return false
	})
	if completed || count != 1 {
		t.Errorf("early stop: completed=%v count=%d", completed, count)
	}
	// Unknown predicate: no matches, completes.
	if !match(db, []dl.Atom{dl.A("Nope", dl.V("x"))}, dl.NewSubst(), func(dl.Subst) bool { return true }) {
		t.Error("unknown predicate must complete with no matches")
	}
}

func TestInstanceMatchConjunction(t *testing.T) {
	db := hospitalInstance(t)
	// Upward navigation join of rule (7): which units hosted Tom Waits?
	body := []dl.Atom{
		dl.A("PatientWard", dl.V("w"), dl.V("d"), dl.C("Tom Waits")),
		dl.A("UnitWard", dl.V("u"), dl.V("w")),
	}
	units := map[string]int{}
	match(db, body, dl.NewSubst(), func(s dl.Subst) bool {
		units[s.Apply(dl.V("u")).Name]++
		return true
	})
	if units["Standard"] != 2 || units["Intensive"] != 1 || units["Terminal"] != 1 {
		t.Errorf("unit matches = %v, want Standard:2 Intensive:1 Terminal:1", units)
	}
}

func TestInstanceMatchConjunctionBindsThrough(t *testing.T) {
	db := hospitalInstance(t)
	s := dl.NewSubst()
	s.Bind("u", dl.C("Standard"))
	body := []dl.Atom{
		dl.A("UnitWard", dl.V("u"), dl.V("w")),
		dl.A("PatientWard", dl.V("w"), dl.V("d"), dl.V("p")),
	}
	n := 0
	match(db, body, s, func(dl.Subst) bool {
		n++
		return true
	})
	if n != 2 { // W1/Sep5 and W2/Sep6
		t.Errorf("matches under pre-binding = %d, want 2", n)
	}
}

func TestInstanceHasMatch(t *testing.T) {
	db := hospitalInstance(t)
	hasMatch := func(body []dl.Atom) bool {
		// Stopping at the first match leaves enumeration incomplete.
		return !match(db, body, dl.NewSubst(), func(dl.Subst) bool { return false })
	}
	if !hasMatch([]dl.Atom{dl.A("UnitWard", dl.C("Intensive"), dl.V("w"))}) {
		t.Error("expected a match")
	}
	if hasMatch([]dl.Atom{dl.A("UnitWard", dl.C("ICU9"), dl.V("w"))}) {
		t.Error("expected no match")
	}
}

func TestInstanceCloneAndEqual(t *testing.T) {
	db := hospitalInstance(t)
	c := db.Clone()
	if !db.Equal(c) {
		t.Fatal("clone must equal original")
	}
	c.MustInsert("UnitWard", dl.C("Standard"), dl.C("W9"))
	if db.Equal(c) {
		t.Error("modified clone must differ")
	}
	diff := c.Diff(db)
	if len(diff) != 1 || diff[0].Pred != "UnitWard" {
		t.Errorf("Diff = %v, want the one extra UnitWard atom", diff)
	}
	if len(db.Diff(c)) != 0 {
		t.Error("db has nothing c lacks")
	}
}

func TestInstanceReplaceTerm(t *testing.T) {
	db := NewInstance()
	null := dl.N("u0")
	db.MustInsert("PatientUnit", null, dl.C("Sep/9"), dl.C("Tom Waits"))
	db.MustInsert("InstitutionUnit", dl.C("H1"), null)
	n := db.ReplaceTerm(null, dl.C("Standard"))
	if n != 2 {
		t.Errorf("ReplaceTerm across relations = %d, want 2", n)
	}
	if !db.ContainsAtom(dl.A("PatientUnit", dl.C("Standard"), dl.C("Sep/9"), dl.C("Tom Waits"))) {
		t.Error("replacement not applied in PatientUnit")
	}
	if !db.ContainsAtom(dl.A("InstitutionUnit", dl.C("H1"), dl.C("Standard"))) {
		t.Error("replacement not applied in InstitutionUnit")
	}
}

func TestInstanceTotalsAndNames(t *testing.T) {
	db := hospitalInstance(t)
	if got := db.TotalTuples(); got != 8 {
		t.Errorf("TotalTuples = %d, want 8", got)
	}
	names := db.RelationNames()
	if len(names) != 2 || names[0] != "PatientWard" || names[1] != "UnitWard" {
		t.Errorf("RelationNames = %v, want creation order", names)
	}
}

func TestFormatRelation(t *testing.T) {
	db := hospitalInstance(t)
	out := FormatRelation(db.Relation("PatientWard"))
	if !strings.HasPrefix(out, "PatientWard\n") {
		t.Errorf("missing title: %q", out)
	}
	for _, want := range []string{"Ward", "Day", "Patient", "W1", "Sep/5", "Tom Waits", "---"} {
		if !strings.Contains(out, want) {
			t.Errorf("FormatRelation missing %q:\n%s", want, out)
		}
	}
	// Alignment: all data rows start with two spaces.
	for i, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if i == 0 {
			continue
		}
		if !strings.HasPrefix(line, "  ") {
			t.Errorf("row %d not indented: %q", i, line)
		}
	}
}

func TestFormatRelationSortedAndNulls(t *testing.T) {
	db := NewInstance()
	db.MustInsert("S", dl.C("b"), dl.N("1"))
	db.MustInsert("S", dl.C("a"), dl.C("x"))
	out := FormatRelationSorted(db.Relation("S"))
	ai := strings.Index(out, "\n  a")
	bi := strings.Index(out, "\n  b")
	if ai == -1 || bi == -1 || ai > bi {
		t.Errorf("sorted output wrong:\n%s", out)
	}
	if !strings.Contains(out, "⊥1") {
		t.Errorf("null must render as ⊥1:\n%s", out)
	}
}

func TestInstanceString(t *testing.T) {
	db := hospitalInstance(t)
	s := db.String()
	if !strings.Contains(s, "PatientWard") || !strings.Contains(s, "UnitWard") {
		t.Errorf("Instance.String missing relations:\n%s", s)
	}
}
