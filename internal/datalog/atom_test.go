package datalog

import (
	"testing"
)

func TestAtomBasics(t *testing.T) {
	a := A("PatientWard", V("w"), V("d"), C("Tom Waits"))
	if a.Arity() != 3 {
		t.Errorf("arity = %d, want 3", a.Arity())
	}
	if a.IsGround() {
		t.Error("atom with variables must not be ground")
	}
	g := A("Ward", C("W1"))
	if !g.IsGround() {
		t.Error("ground atom reported non-ground")
	}
	if got, want := a.String(), `PatientWard(w, d, "Tom Waits")`; got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}

func TestAtomHasNull(t *testing.T) {
	if A("P", C("a")).HasNull() {
		t.Error("no null expected")
	}
	if !A("P", C("a"), N("1")).HasNull() {
		t.Error("null expected")
	}
}

func TestAtomEqualAndKey(t *testing.T) {
	a := A("P", C("a"), V("x"))
	b := A("P", C("a"), V("x"))
	c := A("P", C("a"), C("x")) // same names, different kinds
	if !a.Equal(b) {
		t.Error("identical atoms must be Equal")
	}
	if a.Equal(c) {
		t.Error("atoms differing in term kind must not be Equal")
	}
	if a.Key() == c.Key() {
		t.Error("keys must distinguish term kinds")
	}
	if a.Key() != b.Key() {
		t.Error("keys of equal atoms must match")
	}
}

func TestAtomKeyInjectiveOnSeparators(t *testing.T) {
	// "ab","c" vs "a","bc" must not collide.
	a := A("P", C("ab"), C("c"))
	b := A("P", C("a"), C("bc"))
	if a.Key() == b.Key() {
		t.Errorf("key collision: %q", a.Key())
	}
}

func TestAtomVars(t *testing.T) {
	a := A("P", V("x"), C("c"), V("y"), V("x"))
	vars := a.Vars()
	if len(vars) != 2 || vars[0] != V("x") || vars[1] != V("y") {
		t.Errorf("Vars = %v, want [x y]", vars)
	}
}

func TestAtomCloneIndependence(t *testing.T) {
	a := A("P", V("x"))
	b := a.Clone()
	b.Args[0] = C("mutated")
	if a.Args[0] != V("x") {
		t.Error("Clone must not share argument storage")
	}
}

func TestVarsOfAtoms(t *testing.T) {
	atoms := []Atom{
		A("P", V("x"), V("y")),
		A("Q", V("y"), V("z"), C("k")),
	}
	vars := VarsOfAtoms(atoms)
	want := []Term{V("x"), V("y"), V("z")}
	if len(vars) != len(want) {
		t.Fatalf("VarsOfAtoms = %v, want %v", vars, want)
	}
	for i := range want {
		if vars[i] != want[i] {
			t.Errorf("VarsOfAtoms[%d] = %v, want %v", i, vars[i], want[i])
		}
	}
}

func TestLiteralString(t *testing.T) {
	l := Neg(A("Unit", V("u")))
	if got, want := l.String(), "not Unit(u)"; got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
	p := Pos(A("Unit", V("u")))
	if got, want := p.String(), "Unit(u)"; got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}

func TestPositions(t *testing.T) {
	if got := (Position{"P", 0}).String(); got != "P[0]" {
		t.Errorf("Position.String = %q", got)
	}
	unsorted := []Position{{"Q", 1}, {"P", 1}, {"P", 0}}
	SortPositions(unsorted)
	want := []Position{{"P", 0}, {"P", 1}, {"Q", 1}}
	for i := range want {
		if unsorted[i] != want[i] {
			t.Fatalf("SortPositions = %v, want %v", unsorted, want)
		}
	}
}

func TestAtomsString(t *testing.T) {
	got := AtomsString([]Atom{A("P", V("x")), A("Q", C("a"))})
	if got != "P(x), Q(a)" {
		t.Errorf("AtomsString = %q", got)
	}
}
