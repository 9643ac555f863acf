package datalog

import (
	"testing"
	"testing/quick"
)

func TestMatchBindsVariables(t *testing.T) {
	pat := A("PatientWard", V("w"), V("d"), V("p"))
	fact := A("PatientWard", C("W1"), C("Sep/5"), C("Tom Waits"))
	s, ok := Match(pat, fact, NewSubst())
	if !ok {
		t.Fatal("match failed")
	}
	if s.Apply(V("w")) != C("W1") || s.Apply(V("d")) != C("Sep/5") || s.Apply(V("p")) != C("Tom Waits") {
		t.Errorf("bindings wrong: %v", s)
	}
}

func TestMatchRespectsExistingBindings(t *testing.T) {
	pat := A("P", V("x"), V("x"))
	if _, ok := Match(pat, A("P", C("a"), C("b")), NewSubst()); ok {
		t.Error("repeated variable must not match distinct constants")
	}
	if s, ok := Match(pat, A("P", C("a"), C("a")), NewSubst()); !ok || s.Apply(V("x")) != C("a") {
		t.Error("repeated variable must match equal constants")
	}
}

func TestMatchConstMismatch(t *testing.T) {
	if _, ok := Match(A("P", C("a")), A("P", C("b")), NewSubst()); ok {
		t.Error("distinct constants must not match")
	}
	if _, ok := Match(A("P", C("a")), A("Q", C("a")), NewSubst()); ok {
		t.Error("distinct predicates must not match")
	}
	if _, ok := Match(A("P", C("a")), A("P", C("a"), C("b")), NewSubst()); ok {
		t.Error("distinct arities must not match")
	}
}

func TestMatchTreatsNullsAsConstants(t *testing.T) {
	if _, ok := Match(A("P", N("1")), A("P", C("a")), NewSubst()); ok {
		t.Error("null must not match a distinct constant")
	}
	if _, ok := Match(A("P", N("1")), A("P", N("1")), NewSubst()); !ok {
		t.Error("identical nulls must match")
	}
	s, ok := Match(A("P", V("x")), A("P", N("1")), NewSubst())
	if !ok || s.Apply(V("x")) != N("1") {
		t.Error("variable must bind to a null")
	}
}

func TestMatchDoesNotMutateInput(t *testing.T) {
	s := NewSubst()
	s.Bind("y", C("keep"))
	_, ok := Match(A("P", V("x")), A("P", C("a")), s)
	if !ok {
		t.Fatal("match failed")
	}
	if _, bound := s["x"]; bound {
		t.Error("Match must not mutate the input substitution")
	}
}

func TestUnifyVarVar(t *testing.T) {
	s, ok := Unify(A("P", V("x"), C("a")), A("P", V("y"), V("y")), NewSubst())
	if !ok {
		t.Fatal("unify failed")
	}
	// After unification both x and y resolve to a.
	if s.Apply(V("x")) != C("a") || s.Apply(V("y")) != C("a") {
		t.Errorf("unify result wrong: %v", s)
	}
}

func TestUnifyOccursFree(t *testing.T) {
	// First-order terms are flat, so no occurs-check subtleties: x
	// unifies with y, then y with constant.
	s, ok := Unify(A("P", V("x"), V("x")), A("P", V("y"), C("c")), NewSubst())
	if !ok {
		t.Fatal("unify failed")
	}
	if s.Apply(V("x")) != C("c") || s.Apply(V("y")) != C("c") {
		t.Errorf("bindings wrong: x=%v y=%v", s.Apply(V("x")), s.Apply(V("y")))
	}
}

func TestUnifyFailure(t *testing.T) {
	if _, ok := Unify(A("P", C("a")), A("P", C("b")), NewSubst()); ok {
		t.Error("constants a/b must not unify")
	}
	if _, ok := Unify(A("P", N("1")), A("P", C("a")), NewSubst()); ok {
		t.Error("null and constant must not unify")
	}
}

func TestUnifySymmetricOnSuccess(t *testing.T) {
	f := func(aConst, bConst bool) bool {
		mk := func(isConst bool, name string) Term {
			if isConst {
				return C(name)
			}
			return V(name)
		}
		a := A("P", mk(aConst, "t1"))
		b := A("P", mk(bConst, "t2"))
		_, ok1 := Unify(a, b, NewSubst())
		_, ok2 := Unify(b, a, NewSubst())
		return ok1 == ok2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRenameApart(t *testing.T) {
	tgd := NewTGD("r", []Atom{A("H", V("x"), V("z"))}, []Atom{A("B", V("x"), V("y"))})
	fresh := NewCounter("v")
	r := RenameApart(tgd, fresh)
	for _, v := range r.Vars() {
		if v == V("x") || v == V("y") || v == V("z") {
			t.Errorf("variable %v not renamed", v)
		}
	}
	// Structure preserved: body var at position 0 of head and body match.
	if r.Head[0].Args[0] != r.Body[0].Args[0] {
		t.Error("renaming must preserve variable sharing")
	}
	if r.Head[0].Args[1] == r.Body[0].Args[1] {
		t.Error("distinct variables must stay distinct")
	}
}

// TestAtomSubsumes checks subsumption between single atoms, the
// one-atom case of ConjunctionSubsumes.
func TestAtomSubsumes(t *testing.T) {
	subsumes := func(a, b Atom) bool { return ConjunctionSubsumes([]Atom{a}, []Atom{b}) }
	if !subsumes(A("P", V("x"), V("y")), A("P", C("a"), C("b"))) {
		t.Error("P(x,y) subsumes P(a,b)")
	}
	if subsumes(A("P", V("x"), V("x")), A("P", C("a"), C("b"))) {
		t.Error("P(x,x) must not subsume P(a,b)")
	}
	if !subsumes(A("P", V("x"), V("x")), A("P", C("a"), C("a"))) {
		t.Error("P(x,x) subsumes P(a,a)")
	}
	if subsumes(A("P", C("a")), A("P", V("x"))) {
		t.Error("ground atom must not subsume a more general one")
	}
}

func TestConjunctionSubsumes(t *testing.T) {
	// Q1: P(x,y) subsumes Q2: P(x,y), R(y) — fewer constraints.
	q1 := []Atom{A("P", V("x"), V("y"))}
	q2 := []Atom{A("P", V("u"), V("v")), A("R", V("v"))}
	if !ConjunctionSubsumes(q1, q2) {
		t.Error("more general CQ must subsume the specialization")
	}
	if ConjunctionSubsumes(q2, q1) {
		t.Error("specialized CQ must not subsume the general one")
	}
}

func TestConjunctionSubsumesSharedNames(t *testing.T) {
	// Shared variable names across the two CQs must not confuse the
	// test: target vars are frozen.
	a := []Atom{A("P", V("x"), C("k"))}
	b := []Atom{A("P", V("x"), V("y"))}
	if ConjunctionSubsumes(a, b) {
		t.Error("P(x,k) must not subsume P(x,y): frozen y cannot equal k")
	}
	if !ConjunctionSubsumes(b, a) {
		t.Error("P(x,y) subsumes P(x,k)")
	}
}

func TestConjunctionSubsumesRepeatedVars(t *testing.T) {
	a := []Atom{A("P", V("x"), V("x"))}
	b := []Atom{A("P", V("y"), V("y"))}
	if !ConjunctionSubsumes(a, b) {
		t.Error("P(x,x) subsumes P(y,y)")
	}
	c := []Atom{A("P", V("y"), V("z"))}
	if ConjunctionSubsumes(a, c) {
		t.Error("P(x,x) must not subsume P(y,z)")
	}
}
