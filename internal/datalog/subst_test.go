package datalog

import "testing"

func TestSubstApplyChains(t *testing.T) {
	s := NewSubst()
	s.Bind("x", V("y"))
	s.Bind("y", C("a"))
	if got := s.Apply(V("x")); got != C("a") {
		t.Errorf("Apply(x) = %v, want a (chain resolution)", got)
	}
	if got := s.Apply(V("z")); got != V("z") {
		t.Errorf("Apply(z) = %v, want z (unbound)", got)
	}
	if got := s.Apply(C("k")); got != C("k") {
		t.Errorf("Apply on constants must be identity, got %v", got)
	}
}

func TestSubstApplyCycleTerminates(t *testing.T) {
	s := NewSubst()
	s.Bind("x", V("y"))
	s.Bind("y", V("x"))
	got := s.Apply(V("x")) // must terminate; result is one of the two vars
	if !got.IsVar() {
		t.Errorf("cycle resolution returned non-var %v", got)
	}
}

func TestSubstApplyAtom(t *testing.T) {
	s := NewSubst()
	s.Bind("w", C("W1"))
	a := s.ApplyAtom(A("PatientWard", V("w"), V("d"), C("Tom")))
	want := A("PatientWard", C("W1"), V("d"), C("Tom"))
	if !a.Equal(want) {
		t.Errorf("ApplyAtom = %v, want %v", a, want)
	}
}

func TestSubstCloneIsolation(t *testing.T) {
	s := NewSubst()
	s.Bind("x", C("a"))
	c := s.Clone()
	c.Bind("x", C("b"))
	if s.Apply(V("x")) != C("a") {
		t.Error("Clone must not alias the original")
	}
}

func TestSubstCompose(t *testing.T) {
	s := NewSubst()
	s.Bind("x", V("y"))
	u := NewSubst()
	u.Bind("y", C("a"))
	u.Bind("z", C("b"))
	comp := s.Compose(u)
	if comp.Apply(V("x")) != C("a") {
		t.Errorf("compose: x -> %v, want a", comp.Apply(V("x")))
	}
	if comp.Apply(V("z")) != C("b") {
		t.Errorf("compose: z -> %v, want b (bindings of second kept)", comp.Apply(V("z")))
	}
}
