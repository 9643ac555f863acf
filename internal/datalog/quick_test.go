package datalog

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// genTerm draws a random term over a tiny alphabet so collisions (and
// hence interesting unifications) are frequent.
func genTerm(r *rand.Rand) Term {
	names := []string{"a", "b", "c", "x", "y", "z"}
	name := names[r.Intn(len(names))]
	switch r.Intn(3) {
	case 0:
		return C(name)
	case 1:
		return V(name)
	default:
		return N(name)
	}
}

func genAtom(r *rand.Rand, groundOnly bool) Atom {
	preds := []string{"P", "Q"}
	arity := 1 + r.Intn(3)
	args := make([]Term, arity)
	for i := range args {
		t := genTerm(r)
		if groundOnly {
			for t.IsVar() {
				t = genTerm(r)
			}
		}
		args[i] = t
	}
	return Atom{Pred: preds[r.Intn(len(preds))], Args: args}
}

// atomValue adapts genAtom to testing/quick.
type atomValue struct{ A Atom }

func (atomValue) Generate(r *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(atomValue{A: genAtom(r, false)})
}

type groundAtomValue struct{ A Atom }

func (groundAtomValue) Generate(r *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(groundAtomValue{A: genAtom(r, true)})
}

func TestQuickUnifyProducesUnifier(t *testing.T) {
	f := func(av, bv atomValue) bool {
		a, b := av.A, bv.A
		s, ok := Unify(a, b, NewSubst())
		if !ok {
			return true // nothing to check
		}
		return s.ApplyAtom(a).Equal(s.ApplyAtom(b))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestQuickMatchSoundness(t *testing.T) {
	f := func(pv atomValue, fv groundAtomValue) bool {
		pat, fact := pv.A, fv.A
		s, ok := Match(pat, fact, NewSubst())
		if !ok {
			return true
		}
		return s.ApplyAtom(pat).Equal(fact)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestQuickMatchAgreesWithUnifyOnGround(t *testing.T) {
	// Against a ground fact, Match succeeds iff Unify succeeds.
	f := func(pv atomValue, fv groundAtomValue) bool {
		_, okM := Match(pv.A, fv.A, NewSubst())
		_, okU := Unify(pv.A, fv.A, NewSubst())
		return okM == okU
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestQuickConjunctionSubsumptionReflexive(t *testing.T) {
	f := func(av, bv atomValue) bool {
		conj := []Atom{av.A, bv.A}
		return ConjunctionSubsumes(conj, conj)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestQuickSubsumptionImpliesMatchability(t *testing.T) {
	// If a subsumes ground b, then Match(a, b) succeeds.
	f := func(av atomValue, bv groundAtomValue) bool {
		if !ConjunctionSubsumes([]Atom{av.A}, []Atom{bv.A}) {
			return true
		}
		_, ok := Match(av.A, bv.A, NewSubst())
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestQuickComposeSemantics(t *testing.T) {
	// Compose is used to fold match-produced bindings (variables to
	// ground terms) into an accumulated substitution. Unification
	// produces triangular (acyclic) substitutions, so the generator
	// draws s's keys and values from disjoint variable pools; u is
	// ground-valued like a Match result. Under these (real-usage)
	// conditions (s;u)(x) = u(s(x)) holds for every variable.
	f := func(x uint8, tv atomValue) bool {
		r := rand.New(rand.NewSource(int64(x)))
		sKeys := []string{"a", "b", "c"}
		sVals := []Term{V("x"), V("y"), V("z"), C("k1"), C("k2")}
		uKeys := []string{"a", "b", "c", "x", "y", "z"}
		s := NewSubst()
		u := NewSubst()
		for i := 0; i < 3; i++ {
			s.Bind(sKeys[r.Intn(len(sKeys))], sVals[r.Intn(len(sVals))])
			gt := genTerm(r)
			for gt.IsVar() {
				gt = genTerm(r)
			}
			u.Bind(uKeys[r.Intn(len(uKeys))], gt)
		}
		comp := s.Compose(u)
		for _, term := range tv.A.Args {
			if !term.IsVar() {
				continue
			}
			want := u.Apply(s.Apply(term))
			got := comp.Apply(term)
			if got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestQuickAnswerKeyDistinguishes(t *testing.T) {
	f := func(av, bv groundAtomValue) bool {
		a := Answer{Terms: av.A.Args}
		b := Answer{Terms: bv.A.Args}
		sameTerms := len(a.Terms) == len(b.Terms)
		if sameTerms {
			for i := range a.Terms {
				if a.Terms[i] != b.Terms[i] {
					sameTerms = false
					break
				}
			}
		}
		return (a.Key() == b.Key()) == sameTerms
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestQuickAtomKeyRoundTrip(t *testing.T) {
	f := func(av, bv atomValue) bool {
		sameKey := av.A.Key() == bv.A.Key()
		return sameKey == av.A.Equal(bv.A)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestQuickTermCompareTotalOrder(t *testing.T) {
	f := func(x uint8) bool {
		r := rand.New(rand.NewSource(int64(x)))
		a, b, c := genTerm(r), genTerm(r), genTerm(r)
		// Antisymmetry.
		if a.Compare(b) != -b.Compare(a) {
			return false
		}
		// Transitivity (weak check: a<=b<=c => a<=c).
		if a.Compare(b) <= 0 && b.Compare(c) <= 0 && a.Compare(c) > 0 {
			return false
		}
		// Reflexivity.
		return a.Compare(a) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}
