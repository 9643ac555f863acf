package datalog

// Match extends the substitution s so that pattern, under s, becomes
// exactly fact. fact must be variable-free (it may contain nulls, which
// behave as constants). It returns the extended substitution and true on
// success; s itself is never modified.
//
// Match is the homomorphism step used by the chase and by bottom-up
// evaluation: variables of the pattern may map to constants or nulls of
// the fact.
func Match(pattern, fact Atom, s Subst) (Subst, bool) {
	if pattern.Pred != fact.Pred || len(pattern.Args) != len(fact.Args) {
		return nil, false
	}
	out := s
	copied := false
	for i, pt := range pattern.Args {
		ft := fact.Args[i]
		pt = out.Apply(pt)
		switch {
		case pt.IsVar():
			if !copied {
				out = out.Clone()
				copied = true
			}
			out.Bind(pt.Name, ft)
		case pt != ft:
			return nil, false
		}
	}
	if !copied {
		out = out.Clone()
	}
	return out, true
}

// Unify computes a most general unifier of atoms a and b, treating
// variables in both as unifiable. Constants and nulls unify only with
// themselves. It returns the mgu extending s, or false.
func Unify(a, b Atom, s Subst) (Subst, bool) {
	if a.Pred != b.Pred || len(a.Args) != len(b.Args) {
		return nil, false
	}
	out := s.Clone()
	for i := range a.Args {
		if !unifyTerms(a.Args[i], b.Args[i], out) {
			return nil, false
		}
	}
	return out, true
}

// unifyTerms unifies two terms destructively into s.
func unifyTerms(x, y Term, s Subst) bool {
	x = s.Apply(x)
	y = s.Apply(y)
	switch {
	case x == y:
		return true
	case x.IsVar():
		s.Bind(x.Name, y)
		return true
	case y.IsVar():
		s.Bind(y.Name, x)
		return true
	default:
		return false
	}
}

// RenameApart returns a copy of the TGD with every variable renamed to a
// fresh one from the counter, so that the result shares no variables
// with any other formula. Used by top-down resolution and rewriting.
func RenameApart(t *TGD, fresh *Counter) *TGD {
	ren := NewSubst()
	for _, v := range t.Vars() {
		ren.Bind(v.Name, fresh.FreshVar())
	}
	return &TGD{
		ID:   t.ID,
		Body: ren.ApplyAtoms(t.Body),
		Head: ren.ApplyAtoms(t.Head),
	}
}

// ConjunctionSubsumes reports whether conjunction a subsumes conjunction
// b: a single substitution θ maps every atom of a to some atom of b
// (θ-subsumption, the standard CQ containment check used for pruning
// rewritings). The variables of b are frozen — treated as fresh
// constants — so the test is correct even when a and b share variable
// names.
func ConjunctionSubsumes(a, b []Atom) bool {
	frozen := make([]Atom, len(b))
	for i, atom := range b {
		fa := Atom{Pred: atom.Pred, Args: make([]Term, len(atom.Args))}
		for j, t := range atom.Args {
			if t.IsVar() {
				fa.Args[j] = N("frozen·" + t.Name)
			} else {
				fa.Args[j] = t
			}
		}
		frozen[i] = fa
	}
	return subsume(a, frozen, NewSubst())
}

func subsume(rest []Atom, b []Atom, s Subst) bool {
	if len(rest) == 0 {
		return true
	}
	first := s.ApplyAtom(rest[0])
	for _, cand := range b {
		if s2, ok := Match(first, cand, s); ok {
			if subsume(rest[1:], b, s2) {
				return true
			}
		}
	}
	return false
}
