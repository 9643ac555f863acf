package datalog

import "slices"

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

// Pieces enumerates the piece unifiers that resolve goal, together
// with the goals of rest it drags along, through the head of ren, a
// TGD renamed apart from them (RenameApart). It is the resolution step
// of both top-down query answering and UCQ rewriting.
//
// goal is unified with each head atom in turn. While the image of an
// existential head variable (a marker: a value the rule invents)
// occurs in a goal of rest, the first such goal joins the piece
// through each head atom it unifies with, since atoms that share an
// invented null come from one firing. An invented null is a new value,
// so a unifier is dropped when it equates an existential variable with
// a constant, a null, another existential or a frontier variable, or
// binds a protected term (the caller's answer and condition variables)
// to a marker.
//
// For each closed piece, yield receives the unifier and the
// resolvent: ren's body followed by the goals of rest outside the
// piece, both under the unifier. Pieces stops and returns false as
// soon as yield does, and returns true when the enumeration ran to
// completion.
func Pieces(goal Atom, rest []Atom, ren *TGD, protect []Term, yield func(sigma Subst, resolvent []Atom) bool) bool {
	ex := ren.ExistentialVars()
	for _, head := range ren.Head {
		if sigma, ok := Unify(goal, head, NewSubst()); ok && !extendPiece(sigma, rest, ren, ex, protect, yield) {
			return false
		}
	}
	return true
}

// extendPiece checks the piece unifier sigma against the existential
// variables ex, then absorbs the first goal of rest that mentions a
// marker, or yields the closed piece.
func extendPiece(sigma Subst, rest []Atom, ren *TGD, ex, protect []Term, yield func(Subst, []Atom) bool) bool {
	markers := make([]Term, len(ex))
	for i, z := range ex {
		if markers[i] = sigma.Apply(z); !markers[i].IsVar() || slices.Contains(markers[:i], markers[i]) {
			return true
		}
	}
	// Unifiers only grow, so a term bound to a marker stays bound to one
	// (or the piece is dropped above): drop the piece as soon as a
	// frontier variable (a head term other than an existential) or a
	// protected term is.
	marked := func(t Term) bool { return slices.Contains(markers, sigma.Apply(t)) }
	for _, h := range ren.Head {
		for _, t := range h.Args {
			if !slices.Contains(ex, t) && marked(t) {
				return true
			}
		}
	}
	if slices.ContainsFunc(protect, marked) {
		return true
	}
	for j, g := range rest {
		if !slices.ContainsFunc(g.Args, marked) {
			continue
		}
		remaining := make([]Atom, 0, len(rest)-1)
		remaining = append(append(remaining, rest[:j]...), rest[j+1:]...)
		g = sigma.ApplyAtom(g)
		for _, head := range ren.Head {
			if s2, ok := Unify(g, sigma.ApplyAtom(head), sigma); ok && !extendPiece(s2, remaining, ren, ex, protect, yield) {
				return false
			}
		}
		return true
	}
	return yield(sigma, append(sigma.ApplyAtoms(ren.Body), sigma.ApplyAtoms(rest)...))
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
	// The search tries the atoms of a in order, so put those with the
	// fewest candidates in b first: an atom with none fails at once, not
	// after every assignment of the atoms before it (bodies with many
	// atoms of one predicate made that exponential). The order changes
	// only the time, not the answer.
	type ranked struct {
		atom  Atom
		cands int // atoms of b it matches alone
	}
	rs := make([]ranked, len(a))
	for i, atom := range a {
		rs[i].atom = atom
		for _, f := range frozen {
			if _, ok := Match(atom, f, nil); ok {
				rs[i].cands++
			}
		}
		if rs[i].cands == 0 {
			return false
		}
	}
	slices.SortStableFunc(rs, func(x, y ranked) int { return x.cands - y.cands })
	sorted := make([]Atom, len(rs))
	for i, r := range rs {
		sorted[i] = r.atom
	}
	return subsume(sorted, frozen, NewSubst())
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
