package datalog

// Subst is a substitution: a finite mapping from variables to terms.
// Substitutions are applied with Apply*; bindings always map variable
// names, and the mapped-to term may itself be a variable (renamings).
type Subst map[string]Term

// NewSubst returns an empty substitution.
func NewSubst() Subst { return make(Subst) }

// Bind adds or overwrites a binding v -> t. v must be a variable name.
func (s Subst) Bind(v string, t Term) { s[v] = t }

// Clone returns a copy of the substitution.
func (s Subst) Clone() Subst {
	out := make(Subst, len(s))
	for k, v := range s {
		out[k] = v
	}
	return out
}

// Apply resolves t under s, following chains of variable bindings
// (v -> w -> c resolves to c). Cycles are broken by returning the last
// variable seen; well-formed substitutions produced by unification are
// idempotent after Resolve.
func (s Subst) Apply(t Term) Term {
	for i := 0; i < len(s)+1; i++ {
		if !t.IsVar() {
			return t
		}
		next, ok := s[t.Name]
		if !ok || next == t {
			return t
		}
		t = next
	}
	return t
}

// ApplyAtom applies the substitution to every argument of the atom.
func (s Subst) ApplyAtom(a Atom) Atom {
	out := Atom{Pred: a.Pred, Args: make([]Term, len(a.Args))}
	for i, t := range a.Args {
		out.Args[i] = s.Apply(t)
	}
	return out
}

// ApplyAtoms applies the substitution to a conjunction.
func (s Subst) ApplyAtoms(atoms []Atom) []Atom {
	out := make([]Atom, len(atoms))
	for i, a := range atoms {
		out[i] = s.ApplyAtom(a)
	}
	return out
}

// Compose returns the substitution equivalent to applying s first and
// then t: (s;t)(x) = t(s(x)). Bindings of t for variables untouched by
// s are retained.
func (s Subst) Compose(t Subst) Subst {
	out := make(Subst, len(s)+len(t))
	for v, term := range s {
		out[v] = t.Apply(term)
	}
	for v, term := range t {
		if _, done := out[v]; !done {
			out[v] = term
		}
	}
	return out
}
