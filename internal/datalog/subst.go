package datalog

import (
	"sort"
	"strings"
)

// Subst is a substitution: a finite mapping from variables to terms.
// Substitutions are applied with Apply*; bindings always map variable
// names, and the mapped-to term may itself be a variable (renamings).
type Subst map[string]Term

// NewSubst returns an empty substitution.
func NewSubst() Subst { return make(Subst) }

// Bind adds or overwrites a binding v -> t. v must be a variable name.
func (s Subst) Bind(v string, t Term) { s[v] = t }

// Lookup returns the binding of variable name v.
func (s Subst) Lookup(v string) (Term, bool) {
	t, ok := s[v]
	return t, ok
}

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

// Restrict returns s limited to the given variables.
func (s Subst) Restrict(vars []Term) Subst {
	out := NewSubst()
	for _, v := range vars {
		if !v.IsVar() {
			continue
		}
		if t, ok := s[v.Name]; ok {
			out[v.Name] = t
		}
	}
	return out
}

// IsGroundOn reports whether every variable in vars is bound to a
// ground term (constant or null) after resolution.
func (s Subst) IsGroundOn(vars []Term) bool {
	for _, v := range vars {
		if !v.IsVar() {
			continue
		}
		if !s.Apply(v).IsGround() {
			return false
		}
	}
	return true
}

// Key returns a canonical string for the substitution restricted to the
// given variables, usable as a map key for answer deduplication.
func (s Subst) Key(vars []Term) string {
	var b strings.Builder
	for _, v := range vars {
		t := s.Apply(v)
		b.WriteByte(byte('0' + t.Kind))
		b.WriteString(t.Name)
		b.WriteByte('|')
	}
	return b.String()
}

// String renders the substitution deterministically as {x->a, y->b}.
func (s Subst) String() string {
	keys := make([]string, 0, len(s))
	for k := range s {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(k)
		b.WriteString("->")
		b.WriteString(s[k].String())
	}
	b.WriteByte('}')
	return b.String()
}
