package datalog

import (
	"fmt"
	"sort"
	"strings"
)

// Atom is a predicate applied to a list of terms, e.g.
// PatientWard(w, d, p) or UnitWard("Standard", w).
type Atom struct {
	Pred string
	Args []Term
}

// A builds an atom.
func A(pred string, args ...Term) Atom { return Atom{Pred: pred, Args: args} }

// Arity returns the number of arguments.
func (a Atom) Arity() int { return len(a.Args) }

// String renders the atom as Pred(t1, ..., tn).
func (a Atom) String() string {
	return a.Pred + "(" + TermsString(a.Args) + ")"
}

// source renders the atom as .mdq source text (see Term.sourceString).
func (a Atom) source() string {
	args := make([]string, len(a.Args))
	for i, t := range a.Args {
		args[i] = t.sourceString()
	}
	return a.Pred + "(" + strings.Join(args, ", ") + ")"
}

// IsGround reports whether the atom contains no variables.
func (a Atom) IsGround() bool {
	for _, t := range a.Args {
		if t.IsVar() {
			return false
		}
	}
	return true
}

// HasNull reports whether any argument is a labeled null.
func (a Atom) HasNull() bool {
	for _, t := range a.Args {
		if t.IsNull() {
			return true
		}
	}
	return false
}

// Clone returns a deep copy of the atom.
func (a Atom) Clone() Atom {
	return Atom{Pred: a.Pred, Args: CloneTerms(a.Args)}
}

// Equal reports syntactic equality.
func (a Atom) Equal(b Atom) bool {
	if a.Pred != b.Pred || len(a.Args) != len(b.Args) {
		return false
	}
	for i := range a.Args {
		if a.Args[i] != b.Args[i] {
			return false
		}
	}
	return true
}

// Key returns a canonical string key for a ground atom, used for
// deduplication. Variables are rendered too, so the key is usable for
// memoization of non-ground goals as well.
func (a Atom) Key() string {
	var b strings.Builder
	b.WriteString(a.Pred)
	b.WriteByte('(')
	for i, t := range a.Args {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteByte(byte('0' + t.Kind))
		b.WriteString(t.Name)
	}
	b.WriteByte(')')
	return b.String()
}

// Vars returns the distinct variables of the atom in order of first
// occurrence.
func (a Atom) Vars() []Term {
	var out []Term
	seen := map[Term]bool{}
	for _, t := range a.Args {
		if t.IsVar() && !seen[t] {
			seen[t] = true
			out = append(out, t)
		}
	}
	return out
}

// Literal is an atom with a sign. Negative literals appear only in the
// bodies of negative constraints (the paper's referential constraint
// form (1) uses ¬K(e)) and of quality-predicate rules, where they are
// evaluated under closed-world assumption against extensional data.
type Literal struct {
	Atom    Atom
	Negated bool
}

// Pos returns a positive literal.
func Pos(a Atom) Literal { return Literal{Atom: a} }

// Neg returns a negated literal.
func Neg(a Atom) Literal { return Literal{Atom: a, Negated: true} }

// String renders the literal, prefixing negated atoms with "not ".
func (l Literal) String() string {
	if l.Negated {
		return "not " + l.Atom.String()
	}
	return l.Atom.String()
}

// VarsOfAtoms returns the distinct variables of a conjunction in order
// of first occurrence.
func VarsOfAtoms(atoms []Atom) []Term {
	var out []Term
	seen := map[Term]bool{}
	for _, a := range atoms {
		for _, t := range a.Args {
			if t.IsVar() && !seen[t] {
				seen[t] = true
				out = append(out, t)
			}
		}
	}
	return out
}

// AtomsString renders a conjunction as "a1, a2, ...".
func AtomsString(atoms []Atom) string {
	parts := make([]string, len(atoms))
	for i, a := range atoms {
		parts[i] = a.String()
	}
	return strings.Join(parts, ", ")
}

// CloneAtoms deep-copies a conjunction.
func CloneAtoms(atoms []Atom) []Atom {
	out := make([]Atom, len(atoms))
	for i, a := range atoms {
		out[i] = a.Clone()
	}
	return out
}

// Position identifies an argument position of a predicate, written
// pred[i] in the Datalog± literature (0-based here).
type Position struct {
	Pred  string
	Index int
}

// String renders the position as pred[i].
func (p Position) String() string { return fmt.Sprintf("%s[%d]", p.Pred, p.Index) }

// SortPositions orders positions lexicographically (predicate, index);
// convenient for deterministic output in tests and tools.
func SortPositions(ps []Position) {
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].Pred != ps[j].Pred {
			return ps[i].Pred < ps[j].Pred
		}
		return ps[i].Index < ps[j].Index
	})
}

// PositionsOf enumerates every position of atom a.
func PositionsOf(a Atom) []Position {
	out := make([]Position, len(a.Args))
	for i := range a.Args {
		out[i] = Position{Pred: a.Pred, Index: i}
	}
	return out
}
