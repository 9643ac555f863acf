// Package datalog implements the core Datalog± language used by the
// multidimensional ontologies of Milani, Bertossi and Ariyan (ICDE 2014):
// terms, atoms, tuple-generating dependencies (TGDs) with existential
// heads, equality-generating dependencies (EGDs), negative constraints,
// substitutions and unification.
//
// The package is purely syntactic: evaluation lives in the chase, qa and
// rewrite packages, and extensional data lives in the storage package.
package datalog

import (
	"fmt"
	"strconv"
	"strings"
)

// TermKind discriminates the three kinds of terms in Datalog±.
type TermKind uint8

const (
	// KindConst is a constant from the underlying domain.
	KindConst TermKind = iota
	// KindVar is a variable (universally or existentially quantified,
	// depending on the enclosing rule).
	KindVar
	// KindNull is a labeled null, invented by the chase for existential
	// variables. Nulls behave like constants during matching (two nulls
	// are equal iff they have the same label) but are not returned in
	// certain answers.
	KindNull
)

// Term is a constant, variable or labeled null. Terms are small immutable
// values and are comparable, so they can be used as map keys.
type Term struct {
	Kind TermKind
	Name string
}

// C returns a constant term.
func C(name string) Term { return Term{Kind: KindConst, Name: name} }

// V returns a variable term.
func V(name string) Term { return Term{Kind: KindVar, Name: name} }

// N returns a labeled null term.
func N(label string) Term { return Term{Kind: KindNull, Name: label} }

// IsConst reports whether t is a constant.
func (t Term) IsConst() bool { return t.Kind == KindConst }

// IsVar reports whether t is a variable.
func (t Term) IsVar() bool { return t.Kind == KindVar }

// IsNull reports whether t is a labeled null.
func (t Term) IsNull() bool { return t.Kind == KindNull }

// IsGround reports whether t contains no variables (constants and nulls
// are both ground in the chase sense).
func (t Term) IsGround() bool { return t.Kind != KindVar }

// String renders the term: constants that need quoting are double-quoted,
// variables are bare identifiers, nulls are rendered as ⊥label. A
// constant that is a lowercase identifier stays bare here, for display,
// although the .mdq parser reads that text as a variable; Query.String
// quotes it (see sourceString).
func (t Term) String() string {
	switch t.Kind {
	case KindConst:
		if needsQuote(t.Name) {
			return strconv.Quote(t.Name)
		}
		return t.Name
	case KindVar:
		return t.Name
	case KindNull:
		return "⊥" + t.Name
	default:
		return fmt.Sprintf("?badterm(%d,%s)", t.Kind, t.Name)
	}
}

// sourceString renders t as .mdq source text: String, except that a
// constant the parser would read back as a variable — a lowercase
// identifier, or "_" — is quoted as well.
func (t Term) sourceString() string {
	if t.Kind == KindConst && (t.Name == "_" || t.Name != "" && t.Name[0] >= 'a' && t.Name[0] <= 'z') {
		return strconv.Quote(t.Name)
	}
	return t.String()
}

// needsQuote reports whether a constant name must be quoted for the
// .mdq lexer to read it back as one token with the same text. Two forms
// stay bare: numbers the lexer reads whole (digits, optionally a dot
// and more digits, as in "37.5"), and ASCII identifiers. Everything
// else is quoted, including numbers such as "-5" or "1e5" and the
// paper's data ("Sep/5-12:10").
func needsQuote(s string) bool {
	if isBareNumber(s) {
		return false
	}
	if s == "" {
		return true
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
		case c >= '0' && c <= '9' && i > 0:
		default:
			return true
		}
	}
	return false
}

// isBareNumber reports whether s is a number as the .mdq lexer reads
// one: digits, optionally followed by a dot and more digits.
func isBareNumber(s string) bool {
	intPart, frac, hasDot := strings.Cut(s, ".")
	return allDigits(intPart) && (!hasDot || allDigits(frac))
}

// allDigits reports whether s is a non-empty run of ASCII digits.
func allDigits(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return false
		}
	}
	return true
}

// parseNumeric parses s as a float64 exactly as strconv.ParseFloat
// does, reporting failure instead of an error. Names that cannot start
// a float literal are screened out first, because every rejection
// ParseFloat reports allocates: after an optional sign, a literal
// starts with a digit, '.', or "inf" or "nan" in any case.
func parseNumeric(s string) (float64, bool) {
	t := s
	if len(t) > 0 && (t[0] == '+' || t[0] == '-') {
		t = t[1:]
	}
	switch {
	case len(t) > 0 && (t[0] >= '0' && t[0] <= '9' || t[0] == '.'):
	case len(t) >= 3 && (strings.EqualFold(t[:3], "inf") || strings.EqualFold(t[:3], "nan")):
	default:
		return 0, false
	}
	f, err := strconv.ParseFloat(s, 64)
	return f, err == nil
}

// Compare orders terms: first by kind (consts < vars < nulls), then by
// name, numerically when both names are numeric constants. It returns
// -1, 0 or 1.
func (t Term) Compare(u Term) int {
	if t.Kind != u.Kind {
		if t.Kind < u.Kind {
			return -1
		}
		return 1
	}
	if t.Kind == KindConst {
		if c, ok := compareNumeric(t.Name, u.Name); ok {
			return c
		}
	}
	return strings.Compare(t.Name, u.Name)
}

// CompareTotal is Compare with ties broken by name, so it returns 0
// only for identical terms. Distinct constants that are numerically
// equal, such as "37" and "37.0", order by their text instead of
// comparing equal. Output sorts use it, so their order never depends
// on input order; comparisons in conditions keep Compare's numeric
// equality.
func (t Term) CompareTotal(u Term) int {
	if c := t.Compare(u); c != 0 {
		return c
	}
	return strings.Compare(t.Name, u.Name)
}

func compareNumeric(a, b string) (int, bool) {
	fa, ok := parseNumeric(a)
	if !ok {
		return 0, false
	}
	fb, ok := parseNumeric(b)
	if !ok {
		return 0, false
	}
	switch {
	case fa < fb:
		return -1, true
	case fa > fb:
		return 1, true
	default:
		return 0, true
	}
}

// TermsString renders a comma-separated term list.
func TermsString(ts []Term) string {
	var b strings.Builder
	for i, t := range ts {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(t.String())
	}
	return b.String()
}

// CloneTerms returns a copy of the slice (terms themselves are values).
func CloneTerms(ts []Term) []Term {
	out := make([]Term, len(ts))
	copy(out, ts)
	return out
}

// Counter hands out fresh names with a prefix; it is used for fresh
// nulls during the chase and fresh variables during rule renaming. The
// zero value is ready to use. Counter is not safe for concurrent use.
type Counter struct {
	prefix string
	next   int
}

// NewCounter returns a counter producing names prefix0, prefix1, ...
func NewCounter(prefix string) *Counter { return &Counter{prefix: prefix} }

// Next returns the next fresh name.
func (c *Counter) Next() string {
	s := c.prefix + strconv.Itoa(c.next)
	c.next++
	return s
}

// Pos returns the counter's position: how many names it has handed
// out. A counter rebuilt with NewCounterAt(prefix, Pos()) continues
// the exact same name sequence — the persistence layer records the
// position so a restored chase invents nulls with the labels an
// uninterrupted run would have used.
func (c *Counter) Pos() int { return c.next }

// NewCounterAt returns a counter resumed at a recorded position: its
// next name is prefix<pos>.
func NewCounterAt(prefix string, pos int) *Counter {
	return &Counter{prefix: prefix, next: pos}
}

// FreshNull returns a fresh labeled null.
func (c *Counter) FreshNull() Term { return N(c.Next()) }

// FreshVar returns a fresh variable.
func (c *Counter) FreshVar() Term { return V(c.Next()) }
