package datalog

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
)

// CompOp is a comparison operator usable in query conditions.
type CompOp uint8

// Comparison operators. They compare constants numerically when both
// sides parse as numbers, lexicographically otherwise (which orders the
// paper's timestamp literals such as "Sep/5-12:10" correctly within a
// day, and its date constants by the generators' zero-padded scheme).
const (
	OpEq CompOp = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
)

// String renders the operator symbol.
func (op CompOp) String() string {
	switch op {
	case OpEq:
		return "="
	case OpNe:
		return "!="
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	default:
		return "?"
	}
}

// Comparison is a built-in condition L op R evaluated on bound terms.
type Comparison struct {
	Op   CompOp
	L, R Term
}

// String renders the comparison.
func (c Comparison) String() string {
	return fmt.Sprintf("%s %s %s", c.L, c.Op, c.R)
}

// source renders the comparison as .mdq source text (see
// Term.sourceString).
func (c Comparison) source() string {
	return c.L.sourceString() + " " + c.Op.String() + " " + c.R.sourceString()
}

// Eval evaluates the comparison under substitution s. It returns an
// error if either side is still a variable after substitution. Nulls
// compare equal only to themselves and are incomparable under ordering
// operators (every ordering comparison involving a null is false),
// reflecting that a labeled null carries no domain value.
func (c Comparison) Eval(s Subst) (bool, error) {
	return c.EvalTerms(s.Apply(c.L), s.Apply(c.R))
}

// EvalTerms evaluates the comparison on already-resolved sides, the
// substitution-free entry point used by compiled join plans (which
// resolve variables through register banks instead of Subst maps).
func (c Comparison) EvalTerms(l, r Term) (bool, error) {
	if l.IsVar() || r.IsVar() {
		return false, fmt.Errorf("comparison %s: unbound side (%s vs %s)", c, l, r)
	}
	switch c.Op {
	case OpEq:
		return l == r, nil
	case OpNe:
		return l != r, nil
	}
	if l.IsNull() || r.IsNull() {
		return false, nil
	}
	cmp := l.Compare(r)
	switch c.Op {
	case OpLt:
		return cmp < 0, nil
	case OpLe:
		return cmp <= 0, nil
	case OpGt:
		return cmp > 0, nil
	case OpGe:
		return cmp >= 0, nil
	default:
		return false, fmt.Errorf("comparison %s: unknown operator", c)
	}
}

// Query is a conjunctive query with optional built-in comparisons and
// optional safe negated atoms:
//
//	Q(x̄) ← B1, ..., Bn, not N1, ..., not Nk, c1, ..., cm
//
// Head.Args are the answer variables (possibly none: a Boolean CQ).
// Negated atoms are evaluated under closed-world assumption by the
// engines that support them (bottom-up evaluation over a fixed
// instance); the certain-answer engines reject queries with negation.
type Query struct {
	Head    Atom
	Body    []Atom
	Negated []Atom
	Conds   []Comparison
}

// NewQuery builds a positive conjunctive query.
func NewQuery(head Atom, body ...Atom) *Query {
	return &Query{Head: head, Body: body}
}

// WithCond appends a comparison condition and returns the query.
func (q *Query) WithCond(op CompOp, l, r Term) *Query {
	q.Conds = append(q.Conds, Comparison{Op: op, L: l, R: r})
	return q
}

// WithNegated appends a negated atom and returns the query.
func (q *Query) WithNegated(a Atom) *Query {
	q.Negated = append(q.Negated, a)
	return q
}

// AnswerVars returns the distinct answer variables.
func (q *Query) AnswerVars() []Term { return q.Head.Vars() }

// IsBoolean reports whether the query has no answer variables.
func (q *Query) IsBoolean() bool { return len(q.AnswerVars()) == 0 }

// Validate checks safety: every answer variable occurs in the positive
// body; every variable of a negated atom or comparison occurs in the
// positive body.
func (q *Query) Validate() error {
	if len(q.Body) == 0 {
		return fmt.Errorf("query %s: empty body", q.Head.Pred)
	}
	bodyVars := map[Term]bool{}
	for _, v := range VarsOfAtoms(q.Body) {
		bodyVars[v] = true
	}
	for _, v := range q.AnswerVars() {
		if !bodyVars[v] {
			return fmt.Errorf("query %s: answer variable %s not in body", q.Head.Pred, v)
		}
	}
	for _, n := range q.Negated {
		for _, v := range n.Vars() {
			if !bodyVars[v] {
				return fmt.Errorf("query %s: variable %s of negated atom %s unsafe", q.Head.Pred, v, n)
			}
		}
	}
	for _, c := range q.Conds {
		for _, t := range []Term{c.L, c.R} {
			if t.IsVar() && !bodyVars[t] {
				return fmt.Errorf("query %s: variable %s of condition %s unsafe", q.Head.Pred, t, c)
			}
		}
	}
	return nil
}

// Clone deep-copies the query.
func (q *Query) Clone() *Query {
	out := &Query{Head: q.Head.Clone(), Body: CloneAtoms(q.Body)}
	out.Negated = CloneAtoms(q.Negated)
	out.Conds = append(out.Conds, q.Conds...)
	return out
}

// String renders the query as .mdq source text, which ParseQuery reads
// back as the same query: unlike Term.String, it quotes constants that
// would read back as variables (see Term.sourceString).
func (q *Query) String() string {
	var parts []string
	for _, a := range q.Body {
		parts = append(parts, a.source())
	}
	for _, a := range q.Negated {
		parts = append(parts, "not "+a.source())
	}
	for _, c := range q.Conds {
		parts = append(parts, c.source())
	}
	return q.Head.source() + " <- " + strings.Join(parts, ", ")
}

// Answer is one query answer: the tuple of terms bound to the head
// arguments, in head-argument order.
type Answer struct {
	Terms []Term
}

// HasNull reports whether the answer contains a labeled null (such
// answers are not certain and are filtered by certain-answer engines).
func (ans Answer) HasNull() bool {
	for _, t := range ans.Terms {
		if t.IsNull() {
			return true
		}
	}
	return false
}

// Key returns a canonical deduplication key.
func (ans Answer) Key() string {
	var b strings.Builder
	for _, t := range ans.Terms {
		b.WriteByte(byte('0' + t.Kind))
		b.WriteString(t.Name)
		b.WriteByte('|')
	}
	return b.String()
}

// String renders the answer tuple.
func (ans Answer) String() string { return "(" + TermsString(ans.Terms) + ")" }

// AnswerSet is a deduplicated, order-preserving collection of answers.
type AnswerSet struct {
	answers []Answer
	index   map[string]bool
}

// NewAnswerSet returns an empty answer set.
func NewAnswerSet() *AnswerSet {
	return &AnswerSet{index: map[string]bool{}}
}

// Add inserts an answer if not already present; it reports whether the
// answer was new.
func (s *AnswerSet) Add(ans Answer) bool {
	k := ans.Key()
	if s.index[k] {
		return false
	}
	s.index[k] = true
	s.answers = append(s.answers, ans)
	return true
}

// Contains reports membership.
func (s *AnswerSet) Contains(ans Answer) bool { return s.index[ans.Key()] }

// Len returns the number of answers.
func (s *AnswerSet) Len() int { return len(s.answers) }

// All returns the answers in insertion order. The returned slice is
// owned by the set and must not be modified.
func (s *AnswerSet) All() []Answer { return s.answers }

// Sorted returns the answers sorted lexicographically by their terms,
// for deterministic output.
func (s *AnswerSet) Sorted() []Answer {
	out := make([]Answer, len(s.answers))
	copy(out, s.answers)
	sortAnswers(out)
	return out
}

// sortAnswers orders answers lexicographically by Term.CompareTotal:
// a total order on distinct answers, so the result does not depend on
// the order they were found in.
func sortAnswers(as []Answer) {
	slices.SortFunc(as, func(a, b Answer) int {
		for i := 0; i < len(a.Terms) && i < len(b.Terms); i++ {
			if c := a.Terms[i].CompareTotal(b.Terms[i]); c != 0 {
				return c
			}
		}
		return cmp.Compare(len(a.Terms), len(b.Terms))
	})
}

// Equal reports whether two answer sets contain exactly the same
// answers (order-independent).
func (s *AnswerSet) Equal(o *AnswerSet) bool {
	if s.Len() != o.Len() {
		return false
	}
	for k := range s.index {
		if !o.index[k] {
			return false
		}
	}
	return true
}

// String renders the sorted answers, one per line.
func (s *AnswerSet) String() string {
	var b strings.Builder
	for _, a := range s.Sorted() {
		b.WriteString(a.String())
		b.WriteByte('\n')
	}
	return b.String()
}
