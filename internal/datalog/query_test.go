package datalog

import (
	"strings"
	"testing"
)

// paperQuery is the doctor's query of Example 7:
// Q(t,p,v) <- Measurements(t,p,v), p = "Tom Waits",
//
//	"Sep/5-11:45" <= t, t <= "Sep/5-12:15".
func paperQuery() *Query {
	q := NewQuery(
		A("Q", V("t"), V("p"), V("v")),
		A("Measurements", V("t"), V("p"), V("v")))
	q.WithCond(OpEq, V("p"), C("Tom Waits"))
	q.WithCond(OpGe, V("t"), C("Sep/5-11:45"))
	q.WithCond(OpLe, V("t"), C("Sep/5-12:15"))
	return q
}

func TestQueryValidate(t *testing.T) {
	if err := paperQuery().Validate(); err != nil {
		t.Fatalf("paper query must validate: %v", err)
	}
	unsafeAns := NewQuery(A("Q", V("x")), A("P", V("y")))
	if err := unsafeAns.Validate(); err == nil {
		t.Error("answer variable not in body must fail")
	}
	empty := NewQuery(A("Q"))
	if err := empty.Validate(); err == nil {
		t.Error("empty body must fail")
	}
	unsafeNeg := NewQuery(A("Q", V("x")), A("P", V("x"))).WithNegated(A("R", V("z")))
	if err := unsafeNeg.Validate(); err == nil {
		t.Error("unsafe negated variable must fail")
	}
	unsafeCond := NewQuery(A("Q", V("x")), A("P", V("x"))).WithCond(OpLt, V("w"), C("1"))
	if err := unsafeCond.Validate(); err == nil {
		t.Error("unsafe condition variable must fail")
	}
}

func TestQueryBooleanAndVars(t *testing.T) {
	b := NewQuery(A("Q"), A("P", V("x")))
	if !b.IsBoolean() {
		t.Error("no-answer-variable query is Boolean")
	}
	q := paperQuery()
	if q.IsBoolean() {
		t.Error("paper query is open")
	}
	if got := q.AnswerVars(); len(got) != 3 {
		t.Errorf("answer vars = %v, want t,p,v", got)
	}
}

func TestComparisonEval(t *testing.T) {
	s := NewSubst()
	s.Bind("t", C("Sep/5-12:10"))
	s.Bind("p", C("Tom Waits"))
	cases := []struct {
		c    Comparison
		want bool
	}{
		{Comparison{OpGe, V("t"), C("Sep/5-11:45")}, true},
		{Comparison{OpLe, V("t"), C("Sep/5-12:15")}, true},
		{Comparison{OpLt, V("t"), C("Sep/5-11:00")}, false},
		{Comparison{OpEq, V("p"), C("Tom Waits")}, true},
		{Comparison{OpNe, V("p"), C("Lou Reed")}, true},
		{Comparison{OpEq, C("2"), C("2.0")}, false}, // equality is syntactic
		{Comparison{OpLe, C("2"), C("10")}, true},   // ordering is numeric
		{Comparison{OpGt, C("10"), C("9")}, true},
	}
	for _, tc := range cases {
		got, err := tc.c.Eval(s)
		if err != nil {
			t.Errorf("Eval(%s) error: %v", tc.c, err)
			continue
		}
		if got != tc.want {
			t.Errorf("Eval(%s) = %v, want %v", tc.c, got, tc.want)
		}
	}
}

func TestComparisonEvalUnbound(t *testing.T) {
	c := Comparison{OpLt, V("x"), C("1")}
	if _, err := c.Eval(NewSubst()); err == nil {
		t.Error("unbound comparison must error")
	}
}

func TestComparisonNullSemantics(t *testing.T) {
	s := NewSubst()
	s.Bind("x", N("1"))
	eq, _ := Comparison{OpEq, V("x"), N("1")}.Eval(s)
	if !eq {
		t.Error("null equals itself")
	}
	lt, _ := Comparison{OpLt, V("x"), C("zzz")}.Eval(s)
	if lt {
		t.Error("ordering comparisons with nulls are false")
	}
	ge, _ := Comparison{OpGe, V("x"), C("")}.Eval(s)
	if ge {
		t.Error("ordering comparisons with nulls are false")
	}
}

func TestCompOpString(t *testing.T) {
	ops := map[CompOp]string{OpEq: "=", OpNe: "!=", OpLt: "<", OpLe: "<=", OpGt: ">", OpGe: ">="}
	for op, want := range ops {
		if op.String() != want {
			t.Errorf("op %d String = %q, want %q", op, op.String(), want)
		}
	}
}

func TestQueryString(t *testing.T) {
	s := paperQuery().String()
	for _, want := range []string{"Q(t, p, v) <-", "Measurements(t, p, v)", `p = "Tom Waits"`, `t <= "Sep/5-12:15"`} {
		if !strings.Contains(s, want) {
			t.Errorf("query String missing %q: %s", want, s)
		}
	}
	n := NewQuery(A("Q", V("x")), A("P", V("x"))).WithNegated(A("R", V("x")))
	if !strings.Contains(n.String(), "not R(x)") {
		t.Errorf("negated atom missing from String: %s", n)
	}
}

func TestQueryCloneIndependence(t *testing.T) {
	q := paperQuery()
	c := q.Clone()
	c.Body[0].Args[0] = C("mutated")
	c.Conds[0].L = C("mutated")
	if q.Body[0].Args[0] == C("mutated") {
		t.Error("Clone must deep-copy body")
	}
	if q.Conds[0].L == C("mutated") {
		t.Error("Clone must copy conditions")
	}
}

func TestAnswerSetBasics(t *testing.T) {
	s := NewAnswerSet()
	a1 := Answer{Terms: []Term{C("Sep/9")}}
	a2 := Answer{Terms: []Term{C("Sep/5")}}
	if !s.Add(a1) || !s.Add(a2) {
		t.Fatal("fresh answers must be added")
	}
	if s.Add(a1) {
		t.Error("duplicate answer must not be added")
	}
	if s.Len() != 2 {
		t.Errorf("Len = %d, want 2", s.Len())
	}
	if !s.Contains(a1) {
		t.Error("Contains(a1) must be true")
	}
	sorted := s.Sorted()
	if sorted[0].Terms[0] != C("Sep/5") {
		t.Errorf("Sorted order wrong: %v", sorted)
	}
	// Insertion order preserved by All.
	if s.All()[0].Terms[0] != C("Sep/9") {
		t.Errorf("All order wrong: %v", s.All())
	}
}

// TestAnswerSetSortedBreaksNumericTiesByName: answers whose terms are
// numerically equal but distinct sort in one order, whichever was
// found first, while conditions keep treating them as equal.
func TestAnswerSetSortedBreaksNumericTiesByName(t *testing.T) {
	for _, order := range [][]string{{"37", "37.0"}, {"37.0", "37"}} {
		s := NewAnswerSet()
		for _, v := range order {
			s.Add(Answer{Terms: []Term{C("x"), C(v)}})
		}
		sorted := s.Sorted()
		if sorted[0].Terms[1] != C("37") || sorted[1].Terms[1] != C("37.0") {
			t.Fatalf("insertion order %v sorted to %v", order, sorted)
		}
	}
	if C("37.0").Compare(C("37")) != 0 || C("37.0").CompareTotal(C("37")) <= 0 {
		t.Fatal("Compare must keep numeric equality; CompareTotal must break the tie by name")
	}
}

// TestQueryStringQuotesVariableLikeConstants: the query's text form
// quotes a constant that would read back as a variable, while
// Term.String keeps it bare for display.
func TestQueryStringQuotesVariableLikeConstants(t *testing.T) {
	q := NewQuery(A("q", V("x")), A("R", V("x"), C("night"), C("_")))
	q.WithCond(OpEq, C("0"), C("a"))
	want := `q(x) <- R(x, "night", "_"), 0 = "a"`
	if got := q.String(); got != want {
		t.Fatalf("String = %s, want %s", got, want)
	}
	if got := C("night").String(); got != "night" {
		t.Fatalf("Term.String = %s, want night", got)
	}
}

func TestAnswerHasNullAndKey(t *testing.T) {
	withNull := Answer{Terms: []Term{C("a"), N("1")}}
	if !withNull.HasNull() {
		t.Error("HasNull must detect nulls")
	}
	clean := Answer{Terms: []Term{C("a"), C("1")}}
	if clean.HasNull() {
		t.Error("no null present")
	}
	if withNull.Key() == clean.Key() {
		t.Error("keys must distinguish null from constant")
	}
}

func TestAnswerSetEqual(t *testing.T) {
	s1, s2 := NewAnswerSet(), NewAnswerSet()
	s1.Add(Answer{Terms: []Term{C("a")}})
	s1.Add(Answer{Terms: []Term{C("b")}})
	s2.Add(Answer{Terms: []Term{C("b")}})
	s2.Add(Answer{Terms: []Term{C("a")}})
	if !s1.Equal(s2) {
		t.Error("order-independent equality expected")
	}
	s2.Add(Answer{Terms: []Term{C("c")}})
	if s1.Equal(s2) {
		t.Error("different sizes must not be equal")
	}
}

func TestAnswerSetString(t *testing.T) {
	s := NewAnswerSet()
	s.Add(Answer{Terms: []Term{C("b")}})
	s.Add(Answer{Terms: []Term{C("a")}})
	got := s.String()
	if got != "(a)\n(b)\n" {
		t.Errorf("String = %q", got)
	}
}
