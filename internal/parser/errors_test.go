package parser

import (
	"strings"
	"testing"
)

// TestParseEGDErrors exercises the egd statement's error paths.
func TestParseEGDErrors(t *testing.T) {
	base := `
dimension D { category C; member M in C; }
relation R(A: D.C; V)
`
	cases := []struct {
		stmt string
		frag string
	}{
		{"egd e1 t = t2 <- R(a, t).", "expected ':'"},
		{"egd e1: t 5 t2 <- R(a, t).", "expected '='"},
		{"egd e1: t = t2 R(a, t).", "expected '<-'"},
		{"egd e1: t = t2 <- R(a, t)", "expected ',' or '.'"},
		// Head variable not in body: datalog validation error.
		{"egd e1: t = zz <- R(a, t), R(a2, t2).", "not in body"},
	}
	for _, tc := range cases {
		_, err := Parse(base + tc.stmt + "\n")
		if err == nil {
			t.Errorf("stmt %q must fail", tc.stmt)
			continue
		}
		if !strings.Contains(err.Error(), tc.frag) {
			t.Errorf("stmt %q: error %q, want fragment %q", tc.stmt, err, tc.frag)
		}
	}
	// A valid EGD for contrast.
	ok := base + "egd e1: t = t2 <- R(a, t), R(a, t2).\n"
	if _, err := Parse(ok); err != nil {
		t.Errorf("valid EGD rejected: %v", err)
	}
}

func TestParseConstraintErrors(t *testing.T) {
	base := `
dimension D { category C; member M in C; }
relation R(A: D.C; V)
`
	cases := []struct {
		stmt string
		frag string
	}{
		{"constraint c1: <- R(a, v).", "expected '!'"},
		{"constraint c1: ! R(a, v).", "expected '<-'"},
		{"constraint c1: ! <- not C(a).", "no positive atoms"},
		// Unsafe condition variable.
		{"constraint c1: ! <- R(a, v), zz < 3.", "not bound"},
	}
	for _, tc := range cases {
		_, err := Parse(base + tc.stmt + "\n")
		if err == nil {
			t.Errorf("stmt %q must fail", tc.stmt)
			continue
		}
		if !strings.Contains(err.Error(), tc.frag) {
			t.Errorf("stmt %q: error %q, want fragment %q", tc.stmt, err, tc.frag)
		}
	}
}

func TestParseRuleErrors(t *testing.T) {
	base := `
dimension D { category C1; category C2; C1 -> C2;
  member A1 in C1; member B1 in C2; rollup A1 -> B1; }
relation R(A: D.C1; V)
relation S(A: D.C2; V)
`
	cases := []string{
		"rule r R(a, v) <- R(a, v).",         // missing colon
		"rule r: R(a, v) R(a, v).",           // missing <-
		"rule r: Mystery(a, v) <- R(a, v).",  // unknown head predicate
		"rule r: R(a, v) <- Mystery(a, v).",  // unknown body predicate
		"rule r: R(a, v) <- R(a, v), v < 3.", // comparisons not allowed in TGDs
		"rule r: R(a, v) <- not R(a, v).",    // negation not allowed in TGDs
		"rule r: exists R(a, v) <- R(a, v).", // exists needs variables... 'R' consumed as var name, then '(' breaks
	}
	for _, stmt := range cases {
		if _, err := Parse(base + stmt + "\n"); err == nil {
			t.Errorf("stmt %q must fail", stmt)
		}
	}
	// Valid upward rule for contrast.
	ok := base + "rule r: S(p, v) <- R(c, v), C2C1(p, c).\n"
	if _, err := Parse(ok); err != nil {
		t.Errorf("valid rule rejected: %v", err)
	}
}

func TestParseRelationErrors(t *testing.T) {
	cases := []string{
		"relation (A)",      // missing name
		"relation R(A: D)",  // missing .Cat
		"relation R(A: .C)", // missing dim
		"dimension D { category C; }\nrelation R(A: D.C) {\n  (x y);\n}", // missing comma is fine (space-separated names are two values -> arity error)
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("source %q must fail", src)
		}
	}
}

func TestParseDimensionEdgeErrors(t *testing.T) {
	cases := []string{
		"dimension D { category C; rollup X -> Y; }",     // unknown members
		"dimension D { category C; member M in Nope; }",  // unknown category
		"dimension D { category A; category B; A -> }",   // missing target
		"dimension D { category A; category B; A -> B }", // missing semicolon
		"dimension D { member M in C; }",                 // category not yet declared
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("source %q must fail", src)
		}
	}
}

func TestCompOpCoverage(t *testing.T) {
	// Every comparison operator round-trips through a query.
	src := `
dimension D { category C; member M in C; }
relation R(A: D.C; V)
query q(v) <- R(a, v), v = 1, v != 2, v < 9, v <= 9, v > 0, v >= 0.
`
	f, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(f.Queries[0].Query.Conds); got != 6 {
		t.Errorf("conds = %d, want 6", got)
	}
}

func TestTokenKindStrings(t *testing.T) {
	kinds := []tokenKind{
		tokEOF, tokIdent, tokString, tokNumber, tokLParen, tokRParen,
		tokLBrace, tokRBrace, tokComma, tokSemicolon, tokColon, tokDot,
		tokArrow, tokImplied, tokBang, tokEq, tokNe, tokLt, tokLe, tokGt, tokGe,
	}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "" || s == "unknown token" {
			t.Errorf("kind %d has no name", k)
		}
		if seen[s] {
			t.Errorf("duplicate token name %q", s)
		}
		seen[s] = true
	}
	if tokenKind(200).String() != "unknown token" {
		t.Error("out-of-range kind must render as unknown")
	}
}

func TestErrorType(t *testing.T) {
	_, err := Parse("dimension D {")
	if err == nil {
		t.Fatal("unclosed block must fail")
	}
	perr, ok := err.(*Error)
	if !ok {
		t.Fatalf("error type %T", err)
	}
	if perr.Line < 1 || !strings.Contains(perr.Error(), "mdq:") {
		t.Errorf("Error = %+v", perr)
	}
}

// arityBase declares R and S with two attributes each over the
// Ward -> Unit roll-up, whose parent-child predicate is UnitWard.
const arityBase = `
dimension Hospital {
  category Ward; category Unit;
  Ward -> Unit;
  member W1 in Ward; member Standard in Unit;
  rollup W1 -> Standard;
}
relation R(Ward: Hospital.Ward; Patient)
relation S(Unit: Hospital.Unit; Patient)
`

// arityCases are atoms whose argument count is not their predicate's
// arity, in each statement kind. The two rules used to panic while
// their form was checked; the others parsed and could never match.
var arityCases = []struct {
	stmt string
	frag string
}{
	{"rule a: exists z S(u; p, z) <- R(w; p), UnitWard(u, w).", "rule a: atom S(u, p, z) has 3 arguments, S takes 2"},
	{"rule b: S(u; p) <- R(w; p, q, u), UnitWard(u, w).", "rule b: atom R(w, p, q, u) has 4 arguments, R takes 2"},
	{"rule b: S(u; p) <- R(w; p, q, r), UnitWard(u, w).", "rule b: atom R(w, p, q, r) has 4 arguments, R takes 2"},
	{"egd e: p = q <- R(w; p, x), R(w; q, y).", "egd e: atom R(w, p, x) has 3 arguments, R takes 2"},
	{"constraint c: ! <- UnitWard(u, w, x).", "constraint c: atom UnitWard(u, w, x) has 3 arguments, UnitWard takes 2"},
	{"constraint c: ! <- R(w; p), Ward(w, p).", "constraint c: atom Ward(w, p) has 2 arguments, Ward takes 1"},
}

func TestParseArityMismatch(t *testing.T) {
	for _, tc := range arityCases {
		_, err := Parse(arityBase + tc.stmt + "\n")
		if err == nil {
			t.Errorf("stmt %q must fail", tc.stmt)
			continue
		}
		if !strings.Contains(err.Error(), tc.frag) {
			t.Errorf("stmt %q: error %q, want fragment %q", tc.stmt, err, tc.frag)
		}
	}
}
