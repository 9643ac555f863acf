package parser

import (
	"context"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
	dl "repro/internal/datalog"
	"repro/internal/qa"
)

func TestParseHospitalExample(t *testing.T) {
	f, err := Parse(FormatHospitalExample())
	if err != nil {
		t.Fatal(err)
	}
	o := f.Ontology
	if got := o.Dimensions(); len(got) != 2 {
		t.Fatalf("dimensions = %v", got)
	}
	hosp := o.Dimension("Hospital")
	if hosp == nil || hosp.MemberCount() != 9 {
		t.Fatalf("Hospital members = %d, want 9", hosp.MemberCount())
	}
	if up, err := hosp.RollupOne("W1", "Institution"); err != nil || up != "H1" {
		t.Errorf("W1 rolls to %q (%v), want H1", up, err)
	}
	if got := len(o.Relations()); got != 5 {
		t.Errorf("relations = %v", o.Relations())
	}
	if o.Data().Relation("PatientWard").Len() != 4 {
		t.Errorf("PatientWard = %d tuples", o.Data().Relation("PatientWard").Len())
	}
	if len(o.Rules()) != 2 || len(o.EGDs()) != 1 || len(o.NCs()) != 1 {
		t.Errorf("rules/egds/ncs = %d/%d/%d", len(o.Rules()), len(o.EGDs()), len(o.NCs()))
	}
	if len(f.Queries) != 2 {
		t.Fatalf("queries = %d", len(f.Queries))
	}
	if f.QueryByName("marks") == nil || f.QueryByName("nope") != nil {
		t.Error("QueryByName wrong")
	}
}

func TestParsedOntologyAnswersExample5(t *testing.T) {
	// End-to-end through the text format: parse, compile, answer.
	f, err := Parse(FormatHospitalExample())
	if err != nil {
		t.Fatal(err)
	}
	comp, err := f.Ontology.Compile(core.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !comp.Report.WeaklySticky {
		t.Error("parsed ontology must classify as WS")
	}
	ans, err := qa.Answer(context.Background(), comp.Program, comp.Instance, f.QueryByName("marks"), qa.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ans.Len() != 1 || ans.All()[0].Terms[0] != dl.C("Sep/9") {
		t.Errorf("marks answers = %v, want Sep/9", ans)
	}
}

func TestTermConventions(t *testing.T) {
	src := `
dimension D {
  category C;
  member M1 in C;
}
relation R(A: D.C; B)
rule r1: R(c, x) <- R(c, x).
query q(x) <- R(M1, x), x != "lit", x < 10.
`
	f, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	q := f.QueryByName("q")
	if q == nil {
		t.Fatal("query missing")
	}
	// M1 is uppercase: constant; x lowercase: variable.
	if !q.Body[0].Args[0].IsConst() || q.Body[0].Args[0].Name != "M1" {
		t.Errorf("M1 parsed as %v", q.Body[0].Args[0])
	}
	if !q.Body[0].Args[1].IsVar() {
		t.Errorf("x parsed as %v", q.Body[0].Args[1])
	}
	if len(q.Conds) != 2 {
		t.Fatalf("conds = %v", q.Conds)
	}
	if q.Conds[0].Op != dl.OpNe || q.Conds[0].R != dl.C("lit") {
		t.Errorf("cond 0 = %v", q.Conds[0])
	}
	if q.Conds[1].Op != dl.OpLt || q.Conds[1].R != dl.C("10") {
		t.Errorf("cond 1 = %v", q.Conds[1])
	}
}

func TestUncheckedTuples(t *testing.T) {
	src := `
dimension D {
  category C;
  member M1 in C;
}
relation R(A: D.C; B) {
  (M1, ok);
  !(Ghost, dirty);
}
`
	f, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if f.Ontology.Data().Relation("R").Len() != 2 {
		t.Error("both tuples must load")
	}
	// Without the bang, the dirty tuple is rejected.
	bad := strings.Replace(src, "!(Ghost", "(Ghost", 1)
	if _, err := Parse(bad); err == nil {
		t.Error("checked dirty tuple must fail")
	}
}

func TestExistsDeclaration(t *testing.T) {
	base := `
dimension D {
  category C1; category C2;
  C1 -> C2;
  member A1 in C1; member B1 in C2;
  rollup A1 -> B1;
}
relation R(A: D.C2; X)
relation S(A: D.C1; X, Y)
`
	ok := base + "rule r: exists z S(c, x, z) <- R(p, x), C2C1(p, c).\n"
	if _, err := Parse(ok); err != nil {
		t.Fatalf("valid exists rejected: %v", err)
	}
	// Declaring a universal variable as existential fails.
	bad := base + "rule r: exists x S(c, x, z) <- R(p, x), C2C1(p, c).\n"
	if _, err := Parse(bad); err == nil {
		t.Error("declared existential occurring in body must fail")
	}
	// Missing declaration (1 declared of 0 actual).
	bad2 := base + "rule r: exists z S(c, x, x) <- R(p, x), C2C1(p, c).\n"
	if _, err := Parse(bad2); err == nil {
		t.Error("declared count mismatch must fail")
	}
}

func TestParseErrorsCarryPositions(t *testing.T) {
	cases := []struct {
		src      string
		wantLine int
		frag     string
	}{
		{"dimensio X {}", 1, "expected a declaration"},
		{"dimension D {\n  categry C;\n}", 2, "expected '->'"},
		{"dimension D {\n  category C;\n  category C;\n}", 3, "already declared"},
		{"dimension D { category C; }\nrelation R(A: D.Nope; B)", 2, "no category"},
		{"query q(x) <- ", 1, "expected a term"},
		{"query q(X) <- R(X).", 1, "must be variables"},
	}
	for _, tc := range cases {
		_, err := Parse(tc.src)
		if err == nil {
			t.Errorf("source %q must fail", tc.src)
			continue
		}
		perr, ok := err.(*Error)
		if !ok {
			t.Errorf("source %q: error type %T, want *Error", tc.src, err)
			continue
		}
		if perr.Line != tc.wantLine {
			t.Errorf("source %q: error at line %d, want %d (%v)", tc.src, perr.Line, tc.wantLine, err)
		}
		if !strings.Contains(perr.Msg, tc.frag) {
			t.Errorf("source %q: message %q, want fragment %q", tc.src, perr.Msg, tc.frag)
		}
	}
}

func TestLexerTokens(t *testing.T) {
	toks, err := lexAll(`abc "a b" 12 3.5 ( ) { } , ; : . -> <- ! = != < <= > >= # comment`)
	if err != nil {
		t.Fatal(err)
	}
	kinds := []tokenKind{
		tokIdent, tokString, tokNumber, tokNumber,
		tokLParen, tokRParen, tokLBrace, tokRBrace,
		tokComma, tokSemicolon, tokColon, tokDot,
		tokArrow, tokImplied, tokBang, tokEq, tokNe,
		tokLt, tokLe, tokGt, tokGe, tokEOF,
	}
	if len(toks) != len(kinds) {
		t.Fatalf("tokens = %d, want %d: %v", len(toks), len(kinds), toks)
	}
	for i, k := range kinds {
		if toks[i].kind != k {
			t.Errorf("token %d = %s, want %s", i, toks[i].kind, k)
		}
	}
}

func TestLexerStringEscapes(t *testing.T) {
	toks, err := lexAll(`"a\"b\\c\nd"`)
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].text != "a\"b\\c\nd" {
		t.Errorf("string = %q", toks[0].text)
	}
	// Every escape strconv.Quote emits reads back: control bytes,
	// invalid UTF-8 and \u escapes.
	toks, err = lexAll(`"\x01\r\xf6\u00a0\U0001F600"`)
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].text != "\x01\r\xf6\u00a0\U0001F600" {
		t.Errorf("string = %q", toks[0].text)
	}
	if _, err := lexAll(`"unterminated`); err == nil {
		t.Error("unterminated string must fail")
	}
	if _, err := lexAll(`"bad\q"`); err == nil {
		t.Error("unknown escape must fail")
	}
	if _, err := lexAll("\"new\nline\""); err == nil {
		t.Error("newline in string must fail")
	}
}

func TestLexerNumberVsDot(t *testing.T) {
	// "10." at a rule end: number then statement dot.
	toks, err := lexAll("x < 10.")
	if err != nil {
		t.Fatal(err)
	}
	if toks[2].kind != tokNumber || toks[2].text != "10" {
		t.Errorf("number token = %v", toks[2])
	}
	if toks[3].kind != tokDot {
		t.Errorf("dot token = %v", toks[3])
	}
	// "3.5" inside: one number.
	toks2, err := lexAll("3.5")
	if err != nil {
		t.Fatal(err)
	}
	if toks2[0].text != "3.5" {
		t.Errorf("number = %q", toks2[0].text)
	}
}

func TestLexerErrors(t *testing.T) {
	if _, err := lexAll("a - b"); err == nil {
		t.Error("lone '-' must fail")
	}
	if _, err := lexAll("a @ b"); err == nil {
		t.Error("unknown character must fail")
	}
}

func TestParseFileFromDisk(t *testing.T) {
	path := t.TempDir() + "/hospital.mdq"
	if err := writeFile(path, FormatHospitalExample()); err != nil {
		t.Fatal(err)
	}
	f, err := ParseFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if f.Ontology.Dimension("Hospital") == nil {
		t.Error("parsed file missing Hospital dimension")
	}
	if _, err := ParseFile(t.TempDir() + "/missing.mdq"); err == nil {
		t.Error("missing file must error")
	}
}

func TestDuplicateQueryName(t *testing.T) {
	src := `
dimension D { category C; member M in C; }
relation R(A: D.C)
query q(x) <- R(x).
query q(x) <- R(x).
`
	if _, err := Parse(src); err == nil || !strings.Contains(err.Error(), "duplicate query") {
		t.Errorf("duplicate query must fail: %v", err)
	}
}

func TestConstraintWithNegationAndConds(t *testing.T) {
	src := `
dimension D { category C; member M in C; }
relation R(A: D.C; V)
constraint c: ! <- R(a, v), not C(a), v >= 10.
`
	f, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	ncs := f.Ontology.NCs()
	if len(ncs) != 1 {
		t.Fatal("constraint missing")
	}
	if len(ncs[0].NegativeBody()) != 1 || len(ncs[0].Conds) != 1 {
		t.Errorf("constraint = %v", ncs[0])
	}
}

func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}
