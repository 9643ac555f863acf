package eval

import (
	"context"
	"strings"
	"testing"

	dl "repro/internal/datalog"
	"repro/internal/storage"
)

// Eval computes the program's least fixpoint over a copy of db and
// returns the resulting instance (EDB plus derived IDB atoms). The
// input instance is not modified. ctx is checked once per work unit
// of every round.
func Eval(ctx context.Context, p *Program, db *storage.Instance) (*storage.Instance, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	strata, err := p.Stratify()
	if err != nil {
		return nil, err
	}
	out := db.CloneDetached()
	st := NewState(strata, out)
	if err := st.Init(ctx); err != nil {
		return nil, err
	}
	return out, nil
}

func edgeGraph() *storage.Instance {
	db := storage.NewInstance()
	for _, e := range [][2]string{{"a", "b"}, {"b", "c"}, {"c", "d"}, {"x", "y"}} {
		db.MustInsert("Edge", dl.C(e[0]), dl.C(e[1]))
	}
	return db
}

func reachProgram() *Program {
	p := NewProgram()
	p.Add(NewRule("base", dl.A("Reach", dl.V("x"), dl.V("y")), dl.A("Edge", dl.V("x"), dl.V("y"))))
	p.Add(NewRule("step", dl.A("Reach", dl.V("x"), dl.V("z")),
		dl.A("Reach", dl.V("x"), dl.V("y")), dl.A("Edge", dl.V("y"), dl.V("z"))))
	return p
}

func TestEvalTransitiveClosure(t *testing.T) {
	out, err := Eval(context.Background(), reachProgram(), edgeGraph())
	if err != nil {
		t.Fatal(err)
	}
	reach := out.Relation("Reach")
	if reach.Len() != 7 { // ab ac ad bc bd cd xy
		t.Fatalf("Reach size = %d, want 7: %v", reach.Len(), reach.Tuples())
	}
	if !out.ContainsAtom(dl.A("Reach", dl.C("a"), dl.C("d"))) {
		t.Error("a reaches d")
	}
	if out.ContainsAtom(dl.A("Reach", dl.C("a"), dl.C("y"))) {
		t.Error("a must not reach y")
	}
}

func TestEvalDoesNotMutateInput(t *testing.T) {
	db := edgeGraph()
	if _, err := Eval(context.Background(), reachProgram(), db); err != nil {
		t.Fatal(err)
	}
	if db.Relation("Reach") != nil {
		t.Error("input instance must stay untouched")
	}
}

func TestEvalStratifiedNegation(t *testing.T) {
	// Unreachable pairs: node pairs with no path. Needs two strata.
	p := reachProgram()
	p.Add(NewRule("nodes1", dl.A("Node", dl.V("x")), dl.A("Edge", dl.V("x"), dl.V("y"))))
	p.Add(NewRule("nodes2", dl.A("Node", dl.V("y")), dl.A("Edge", dl.V("x"), dl.V("y"))))
	p.Add(NewRule("unreach", dl.A("Unreach", dl.V("x"), dl.V("y")),
		dl.A("Node", dl.V("x")), dl.A("Node", dl.V("y"))).
		WithNegated(dl.A("Reach", dl.V("x"), dl.V("y"))))
	out, err := Eval(context.Background(), p, edgeGraph())
	if err != nil {
		t.Fatal(err)
	}
	if !out.ContainsAtom(dl.A("Unreach", dl.C("a"), dl.C("x"))) {
		t.Error("a does not reach x")
	}
	if out.ContainsAtom(dl.A("Unreach", dl.C("a"), dl.C("d"))) {
		t.Error("a reaches d; Unreach(a,d) must not hold")
	}
	// 6 nodes, 36 pairs, 7 reachable => 29 unreachable.
	if got := out.Relation("Unreach").Len(); got != 29 {
		t.Errorf("Unreach size = %d, want 29", got)
	}
}

func TestStratifyRejectsNegativeCycle(t *testing.T) {
	p := NewProgram()
	p.Add(NewRule("p", dl.A("P", dl.V("x")), dl.A("Base", dl.V("x"))).
		WithNegated(dl.A("Q", dl.V("x"))))
	p.Add(NewRule("q", dl.A("Q", dl.V("x")), dl.A("Base", dl.V("x"))).
		WithNegated(dl.A("P", dl.V("x"))))
	if _, err := p.Stratify(); err == nil {
		t.Fatal("recursion through negation must be rejected")
	}
}

func TestStratifyOrdersStrata(t *testing.T) {
	p := reachProgram()
	p.Add(NewRule("nodes1", dl.A("Node", dl.V("x")), dl.A("Edge", dl.V("x"), dl.V("y"))))
	p.Add(NewRule("unreach", dl.A("Unreach", dl.V("x"), dl.V("y")),
		dl.A("Node", dl.V("x")), dl.A("Node", dl.V("y"))).
		WithNegated(dl.A("Reach", dl.V("x"), dl.V("y"))))
	strata, err := p.Stratify()
	if err != nil {
		t.Fatal(err)
	}
	if len(strata) < 2 {
		t.Fatalf("want >= 2 strata, got %d", len(strata))
	}
	// Unreach must be strictly after Reach.
	stratumOf := map[string]int{}
	for i, rules := range strata {
		for _, r := range rules {
			stratumOf[r.Head.Pred] = i
		}
	}
	if stratumOf["Unreach"] <= stratumOf["Reach"] {
		t.Errorf("Unreach stratum %d must exceed Reach stratum %d",
			stratumOf["Unreach"], stratumOf["Reach"])
	}
}

func TestEvalWithComparisons(t *testing.T) {
	db := storage.NewInstance()
	db.MustInsert("Measurements", dl.C("Sep/5-12:10"), dl.C("Tom Waits"), dl.C("38.2"))
	db.MustInsert("Measurements", dl.C("Sep/6-11:50"), dl.C("Tom Waits"), dl.C("37.1"))
	p := NewProgram()
	p.Add(NewRule("fever", dl.A("Fever", dl.V("t"), dl.V("p")),
		dl.A("Measurements", dl.V("t"), dl.V("p"), dl.V("v"))).
		WithCond(dl.OpGe, dl.V("v"), dl.C("38.0")))
	out, err := Eval(context.Background(), p, db)
	if err != nil {
		t.Fatal(err)
	}
	if out.Relation("Fever").Len() != 1 {
		t.Fatalf("Fever = %v", out.Relation("Fever").Tuples())
	}
	if !out.ContainsAtom(dl.A("Fever", dl.C("Sep/5-12:10"), dl.C("Tom Waits"))) {
		t.Error("38.2 is a fever reading")
	}
}

func TestRuleValidate(t *testing.T) {
	bad := NewRule("b", dl.A("H", dl.V("x"), dl.V("z")), dl.A("B", dl.V("x")))
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "head variable") {
		t.Errorf("unbound head variable must fail: %v", err)
	}
	empty := NewRule("e", dl.A("H"))
	if err := empty.Validate(); err == nil {
		t.Error("empty body must fail")
	}
	unsafeNeg := NewRule("n", dl.A("H", dl.V("x")), dl.A("B", dl.V("x"))).
		WithNegated(dl.A("Q", dl.V("y")))
	if err := unsafeNeg.Validate(); err == nil {
		t.Error("unsafe negation must fail")
	}
	unsafeCond := NewRule("c", dl.A("H", dl.V("x")), dl.A("B", dl.V("x"))).
		WithCond(dl.OpLt, dl.V("q"), dl.C("3"))
	if err := unsafeCond.Validate(); err == nil {
		t.Error("unsafe condition must fail")
	}
	if err := NewRule("ok", dl.A("H", dl.V("x")), dl.A("B", dl.V("x"))).Validate(); err != nil {
		t.Errorf("valid rule rejected: %v", err)
	}
}

func TestEvalRejectsInvalidProgram(t *testing.T) {
	p := NewProgram()
	p.Add(NewRule("b", dl.A("H", dl.V("z")), dl.A("B", dl.V("x"))))
	if _, err := Eval(context.Background(), p, storage.NewInstance()); err == nil {
		t.Error("invalid program must be rejected")
	}
}

func TestEvalQueryPositive(t *testing.T) {
	db := edgeGraph()
	q := dl.NewQuery(dl.A("Q", dl.V("y")), dl.A("Edge", dl.C("a"), dl.V("y")))
	as, err := EvalQuery(q, db)
	if err != nil {
		t.Fatal(err)
	}
	if as.Len() != 1 || as.All()[0].Terms[0] != dl.C("b") {
		t.Errorf("answers = %v, want (b)", as)
	}
}

func TestEvalQueryWithNegationAndConds(t *testing.T) {
	db := edgeGraph()
	db.MustInsert("Blocked", dl.C("b"))
	q := dl.NewQuery(dl.A("Q", dl.V("x"), dl.V("y")), dl.A("Edge", dl.V("x"), dl.V("y"))).
		WithNegated(dl.A("Blocked", dl.V("y"))).
		WithCond(dl.OpNe, dl.V("x"), dl.C("x"))
	as, err := EvalQuery(q, db)
	if err != nil {
		t.Fatal(err)
	}
	// Edges: ab (blocked y=b), bc, cd, xy (excluded x=x) => bc, cd.
	if as.Len() != 2 {
		t.Errorf("answers = %v, want bc and cd", as)
	}
}

func TestEvalQueryBoolean(t *testing.T) {
	db := edgeGraph()
	q := dl.NewQuery(dl.A("Q"), dl.A("Edge", dl.C("a"), dl.V("y")))
	as, err := EvalQuery(q, db)
	if err != nil {
		t.Fatal(err)
	}
	if as.Len() != 1 {
		t.Errorf("boolean query true: one empty answer expected, got %d", as.Len())
	}
	qNo := dl.NewQuery(dl.A("Q"), dl.A("Edge", dl.C("zz"), dl.V("y")))
	as2, err := EvalQuery(qNo, db)
	if err != nil {
		t.Fatal(err)
	}
	if as2.Len() != 0 {
		t.Error("boolean query false: no answers expected")
	}
}

func TestEvalQueryReturnsNullAnswers(t *testing.T) {
	db := storage.NewInstance()
	db.MustInsert("Shifts", dl.C("W1"), dl.C("Sep/9"), dl.C("Mark"), dl.N("z0"))
	q := dl.NewQuery(dl.A("Q", dl.V("s")), dl.A("Shifts", dl.C("W1"), dl.C("Sep/9"), dl.C("Mark"), dl.V("s")))
	as, err := EvalQuery(q, db)
	if err != nil {
		t.Fatal(err)
	}
	if as.Len() != 1 || !as.All()[0].HasNull() {
		t.Errorf("EvalQuery must surface null answers (filtering is qa's job): %v", as)
	}
}

func TestEvalRecursiveRequiresSemiNaiveTermination(t *testing.T) {
	// A cycle in the data: closure must still terminate.
	db := storage.NewInstance()
	db.MustInsert("Edge", dl.C("a"), dl.C("b"))
	db.MustInsert("Edge", dl.C("b"), dl.C("a"))
	out, err := Eval(context.Background(), reachProgram(), db)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.Relation("Reach").Len(); got != 4 { // aa ab ba bb
		t.Errorf("Reach on 2-cycle = %d, want 4", got)
	}
}

func TestRuleString(t *testing.T) {
	r := NewRule("r", dl.A("H", dl.V("x")), dl.A("B", dl.V("x"))).
		WithNegated(dl.A("N", dl.V("x"))).
		WithCond(dl.OpLt, dl.V("x"), dl.C("5"))
	s := r.String()
	for _, want := range []string{"H(x) <-", "B(x)", "not N(x)", "x < 5"} {
		if !strings.Contains(s, want) {
			t.Errorf("Rule.String missing %q: %s", want, s)
		}
	}
}
