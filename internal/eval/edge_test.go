package eval

import (
	"context"
	"testing"

	dl "repro/internal/datalog"
	"repro/internal/storage"
)

func TestEvalComparisonErrorPropagates(t *testing.T) {
	// A rule whose condition references an unbound side can only be
	// constructed by skipping Validate; Eval surfaces the error
	// instead of silently dropping derivations.
	db := storage.NewInstance()
	db.MustInsert("P", dl.C("a"))
	p := NewProgram()
	// Bypass WithCond validation by constructing the rule directly.
	r := &Rule{
		ID:   "raw",
		Head: dl.A("H", dl.V("x")),
		Body: []dl.Atom{dl.A("P", dl.V("x"))},
	}
	p.Add(r)
	if _, err := Eval(context.Background(), p, db); err != nil {
		t.Fatalf("valid rule: %v", err)
	}
	// Force an invalid comparison past Validate by mutating after
	// validation would have passed: Eval re-validates, so it is
	// caught up front.
	r.Conds = append(r.Conds, dl.Comparison{Op: dl.OpLt, L: dl.V("zz"), R: dl.C("1")})
	if _, err := Eval(context.Background(), p, db); err == nil {
		t.Error("unsafe condition must fail validation in Eval")
	}
}

func TestEvalEmptyProgram(t *testing.T) {
	db := storage.NewInstance()
	db.MustInsert("P", dl.C("a"))
	out, err := Eval(context.Background(), NewProgram(), db)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Equal(db) {
		t.Error("empty program must return a copy of the input")
	}
}

func TestEvalMultiStrataChain(t *testing.T) {
	// Three strata: base, negation over base, negation over that.
	db := storage.NewInstance()
	db.MustInsert("E", dl.C("a"), dl.C("b"))
	db.MustInsert("E", dl.C("b"), dl.C("c"))
	p := NewProgram()
	p.Add(NewRule("n1", dl.A("N", dl.V("x")), dl.A("E", dl.V("x"), dl.V("y"))))
	p.Add(NewRule("n2", dl.A("N", dl.V("y")), dl.A("E", dl.V("x"), dl.V("y"))))
	p.Add(NewRule("leaf", dl.A("Leaf", dl.V("x")), dl.A("N", dl.V("x"))).
		WithNegated(dl.A("E", dl.V("x"), dl.V("x"))).
		WithNegated(dl.A("HasOut", dl.V("x"))))
	p.Add(NewRule("hasout", dl.A("HasOut", dl.V("x")), dl.A("E", dl.V("x"), dl.V("y"))))
	p.Add(NewRule("top", dl.A("NonLeaf", dl.V("x")), dl.A("N", dl.V("x"))).
		WithNegated(dl.A("Leaf", dl.V("x"))))
	out, err := Eval(context.Background(), p, db)
	if err != nil {
		t.Fatal(err)
	}
	// Leaves: nodes with no outgoing edge: c.
	if !out.ContainsAtom(dl.A("Leaf", dl.C("c"))) {
		t.Error("c is a leaf")
	}
	if out.ContainsAtom(dl.A("Leaf", dl.C("a"))) {
		t.Error("a has outgoing edges")
	}
	if !out.ContainsAtom(dl.A("NonLeaf", dl.C("a"))) || !out.ContainsAtom(dl.A("NonLeaf", dl.C("b"))) {
		t.Error("a and b are non-leaves")
	}
	if out.ContainsAtom(dl.A("NonLeaf", dl.C("c"))) {
		t.Error("c is a leaf, not a non-leaf")
	}
}

func TestEvalRuleFiltersNegationBeforeInsert(t *testing.T) {
	db := storage.NewInstance()
	db.MustInsert("P", dl.C("a"))
	db.MustInsert("P", dl.C("b"))
	db.MustInsert("Block", dl.C("a"))
	p := NewProgram()
	p.Add(NewRule("r", dl.A("H", dl.V("x")), dl.A("P", dl.V("x"))).
		WithNegated(dl.A("Block", dl.V("x"))))
	out, err := Eval(context.Background(), p, db)
	if err != nil {
		t.Fatal(err)
	}
	if out.ContainsAtom(dl.A("H", dl.C("a"))) {
		t.Error("blocked derivation must not fire")
	}
	if !out.ContainsAtom(dl.A("H", dl.C("b"))) {
		t.Error("unblocked derivation must fire")
	}
}

func TestEvalQueryInvalid(t *testing.T) {
	db := storage.NewInstance()
	q := dl.NewQuery(dl.A("Q", dl.V("x"))) // empty body
	if _, err := EvalQuery(q, db); err == nil {
		t.Error("invalid query must be rejected")
	}
}

func TestEvalSelfRecursiveSingleRule(t *testing.T) {
	// A rule that feeds itself through the delta path only.
	db := storage.NewInstance()
	db.MustInsert("Succ", dl.C("0"), dl.C("1"))
	db.MustInsert("Succ", dl.C("1"), dl.C("2"))
	db.MustInsert("Succ", dl.C("2"), dl.C("3"))
	db.MustInsert("LE", dl.C("0"), dl.C("0"))
	p := NewProgram()
	p.Add(NewRule("step", dl.A("LE", dl.V("x"), dl.V("z")),
		dl.A("LE", dl.V("x"), dl.V("y")), dl.A("Succ", dl.V("y"), dl.V("z"))))
	out, err := Eval(context.Background(), p, db)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []string{"0", "1", "2", "3"} {
		if !out.ContainsAtom(dl.A("LE", dl.C("0"), dl.C(n))) {
			t.Errorf("LE(0, %s) missing", n)
		}
	}
	if out.Relation("LE").Len() != 4 {
		t.Errorf("LE = %d tuples, want 4", out.Relation("LE").Len())
	}
}
