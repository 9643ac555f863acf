package engine

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/chase"
	dl "repro/internal/datalog"
	"repro/internal/eval"
	"repro/internal/storage"
)

// snapshot returns the frozen view of a session's instance that State
// pairs with its violations.
func snapshot(s *Session) *storage.Instance {
	inst, _ := s.State()
	return inst
}

// testSpec: one upward TGD plus a derived layer with negation, so
// Apply must take the rebuild fallback and still match a from-scratch
// evaluation.
func testSpec(t *testing.T, withNeg bool) Spec {
	t.Helper()
	base := storage.NewInstance()
	base.MustInsert("Up", dl.C("p0"), dl.C("c0"))
	base.MustInsert("Up", dl.C("p0"), dl.C("c1"))
	base.MustInsert("Up", dl.C("p1"), dl.C("c2"))

	prog := dl.NewProgram()
	prog.AddTGD(dl.NewTGD("up",
		[]dl.Atom{dl.A("R1", dl.V("p"), dl.V("x"))},
		[]dl.Atom{dl.A("R0", dl.V("c"), dl.V("x")), dl.A("Up", dl.V("p"), dl.V("c"))}))

	rules := eval.NewProgram()
	rules.Add(eval.NewRule("m", dl.A("M", dl.V("p")), dl.A("R1", dl.V("p"), dl.V("x"))))
	if withNeg {
		r := eval.NewRule("quiet", dl.A("Quiet", dl.V("p"), dl.V("c")), dl.A("Up", dl.V("p"), dl.V("c")))
		r.WithNegated(dl.A("M", dl.V("p")))
		rules.Add(r)
	}
	return Spec{Program: prog, Base: base, Rules: rules, ChaseOptions: chase.Options{}}
}

func d0() *storage.Instance {
	d := storage.NewInstance()
	d.MustInsert("R0", dl.C("c0"), dl.C("v0"))
	return d
}

func TestSessionApplyStats(t *testing.T) {
	p, err := Prepare(testSpec(t, false))
	if err != nil {
		t.Fatal(err)
	}
	s, err := p.NewSession(context.Background(), d0())
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Apply(context.Background(), []dl.Atom{
		dl.A("R0", dl.C("c2"), dl.C("v1")),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Inserted != 1 || res.Rebuilt {
		t.Fatalf("unexpected apply result %+v", res)
	}
	// The delta row plus the TGD derivation R1(p1, v1).
	if res.ChaseRows != 2 || res.Fired != 1 {
		t.Fatalf("chase stats %+v, want 2 rows / 1 fired", res)
	}
	// Derived layer: M(p1).
	if res.Derived != 1 {
		t.Fatalf("derived = %d, want 1", res.Derived)
	}
	snap := snapshot(s)
	if !snap.ContainsAtom(dl.A("M", dl.C("p1"))) {
		t.Fatal("snapshot missing derived fact")
	}
}

// TestPrepareRejectsRuleArityClash: rules that use one predicate with
// two arities are rejected at Prepare, so Apply has one arity to check
// a batch atom over a rule predicate against.
func TestPrepareRejectsRuleArityClash(t *testing.T) {
	spec := testSpec(t, false)
	spec.Rules.Add(eval.NewRule("wide", dl.A("M", dl.V("p"), dl.V("x")), dl.A("R1", dl.V("p"), dl.V("x"))))
	if _, err := Prepare(spec); err == nil {
		t.Fatal("Prepare accepted rules using M with arity 1 and 2")
	}
}

func TestSessionNegationRebuild(t *testing.T) {
	p, err := Prepare(testSpec(t, true))
	if err != nil {
		t.Fatal(err)
	}
	s, err := p.NewSession(context.Background(), d0())
	if err != nil {
		t.Fatal(err)
	}
	// Before: p1 has no measurements, so Quiet(p1, c2) holds.
	if !snapshot(s).ContainsAtom(dl.A("Quiet", dl.C("p1"), dl.C("c2"))) {
		t.Fatal("expected Quiet(p1,c2) before delta")
	}
	res, err := s.Apply(context.Background(), []dl.Atom{
		dl.A("R0", dl.C("c2"), dl.C("v1")),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Rebuilt {
		t.Fatal("negated program must rebuild the derived layer")
	}
	// After: M(p1) retracts Quiet(p1, c2) — only a rebuild gets this
	// right, which is exactly why the fallback exists.
	snap := snapshot(s)
	if snap.ContainsAtom(dl.A("Quiet", dl.C("p1"), dl.C("c2"))) {
		t.Fatal("Quiet(p1,c2) survived its negation trigger")
	}
	if !snap.ContainsAtom(dl.A("M", dl.C("p1"))) {
		t.Fatal("snapshot missing M(p1)")
	}
}

func TestSessionSnapshotIsolation(t *testing.T) {
	p, err := Prepare(testSpec(t, false))
	if err != nil {
		t.Fatal(err)
	}
	s, err := p.NewSession(context.Background(), d0())
	if err != nil {
		t.Fatal(err)
	}
	before := snapshot(s)
	m0 := before.Relation("M").Len()
	if _, err := s.Apply(context.Background(), []dl.Atom{dl.A("R0", dl.C("c2"), dl.C("v9"))}); err != nil {
		t.Fatal(err)
	}
	if before.Relation("M").Len() != m0 {
		t.Fatal("earlier snapshot changed under Apply")
	}
	if snapshot(s).Relation("M").Len() != m0+1 {
		t.Fatal("new snapshot missing the applied delta's derivation")
	}
}

func TestSessionReplanOnDrift(t *testing.T) {
	p, err := Prepare(testSpec(t, false))
	if err != nil {
		t.Fatal(err)
	}
	s, err := p.NewSession(context.Background(), d0())
	if err != nil {
		t.Fatal(err)
	}
	// A batch big enough to push R0 past the drift floor (64) and a 2×
	// growth over the cardinality the plans were costed against.
	var big []dl.Atom
	for i := 0; i < 80; i++ {
		big = append(big, dl.A("R0", dl.C("c0"), dl.C(fmt.Sprintf("v%d", i))))
	}
	res, err := s.Apply(context.Background(), big)
	if err != nil {
		t.Fatal(err)
	}
	// Drift is latched, never serviced on the apply that detected it.
	if res.Replanned {
		t.Fatal("re-plan ran on the drift-detecting apply (must be deferred)")
	}
	// The next apply services the re-plan before running its batch.
	res, err = s.Apply(context.Background(), []dl.Atom{dl.A("R0", dl.C("c2"), dl.C("w"))})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Replanned {
		t.Fatal("deferred re-plan did not run on the next apply")
	}
	// Once re-costed, small applies do not re-trigger.
	res, err = s.Apply(context.Background(), []dl.Atom{dl.A("R0", dl.C("c2"), dl.C("w2"))})
	if err != nil {
		t.Fatal(err)
	}
	if res.Replanned {
		t.Fatal("spurious re-plan after the plans were re-costed")
	}

	// Re-planning must not change a single answer: a fresh session fed
	// all the same data at once holds the identical fixpoint.
	all := d0()
	for _, a := range big {
		all.MustInsert(a.Pred, a.Args...)
	}
	all.MustInsert("R0", dl.C("c2"), dl.C("w"))
	all.MustInsert("R0", dl.C("c2"), dl.C("w2"))
	fresh, err := p.NewSession(context.Background(), all)
	if err != nil {
		t.Fatal(err)
	}
	if !snapshot(s).Equal(snapshot(fresh)) {
		t.Fatal("re-planned session diverged from a fresh session over the same data")
	}
}

func TestPreparedSharedAcrossSessions(t *testing.T) {
	p, err := Prepare(testSpec(t, false))
	if err != nil {
		t.Fatal(err)
	}
	s1, err := p.NewSession(context.Background(), d0())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Apply(context.Background(), []dl.Atom{dl.A("R0", dl.C("c2"), dl.C("vX"))}); err != nil {
		t.Fatal(err)
	}
	// A second session from the same Prepared must not see the first
	// session's delta.
	s2, err := p.NewSession(context.Background(), d0())
	if err != nil {
		t.Fatal(err)
	}
	if snapshot(s2).ContainsAtom(dl.A("R0", dl.C("c2"), dl.C("vX"))) {
		t.Fatal("sessions share mutable state")
	}
}
