package gen

import (
	"context"
	"strings"
	"testing"

	"repro/internal/core"
	dl "repro/internal/datalog"
	"repro/internal/eval"
	"repro/internal/qa"
)

func TestRelNameHelpers(t *testing.T) {
	if UpRelName(0) != "R0" || UpRelName(3) != "R3" {
		t.Error("UpRelName wrong")
	}
	if DownRelName(0) != "S0" || DownRelName(2) != "S2" {
		t.Error("DownRelName wrong")
	}
	spec := DimensionSpec{Name: "D", Levels: 2, Fanout: 2, BaseMembers: 4}
	if spec.CategoryName(1) != "D_L1" {
		t.Errorf("CategoryName = %q", spec.CategoryName(1))
	}
	if spec.MemberName(0, 3) != "D_m0_3" {
		t.Errorf("MemberName = %q", spec.MemberName(0, 3))
	}
}

func TestChainOntologyInvalidDim(t *testing.T) {
	spec := ChainSpec{
		Dim:    DimensionSpec{Name: "D", Levels: 0, Fanout: 2, BaseMembers: 4},
		Tuples: 5, Upward: true,
	}
	if _, err := ChainOntology(spec); err == nil {
		t.Error("invalid dimension spec must propagate")
	}
}

func TestChainOntologyDeterministicData(t *testing.T) {
	spec := ChainSpec{
		Dim:    DimensionSpec{Name: "D", Levels: 2, Fanout: 2, BaseMembers: 4},
		Tuples: 10, Upward: true, Seed: 99,
	}
	a, err := ChainOntology(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ChainOntology(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Data().Equal(b.Data()) {
		t.Error("same seed must produce identical data")
	}
	spec.Seed = 100
	c, err := ChainOntology(spec)
	if err != nil {
		t.Fatal(err)
	}
	if a.Data().Equal(c.Data()) {
		t.Error("different seeds should (overwhelmingly) differ")
	}
}

func TestChainOntologySingleLevel(t *testing.T) {
	// One level: no rules at all, just the base relation.
	spec := ChainSpec{
		Dim:    DimensionSpec{Name: "D", Levels: 1, Fanout: 2, BaseMembers: 4},
		Tuples: 5, Upward: true, Seed: 1,
	}
	o, err := ChainOntology(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(o.Rules()) != 0 {
		t.Errorf("single-level chain has no rules: %v", o.Rules())
	}
	if o.Data().Relation(UpRelName(0)).Len() == 0 {
		t.Error("base data missing")
	}
}

func TestQualityWorkloadCleanQueryAnswering(t *testing.T) {
	// The workload supports the full clean-answer path, not just
	// version counting.
	w, err := NewQualityWorkload(QualitySpec{
		Patients: 6, Days: 2, Wards: 2, DirtyRatio: 0.5, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	a, err := w.Context.Assess(context.Background(), w.Instance)
	if err != nil {
		t.Fatal(err)
	}
	q := dl.NewQuery(dl.A("Q", dl.V("t"), dl.V("p")),
		dl.A("Measurements", dl.V("t"), dl.V("p"), dl.V("v")))
	clean, err := a.CleanAnswer(q)
	if err != nil {
		t.Fatal(err)
	}
	if clean.Len() != w.ExpectedClean {
		t.Errorf("clean answers = %d, want %d", clean.Len(), w.ExpectedClean)
	}
	raw, err := eval.EvalQuery(q, a.Contextual)
	if err != nil {
		t.Fatal(err)
	}
	if raw.Len() != w.Total {
		t.Errorf("raw answers = %d, want %d", raw.Len(), w.Total)
	}
}

func TestQualityWorkloadIsWeaklySticky(t *testing.T) {
	w, err := NewQualityWorkload(QualitySpec{
		Patients: 4, Days: 2, Wards: 2, DirtyRatio: 0.25, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Reach the ontology through a version-definition assessment: the
	// context was built over it; compile independently to classify.
	a, err := w.Context.Assess(context.Background(), w.Instance)
	if err != nil {
		t.Fatal(err)
	}
	if a.Versions["Measurements"] == nil {
		t.Fatal("version missing")
	}
}

func TestChainQueriesAnswerableByDetQA(t *testing.T) {
	// Sanity: every generated query is actually runnable end to end
	// (the cross-check test asserts equality; this asserts liveness
	// with mixed up+down rules and deeper hierarchies).
	spec := ChainSpec{
		Dim:      DimensionSpec{Name: "M", Levels: 4, Fanout: 2, BaseMembers: 8},
		Tuples:   6,
		Upward:   true,
		Downward: true,
		Seed:     13,
	}
	o, err := ChainOntology(spec)
	if err != nil {
		t.Fatal(err)
	}
	comp, err := o.Compile(core.CompileOptions{ReferentialNCs: true})
	if err != nil {
		t.Fatal(err)
	}
	if !comp.Report.WeaklySticky {
		t.Fatalf("not WS: %s", comp.Report.WSWitness)
	}
	for i, q := range chainQueries(spec) {
		if _, err := qa.Answer(context.Background(), comp.Program, comp.Instance, q, qa.Options{MaxDepth: 12}); err != nil {
			t.Errorf("query %d (%s): %v", i, q, err)
		}
	}
}

func TestLinearDimensionEmitsSortableNames(t *testing.T) {
	spec := DimensionSpec{Name: "D", Levels: 2, Fanout: 3, BaseMembers: 6}
	d, err := LinearDimension(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range d.MembersOf("D_L0") {
		if !strings.HasPrefix(m, "D_m0_") {
			t.Errorf("member name %q not in the expected scheme", m)
		}
	}
}
