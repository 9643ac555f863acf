package gen

import (
	"context"
	"math"
	"testing"

	"repro/internal/chase"
	"repro/internal/core"
	dl "repro/internal/datalog"
	"repro/internal/hm"
	"repro/internal/qa"
	"repro/internal/rewrite"
)

// chainQueries builds a battery of conjunctive queries against a chain
// ontology, covering upward targets at every level, point lookups and
// joins with rollup predicates.
func chainQueries(spec ChainSpec) []*dl.Query {
	var out []*dl.Query
	if spec.Upward {
		for l := 0; l < spec.Dim.Levels; l++ {
			out = append(out, dl.NewQuery(
				dl.A("Q", dl.V("c"), dl.V("x")),
				dl.A(UpRelName(l), dl.V("c"), dl.V("x"))))
		}
		// Point lookup at the top for a known base value.
		top := spec.Dim.Levels - 1
		out = append(out, dl.NewQuery(
			dl.A("Q", dl.V("c")),
			dl.A(UpRelName(top), dl.V("c"), dl.C("v0"))))
		if spec.Dim.Levels >= 2 {
			roll := hm.RollupPredName(spec.Dim.CategoryName(0), spec.Dim.CategoryName(1))
			out = append(out, dl.NewQuery(
				dl.A("Q", dl.V("x"), dl.V("p")),
				dl.A(UpRelName(0), dl.V("c"), dl.V("x")),
				dl.A(roll, dl.V("p"), dl.V("c"))))
		}
	}
	if spec.Downward {
		for l := spec.Dim.Levels - 1; l >= 0; l-- {
			out = append(out, dl.NewQuery(
				dl.A("Q", dl.V("c"), dl.V("x")),
				dl.A(DownRelName(l), dl.V("c"), dl.V("x"), dl.V("z"))))
		}
		// The invented Extra attribute is never a certain answer.
		if spec.Dim.Levels >= 2 {
			out = append(out, dl.NewQuery(
				dl.A("Q", dl.V("z")),
				dl.A(DownRelName(0), dl.V("c"), dl.V("x"), dl.V("z"))))
		}
	}
	return out
}

func TestLinearDimensionShape(t *testing.T) {
	spec := DimensionSpec{Name: "D", Levels: 3, Fanout: 4, BaseMembers: 16}
	d, err := LinearDimension(spec)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(d.MembersOf(spec.CategoryName(0))); got != 16 {
		t.Errorf("L0 members = %d, want 16", got)
	}
	if got := len(d.MembersOf(spec.CategoryName(1))); got != 4 {
		t.Errorf("L1 members = %d, want 4", got)
	}
	if got := len(d.MembersOf(spec.CategoryName(2))); got != 1 {
		t.Errorf("L2 members = %d, want 1", got)
	}
	if vs := d.CheckStrictness(); len(vs) != 0 {
		t.Errorf("generated dimension must be strict: %v", vs)
	}
	if vs := d.CheckHomogeneity(); len(vs) != 0 {
		t.Errorf("generated dimension must be homogeneous: %v", vs)
	}
	if !d.Summarizable(spec.CategoryName(0), spec.CategoryName(2)) {
		t.Error("generated dimension must be summarizable bottom to top")
	}
}

func TestLinearDimensionDeterminism(t *testing.T) {
	spec := DimensionSpec{Name: "D", Levels: 3, Fanout: 3, BaseMembers: 10}
	a, err := LinearDimension(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := LinearDimension(spec)
	if err != nil {
		t.Fatal(err)
	}
	if a.MemberCount() != b.MemberCount() {
		t.Error("same spec must generate identical dimensions")
	}
}

func TestLinearDimensionInvalidSpec(t *testing.T) {
	for _, spec := range []DimensionSpec{
		{Name: "D", Levels: 0, Fanout: 2, BaseMembers: 4},
		{Name: "D", Levels: 2, Fanout: 0, BaseMembers: 4},
		{Name: "D", Levels: 2, Fanout: 2, BaseMembers: 0},
	} {
		if _, err := LinearDimension(spec); err == nil {
			t.Errorf("spec %+v must be rejected", spec)
		}
	}
}

func TestChainOntologyUpward(t *testing.T) {
	spec := ChainSpec{
		Dim:    DimensionSpec{Name: "D", Levels: 3, Fanout: 4, BaseMembers: 16},
		Tuples: 50,
		Upward: true,
		Seed:   1,
	}
	o, err := ChainOntology(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !o.IsUpwardOnly() {
		t.Error("upward chain must be upward-only")
	}
	comp, err := o.Compile(core.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !comp.Report.WeaklySticky {
		t.Errorf("generated ontology must be WS: %s", comp.Report.WSWitness)
	}
	res, err := chase.Run(context.Background(), comp.Program, comp.Instance, chase.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Saturated {
		t.Fatal("chase must saturate")
	}
	// Every base tuple propagates to exactly one tuple per level
	// (strict hierarchy): R2 distinct count = distinct (top member,
	// val) pairs = number of base tuples (vals are unique).
	if got := res.Instance.Relation(UpRelName(2)).Len(); got != 50 {
		t.Errorf("R2 = %d tuples, want 50", got)
	}
	if res.NullsCreated != 0 {
		t.Error("upward chain must not invent nulls")
	}
}

func TestChainOntologyDownward(t *testing.T) {
	spec := ChainSpec{
		Dim:      DimensionSpec{Name: "D", Levels: 3, Fanout: 2, BaseMembers: 4},
		Tuples:   10,
		Downward: true,
		Seed:     2,
	}
	o, err := ChainOntology(spec)
	if err != nil {
		t.Fatal(err)
	}
	if o.IsUpwardOnly() {
		t.Error("downward chain is not upward-only")
	}
	comp, err := o.Compile(core.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := chase.Run(context.Background(), comp.Program, comp.Instance, chase.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Saturated {
		t.Fatal("chase must saturate")
	}
	// Each top tuple fans out to its children: S0 = 10 × (children of
	// each top member down to L0) = 10 × 4 with fanout 2 over 2 hops
	// ... every L0 member maps up to the single L2 member, so each of
	// the 10 top tuples yields 4 S0 tuples.
	if got := res.Instance.Relation(DownRelName(0)).Len(); got != 40 {
		t.Errorf("S0 = %d tuples, want 40", got)
	}
	if res.NullsCreated == 0 {
		t.Error("downward rules must invent payload nulls")
	}
}

func TestEnginesAgreeOnGeneratedOntologies(t *testing.T) {
	// Cross-engine property: DetQA ≡ chase certain answers on every
	// generated ontology and query; rewriting agrees on the
	// upward-only ones.
	specs := []ChainSpec{
		{Dim: DimensionSpec{Name: "A", Levels: 2, Fanout: 3, BaseMembers: 9}, Tuples: 20, Upward: true, Seed: 3},
		{Dim: DimensionSpec{Name: "B", Levels: 3, Fanout: 2, BaseMembers: 8}, Tuples: 15, Upward: true, Seed: 4},
		{Dim: DimensionSpec{Name: "C", Levels: 3, Fanout: 2, BaseMembers: 4}, Tuples: 8, Downward: true, Seed: 5},
		{Dim: DimensionSpec{Name: "E", Levels: 2, Fanout: 4, BaseMembers: 8}, Tuples: 12, Upward: true, Downward: true, Seed: 6},
	}
	for si, spec := range specs {
		o, err := ChainOntology(spec)
		if err != nil {
			t.Fatal(err)
		}
		comp, err := o.Compile(core.CompileOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for qi, q := range chainQueries(spec) {
			oracle, err := qa.CertainAnswersViaChase(context.Background(), comp.Program, comp.Instance, q, qa.ChaseOptions{})
			if err != nil {
				t.Fatalf("spec %d query %d oracle: %v", si, qi, err)
			}
			det, err := qa.Answer(context.Background(), comp.Program, comp.Instance, q, qa.Options{
				MaxDepth: 2*spec.Dim.Levels + 4,
			})
			if err != nil {
				t.Fatalf("spec %d query %d det: %v", si, qi, err)
			}
			if !det.Equal(oracle) {
				t.Errorf("spec %d query %d (%s): DetQA %d answers, oracle %d\nDetQA: %soracle: %s",
					si, qi, q, det.Len(), oracle.Len(), det, oracle)
			}
			if o.IsUpwardOnly() {
				rew, err := rewrite.Answer(context.Background(), comp.Program, comp.Instance, q, rewrite.Options{})
				if err != nil {
					t.Fatalf("spec %d query %d rewrite: %v", si, qi, err)
				}
				if !rew.Equal(oracle) {
					t.Errorf("spec %d query %d: rewrite %d answers, oracle %d",
						si, qi, rew.Len(), oracle.Len())
				}
			}
		}
	}
}

func TestQualityWorkloadExactCleanCount(t *testing.T) {
	for _, ratio := range []float64{0.0, 0.25, 0.5, 1.0} {
		w, err := NewQualityWorkload(QualitySpec{
			Patients: 20, Days: 3, Wards: 2, DirtyRatio: ratio, Seed: 7,
		})
		if err != nil {
			t.Fatal(err)
		}
		a, err := w.Context.Assess(context.Background(), w.Instance)
		if err != nil {
			t.Fatal(err)
		}
		mq := a.Versions["Measurements"]
		if mq.Len() != w.ExpectedClean {
			t.Errorf("ratio %.2f: quality version = %d tuples, want %d",
				ratio, mq.Len(), w.ExpectedClean)
		}
		m := a.Measures["Measurements"]
		if m.Original != w.Total {
			t.Errorf("ratio %.2f: original = %d, want %d", ratio, m.Original, w.Total)
		}
		wantClean := float64(w.ExpectedClean) / float64(w.Total)
		if math.Abs(m.CleanFraction()-wantClean) > 1e-9 {
			t.Errorf("ratio %.2f: clean fraction = %v, want %v", ratio, m.CleanFraction(), wantClean)
		}
	}
}

func TestQualityWorkloadInvalidSpec(t *testing.T) {
	if _, err := NewQualityWorkload(QualitySpec{Patients: 0, Days: 1, Wards: 1}); err == nil {
		t.Error("invalid spec must be rejected")
	}
}

func TestChainQueriesValidity(t *testing.T) {
	spec := ChainSpec{
		Dim:      DimensionSpec{Name: "D", Levels: 3, Fanout: 2, BaseMembers: 4},
		Tuples:   5,
		Upward:   true,
		Downward: true,
		Seed:     8,
	}
	qs := chainQueries(spec)
	if len(qs) == 0 {
		t.Fatal("no queries generated")
	}
	for i, q := range qs {
		if err := q.Validate(); err != nil {
			t.Errorf("query %d invalid: %v", i, err)
		}
	}
}

func TestMembersAtConvergesToOne(t *testing.T) {
	spec := DimensionSpec{Name: "D", Levels: 10, Fanout: 3, BaseMembers: 5}
	if spec.MembersAt(9) != 1 {
		t.Errorf("top level members = %d, want 1", spec.MembersAt(9))
	}
	if spec.MembersAt(0) != 5 {
		t.Errorf("bottom level members = %d, want 5", spec.MembersAt(0))
	}
}

func TestChaseCertainAnswersDropInventedPayload(t *testing.T) {
	// The "Extra" attribute query on S0 must return only "known"
	// from the top level... no: S0's Extra values are all invented
	// nulls (only the top level has "known"), so the certain answer
	// set is empty.
	spec := ChainSpec{
		Dim:      DimensionSpec{Name: "D", Levels: 2, Fanout: 2, BaseMembers: 4},
		Tuples:   6,
		Downward: true,
		Seed:     9,
	}
	o, err := ChainOntology(spec)
	if err != nil {
		t.Fatal(err)
	}
	comp, err := o.Compile(core.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	q := dl.NewQuery(dl.A("Q", dl.V("z")),
		dl.A(DownRelName(0), dl.V("c"), dl.V("x"), dl.V("z")))
	oracle, err := qa.CertainAnswersViaChase(context.Background(), comp.Program, comp.Instance, q, qa.ChaseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if oracle.Len() != 0 {
		t.Errorf("invented payloads must not be certain: %v", oracle)
	}
}
