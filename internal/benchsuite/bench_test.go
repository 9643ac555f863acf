// Package repro's root benchmark suite: one testing.B benchmark per
// paper table and figure (the experiment list is bench.All in
// internal/bench), the scaling experiments behind the complexity
// claims, and ablation benchmarks for the engine's design choices.
//
// Run with: go test ./internal/benchsuite -bench=. -benchmem
package benchsuite

import (
	"context"
	"fmt"
	"io"
	"testing"

	"repro/internal/bench"
	"repro/internal/chase"
	"repro/internal/core"
	"repro/internal/datalog"
	"repro/internal/gen"
	"repro/internal/hospital"
	"repro/internal/qa"
	"repro/internal/rewrite"
	"repro/internal/sticky"
	"repro/internal/storage"
)

// benchExperiment runs one harness experiment per iteration.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := bench.ByID(id)
	if !ok {
		b.Fatalf("experiment %s missing", id)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Run(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- One benchmark per paper table and figure ----

func BenchmarkTableI_Load(b *testing.B)                { benchExperiment(b, "T1") }
func BenchmarkTableII_QualityVersion(b *testing.B)     { benchExperiment(b, "T2") }
func BenchmarkTableIII_Load(b *testing.B)              { benchExperiment(b, "T3") }
func BenchmarkTableIV_DownwardNavigation(b *testing.B) { benchExperiment(b, "T4") }
func BenchmarkTableV_ExistentialDownward(b *testing.B) { benchExperiment(b, "T5") }
func BenchmarkFig1_ModelConstruction(b *testing.B)     { benchExperiment(b, "F1") }
func BenchmarkFig2_ContextPipeline(b *testing.B)       { benchExperiment(b, "F2") }

// ---- C1: PTIME data complexity — chase and QA scaling ----

func scalingSetup(b *testing.B, n int) (*datalog.Program, *storage.Instance, *datalog.Query) {
	b.Helper()
	prog, db, q, err := bench.ScalingWorkload(n)
	if err != nil {
		b.Fatal(err)
	}
	return prog, db, q
}

func BenchmarkScaling_Chase(b *testing.B) {
	for _, n := range []int{100, 400, 1600} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			prog, db, _ := scalingSetup(b, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := chase.Run(context.Background(), prog, db, chase.Options{})
				if err != nil || !res.Saturated {
					b.Fatalf("chase failed: %v", err)
				}
			}
		})
	}
}

// BenchmarkScaling_QA measures chase-based certain-answer computation
// (chase to saturation + query evaluation over the result), the hot
// path behind WeaklyStickyQAns and the quality-assessment pipeline.
func BenchmarkScaling_QA(b *testing.B) {
	for _, n := range []int{100, 400, 1600} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			prog, db, q := scalingSetup(b, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := qa.CertainAnswersViaChase(context.Background(), prog, db, q, qa.ChaseOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkScaling_DetQA(b *testing.B) {
	for _, n := range []int{100, 400, 1600} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			prog, db, q := scalingSetup(b, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := qa.Answer(context.Background(), prog, db, q, qa.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- C2: FO rewriting vs chase on upward-only ontologies ----

func BenchmarkUpward_RewriteVsChase(b *testing.B) {
	for _, levels := range []int{2, 3, 4} {
		spec := gen.ChainSpec{
			Dim:    gen.DimensionSpec{Name: "S", Levels: levels, Fanout: 4, BaseMembers: 32},
			Tuples: 500,
			Upward: true,
			Seed:   7,
		}
		o, err := gen.ChainOntology(spec)
		if err != nil {
			b.Fatal(err)
		}
		comp, err := o.Compile(core.CompileOptions{})
		if err != nil {
			b.Fatal(err)
		}
		q := datalog.NewQuery(datalog.A("Q", datalog.V("c")),
			datalog.A(gen.UpRelName(levels-1), datalog.V("c"), datalog.C("v1")))
		b.Run(fmt.Sprintf("rewrite/depth=%d", levels), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := rewrite.Answer(context.Background(), comp.Program, comp.Instance, q, rewrite.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("chase/depth=%d", levels), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := qa.CertainAnswersViaChase(context.Background(), comp.Program, comp.Instance, q, qa.ChaseOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- C3: classifier throughput ----

func BenchmarkClassifier(b *testing.B) {
	o := hospital.NewOntology(hospital.Options{WithRuleNine: true, WithConstraints: true})
	comp, err := o.Compile(core.CompileOptions{ReferentialNCs: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := sticky.Classify(comp.Program)
		if !rep.WeaklySticky {
			b.Fatal("hospital must be WS")
		}
	}
}

// ---- C4: quality pipeline at scale ----

func BenchmarkQualityMeasure_Sweep(b *testing.B) {
	for _, ratio := range []float64{0.0, 0.5, 1.0} {
		b.Run(fmt.Sprintf("dirty=%.1f", ratio), func(b *testing.B) {
			wl, err := gen.NewQualityWorkload(gen.QualitySpec{
				Patients: 40, Days: 4, Wards: 3, DirtyRatio: ratio, Seed: 11,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a, err := wl.Context.Assess(context.Background(), wl.Instance)
				if err != nil {
					b.Fatal(err)
				}
				if a.Versions["Measurements"].Len() != wl.ExpectedClean {
					b.Fatal("wrong clean count")
				}
			}
		})
	}
}

// ---- C5: prepared sessions — cold vs warm assessment ----

// BenchmarkColdAssess measures a from-scratch assessment (session
// build: merge + full chase + full eval + measures) of the streaming
// workload's base instance at n total measurements. Compilation is
// prepared once outside the loop, so the number isolates the per-
// request work a session amortizes.
func BenchmarkColdAssess(b *testing.B) {
	for _, n := range []int{100, 400, 1600} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			wl, err := gen.NewStreamingWorkload(bench.StreamWorkloadSpec(n))
			if err != nil {
				b.Fatal(err)
			}
			if _, err := wl.Base.Context.Prepare(context.Background()); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a, err := wl.Base.Context.Assess(context.Background(), wl.Base.Instance)
				if err != nil {
					b.Fatal(err)
				}
				if a.Versions["Measurements"].Len() != wl.Base.ExpectedClean {
					b.Fatal("wrong clean count")
				}
			}
		})
	}
}

// BenchmarkWarmAssess measures Session.Apply of a ~1% delta tick
// against a prepared, already-saturated session — the steady-state
// cost of keeping quality versions current as data streams in.
func BenchmarkWarmAssess(b *testing.B) {
	for _, n := range []int{100, 400, 1600} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			wl, err := gen.NewStreamingWorkload(bench.StreamWorkloadSpec(n))
			if err != nil {
				b.Fatal(err)
			}
			prep, err := wl.Base.Context.Prepare(context.Background())
			if err != nil {
				b.Fatal(err)
			}
			sess, err := prep.NewSession(context.Background(), wl.Base.Instance)
			if err != nil {
				b.Fatal(err)
			}
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			// The session is rebuilt (off-timer) every few ticks so the
			// measured instance stays near n instead of growing with
			// b.N — the number is the steady-state cost of one tick.
			tick := 0
			for i := 0; i < b.N; i++ {
				if tick == bench.WarmResetTicks {
					b.StopTimer()
					sess, err = prep.NewSession(context.Background(), wl.Base.Instance)
					if err != nil {
						b.Fatal(err)
					}
					tick = 0
					b.StartTimer()
				}
				delta, _ := wl.Tick(tick)
				tick++
				if _, err := sess.Apply(ctx, delta); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- Ablations (the engine's design choices) ----

// BenchmarkAblation_RestrictedVsOblivious compares the two chase
// variants on the downward-navigating hospital ontology.
func BenchmarkAblation_RestrictedVsOblivious(b *testing.B) {
	o := hospital.NewOntology(hospital.Options{WithRuleNine: true})
	comp, err := o.Compile(core.CompileOptions{})
	if err != nil {
		b.Fatal(err)
	}
	for _, variant := range []chase.Variant{chase.Restricted, chase.Oblivious} {
		b.Run(variant.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := chase.Run(context.Background(), comp.Program, comp.Instance, chase.Options{Variant: variant}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblation_MemoOnOff measures DetQA's ground-subgoal
// memoization on a query with repeated subgoals.
func BenchmarkAblation_MemoOnOff(b *testing.B) {
	prog, db, q := scalingSetup(b, 400)
	for _, disable := range []bool{false, true} {
		name := "memo"
		if disable {
			name = "no-memo"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := qa.Answer(context.Background(), prog, db, q, qa.Options{DisableMemo: disable}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblation_SubsumptionOnOff measures rewriting with and
// without subsumption pruning on a rule set with redundancy.
func BenchmarkAblation_SubsumptionOnOff(b *testing.B) {
	o := hospital.NewOntology(hospital.Options{WithRuleNine: true})
	comp, err := o.Compile(core.CompileOptions{TransitiveRollups: true})
	if err != nil {
		b.Fatal(err)
	}
	q := datalog.NewQuery(datalog.A("Q", datalog.V("u"), datalog.V("d")),
		datalog.A("PatientUnit", datalog.V("u"), datalog.V("d"), datalog.C(hospital.TomWaits)))
	for _, disable := range []bool{false, true} {
		name := "subsumption"
		if disable {
			name = "no-subsumption"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := rewrite.Rewrite(comp.Program, q, rewrite.Options{DisableSubsumption: disable}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblation_IndexedMatch compares a compiled single-atom plan
// (an index probe on the constant) against a full-scan baseline
// implemented inline.
func BenchmarkAblation_IndexedMatch(b *testing.B) {
	_, db, _ := scalingSetup(b, 1600)
	pattern := datalog.A(gen.UpRelName(0), datalog.V("c"), datalog.C("v7"))
	b.Run("indexed", func(b *testing.B) {
		plan := storage.CompileQueryPlan(db, []datalog.Atom{pattern})
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			found := 0
			plan.Run(db, datalog.NewSubst(), func(datalog.Subst) bool {
				found++
				return true
			})
			if found != 1 {
				b.Fatalf("found %d", found)
			}
		}
	})
	b.Run("full-scan", func(b *testing.B) {
		rel := db.Relation(gen.UpRelName(0))
		var buf []datalog.Term
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			found := 0
			for _, row := range rel.Rows() {
				buf = rel.Interner().Terms(row, buf[:0])
				fact := datalog.Atom{Pred: pattern.Pred, Args: buf}
				if _, ok := datalog.Match(pattern, fact, datalog.NewSubst()); ok {
					found++
				}
			}
			if found != 1 {
				b.Fatalf("found %d", found)
			}
		}
	})
}

// BenchmarkParserHospital measures parsing the full hospital .mdq.
func BenchmarkParserHospital(b *testing.B) {
	// Indirect via the bench harness to avoid importing parser here:
	// the parser benchmark lives in its own package; this one spans
	// the whole pipeline: parse-free fixture build + compile.
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		o := hospital.NewOntology(hospital.Options{WithRuleNine: true, WithConstraints: true})
		if _, err := o.Compile(core.CompileOptions{ReferentialNCs: true}); err != nil {
			b.Fatal(err)
		}
	}
}
