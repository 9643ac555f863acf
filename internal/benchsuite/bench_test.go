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
	"math/rand"
	"testing"

	"repro/internal/bench"
	"repro/internal/chase"
	"repro/internal/core"
	"repro/internal/datalog"
	"repro/internal/eval"
	"repro/internal/gen"
	"repro/internal/hospital"
	"repro/internal/persist"
	"repro/internal/qa"
	"repro/internal/quality"
	"repro/internal/rewrite"
	"repro/internal/sticky"
	"repro/internal/storage"
	"repro/internal/wal"
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

// streamSizes are the base sizes of the streaming-workload benchmarks.
// Each benchmark builds its workload inside its own sub-benchmark, so
// worker pools, which default to GOMAXPROCS, follow -cpu.
var streamSizes = []int{100, 400, 1600}

// streamWorkloadSpec is the streaming quality workload at n total
// measurements with a ~1% delta tick: the one spec behind the
// assessment, query, refresh and durable benchmarks.
func streamWorkloadSpec(n int) gen.StreamSpec {
	tick := n / 400 // 1% of n measurements, at 4 days per patient
	if tick < 1 {
		tick = 1
	}
	return gen.StreamSpec{
		Base:         gen.QualitySpec{Patients: n / 4, Days: 4, Wards: 3, DirtyRatio: 0.5, Seed: 11},
		TickPatients: tick,
	}
}

// warmResetTicks is how many delta ticks the warm-apply benchmarks
// apply to one session before rebuilding it off-timer: enough to
// amortize, few enough that the instance stays near its nominal size
// while the benchmark harness scales iterations.
const warmResetTicks = 10

// streamWorkload generates the streaming quality workload at n total
// measurements.
func streamWorkload(b *testing.B, n int) *gen.StreamingWorkload {
	b.Helper()
	wl, err := gen.NewStreamingWorkload(streamWorkloadSpec(n))
	if err != nil {
		b.Fatal(err)
	}
	return wl
}

// warmLoop times one delta tick per op. reset opens a fresh session
// before the first tick and again, off-timer, every
// warmResetTicks ticks, so the measured instance stays near its
// nominal size instead of growing with b.N.
func warmLoop(b *testing.B, reset func(), tick func(t int)) {
	b.Helper()
	reset()
	b.ReportAllocs()
	b.ResetTimer()
	t := 0
	for i := 0; i < b.N; i++ {
		if t == warmResetTicks {
			b.StopTimer()
			reset()
			t = 0
			b.StartTimer()
		}
		tick(t)
		t++
	}
}

// BenchmarkColdAssess measures a from-scratch assessment (session
// build: merge + full chase + full eval + measures) of the streaming
// workload's base instance at n total measurements. Compilation is
// prepared once outside the loop, so the number isolates the per-
// request work a session amortizes.
func BenchmarkColdAssess(b *testing.B) {
	for _, n := range streamSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			wl := streamWorkload(b, n)
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
	for _, n := range streamSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			ctx := context.Background()
			wl := streamWorkload(b, n)
			prep, err := wl.Base.Context.Prepare(ctx)
			if err != nil {
				b.Fatal(err)
			}
			var sess *quality.Session
			warmLoop(b, func() {
				if sess, err = prep.NewSession(ctx, wl.Base.Instance); err != nil {
					b.Fatal(err)
				}
			}, func(t int) {
				delta, _ := wl.Tick(t)
				if _, err := sess.Apply(ctx, delta); err != nil {
					b.Fatal(err)
				}
			})
		})
	}
}

// BenchmarkDurableWarmApply is WarmAssess with every applied batch
// also appended to a persist.SessionLog, at each fsync mode; the delta
// to WarmAssess is that mode's durability tax. Opening the log,
// including the full-state snapshot a server writes at session create,
// stays off-timer.
func BenchmarkDurableWarmApply(b *testing.B) {
	for _, n := range streamSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			ctx := context.Background()
			wl := streamWorkload(b, n)
			prep, err := wl.Base.Context.Prepare(ctx)
			if err != nil {
				b.Fatal(err)
			}
			for _, mode := range []wal.SyncMode{wal.SyncAlways, wal.SyncInterval, wal.SyncNone} {
				b.Run("fsync="+mode.String(), func(b *testing.B) {
					store, err := persist.OpenStore(b.TempDir(), persist.Options{WAL: wal.Options{Mode: mode}})
					if err != nil {
						b.Fatal(err)
					}
					sess, err := prep.NewSession(ctx, wl.Base.Instance)
					if err != nil {
						b.Fatal(err)
					}
					log, err := store.CreateSession("bench", "s", persist.Meta{}, sess.Export())
					if err != nil {
						b.Fatal(err)
					}
					defer log.Close()
					warmLoop(b, func() {
						if sess, err = prep.NewSession(ctx, wl.Base.Instance); err != nil {
							b.Fatal(err)
						}
					}, func(t int) {
						delta, _ := wl.Tick(t)
						if _, err := sess.Apply(ctx, delta); err != nil {
							b.Fatal(err)
						}
						if _, err := log.Append(delta); err != nil {
							b.Fatal(err)
						}
					})
				})
			}
		})
	}
}

// BenchmarkRecursiveEval measures the derived layer's recursive
// stratum, which the hospital rules never reach: Reach = Edge⁺ by
// linear recursion over a seeded DAG of n/4 nodes, a chain through
// every node plus 3n/4 random forward edges, so Reach holds every
// forward pair. init is NewState + Init over the DAG. extend is one
// Extend of ten edges that lengthen the chain by ten nodes, each
// reached from every node before it, on a state rebuilt off-timer
// every warmResetTicks ticks.
func BenchmarkRecursiveEval(b *testing.B) {
	ctx := context.Background()
	x, y, z := datalog.V("x"), datalog.V("y"), datalog.V("z")
	prog := eval.NewProgram()
	prog.Add(
		eval.NewRule("edge", datalog.A("Reach", x, y), datalog.A("Edge", x, y)),
		eval.NewRule("step", datalog.A("Reach", x, z), datalog.A("Reach", x, y), datalog.A("Edge", y, z)))
	strata, err := prog.Stratify()
	if err != nil {
		b.Fatal(err)
	}
	node := func(i int) datalog.Term { return datalog.C(fmt.Sprintf("v%d", i)) }
	for _, n := range []int{100, 400, 1600} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			nodes := n / 4
			rng := rand.New(rand.NewSource(int64(n)))
			dag := storage.NewInstance()
			for i := 0; i+1 < nodes; i++ {
				dag.MustInsert("Edge", node(i), node(i+1))
			}
			for k := 0; k < 3*n/4; k++ {
				i := rng.Intn(nodes - 1)
				dag.MustInsert("Edge", node(i), node(i+1+rng.Intn(nodes-1-i)))
			}
			initState := func() *eval.State {
				st := eval.NewState(strata, dag.CloneDetached())
				if err := st.Init(ctx); err != nil {
					b.Fatal(err)
				}
				if got, want := st.Instance().Relation("Reach").Len(), nodes*(nodes-1)/2; got != want {
					b.Fatalf("Init derived %d Reach rows, want %d", got, want)
				}
				return st
			}
			b.Run("init", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					initState()
				}
			})
			b.Run("extend", func(b *testing.B) {
				var st *eval.State
				warmLoop(b, func() { st = initState() }, func(t int) {
					last := nodes + 10*t // chain length before this tick
					in := st.Instance().Interner()
					facts := make([]eval.Fact, 10)
					for k := range facts {
						facts[k] = eval.Fact{Pred: "Edge", Row: []int32{in.ID(node(last + k - 1)), in.ID(node(last + k))}}
					}
					derived, err := st.Extend(ctx, facts)
					if err != nil {
						b.Fatal(err)
					}
					if want := 10*last + 45; len(derived) != want {
						b.Fatalf("Extend derived %d rows, want %d", len(derived), want)
					}
				})
			})
		})
	}
}

// ---- Ablations (the engine's design choices) ----

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
