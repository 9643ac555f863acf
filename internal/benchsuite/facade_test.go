package benchsuite

import (
	"context"
	"fmt"
	"iter"
	"testing"

	"repro/internal/gen"
	"repro/mdqa"
)

// ---- The public facade: assessment, dashboard reads and refresh ----

// facadeContext rebuilds a generated workload's context through the
// public functional-options constructor, exactly as an external
// consumer would; extra options (e.g. WithSource) append after the
// workload's own.
func facadeContext(b *testing.B, wl *gen.QualityWorkload, extra ...mdqa.Option) *mdqa.Context {
	b.Helper()
	var opts []mdqa.Option
	for _, r := range wl.Config.Mappings {
		opts = append(opts, mdqa.WithMapping(r))
	}
	for _, r := range wl.Config.QualityRules {
		opts = append(opts, mdqa.WithQualityRule(r))
	}
	for _, v := range wl.Config.Versions {
		opts = append(opts, mdqa.WithQualityVersion(v.Original, v.Pred, v.Rules...))
	}
	qc, err := mdqa.NewContext(wl.Ontology, append(opts, extra...)...)
	if err != nil {
		b.Fatal(err)
	}
	return qc
}

// facadePrepare prepares the context of the streaming workload at n
// through the facade.
func facadePrepare(b *testing.B, n int, extra ...mdqa.Option) (*gen.StreamingWorkload, *mdqa.Prepared) {
	b.Helper()
	wl := streamWorkload(b, n)
	prep, err := facadeContext(b, wl.Base, extra...).Prepare(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	return wl, prep
}

// facadeSession opens a facade session over the workload's base
// instance.
func facadeSession(b *testing.B, wl *gen.StreamingWorkload, prep *mdqa.Prepared) *mdqa.Session {
	b.Helper()
	sess, err := prep.NewSession(context.Background(), wl.Base.Instance)
	if err != nil {
		b.Fatal(err)
	}
	return sess
}

// dashboardQuery is the shape of a dashboard poll: a selective join
// bound to one patient. The last patient is always in the clean half
// of the generated population, so the clean-mode rewrite keeps its
// measurements, and four atoms make the compile cost representative
// of a real dashboard join (measurement, its quality witness, the unit
// it was taken in).
func dashboardQuery(n int) string {
	p := fmt.Sprintf("p%d", streamWorkloadSpec(n).Base.Patients-1)
	return fmt.Sprintf(
		`q(t, v, u) <- Measurements(t, %q, v), RightTherm(t, %q), PatientUnit(u, d, %q), DayTime(d, t)`, p, p, p)
}

// drainAnswers streams every answer and fails the benchmark on an
// error or an empty result.
func drainAnswers(b *testing.B, answers iter.Seq2[mdqa.Answer, error]) {
	got := 0
	for _, err := range answers {
		if err != nil {
			b.Fatal(err)
		}
		got++
	}
	if got == 0 {
		b.Fatal("dashboard query returned no answers")
	}
}

// BenchmarkFacadeColdAssess is ColdAssess through the public
// NewContext/Assess entry points; it must stay within noise of the
// engine number.
func BenchmarkFacadeColdAssess(b *testing.B) {
	for _, n := range streamSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			ctx := context.Background()
			wl, prep := facadePrepare(b, n)
			qc := prep.Context()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a, err := qc.Assess(ctx, wl.Base.Instance)
				if err != nil {
					b.Fatal(err)
				}
				if v := a.Versions()["Measurements"]; v == nil || v.Len() != wl.Base.ExpectedClean {
					b.Fatal("wrong clean count")
				}
			}
		})
	}
}

// BenchmarkFacadeWarmApply is WarmAssess through the public
// Prepare/NewSession/Apply entry points.
func BenchmarkFacadeWarmApply(b *testing.B) {
	for _, n := range streamSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			wl, prep := facadePrepare(b, n)
			var sess *mdqa.Session
			warmLoop(b, func() { sess = facadeSession(b, wl, prep) }, func(t int) {
				delta, _ := wl.Tick(t)
				if _, err := sess.Apply(context.Background(), delta); err != nil {
					b.Fatal(err)
				}
			})
		})
	}
}

// BenchmarkAdhocQuery measures the server's repeated ad-hoc query path
// — parse the query source, plan it, stream the clean answers off a
// session snapshot — without and with a shared plan cache. Answer
// streaming is cheap, so the off/on delta isolates the per-request
// planning cost the cache amortizes for repeated identical queries.
func BenchmarkAdhocQuery(b *testing.B) {
	for _, n := range streamSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			wl, prep := facadePrepare(b, n)
			snap := facadeSession(b, wl, prep).Snapshot()
			src := dashboardQuery(n)
			// 128 is mdserve's per-context plan cache capacity.
			for _, c := range []struct {
				name  string
				cache *mdqa.PlanCache
			}{{"off", nil}, {"on", mdqa.NewPlanCache(128)}} {
				b.Run("cache="+c.name, func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						q, err := mdqa.ParseQuery(src)
						if err != nil {
							b.Fatal(err)
						}
						drainAnswers(b, snap.CleanAnswersCached(q, c.cache))
					}
				})
			}
		})
	}
}

// BenchmarkAsOfAnswers measures the time-travel read path next to the
// live one. The session applies a few ticks so its history holds
// several versions; each op resolves a view — the latest, or version 1
// — and streams the dashboard query. A retained version is a handle
// lookup, not a replay, so asof must stay within noise of live.
func BenchmarkAsOfAnswers(b *testing.B) {
	for _, n := range streamSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			ctx := context.Background()
			wl, prep := facadePrepare(b, n)
			sess := facadeSession(b, wl, prep)
			for t := 0; t < 4; t++ {
				delta, _ := wl.Tick(t)
				if _, err := sess.Apply(ctx, delta); err != nil {
					b.Fatal(err)
				}
			}
			q, err := mdqa.ParseQuery(dashboardQuery(n))
			if err != nil {
				b.Fatal(err)
			}
			for _, v := range []struct {
				name string
				opts []mdqa.ViewOption
			}{{"live", nil}, {"asof", []mdqa.ViewOption{mdqa.At(1)}}} {
				b.Run("view="+v.name, func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						snap, err := sess.View(v.opts...)
						if err != nil {
							b.Fatal(err)
						}
						drainAnswers(b, snap.CleanAnswers(q))
					}
				})
			}
		})
	}
}

// BenchmarkSourceRefresh measures Session.Refresh folding a federated
// contextual stream: the workload's ward assignments arrive through a
// bound in-memory source instead of the apply stream. Each op ingests
// one tick's other facts via Apply and publishes its ward rows to the
// source, both off-timer, then times the refresh that folds them
// through the incremental chase. Next to FacadeColdAssess the delta is
// what a refresh saves over re-assessing the grown instance.
func BenchmarkSourceRefresh(b *testing.B) {
	for _, n := range streamSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			ctx := context.Background()
			wards := mdqa.NewMemSource(mdqa.SourceSchema{
				Relation: "PatientWard",
				Attrs:    []string{"Ward", "Day", "Patient"},
			})
			wl, prep := facadePrepare(b, n, mdqa.WithSource("wards", wards))
			var sess *mdqa.Session
			warmLoop(b, func() {
				wards.Set()
				sess = facadeSession(b, wl, prep)
			}, func(t int) {
				b.StopTimer()
				delta, _ := wl.Tick(t)
				rest := delta[:0:0]
				for _, a := range delta {
					if a.Pred == "PatientWard" {
						wards.Add(a.Args[0].Name, a.Args[1].Name, a.Args[2].Name)
					} else {
						rest = append(rest, a)
					}
				}
				if _, err := sess.Apply(ctx, rest); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				rr, err := sess.Refresh(ctx)
				if err != nil {
					b.Fatal(err)
				}
				if !rr.Changed || rr.Rebuilt {
					b.Fatalf("refresh: changed=%v rebuilt=%v, want an incremental change", rr.Changed, rr.Rebuilt)
				}
			})
		})
	}
}
