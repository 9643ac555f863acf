package mdqa_test

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/mdqa"
)

// TestLatestAssessSharesView: a latest assessment is assembled from
// the newest recorded version, so its contextual instance is the very
// snapshot View returns, and it carries that version's metadata.
func TestLatestAssessSharesView(t *testing.T) {
	ctx := context.Background()
	prep, err := timeTravelContext(t, 1, 0).Prepare(ctx)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := prep.NewSession(ctx, salesInstance(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Apply(ctx, []mdqa.Atom{mdqa.NewAtom("CitySales", mdqa.Const("Toronto"), mdqa.Const("syrup"))}); err != nil {
		t.Fatal(err)
	}
	a, err := sess.Assess(ctx)
	if err != nil {
		t.Fatal(err)
	}
	view, err := sess.View()
	if err != nil {
		t.Fatal(err)
	}
	if a.Contextual() != view.Instance() || a.Snapshot().Instance() != view.Instance() {
		t.Fatal("latest assessment does not share the latest view's snapshot")
	}
	av, vv := a.Snapshot().Version(), view.Version()
	if av.Seq != 1 || vv.Seq != 1 {
		t.Fatalf("assessment version %d, view version %d, want 1", av.Seq, vv.Seq)
	}
	v, err := a.Version("CitySales")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.Insert([]mdqa.Term{mdqa.Const("Lima"), mdqa.Const("corn")}); err == nil {
		t.Fatal("a version relation must reject Insert")
	}
}

// TestAssessMetadataMatchesMeasures runs Assess against a concurrent
// writer whose every batch changes the measures: each assessment's
// version metadata must describe the assessment itself — its scores
// equal its measures and its row count its snapshot's — never the
// next version's. Readers also decode each version relation while the
// writer applies, for the race detector.
func TestAssessMetadataMatchesMeasures(t *testing.T) {
	ctx := context.Background()
	for _, p := range []int{1, 2} {
		t.Run(fmt.Sprintf("parallelism=%d", p), func(t *testing.T) {
			prep, err := timeTravelContext(t, p, 0).Prepare(ctx)
			if err != nil {
				t.Fatal(err)
			}
			sess, err := prep.NewSession(ctx, salesInstance(t))
			if err != nil {
				t.Fatal(err)
			}
			const batches = 40
			var wg sync.WaitGroup
			done := make(chan struct{})
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer close(done)
				for i := 0; i < batches; i++ {
					city := mdqa.Const(fmt.Sprintf("City%d", i))
					if _, err := sess.Apply(ctx, []mdqa.Atom{mdqa.NewAtom("CitySales", city, mdqa.Const("skates"))}); err != nil {
						t.Error(err)
						return
					}
				}
			}()
			for r := 0; r < 2; r++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						select {
						case <-done:
							return
						default:
						}
						a, err := sess.Assess(ctx)
						if err != nil {
							t.Error(err)
							return
						}
						v := a.Snapshot().Version()
						m := a.Measures()["CitySales"]
						sc := v.Scores["CitySales"]
						if sc.Original != m.Original || sc.Quality != m.Quality || sc.Intersection != m.Intersection {
							t.Errorf("version %d scores %+v, assessment measures %+v", v.Seq, sc, m)
							return
						}
						if v.Rows != a.Contextual().TotalTuples() {
							t.Errorf("version %d counts %d rows, its snapshot holds %d", v.Seq, v.Rows, a.Contextual().TotalTuples())
							return
						}
						// The version relation shares the snapshot's
						// interner and rows with the writer's storage:
						// decoding it must not race with the applies.
						rel, err := a.Version("CitySales")
						if err != nil {
							t.Error(err)
							return
						}
						var buf []mdqa.Term
						for _, row := range rel.Rows() {
							buf = rel.Interner().Terms(row, buf[:0])
						}
						if rel.Len() != m.Quality {
							t.Errorf("version %d relation holds %d rows, measure says %d", v.Seq, rel.Len(), m.Quality)
							return
						}
					}
				}()
			}
			wg.Wait()
		})
	}
}
