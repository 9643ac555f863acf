package quality_test

import (
	"context"
	"sync"
	"testing"

	dl "repro/internal/datalog"
	"repro/internal/eval"
	"repro/internal/gen"
	"repro/internal/quality"
)

// parallelContext rebuilds a generated workload's context at an
// explicit parallelism degree (contexts fix the degree at
// construction).
func parallelContext(t *testing.T, wl *gen.StreamingWorkload, degree int) *quality.Context {
	t.Helper()
	cfg := wl.Base.Config
	cfg.Parallelism = degree
	qc, err := quality.NewContext(wl.Base.Ontology, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return qc
}

// TestParallelAssessMatchesSequential pins the full pipeline at p=4
// (chase + eval worker pools) to the same pipeline at p=1, which
// starts no worker goroutines, on the streaming quality workload:
// identical quality versions tuple for tuple, identical measures,
// identical violations.
func TestParallelAssessMatchesSequential(t *testing.T) {
	wl := streamWorkload(t, gen.StreamSpec{
		Base:         gen.QualitySpec{Patients: 28, Days: 3, Wards: 2, DirtyRatio: 0.5, Seed: 41},
		TickPatients: 4,
	})
	seq, err := parallelContext(t, wl, 1).Assess(context.Background(), wl.Base.Instance)
	if err != nil {
		t.Fatal(err)
	}
	par, err := parallelContext(t, wl, 4).Assess(context.Background(), wl.Base.Instance)
	if err != nil {
		t.Fatal(err)
	}
	sv, pv := seq.Versions["Measurements"], par.Versions["Measurements"]
	if sv.Len() != pv.Len() || sv.Len() != wl.Base.ExpectedClean {
		t.Fatalf("clean counts: seq %d, par %d, want %d", sv.Len(), pv.Len(), wl.Base.ExpectedClean)
	}
	for _, tup := range sv.Tuples() {
		if !pv.Contains(tup) {
			t.Fatalf("parallel version missing %v", dl.TermsString(tup))
		}
	}
	if seq.Measures["Measurements"] != par.Measures["Measurements"] {
		t.Fatalf("measures differ: seq %+v, par %+v", seq.Measures["Measurements"], par.Measures["Measurements"])
	}
	if len(seq.Violations) != len(par.Violations) {
		t.Fatalf("violations differ: seq %d, par %d", len(seq.Violations), len(par.Violations))
	}
	// The full contextual instances agree as sets, relation by
	// relation.
	if !seq.Contextual.Equal(par.Contextual) {
		t.Fatal("parallel contextual instance differs from sequential")
	}
}

// TestParallelWarmMatchesSequentialWarm drives two sessions — p=1 and
// p=4 — through the same delta ticks and requires identical
// assessments at the end.
func TestParallelWarmMatchesSequentialWarm(t *testing.T) {
	wl := streamWorkload(t, gen.StreamSpec{
		Base:         gen.QualitySpec{Patients: 20, Days: 3, Wards: 2, DirtyRatio: 0.5, Seed: 29},
		TickPatients: 3,
	})
	const ticks = 4
	ctx := context.Background()

	sessions := make([]*quality.Session, 2)
	for i, deg := range []int{1, 4} {
		prep, err := parallelContext(t, wl, deg).Prepare(ctx)
		if err != nil {
			t.Fatal(err)
		}
		sessions[i], err = prep.NewSession(ctx, wl.Base.Instance)
		if err != nil {
			t.Fatal(err)
		}
	}
	want := wl.Base.ExpectedClean
	for i := 0; i < ticks; i++ {
		delta, clean := wl.Tick(i)
		want += clean
		for _, s := range sessions {
			if _, err := s.Apply(ctx, delta); err != nil {
				t.Fatalf("tick %d: %v", i, err)
			}
		}
	}
	a := make([]*quality.Assessment, 2)
	for i, s := range sessions {
		var err error
		if a[i], _, err = s.Assessment(); err != nil {
			t.Fatal(err)
		}
	}
	if got := a[1].Versions["Measurements"].Len(); got != want || got != a[0].Versions["Measurements"].Len() {
		t.Fatalf("clean counts: par %d, seq %d, want %d", got, a[0].Versions["Measurements"].Len(), want)
	}
	for _, tup := range a[0].Versions["Measurements"].Tuples() {
		if !a[1].Versions["Measurements"].Contains(tup) {
			t.Fatalf("parallel warm version missing %v", dl.TermsString(tup))
		}
	}
	if a[0].Measures["Measurements"] != a[1].Measures["Measurements"] {
		t.Fatalf("warm measures differ: %+v vs %+v", a[0].Measures["Measurements"], a[1].Measures["Measurements"])
	}
}

// TestParallelSessionConcurrentSnapshotReaders runs reader goroutines
// against consistent snapshots while a parallel (p=4) writer applies
// deltas — under -race this pins the frozen-round-view discipline:
// worker pools inside Apply must never race with snapshot readers.
func TestParallelSessionConcurrentSnapshotReaders(t *testing.T) {
	wl := streamWorkload(t, gen.StreamSpec{
		Base:         gen.QualitySpec{Patients: 20, Days: 2, Wards: 2, DirtyRatio: 0.5, Seed: 23},
		TickPatients: 3,
	})
	const ticks = 6
	const readers = 4

	prep, err := parallelContext(t, wl, 4).Prepare(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	sess, err := prep.NewSession(context.Background(), wl.Base.Instance)
	if err != nil {
		t.Fatal(err)
	}

	valid := map[int]bool{wl.Base.ExpectedClean: true}
	cum := wl.Base.ExpectedClean
	deltas := make([][]dl.Atom, ticks)
	for i := 0; i < ticks; i++ {
		delta, clean := wl.Tick(i)
		deltas[i] = delta
		cum += clean
		valid[cum] = true
	}

	q := dl.NewQuery(dl.A("Q", dl.V("t"), dl.V("p"), dl.V("v")),
		dl.A("Measurements_q", dl.V("t"), dl.V("p"), dl.V("v")))

	done := make(chan struct{})
	errs := make(chan error, readers+1)
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				snap, _ := sess.View()
				as, err := eval.EvalQuery(q, snap)
				if err != nil {
					errs <- err
					return
				}
				if !valid[as.Len()] {
					errs <- &inconsistentSnapshot{count: as.Len()}
					return
				}
				select {
				case <-done:
					return
				default:
				}
			}
		}()
	}
	for i := 0; i < ticks; i++ {
		if _, err := sess.Apply(context.Background(), deltas[i]); err != nil {
			errs <- err
			break
		}
	}
	close(done)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	warm, _, err := sess.Assessment()
	if err != nil {
		t.Fatal(err)
	}
	if got := warm.Versions["Measurements"].Len(); got != cum {
		t.Fatalf("final clean count = %d, want %d", got, cum)
	}
}

// TestParallelApplyCancellation is the session-level regression for
// per-worker-unit cancellation: an already-cancelled context fails
// both the cold and the incremental path at p=4, and the session
// stays usable afterwards.
func TestParallelApplyCancellation(t *testing.T) {
	wl := streamWorkload(t, gen.StreamSpec{
		Base:         gen.QualitySpec{Patients: 8, Days: 2, Wards: 2, DirtyRatio: 0.5, Seed: 3},
		TickPatients: 2,
	})
	qc := parallelContext(t, wl, 4)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := qc.Assess(cancelled, wl.Base.Instance); err == nil {
		t.Fatal("cold assess with cancelled context succeeded")
	}
	prep, err := qc.Prepare(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	sess, err := prep.NewSession(context.Background(), wl.Base.Instance)
	if err != nil {
		t.Fatal(err)
	}
	delta, _ := wl.Tick(0)
	if _, err := sess.Apply(cancelled, delta); err == nil {
		t.Fatal("apply with cancelled context succeeded")
	}
	// The Prepared artifact is unaffected: a fresh session absorbs the
	// same delta cleanly.
	sess2, err := prep.NewSession(context.Background(), wl.Base.Instance)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess2.Apply(context.Background(), delta); err != nil {
		t.Fatal(err)
	}
}
