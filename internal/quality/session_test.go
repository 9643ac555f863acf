package quality_test

import (
	"context"
	"sync"
	"testing"

	dl "repro/internal/datalog"
	"repro/internal/eval"
	"repro/internal/gen"
	"repro/internal/quality"
	"repro/internal/storage"
)

func streamWorkload(t *testing.T, spec gen.StreamSpec) *gen.StreamingWorkload {
	t.Helper()
	wl, err := gen.NewStreamingWorkload(spec)
	if err != nil {
		t.Fatal(err)
	}
	return wl
}

// TestSessionApplyMatchesColdAssess pins the warm path to the cold
// path: a session absorbing delta ticks via Apply must report exactly
// the assessment a from-scratch Assess computes over base+deltas.
func TestSessionApplyMatchesColdAssess(t *testing.T) {
	wl := streamWorkload(t, gen.StreamSpec{
		Base:         gen.QualitySpec{Patients: 24, Days: 3, Wards: 2, DirtyRatio: 0.5, Seed: 17},
		TickPatients: 4,
	})
	const ticks = 3

	p, err := wl.Base.Context.Prepare(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	sess, err := p.NewSession(context.Background(), wl.Base.Instance)
	if err != nil {
		t.Fatal(err)
	}

	combined := wl.Base.Instance.Clone()
	wantClean := wl.Base.ExpectedClean
	for i := 0; i < ticks; i++ {
		delta, clean := wl.Tick(i)
		wantClean += clean
		if _, err := sess.Apply(context.Background(), delta); err != nil {
			t.Fatalf("apply tick %d: %v", i, err)
		}
		for _, a := range delta {
			if _, err := combined.InsertAtom(a); err != nil {
				t.Fatal(err)
			}
		}
	}

	warm, _, _, err := sess.Assessment()
	if err != nil {
		t.Fatal(err)
	}
	cold, err := wl.Base.Context.Assess(context.Background(), combined)
	if err != nil {
		t.Fatal(err)
	}

	wv, cv := warm.Versions["Measurements"], cold.Versions["Measurements"]
	if wv.Len() != wantClean {
		t.Fatalf("warm clean count = %d, want %d", wv.Len(), wantClean)
	}
	if wv.Len() != cv.Len() {
		t.Fatalf("warm clean count = %d, cold = %d", wv.Len(), cv.Len())
	}
	for _, tup := range cv.Tuples() {
		if !wv.Contains(tup) {
			t.Fatalf("warm version missing cold tuple %v", dl.TermsString(tup))
		}
	}
	if warm.Measures["Measurements"] != cold.Measures["Measurements"] {
		t.Fatalf("measures differ: warm %+v, cold %+v", warm.Measures["Measurements"], cold.Measures["Measurements"])
	}
}

// TestAssessRepeatedNoContamination is the regression for the cached
// compilation: successive Assess calls on one context — same or
// different instances — must not contaminate each other through the
// shared merge target.
func TestAssessRepeatedNoContamination(t *testing.T) {
	wl := streamWorkload(t, gen.StreamSpec{
		Base:         gen.QualitySpec{Patients: 12, Days: 2, Wards: 2, DirtyRatio: 0.5, Seed: 5},
		TickPatients: 2,
	})
	first, err := wl.Base.Context.Assess(context.Background(), wl.Base.Instance)
	if err != nil {
		t.Fatal(err)
	}

	// A different instance in between must not leak into later calls.
	other := storage.NewInstance()
	if _, err := other.CreateRelation("Measurements", "Time", "Patient", "Value"); err != nil {
		t.Fatal(err)
	}
	other.MustInsert("Measurements", dl.C("d000-t0000"), dl.C("intruder"), dl.C("37.0"))
	if _, err := wl.Base.Context.Assess(context.Background(), other); err != nil {
		t.Fatal(err)
	}

	second, err := wl.Base.Context.Assess(context.Background(), wl.Base.Instance)
	if err != nil {
		t.Fatal(err)
	}
	fm, sm := first.Measures["Measurements"], second.Measures["Measurements"]
	if fm != sm {
		t.Fatalf("repeated Assess drifted: first %+v, second %+v", fm, sm)
	}
	if got := second.Versions["Measurements"].Len(); got != wl.Base.ExpectedClean {
		t.Fatalf("second assess clean count = %d, want %d", got, wl.Base.ExpectedClean)
	}
	// The intruder tuple must not appear anywhere in the second
	// assessment's contextual instance.
	if rel := second.Contextual.Relation("Measurements"); rel != nil {
		for _, tup := range rel.Tuples() {
			for _, term := range tup {
				if term.Name == "intruder" {
					t.Fatal("intruder tuple leaked across Assess calls")
				}
			}
		}
	}
	// And the input instance itself is untouched.
	if got := wl.Base.Instance.Relation("Measurements").Len(); got != wl.Base.Total {
		t.Fatalf("input instance mutated: %d measurements, want %d", got, wl.Base.Total)
	}
}

// TestSessionConcurrentSnapshotReaders runs a writer applying delta
// ticks while reader goroutines query consistent snapshots; run under
// -race this is the concurrency contract test for the session layer.
func TestSessionConcurrentSnapshotReaders(t *testing.T) {
	wl := streamWorkload(t, gen.StreamSpec{
		Base:         gen.QualitySpec{Patients: 20, Days: 2, Wards: 2, DirtyRatio: 0.5, Seed: 23},
		TickPatients: 3,
	})
	const ticks = 6
	const readers = 4

	p, err := wl.Base.Context.Prepare(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	sess, err := p.NewSession(context.Background(), wl.Base.Instance)
	if err != nil {
		t.Fatal(err)
	}

	// Valid clean counts: the base count plus every prefix sum of the
	// tick clean counts — a consistent snapshot must show exactly one
	// of these.
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
				snap := sess.Snapshot()
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

	warm, _, _, err := sess.Assessment()
	if err != nil {
		t.Fatal(err)
	}
	if got := warm.Versions["Measurements"].Len(); got != cum {
		t.Fatalf("final clean count = %d, want %d", got, cum)
	}
}

type inconsistentSnapshot struct{ count int }

func (e *inconsistentSnapshot) Error() string {
	return "snapshot saw a clean count outside every consistent state: " + itoa(e.count)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}

// TestAssessCancellation verifies the cancellation plumbing
// through the chase round loop and the eval stratum loop.
func TestAssessCancellation(t *testing.T) {
	wl := streamWorkload(t, gen.StreamSpec{
		Base:         gen.QualitySpec{Patients: 8, Days: 2, Wards: 2, DirtyRatio: 0.5, Seed: 3},
		TickPatients: 2,
	})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := wl.Base.Context.Assess(ctx, wl.Base.Instance); err == nil {
		t.Fatal("want cancellation error, got nil")
	}
	// The context stays usable after a cancelled attempt.
	if _, err := wl.Base.Context.Assess(context.Background(), wl.Base.Instance); err != nil {
		t.Fatal(err)
	}
}

// TestHistoryBudgetKeepsSharedVersions pins the history byte budget to
// what each retained version holds alone: on the n = 800 stream a
// one-tick apply copies only the written relations' slot tables and
// key maps, since rows and posting lists stay shared with the older
// versions, so a 16 MiB budget must keep most of an 8-deep ring.
func TestHistoryBudgetKeepsSharedVersions(t *testing.T) {
	wl := streamWorkload(t, gen.StreamSpec{
		Base:         gen.QualitySpec{Patients: 200, Days: 4, Wards: 3, DirtyRatio: 0.5, Seed: 1},
		TickPatients: 1,
	})
	cfg := wl.Base.Config
	cfg.HistoryDepth, cfg.HistoryBytes = 8, 16<<20
	qc, err := quality.NewContext(wl.Base.Ontology, cfg)
	if err != nil {
		t.Fatal(err)
	}
	p, err := qc.Prepare(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	sess, err := p.NewSession(context.Background(), wl.Base.Instance)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		delta, _ := wl.Tick(i)
		if _, err := sess.Apply(context.Background(), delta); err != nil {
			t.Fatalf("apply tick %d: %v", i, err)
		}
	}
	oldest, _ := sess.OldestRetained()
	latest, _ := sess.LatestVersion()
	if retained := latest.Seq - oldest + 1; retained < 5 {
		t.Fatalf("retained %d versions (%d..%d) under a 16 MiB budget, want at least 5", retained, oldest, latest.Seq)
	}
}
