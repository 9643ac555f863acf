package quality_test

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	dl "repro/internal/datalog"
	"repro/internal/hospital"
	"repro/internal/qerr"
	"repro/internal/quality"
	"repro/internal/source"
)

// wardSource binds a Mem source feeding extra PatientWard rows into
// the Example 7 context: dimensional rule (7) navigates them up to
// PatientUnit, so source changes reshape the quality version.
func wardSource(tuples ...[]string) *source.Mem {
	return source.NewMem(source.Schema{
		Relation: "PatientWard",
		Attrs:    []string{"Ward", "Day", "Patient"},
	}, tuples...)
}

// schedSource feeds extra WorkingSchedules rows (Table III).
func schedSource(tuples ...[]string) *source.Mem {
	return source.NewMem(source.Schema{
		Relation: "WorkingSchedules",
		Attrs:    []string{"Unit", "Day", "Nurse", "Type"},
	}, tuples...)
}

// sourcedContext builds the Example 7 context with live bindings at
// the given parallelism.
func sourcedContext(t *testing.T, parallelism int, bindings ...source.Binding) *quality.Context {
	t.Helper()
	cfg := hospital.QualityConfig()
	cfg.Sources = bindings
	cfg.Parallelism = parallelism
	qc, err := quality.NewContext(hospital.NewOntology(hospital.Options{}), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return qc
}

// assessmentsEqual pins the public assessment outcome of two
// assessments to each other: version tuples, departure measures and
// the doctor's clean answers.
func assessmentsEqual(t *testing.T, label string, got, want *quality.Assessment) {
	t.Helper()
	for rel, wv := range want.Versions {
		gv := got.Versions[rel]
		if gv == nil {
			t.Fatalf("%s: version of %s missing", label, rel)
		}
		gs, ws := fmt.Sprint(gv.SortedTuples()), fmt.Sprint(wv.SortedTuples())
		if gs != ws {
			t.Errorf("%s: version of %s = %s, want %s", label, rel, gs, ws)
		}
	}
	for rel, wm := range want.Measures {
		if gm := got.Measures[rel]; gm != wm {
			t.Errorf("%s: measure of %s = %+v, want %+v", label, rel, got.Measures[rel], wm)
		}
	}
	ga, err := got.CleanAnswer(hospital.DoctorQuery())
	if err != nil {
		t.Fatal(err)
	}
	wa, err := want.CleanAnswer(hospital.DoctorQuery())
	if err != nil {
		t.Fatal(err)
	}
	if ga.String() != wa.String() {
		t.Errorf("%s: clean answers = %s, want %s", label, ga, wa)
	}
}

// TestRefreshEquivalentToColdAssess pins the refresh property: after
// any sequence of source changes + Refresh, the session's assessment
// is identical to a cold Assess of a fresh context over the same
// source state — at p=1 (no worker goroutines) and p=2.
func TestRefreshEquivalentToColdAssess(t *testing.T) {
	for _, par := range []int{1, 2} {
		t.Run(fmt.Sprintf("p=%d", par), func(t *testing.T) {
			ctx := context.Background()
			wards := wardSource()
			scheds := schedSource()
			qc := sourcedContext(t, par,
				source.Binding{Name: "wards", Src: wards},
				source.Binding{Name: "scheds", Src: scheds})
			prep, err := qc.Prepare(ctx)
			if err != nil {
				t.Fatal(err)
			}
			sess, err := prep.NewSession(ctx, hospital.MeasurementsInstance())
			if err != nil {
				t.Fatal(err)
			}

			// cold re-assesses the current source state with a fresh
			// context (fresh resolver, fresh compilation).
			cold := func() *quality.Assessment {
				fresh := sourcedContext(t, par,
					source.Binding{Name: "wards", Src: wards},
					source.Binding{Name: "scheds", Src: scheds})
				a, err := fresh.Assess(ctx, hospital.MeasurementsInstance())
				if err != nil {
					t.Fatal(err)
				}
				return a
			}

			// Step 0: empty sources — the session must match the plain
			// Example 7 outcome (Table II).
			a0, _, _, err := sess.Assessment()
			if err != nil {
				t.Fatal(err)
			}
			if a0.Versions["Measurements"].Len() != len(hospital.QualityRows) {
				t.Fatalf("baseline version = %v", a0.Versions["Measurements"].SortedTuples())
			}

			// Step 1: additions only. Tom moves into the standard ward
			// W1 on Sep/9 and a certified nurse covers Standard/Sep/9,
			// so the Sep/9-12:00 reading becomes clean.
			wards.Add("W1", "Sep/9", hospital.TomWaits)
			scheds.Add("Standard", "Sep/9", "Alice", "cert.")
			r1, err := sess.Refresh(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if !r1.Changed || r1.Rebuilt {
				t.Fatalf("additions-only refresh: changed=%v rebuilt=%v, want changed, not rebuilt", r1.Changed, r1.Rebuilt)
			}
			if r1.Apply == nil || len(r1.Delta) != 2 {
				t.Fatalf("incremental apply missing: apply=%v delta=%v", r1.Apply, r1.Delta)
			}
			a1, _, _, err := sess.Assessment()
			if err != nil {
				t.Fatal(err)
			}
			if got := a1.Versions["Measurements"].Len(); got != len(hospital.QualityRows)+1 {
				t.Fatalf("after additions: version has %d tuples, want %d", got, len(hospital.QualityRows)+1)
			}
			assessmentsEqual(t, "additions", a1, cold())

			// Step 2: no-op refresh — versions unchanged, nothing runs.
			r2, err := sess.Refresh(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if r2.Changed || r2.Rebuilt || r2.Apply != nil {
				t.Fatalf("no-op refresh reported work: %+v", r2)
			}

			// Step 3: removal. The certified Sep/9 nurse drops off the
			// schedule: the chase is monotone, so the session must
			// rebuild — and the Sep/9 reading must leave the version.
			scheds.Set()
			r3, err := sess.Refresh(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if !r3.Changed || !r3.Rebuilt {
				t.Fatalf("removal refresh: changed=%v rebuilt=%v, want both", r3.Changed, r3.Rebuilt)
			}
			a3, _, _, err := sess.Assessment()
			if err != nil {
				t.Fatal(err)
			}
			if got := a3.Versions["Measurements"].Len(); got != len(hospital.QualityRows) {
				t.Fatalf("after removal: version has %d tuples, want %d", got, len(hospital.QualityRows))
			}
			assessmentsEqual(t, "removal", a3, cold())

			// Step 4: additions after a rebuild keep working
			// incrementally, and applied (non-source) deltas survive the
			// rebuild: apply a measurement, re-add the nurse, refresh.
			applied := dl.A("Measurements", dl.C("Sep/6-12:30"), dl.C(hospital.TomWaits), dl.C("37.3"))
			if _, err := sess.Apply(ctx, []dl.Atom{applied}); err != nil {
				t.Fatal(err)
			}
			scheds.Add("Standard", "Sep/9", "Alice", "cert.")
			r4, err := sess.Refresh(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if !r4.Changed || r4.Rebuilt {
				t.Fatalf("post-rebuild additions: changed=%v rebuilt=%v", r4.Changed, r4.Rebuilt)
			}
			a4, _, _, err := sess.Assessment()
			if err != nil {
				t.Fatal(err)
			}
			// Cold equivalent: the applied measurement goes into D.
			freshD := hospital.MeasurementsInstance()
			freshD.MustInsert("Measurements", dl.C("Sep/6-12:30"), dl.C(hospital.TomWaits), dl.C("37.3"))
			freshQC := sourcedContext(t, par,
				source.Binding{Name: "wards", Src: wards},
				source.Binding{Name: "scheds", Src: scheds})
			aCold, err := freshQC.Assess(ctx, freshD)
			if err != nil {
				t.Fatal(err)
			}
			assessmentsEqual(t, "post-rebuild", a4, aCold)

			// ChaseRounds stays monotonic across the rebuild.
			if sess.ChaseRounds() <= 0 {
				t.Fatalf("ChaseRounds = %d", sess.ChaseRounds())
			}
		})
	}
}

// TestRefreshSourceUnavailable pins the failure contract: a fetch
// error surfaces as qerr.ErrSourceUnavailable and leaves the session
// untouched; an AllowStale binding degrades to the cached snapshot.
func TestRefreshSourceUnavailable(t *testing.T) {
	ctx := context.Background()
	wards := wardSource([]string{"W1", "Sep/9", hospital.TomWaits})
	qc := sourcedContext(t, 1, source.Binding{Name: "wards", Src: wards})
	prep, err := qc.Prepare(ctx)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := prep.NewSession(ctx, hospital.MeasurementsInstance())
	if err != nil {
		t.Fatal(err)
	}
	before, _, _, err := sess.Assessment()
	if err != nil {
		t.Fatal(err)
	}
	wards.SetError(errors.New("flaky upstream"))
	if _, err := sess.Refresh(ctx); !errors.Is(err, qerr.ErrSourceUnavailable) {
		t.Fatalf("want ErrSourceUnavailable, got %v", err)
	}
	after, _, _, err := sess.Assessment()
	if err != nil {
		t.Fatal(err)
	}
	assessmentsEqual(t, "failed refresh must not change state", after, before)

	// AllowStale: the same failure serves the cached snapshot instead.
	lax := sourcedContext(t, 1, source.Binding{Name: "wards", Src: wards, AllowStale: true})
	wards.SetError(nil)
	lprep, err := lax.Prepare(ctx)
	if err != nil {
		t.Fatal(err)
	}
	lsess, err := lprep.NewSession(ctx, hospital.MeasurementsInstance())
	if err != nil {
		t.Fatal(err)
	}
	wards.SetError(errors.New("flaky upstream"))
	r, err := lsess.Refresh(ctx)
	if err != nil {
		t.Fatalf("AllowStale refresh failed: %v", err)
	}
	if r.Changed {
		t.Fatalf("stale-served refresh reported change: %+v", r)
	}
}

// TestSessionOpenUnavailableSource pins the cold path: a session
// cannot open when a (non-stale) source is down.
func TestSessionOpenUnavailableSource(t *testing.T) {
	ctx := context.Background()
	wards := wardSource()
	wards.SetError(errors.New("down"))
	qc := sourcedContext(t, 1, source.Binding{Name: "wards", Src: wards})
	prep, err := qc.Prepare(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prep.NewSession(ctx, hospital.MeasurementsInstance()); !errors.Is(err, qerr.ErrSourceUnavailable) {
		t.Fatalf("want ErrSourceUnavailable, got %v", err)
	}
}

// TestSourceValidation pins NewContext's binding checks.
func TestSourceValidation(t *testing.T) {
	o := hospital.NewOntology(hospital.Options{})
	mk := func(bindings ...source.Binding) error {
		cfg := hospital.QualityConfig()
		cfg.Sources = bindings
		_, err := quality.NewContext(o, cfg)
		return err
	}
	if err := mk(source.Binding{Name: "", Src: wardSource()}); err == nil {
		t.Error("empty binding name accepted")
	}
	if err := mk(source.Binding{Name: "a", Src: nil}); err == nil {
		t.Error("nil source accepted")
	}
	if err := mk(
		source.Binding{Name: "a", Src: wardSource()},
		source.Binding{Name: "a", Src: schedSource()}); err == nil {
		t.Error("duplicate binding name accepted")
	}
	if err := mk(
		source.Binding{Name: "a", Src: wardSource()},
		source.Binding{Name: "b", Src: wardSource()}); err == nil {
		t.Error("two sources feeding one relation accepted")
	}
}

// TestSessionsShareResolverCache pins the singleflight/TTL contract at
// the quality layer: two sessions of one context resolve through one
// cached fetch.
func TestSessionsShareResolverCache(t *testing.T) {
	ctx := context.Background()
	wards := wardSource([]string{"W1", "Sep/9", hospital.TomWaits})
	cfg := hospital.QualityConfig()
	cfg.Sources = []source.Binding{{Name: "wards", Src: wards, TTL: time.Hour}}
	qc, err := quality.NewContext(hospital.NewOntology(hospital.Options{}), cfg)
	if err != nil {
		t.Fatal(err)
	}
	prep, err := qc.Prepare(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := prep.NewSession(ctx, hospital.MeasurementsInstance()); err != nil {
			t.Fatal(err)
		}
	}
	if got := wards.Fetches(); got != 1 {
		t.Fatalf("3 sessions fetched %d times, want 1 (shared TTL cache)", got)
	}
	st := qc.SourceStats()["wards"]
	if st.Fetches != 1 || st.CacheHits != 2 {
		t.Fatalf("stats = %+v", st)
	}
}
