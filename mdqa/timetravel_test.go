package mdqa_test

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/mdqa"
)

// timeTravelContext builds the sales workload with a quality version
// over CitySales, at the given parallelism and history depth.
func timeTravelContext(t *testing.T, parallelism, depth int) *mdqa.Context {
	t.Helper()
	o := buildSalesOntology(t)
	version := mdqa.NewRule("sales-q",
		mdqa.NewAtom("CitySales_q", mdqa.Var("w"), mdqa.Var("i")),
		mdqa.NewAtom("CitySales", mdqa.Var("w"), mdqa.Var("i")),
		mdqa.NewAtom("CountrySales", mdqa.Const("Canada"), mdqa.Var("i")))
	qc, err := mdqa.NewContext(o,
		mdqa.WithQualityVersion("CitySales", "CitySales_q", version),
		mdqa.WithParallelism(parallelism),
		mdqa.WithHistoryDepth(depth))
	if err != nil {
		t.Fatal(err)
	}
	return qc
}

func salesInstance(t *testing.T) *mdqa.Instance {
	t.Helper()
	d := mdqa.NewInstance()
	if _, err := d.CreateRelation("CitySales", "City", "Item"); err != nil {
		t.Fatal(err)
	}
	d.MustInsert("CitySales", mdqa.Const("Ottawa"), mdqa.Const("skates"))
	return d
}

// collectAnswers drains a query's answers from a snapshot into a
// canonical sorted form, so two answer sets compare byte-identically.
func collectAnswers(t *testing.T, snap *mdqa.Snapshot, q *mdqa.Query, clean bool) string {
	t.Helper()
	seq := snap.Answers(q)
	if clean {
		seq = snap.CleanAnswers(q)
	}
	var rows []string
	for ans, err := range seq {
		if err != nil {
			t.Fatal(err)
		}
		parts := make([]string, len(ans.Terms))
		for i, tm := range ans.Terms {
			parts[i] = tm.Name
		}
		rows = append(rows, strings.Join(parts, ","))
	}
	sort.Strings(rows)
	return strings.Join(rows, "\n")
}

// TestTimeTravelAnswersMatchLive pins the tentpole property: for every
// version v, Session.View(At(v)).Answers(q) is identical to the
// answers recorded live right after the apply that produced v — at
// parallelism 1 and 2, for raw and clean answers alike.
func TestTimeTravelAnswersMatchLive(t *testing.T) {
	batches := [][]mdqa.Atom{
		{mdqa.NewAtom("CitySales", mdqa.Const("Toronto"), mdqa.Const("syrup"))},
		{mdqa.NewAtom("CountrySales", mdqa.Const("Canada"), mdqa.Const("skates")),
			mdqa.NewAtom("CountrySales", mdqa.Const("Canada"), mdqa.Const("syrup"))},
		{mdqa.NewAtom("CitySales", mdqa.Const("Santiago"), mdqa.Const("wine"))},
	}
	q, err := mdqa.ParseQuery(`ans(w, i) <- CitySales(w, i).`)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{1, 2} {
		t.Run(fmt.Sprintf("parallelism=%d", p), func(t *testing.T) {
			ctx := context.Background()
			qc := timeTravelContext(t, p, 16)
			prep, err := qc.Prepare(ctx)
			if err != nil {
				t.Fatal(err)
			}
			sess, err := prep.NewSession(ctx, salesInstance(t))
			if err != nil {
				t.Fatal(err)
			}
			// Record the live answers and measures at every version as
			// it is produced.
			liveRaw := map[uint64]string{}
			liveClean := map[uint64]string{}
			liveMeasure := map[uint64]mdqa.Measure{}
			recordLive := func() uint64 {
				v := sess.LatestVersion()
				snap, err := sess.View()
				if err != nil {
					t.Fatal(err)
				}
				if sv := snap.Version(); sv.Seq != v.Seq {
					t.Fatalf("latest view reports version %d, want %d", sv.Seq, v.Seq)
				}
				liveRaw[v.Seq] = collectAnswers(t, snap, q, false)
				liveClean[v.Seq] = collectAnswers(t, snap, q, true)
				a, err := sess.Assess(ctx)
				if err != nil {
					t.Fatal(err)
				}
				liveMeasure[v.Seq] = a.Measures()["CitySales"]
				return v.Seq
			}
			if got := recordLive(); got != 0 {
				t.Fatalf("initial version = %d, want 0", got)
			}
			inserted := []int{0} // per-version inserted counts (v0 = initial)
			for i, batch := range batches {
				res, err := sess.Apply(ctx, batch)
				if err != nil {
					t.Fatal(err)
				}
				inserted = append(inserted, res.Inserted)
				if got := recordLive(); got != uint64(i+1) {
					t.Fatalf("after batch %d: version = %d", i, got)
				}
			}

			// History metadata: one entry per version, ascending, batch
			// sizes recorded.
			hist := sess.History()
			if len(hist) != len(batches)+1 {
				t.Fatalf("history length = %d, want %d", len(hist), len(batches)+1)
			}
			for i, v := range hist {
				if v.Seq != uint64(i) {
					t.Fatalf("history[%d].Seq = %d", i, v.Seq)
				}
				if i > 0 && v.Batch != inserted[i] {
					t.Fatalf("history[%d].Batch = %d, want %d", i, v.Batch, inserted[i])
				}
				if i > 0 && v.Time.Before(hist[i-1].Time) {
					t.Fatalf("history times must be monotone: %v then %v", hist[i-1].Time, v.Time)
				}
			}

			// The property: every as-of view answers exactly as the live
			// session did at that version, and AsOf(time) resolves to it.
			for v := uint64(0); v <= uint64(len(batches)); v++ {
				snap, err := sess.View(mdqa.At(v))
				if err != nil {
					t.Fatalf("View(At(%d)): %v", v, err)
				}
				if sv := snap.Version(); sv.Seq != v {
					t.Fatalf("View(At(%d)) reports version %d", v, sv.Seq)
				}
				if got := collectAnswers(t, snap, q, false); got != liveRaw[v] {
					t.Errorf("At(%d) raw answers drifted:\n got %q\nwant %q", v, got, liveRaw[v])
				}
				if got := collectAnswers(t, snap, q, true); got != liveClean[v] {
					t.Errorf("At(%d) clean answers drifted:\n got %q\nwant %q", v, got, liveClean[v])
				}
				if seq, err := sess.ResolveAsOf(hist[v].Time); err != nil || seq != v {
					t.Errorf("ResolveAsOf(time of v%d) = %d, %v", v, seq, err)
				}
				a, err := sess.Assess(ctx, mdqa.At(v))
				if err != nil {
					t.Fatalf("Assess(At(%d)): %v", v, err)
				}
				if got := a.Measures()["CitySales"]; got != liveMeasure[v] {
					t.Errorf("Assess(At(%d)) measure = %+v, want %+v", v, got, liveMeasure[v])
				}
			}
		})
	}
}

// TestTimeTravelBoundsAndErrors pins the failure vocabulary: evicted
// versions carry the typed boundary error, future versions and mixed
// options are plain client errors, and disabled history fails closed.
func TestTimeTravelBoundsAndErrors(t *testing.T) {
	ctx := context.Background()
	qc := timeTravelContext(t, 1, 2)
	prep, err := qc.Prepare(ctx)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := prep.NewSession(ctx, salesInstance(t))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := sess.Apply(ctx, []mdqa.Atom{
			mdqa.NewAtom("CitySales", mdqa.Const("Toronto"), mdqa.Const(fmt.Sprintf("item%d", i))),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if oldest := sess.OldestRetained(); oldest != 3 {
		t.Fatalf("depth 2 after 4 applies: oldest retained = %d, want 3", oldest)
	}
	_, err = sess.View(mdqa.At(0))
	var ve *mdqa.VersionEvictedError
	if !errors.As(err, &ve) || ve.Version != 0 || ve.Oldest != 3 {
		t.Fatalf("At(evicted) = %v, want VersionEvictedError{0, 3}", err)
	}
	if !errors.Is(err, mdqa.ErrVersionEvicted) {
		t.Fatalf("eviction must match the sentinel: %v", err)
	}
	if _, err := sess.View(mdqa.At(99)); err == nil || errors.Is(err, mdqa.ErrVersionEvicted) {
		t.Fatalf("At(future) must fail as a plain client error, got %v", err)
	}
	if _, err := sess.View(mdqa.At(3), mdqa.AsOf(sess.History()[0].Time)); err == nil {
		t.Fatal("At+AsOf must be mutually exclusive")
	}

	// Every session keeps a history: a negative depth is rejected when
	// the context is built.
	if _, err := mdqa.NewContext(buildSalesOntology(t), mdqa.WithHistoryDepth(-1)); err == nil {
		t.Fatal("NewContext accepted a negative history depth")
	}
}

// TestTimeTravelAttribute pins delta attribution: the version whose
// batch introduced a violation names that batch.
func TestTimeTravelAttribute(t *testing.T) {
	ctx := context.Background()
	o := buildSalesOntology(t)
	// An NC forbidding wine sales makes violations easy to provoke.
	if err := o.AddNC(mdqa.NewNC("no-wine",
		mdqa.Pos(mdqa.NewAtom("CitySales", mdqa.Var("w"), mdqa.Const("wine"))))); err != nil {
		t.Fatal(err)
	}
	qc, err := mdqa.NewContext(o, mdqa.WithParallelism(1), mdqa.WithHistoryDepth(8))
	if err != nil {
		t.Fatal(err)
	}
	prep, err := qc.Prepare(ctx)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := prep.NewSession(ctx, salesInstance(t))
	if err != nil {
		t.Fatal(err)
	}
	// Batch 1 is clean; batch 2 introduces the violation.
	if _, err := sess.Apply(ctx, []mdqa.Atom{
		mdqa.NewAtom("CitySales", mdqa.Const("Toronto"), mdqa.Const("syrup")),
	}); err != nil {
		t.Fatal(err)
	}
	res, err := sess.Apply(ctx, []mdqa.Atom{
		mdqa.NewAtom("CitySales", mdqa.Const("Santiago"), mdqa.Const("wine")),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) == 0 {
		t.Fatal("the wine batch must violate the NC")
	}
	v, ok := sess.Attribute(res.Violations[0])
	if !ok || v.Seq != 2 {
		t.Fatalf("Attribute = %+v %v, want version 2", v, ok)
	}
	if len(v.Introduced) == 0 {
		t.Fatal("the attributed version must carry its introduced violations")
	}
}
