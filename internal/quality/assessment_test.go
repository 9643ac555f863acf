package quality_test

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	dl "repro/internal/datalog"
	"repro/internal/hospital"
	"repro/internal/quality"
	"repro/internal/storage"
)

// hospitalSession opens a session over the Example 7 context with
// constraints (so random ward stays raise violations) at the given
// parallelism and history depth.
func hospitalSession(t *testing.T, parallelism, depth int) *quality.Session {
	t.Helper()
	cfg := hospital.QualityConfig()
	cfg.Parallelism = parallelism
	cfg.HistoryDepth = depth
	qc, err := quality.NewContext(hospital.NewOntology(hospital.Options{WithConstraints: true}), cfg)
	if err != nil {
		t.Fatal(err)
	}
	p, err := qc.Prepare(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	sess, err := p.NewSession(context.Background(), hospital.MeasurementsInstance())
	if err != nil {
		t.Fatal(err)
	}
	return sess
}

// randomHospitalBatch draws a batch of ground facts over the running
// example's members: measurements (the measure base), ward stays (rule
// 7 navigation and intensive-care violations) and working schedules
// (which move measurements in and out of the quality version).
func randomHospitalBatch(rng *rand.Rand) []dl.Atom {
	times := []string{"Sep/5-12:10", "Sep/6-11:50", "Sep/7-12:15", "Sep/9-12:00", "Sep/6-11:05", "Sep/5-12:05"}
	days := []string{"Sep/5", "Sep/6", "Sep/7", "Sep/9"}
	patients := []string{hospital.TomWaits, hospital.LouReed, "Ann Peebles"}
	pick := func(xs []string) dl.Term { return dl.C(xs[rng.Intn(len(xs))]) }
	var batch []dl.Atom
	for n := 1 + rng.Intn(3); n > 0; n-- {
		switch rng.Intn(3) {
		case 0:
			batch = append(batch, dl.A("Measurements", pick(times), pick(patients), dl.C(fmt.Sprintf("3%d.%d", 6+rng.Intn(3), rng.Intn(10)))))
		case 1:
			batch = append(batch, dl.A("PatientWard", pick([]string{"W1", "W2", "W3", "W4"}), pick(days), pick(patients)))
		default:
			batch = append(batch, dl.A("WorkingSchedules", pick([]string{"Standard", "Intensive", "Terminal"}), pick(days),
				pick([]string{"Helen", "Mark", "Cathy"}), pick([]string{"cert.", "non-c."})))
		}
	}
	return batch
}

// tupleKey renders a tuple for set membership in the oracle.
func tupleKey(tup []dl.Term) string {
	parts := make([]string, len(tup))
	for i, tm := range tup {
		parts[i] = tm.String()
	}
	return strings.Join(parts, "|")
}

// oracleVersion is the independent reading of one quality version:
// the version predicate's tuples in a fresh engine snapshot, decoded
// and sorted by Term.CompareTotal.
func oracleVersion(snap *storage.Instance, pred string) [][]dl.Term {
	rel := snap.Relation(pred)
	if rel == nil {
		return nil
	}
	tuples := rel.Tuples()
	slices.SortFunc(tuples, func(a, b []dl.Term) int {
		for k := range a {
			if c := a[k].CompareTotal(b[k]); c != 0 {
				return c
			}
		}
		return 0
	})
	return tuples
}

// TestAssessmentMatchesOracle checks Session.Assessment after every
// apply of random batches, at parallelism 1 and 2, with version
// history on (the assessment comes from the newest recorded version)
// and off (it comes from a fresh engine snapshot). The oracle is
// independent of both: the version relation's sorted tuples read from
// an engine snapshot, measures counted from the test's own record of
// the applied measurements, and the session's violation list.
func TestAssessmentMatchesOracle(t *testing.T) {
	ctx := context.Background()
	for _, p := range []int{1, 2} {
		for _, depth := range []int{0, -1} {
			t.Run(fmt.Sprintf("p=%d/history=%v", p, depth >= 0), func(t *testing.T) {
				for seed := int64(1); seed <= 4; seed++ {
					rng := rand.New(rand.NewSource(seed))
					sess := hospitalSession(t, p, depth)
					orig := map[string]bool{}
					for _, tup := range hospital.MeasurementsInstance().Relation("Measurements").Tuples() {
						orig[tupleKey(tup)] = true
					}
					for step := 0; step <= 8; step++ {
						if step > 0 {
							batch := randomHospitalBatch(rng)
							if _, err := sess.Apply(ctx, batch); err != nil {
								t.Fatalf("seed %d step %d: apply: %v", seed, step, err)
							}
							for _, a := range batch {
								if a.Pred == "Measurements" {
									orig[tupleKey(a.Args)] = true
								}
							}
						}
						checkAssessment(t, sess, orig, depth >= 0, uint64(step))
					}
				}
			})
		}
	}
}

func checkAssessment(t *testing.T, sess *quality.Session, orig map[string]bool, history bool, wantSeq uint64) {
	t.Helper()
	a, v, ok, err := sess.Assessment()
	if err != nil {
		t.Fatal(err)
	}
	if ok != history || (ok && v.Seq != wantSeq) {
		t.Fatalf("assessment version %d (ok=%v), want %d (ok=%v)", v.Seq, ok, wantSeq, history)
	}
	snap, _, _ := sess.View()
	want := oracleVersion(snap, sess.VersionPred("Measurements"))
	got := a.Versions["Measurements"]
	if got.Schema().String() != "Measurements_q(Time, Patient, Value)" {
		t.Fatalf("version schema %s", got.Schema())
	}
	if got.Len() != len(want) {
		t.Fatalf("version holds %d rows, oracle %d", got.Len(), len(want))
	}
	in := got.Interner()
	for i, row := range got.Rows() {
		if tup := in.Terms(row, nil); !slices.Equal(tup, want[i]) {
			t.Fatalf("version row %d = %v, oracle %v", i, tup, want[i])
		}
	}
	inter := 0
	for _, tup := range want {
		if orig[tupleKey(tup)] {
			inter++
		}
	}
	wantM := quality.Measure{Original: len(orig), Quality: len(want), Intersection: inter}
	if m := a.Measures["Measurements"]; m != wantM {
		t.Fatalf("measure %+v, oracle %+v", m, wantM)
	}
	if ok {
		sc := v.Scores["Measurements"]
		if sc.Original != wantM.Original || sc.Quality != wantM.Quality || sc.Intersection != wantM.Intersection {
			t.Fatalf("version %d scores %+v, oracle %+v", v.Seq, sc, wantM)
		}
	}
	if vs := sess.Violations(); !reflect.DeepEqual(a.Violations, vs) && (len(vs) > 0 || len(a.Violations) > 0) {
		t.Fatalf("violations %v, session %v", a.Violations, vs)
	}
	if _, err := got.Insert([]dl.Term{dl.C("Sep/5-12:10"), dl.C("Nobody"), dl.C("37.0")}); err == nil {
		t.Fatal("a version relation must reject Insert")
	}
}

// TestLatestAssessmentSharesView: with history on, the latest
// assessment is assembled from the newest recorded version, so its
// contextual instance is the very snapshot View returns — no second
// snapshot is taken.
func TestLatestAssessmentSharesView(t *testing.T) {
	sess := hospitalSession(t, 1, 0)
	if _, err := sess.Apply(context.Background(), randomHospitalBatch(rand.New(rand.NewSource(3)))); err != nil {
		t.Fatal(err)
	}
	a, v, ok, err := sess.Assessment()
	if err != nil {
		t.Fatal(err)
	}
	inst, vv, _ := sess.View()
	if !ok || a.Contextual != inst || v.Seq != vv.Seq {
		t.Fatalf("latest assessment (version %d, ok=%v) does not share the view of version %d", v.Seq, ok, vv.Seq)
	}
}
