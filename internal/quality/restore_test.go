package quality_test

import (
	"context"
	"fmt"
	"testing"

	dl "repro/internal/datalog"
	"repro/internal/gen"
	"repro/internal/persist"
	"repro/internal/quality"
)

// TestRestoreMatchesUninterrupted pins the recovery invariant behind
// durable sessions: export a session mid-stream, restore it (both
// in-process and through a full persist encode/decode round-trip) and
// apply the remaining ticks — the restored session must end byte-for-
// byte equivalent to one that never stopped: same contextual instance,
// same chase counters (so /metrics agree after recovery), same
// violations, same assessment. Run at parallelism 1 and 2, since the
// restored chase resumes through the parallel pool too.
func TestRestoreMatchesUninterrupted(t *testing.T) {
	for _, par := range []int{1, 2} {
		t.Run(fmt.Sprintf("p=%d", par), func(t *testing.T) {
			wl := streamWorkload(t, gen.StreamSpec{
				Base:         gen.QualitySpec{Patients: 20, Days: 3, Wards: 2, DirtyRatio: 0.5, Seed: 23},
				TickPatients: 4,
			})
			cfg := wl.Base.Config
			cfg.Parallelism = par
			qctx, err := quality.NewContext(wl.Base.Ontology, cfg)
			if err != nil {
				t.Fatal(err)
			}
			p, err := qctx.Prepare(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			const ticks, cut = 4, 2
			deltas := make([][]dl.Atom, ticks)
			for i := range deltas {
				deltas[i], _ = wl.Tick(i)
			}

			ref, err := p.NewSession(context.Background(), wl.Base.Instance)
			if err != nil {
				t.Fatal(err)
			}
			interrupted, err := p.NewSession(context.Background(), wl.Base.Instance)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < cut; i++ {
				if _, err := ref.Apply(context.Background(), deltas[i]); err != nil {
					t.Fatal(err)
				}
				if _, err := interrupted.Apply(context.Background(), deltas[i]); err != nil {
					t.Fatal(err)
				}
			}
			st := interrupted.Export()

			// In-process restore plus the full disk round-trip: encode
			// against nothing, decode against the prepared base.
			data, err := persist.EncodeSnapshot(persist.Meta{Context: "gen", Session: "s1", Seq: uint64(cut)}, st)
			if err != nil {
				t.Fatal(err)
			}
			_, decoded, err := persist.ReadSnapshot(data, p.BaseInterner())
			if err != nil {
				t.Fatal(err)
			}
			for i := cut; i < ticks; i++ {
				if _, err := ref.Apply(context.Background(), deltas[i]); err != nil {
					t.Fatal(err)
				}
			}
			for _, tc := range []struct {
				name  string
				state persist.SessionState
			}{
				{"in-process", st},
				{"from-disk", decoded},
			} {
				name := tc.name
				restored, err := p.RestoreSession(context.Background(), tc.state)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				for i := cut; i < ticks; i++ {
					if _, err := restored.Apply(context.Background(), deltas[i]); err != nil {
						t.Fatalf("%s: apply tick %d: %v", name, i, err)
					}
				}
				got, _ := restored.View()
				want, _ := ref.View()
				if !got.Equal(want) {
					t.Fatalf("%s: contextual instance differs from uninterrupted run", name)
				}
				if got, want := restored.ChaseRounds(), ref.ChaseRounds(); got != want {
					t.Fatalf("%s: chase rounds = %d, uninterrupted = %d", name, got, want)
				}
				gotV, wantV := restored.Violations(), ref.Violations()
				if len(gotV) != len(wantV) {
					t.Fatalf("%s: %d violations, uninterrupted %d", name, len(gotV), len(wantV))
				}
				for i := range wantV {
					if gotV[i] != wantV[i] {
						t.Fatalf("%s: violation %d = %v, want %v", name, i, gotV[i], wantV[i])
					}
				}
				ra, _, err := restored.Assessment()
				if err != nil {
					t.Fatal(err)
				}
				wa, _, err := ref.Assessment()
				if err != nil {
					t.Fatal(err)
				}
				for _, rel := range []string{"Measurements"} {
					if ra.Measures[rel] != wa.Measures[rel] {
						t.Fatalf("%s: measures[%s] = %+v, want %+v", name, rel, ra.Measures[rel], wa.Measures[rel])
					}
					rv, wv := ra.Versions[rel], wa.Versions[rel]
					if rv.Len() != wv.Len() {
						t.Fatalf("%s: version size %d, want %d", name, rv.Len(), wv.Len())
					}
					for _, tup := range wv.Tuples() {
						if !rv.Contains(tup) {
							t.Fatalf("%s: version missing %v", name, dl.TermsString(tup))
						}
					}
				}
			}
		})
	}
}

// TestRestoreFreshNullLabels pins that restored sessions continue the
// invented-null label sequence exactly where the exported session
// stopped, instead of rescanning the instance (which would collide
// after EGD merges deleted high-numbered nulls).
func TestRestoreFreshNullLabels(t *testing.T) {
	wl := streamWorkload(t, gen.StreamSpec{
		Base:         gen.QualitySpec{Patients: 8, Days: 2, Wards: 2, DirtyRatio: 0.5, Seed: 7},
		TickPatients: 2,
	})
	p, err := wl.Base.Context.Prepare(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	sess, err := p.NewSession(context.Background(), wl.Base.Instance)
	if err != nil {
		t.Fatal(err)
	}
	st := sess.Export()
	restored, err := p.RestoreSession(context.Background(), st)
	if err != nil {
		t.Fatal(err)
	}
	if got := restored.Export().Chase.FreshPos; got != st.Chase.FreshPos {
		t.Fatalf("restored FreshPos = %d, exported %d", got, st.Chase.FreshPos)
	}
}
