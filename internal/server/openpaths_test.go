package server

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/datalog"
	"repro/internal/gen"
	"repro/internal/quality"
	"repro/mdqa"
)

// TestOpenPathsAgree drives a durable server over a small streaming
// workload through every path that opens a session: revival after
// eviction (two sessions, one resident at a time), as-of reads from
// the ring and from disk, restart recovery, and an in-process
// RestoreSession of an exported state. The sessions take the ticks in
// blocks of three, so a session gathers WAL batches beyond its last
// snapshot: as-of reads between snapshots and the recovery after the
// last block replay them. After each tick the session that took it
// must serve what an in-process session that never left memory served
// at that version; after each block, and after the restart, so must
// every other path at every version it still serves.
func TestOpenPathsAgree(t *testing.T) {
	ctx := context.Background()
	const depth, ticks = 2, 10
	wl, err := gen.NewStreamingWorkload(gen.StreamSpec{
		Base:         gen.QualitySpec{Patients: 6, Days: 2, Wards: 2, DirtyRatio: 0.5, Seed: 5},
		TickPatients: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	qc, err := mdqa.NewContext(wl.Base.Ontology, func(cfg *quality.Config) {
		*cfg = wl.Base.Config
		cfg.Parallelism = 1
		cfg.HistoryDepth = depth
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Parallelism: 1, DataDir: t.TempDir(), SnapshotEvery: 2, MaxResident: 1, HistoryDepth: depth}
	start := func() (*Server, *httptest.Server) {
		t.Helper()
		srv, err := New(ctx, cfg, []ContextSource{{Name: "ward", Context: qc, Input: wl.Base.Instance}})
		if err != nil {
			t.Fatal(err)
		}
		return srv, httptest.NewServer(srv)
	}
	srv, ts := start()
	target := gen.HTTPTarget{BaseURL: ts.URL, Context: "ward"}
	ids := []string{"a", "b"}
	for _, id := range ids {
		if _, err := target.OpenSessionWithID(ctx, id); err != nil {
			t.Fatal(err)
		}
	}
	prep := srv.contexts["ward"].prep
	ref, err := prep.NewSession(ctx, wl.Base.Instance)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{servedAt(t, ref, 0)}

	reconstructs := 0
	check := func(srv *Server, when string) {
		t.Helper()
		latest := uint64(len(want) - 1)
		for _, id := range ids {
			srv.mu.Lock()
			sess := srv.sessions[id]
			srv.mu.Unlock()
			// Touching one session revives it and evicts the other.
			ms, err := srv.resident(ctx, sess)
			if err != nil {
				t.Fatal(err)
			}
			if got := servedAt(t, ms, latest); got != want[latest] {
				t.Fatalf("%s: session %s at version %d:\n%s\nwant\n%s", when, id, latest, got, want[latest])
			}
			restored, err := prep.RestoreSession(ctx, ms.ExportState())
			if err != nil {
				t.Fatal(err)
			}
			if got := servedAt(t, restored, latest); got != want[latest] {
				t.Fatalf("%s: session %s restored from its export:\n%s\nwant\n%s", when, id, got, want[latest])
			}
			for v := uint64(0); v <= latest; v++ {
				at, live, err := srv.sessionAt(ctx, sess, ms, v)
				if errors.Is(err, mdqa.ErrVersionEvicted) {
					continue
				}
				if err != nil {
					t.Fatalf("%s: session %s as of %d: %v", when, id, v, err)
				}
				if !live {
					reconstructs++
				}
				if got := servedAt(t, at, v); got != want[v] {
					t.Fatalf("%s: session %s as of %d (from disk: %v):\n%s\nwant\n%s", when, id, v, !live, got, want[v])
				}
			}
		}
	}

	const block = 3
	for start := 0; start < ticks; start += block {
		end := min(start+block, ticks)
		var deltas [][]datalog.Atom
		for i := start; i < end; i++ {
			delta, _ := wl.Tick(i)
			deltas = append(deltas, delta)
			if _, err := ref.Apply(ctx, delta); err != nil {
				t.Fatal(err)
			}
			if v, ok := ref.LatestVersion(); !ok || v.Seq != uint64(i+1) {
				t.Fatalf("reference at version %d after tick %d", v.Seq, i)
			}
			want = append(want, servedAt(t, ref, uint64(i+1)))
		}
		for _, id := range ids {
			srv.mu.Lock()
			sess := srv.sessions[id]
			srv.mu.Unlock()
			for k, delta := range deltas {
				if err := target.ApplyBatch(ctx, id, delta); err != nil {
					t.Fatal(err)
				}
				// The session just applied to is resident: compare its
				// live state without touching (and evicting) the other.
				sess.mu.Lock()
				live := sess.s
				sess.mu.Unlock()
				v := uint64(start + k + 1)
				if got := servedAt(t, live, v); got != want[v] {
					t.Fatalf("session %s after tick %d:\n%s\nwant\n%s", id, start+k, got, want[v])
				}
			}
		}
		if end < ticks {
			check(srv, fmt.Sprintf("ticks %d-%d", start, end-1))
		}
	}
	srv.met.with("ward", func(cm *contextMetrics) {
		if cm.sessionsRevived == 0 || cm.asofReconstructs == 0 || reconstructs == 0 {
			t.Errorf("revived %d sessions and reconstructed %d versions from disk (%d checked); want both", cm.sessionsRevived, cm.asofReconstructs, reconstructs)
		}
	})

	// Crash, with the last block's batches of the resident session
	// beyond its last snapshot: no Server.Close, no final snapshot.
	ts.Close()
	srv2, ts2 := start()
	defer ts2.Close()
	defer srv2.Close()
	check(srv2, "after restart")
}

// servedAt renders what a session serves at version v: every relation's
// tuples in sorted order, the version's metadata without its wall time,
// and the assessment's violations and measures. A read that fails
// renders as its error, so the caller's comparison names the path.
func servedAt(t *testing.T, ms *mdqa.Session, v uint64) string {
	t.Helper()
	snap, err := ms.View(mdqa.At(v))
	if err != nil {
		return fmt.Sprintf("view at %d: %v", v, err)
	}
	var b strings.Builder
	for _, rel := range snap.Relations() {
		tuples, err := snap.Tuples(rel)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "%s:", rel)
		for tup := range tuples {
			fmt.Fprintf(&b, " %v", tup)
		}
		b.WriteByte('\n')
	}
	ver, ok := snap.Version()
	ver.Time = time.Time{}
	fmt.Fprintf(&b, "version %+v (%v)\n", ver, ok)
	a, err := ms.Assess(context.Background(), mdqa.At(v))
	if err != nil {
		return fmt.Sprintf("assess at %d: %v", v, err)
	}
	fmt.Fprintf(&b, "violations %v\nmeasures %v\n", a.Violations(), a.Measures())
	return b.String()
}
