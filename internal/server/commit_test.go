package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/wal"
	"repro/mdqa"
)

// The failure rule of a durable session's commit: whatever the engine
// step or the log fails on, the session serves exactly what its log
// holds, live and after a restart. Each test drives one way a commit
// can fail, then compares the live answers with a restarted server's.

// served renders what a hospital session serves: the raw answers of q,
// sorted, and the latest version number.
func served(t *testing.T, base, sid, q string) string {
	t.Helper()
	sbase := base + "/v1/contexts/hospital/sessions/" + sid
	status, body := do(t, http.MethodGet, sbase+"/answers?mode=raw&q="+queryEscape(q), "")
	if status != http.StatusOK {
		t.Fatalf("answers: %d %s", status, body)
	}
	lines := strings.Split(strings.TrimSpace(body), "\n")
	sort.Strings(lines)
	status, body = do(t, http.MethodGet, sbase+"/versions", "")
	if status != http.StatusOK {
		t.Fatalf("versions: %d %s", status, body)
	}
	var vr VersionsResponse
	if err := json.Unmarshal([]byte(body), &vr); err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%s\nlatest %d", strings.Join(lines, "\n"), vr.Latest)
}

// applyLines posts an NDJSON apply and returns the response lines.
func applyLines(t *testing.T, base, sid, batches string) []string {
	t.Helper()
	status, body := do(t, http.MethodPost, base+"/v1/contexts/hospital/sessions/"+sid+"/apply", batches)
	if status != http.StatusOK {
		t.Fatalf("apply: %d %s", status, body)
	}
	return strings.Split(strings.TrimSpace(body), "\n")
}

// mustAck fails unless every response line acknowledges its batch.
func mustAck(t *testing.T, lines []string) {
	t.Helper()
	for _, l := range lines {
		if strings.Contains(l, `"error"`) {
			t.Fatalf("batch not acknowledged: %s", l)
		}
	}
}

// mustFail fails unless the last response line is an error with code.
func mustFail(t *testing.T, lines []string, code string) {
	t.Helper()
	var al AnswerLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &al); err != nil || al.Error == nil || al.Error.Code != code {
		t.Fatalf("want a %s error line, got %q", code, lines)
	}
}

// sessionOf returns the registry record of a session.
func sessionOf(srv *Server, sid string) *session {
	srv.mu.Lock()
	defer srv.mu.Unlock()
	return srv.sessions[sid]
}

const oneMeasurement = `{"atoms":[{"pred":"Measurements","args":["Sep/6-13:00","Tom Waits","37.1"]}]}` + "\n"

// TestUnloggableBatchIsNotServed: a batch the WAL refuses (its symbol
// record exceeds wal.MaxRecord) fails, and the session that applied it
// drops it with its live state instead of serving it, so version
// numbers keep their meaning across a restart. The oversized batch
// goes through applyBatch directly, which the NDJSON handler streams
// from: an HTTP body would hold two more copies of its 64 MiB term.
func TestUnloggableBatchIsNotServed(t *testing.T) {
	dir := t.TempDir()
	srv := newDurableServer(t, dir, Config{})
	ts := httptest.NewServer(srv)
	sid := openSession(t, ts.URL)
	huge := mdqa.NewAtom("Measurements", mdqa.Const("Sep/6-12:30"), mdqa.Const(strings.Repeat("x", wal.MaxRecord+1)), mdqa.Const("37.3"))
	_, _, _, err := srv.applyBatch(context.Background(), sessionOf(srv, sid), []mdqa.Atom{huge})
	if err == nil || !strings.Contains(err.Error(), "exceeds MaxRecord") {
		t.Fatalf("oversized batch: %v", err)
	}
	mustAck(t, applyLines(t, ts.URL, sid, oneMeasurement))
	const q = `m(p) <- Measurements(t, p, v).`
	live := served(t, ts.URL, sid, q)
	if want := "{\"answer\":[\"Lou Reed\"]}\n{\"answer\":[\"Tom Waits\"]}\n{\"count\":2}\nlatest 1"; live != want {
		t.Fatalf("live session serves\n%s\nwant\n%s", live, want)
	}
	ts.Close() // crash

	srv2 := newDurableServer(t, dir, Config{})
	defer srv2.Close()
	ts2 := httptest.NewServer(srv2)
	defer ts2.Close()
	if got := served(t, ts2.URL, sid, q); got != live {
		t.Fatalf("restart serves\n%s\nlive served\n%s", got, live)
	}
}

// TestBoundExceededBatchIsNotServed: a batch the incremental chase
// stops at the atom bound is not served after the error, and no later
// snapshot makes it durable. The context holds 63 chased tuples at
// open, so a new PatientWard row and what the chase derives from it
// cross the bound of 64.
func TestBoundExceededBatchIsNotServed(t *testing.T) {
	dir := t.TempDir()
	srv := newDurableServer(t, dir, Config{}, mdqa.WithAtomBound(64))
	ts := httptest.NewServer(srv)
	sid := openSession(t, ts.URL)
	lines := applyLines(t, ts.URL, sid, `{"atoms":[{"pred":"PatientWard","args":["W1","Sep/9","New Patient"]}]}`+"\n")
	mustFail(t, lines, "bound_exceeded")
	mustAck(t, applyLines(t, ts.URL, sid, oneMeasurement))
	const q = `w(w, d, p) <- PatientWard(w, d, p).`
	live := served(t, ts.URL, sid, q)
	if !strings.Contains(live, `{"count":4}`) || strings.Contains(live, "New Patient") {
		t.Fatalf("live session serves the rejected batch:\n%s", live)
	}
	ts.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	srv2 := newDurableServer(t, dir, Config{}, mdqa.WithAtomBound(64))
	defer srv2.Close()
	ts2 := httptest.NewServer(srv2)
	defer ts2.Close()
	if got := served(t, ts2.URL, sid, q); got != live {
		t.Fatalf("restart serves\n%s\nlive served\n%s", got, live)
	}
}

// TestFailedRotationDoesNotWedgeTheLog: when the next WAL segment
// cannot be created, the apply that rotates fails; once the cause is
// gone, later applies are acknowledged again, and what the live
// session serves is what a restart recovers.
func TestFailedRotationDoesNotWedgeTheLog(t *testing.T) {
	dir := t.TempDir()
	srv := newDurableServer(t, dir, Config{SnapshotEvery: 1})
	ts := httptest.NewServer(srv)
	sid := openSession(t, ts.URL)
	block := filepath.Join(dir, "hospital", sid, wal.SegmentName(2))
	if err := os.Mkdir(block, 0o755); err != nil {
		t.Fatal(err)
	}
	mustFail(t, applyLines(t, ts.URL, sid, applyBatches), "internal")
	if err := os.Remove(block); err != nil {
		t.Fatal(err)
	}
	mustAck(t, applyLines(t, ts.URL, sid, oneMeasurement))
	mustAck(t, applyLines(t, ts.URL, sid, `{"atoms":[{"pred":"Measurements","args":["Sep/7-13:00","Lou Reed","37.9"]}]}`+"\n"))
	const q = `m(t, p, v) <- Measurements(t, p, v).`
	live := served(t, ts.URL, sid, q)
	ts.Close() // crash

	srv2 := newDurableServer(t, dir, Config{SnapshotEvery: 1})
	defer srv2.Close()
	ts2 := httptest.NewServer(srv2)
	defer ts2.Close()
	if got := served(t, ts2.URL, sid, q); got != live {
		t.Fatalf("restart serves\n%s\nlive served\n%s", got, live)
	}
}

// TestFailedRebuildRotationFailsTheRefresh: a refresh rebuild whose
// rotation fails answers an error instead of 200, and the session then
// serves what a restart recovers: the refresh before the rebuild, whose
// delta the log holds.
func TestFailedRebuildRotationFailsTheRefresh(t *testing.T) {
	dir := t.TempDir()
	f := newSourcedFixture()
	start := func() (*Server, *httptest.Server) {
		srv, err := New(context.Background(), Config{Parallelism: 1, DataDir: dir}, []ContextSource{{
			Name:    "hospital",
			Source:  mdqa.HospitalQualityExampleSource(),
			Options: f.options(),
		}})
		if err != nil {
			t.Fatal(err)
		}
		return srv, httptest.NewServer(srv)
	}
	_, ts := start()
	sid := openSession(t, ts.URL)
	f.wards.Add("W1", "Sep/9", "Tom Waits")
	f.scheds.Add("Standard", "Sep/9", "Alice", "cert.")
	if status, rr, body := refresh(t, ts.URL, sid); status != http.StatusOK || rr.Rebuilt {
		t.Fatalf("incremental refresh: %d %s", status, body)
	}
	block := filepath.Join(dir, "hospital", sid, wal.SegmentName(2))
	if err := os.Mkdir(block, 0o755); err != nil {
		t.Fatal(err)
	}
	f.scheds.Set()
	if status, _, body := refresh(t, ts.URL, sid); status != http.StatusInternalServerError {
		t.Fatalf("rebuild refresh with its rotation blocked: %d %s", status, body)
	}
	if err := os.Remove(block); err != nil {
		t.Fatal(err)
	}
	const q = `m(t, p, v) <- Measurements_q(t, p, v).`
	live := served(t, ts.URL, sid, q)
	if n := measurementsQ(t, ts.URL, sid); n != 3 {
		t.Fatalf("after the failed rebuild Measurements_q = %d, want the logged refresh's 3", n)
	}
	ts.Close() // crash

	srv2, ts2 := start()
	defer srv2.Close()
	defer ts2.Close()
	if got := served(t, ts2.URL, sid, q); got != live {
		t.Fatalf("restart serves\n%s\nlive served\n%s", got, live)
	}
}

// TestConcurrentFailedCommits storms one durable session, compacting on
// every batch, with writers whose streams mix acknowledged batches and
// batches the chase stops at the atom bound, and with readers. A failed
// batch drops the live state while other writers' snapshots may still
// be in flight; the session must keep reviving and acknowledging, and
// end serving what a restart recovers.
func TestConcurrentFailedCommits(t *testing.T) {
	dir := t.TempDir()
	// The shallowest history: every snapshot then deletes all but the
	// previous snapshot and the segments after it, the harshest
	// compaction for a revival to race.
	cfg := Config{SnapshotEvery: 1, HistoryDepth: 1}
	srv := newDurableServer(t, dir, cfg, mdqa.WithAtomBound(80))
	ts := httptest.NewServer(srv)
	sid := openSession(t, ts.URL)
	good := func(i int) string {
		return fmt.Sprintf(`{"atoms":[{"pred":"Measurements","args":["Sep/6-1%d:00","Tom Waits","37.%d"]}]}`, i, i) + "\n"
	}
	var bad strings.Builder
	bad.WriteString(`{"atoms":[`)
	for i := 0; i < 10; i++ {
		if i > 0 {
			bad.WriteString(",")
		}
		fmt.Fprintf(&bad, `{"pred":"PatientWard","args":["W1","Sep/9","Patient %d"]}`, i)
	}
	bad.WriteString("]}\n")
	const q = `m(t, p, v) <- Measurements(t, p, v).`
	var wg sync.WaitGroup
	var failed atomic.Int32
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 4; r++ {
				body := good((w+r)%6) + bad.String()
				if r%2 == 1 {
					body = good((w + r) % 6)
				}
				req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/contexts/hospital/sessions/"+sid+"/apply", strings.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Error(err)
					return
				}
				data, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if strings.Contains(string(data), `"bound_exceeded"`) {
					failed.Add(1)
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for r := 0; r < 8; r++ {
			resp, err := http.Get(ts.URL + "/v1/contexts/hospital/sessions/" + sid + "/answers?q=" + queryEscape(q))
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
		}
	}()
	wg.Wait()
	if failed.Load() != 6 {
		t.Fatalf("%d of 6 streams failed at the bound", failed.Load())
	}
	mustAck(t, applyLines(t, ts.URL, sid, good(6)))
	answers := "/v1/contexts/hospital/sessions/" + sid + "/answers?q=" + queryEscape(q)
	_, live := do(t, http.MethodGet, ts.URL+answers, "")
	ts.Close() // crash

	srv2 := newDurableServer(t, dir, cfg, mdqa.WithAtomBound(80))
	defer srv2.Close()
	ts2 := httptest.NewServer(srv2)
	defer ts2.Close()
	if _, got := do(t, http.MethodGet, ts2.URL+answers, ""); got != live {
		t.Fatalf("restart serves\n%s\nlive served\n%s", got, live)
	}
}
