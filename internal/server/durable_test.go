package server

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/persist"
	"repro/internal/wal"
	"repro/mdqa"
)

// newDurableServer builds a hospital server persisting under dir, with
// extra facade options applied on top.
func newDurableServer(t *testing.T, dir string, cfg Config, extra ...mdqa.Option) *Server {
	t.Helper()
	cfg.Parallelism = 1
	cfg.DataDir = dir
	srv, err := New(context.Background(), cfg, []ContextSource{{
		Name:    "hospital",
		Source:  mdqa.HospitalQualityExampleSource(),
		Options: extra,
	}})
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

const applyBatches = `{"atoms":[{"pred":"Clock","args":["Sep/6-12:30","Sep/6"]},{"pred":"Measurements","args":["Sep/6-12:30","Tom Waits","37.3"]}]}
{"atoms":[{"pred":"Clock","args":["Sep/5-13:00","Sep/5"]},{"pred":"Measurements","args":["Sep/5-13:00","Lou Reed","38.4"]}]}
`

// TestCrashRecovery pins the tentpole invariant end to end: a server
// that vanishes without any shutdown path (no srv.Close — the
// in-process analogue of kill -9, minus the page cache question the
// cmd-level test covers) comes back with every acknowledged batch, and
// the recovered session answers and assesses byte-identically to the
// uninterrupted one.
func TestCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	srv1 := newDurableServer(t, dir, Config{SnapshotEvery: 1000})
	ts1 := httptest.NewServer(srv1)
	status, body := do(t, "POST", ts1.URL+"/v1/contexts/hospital/sessions", "")
	if status != http.StatusOK {
		t.Fatalf("create: %d %s", status, body)
	}
	var sr SessionResponse
	if err := json.Unmarshal([]byte(body), &sr); err != nil {
		t.Fatal(err)
	}
	base1 := ts1.URL + "/v1/contexts/hospital/sessions/" + sr.ID
	if status, body := do(t, "POST", base1+"/apply", applyBatches); status != http.StatusOK {
		t.Fatalf("apply: %d %s", status, body)
	}
	q := "/answers?q=" + queryEscape(`temp(t, p, v) <- Measurements(t, p, v).`)
	_, wantAnswers := do(t, "GET", base1+q, "")
	_, wantAssess := do(t, "GET", base1+"/assessment", "")
	ts1.Close() // crash: no Server.Close, no final snapshot

	srv2 := newDurableServer(t, dir, Config{SnapshotEvery: 1000})
	ts2 := httptest.NewServer(srv2)
	defer ts2.Close()
	defer srv2.Close()
	base2 := ts2.URL + "/v1/contexts/hospital/sessions/" + sr.ID

	status, body = do(t, "GET", base2, "")
	if status != http.StatusOK {
		t.Fatalf("recovered session must be addressable: %d %s", status, body)
	}
	var info SessionInfo
	if err := json.Unmarshal([]byte(body), &info); err != nil {
		t.Fatal(err)
	}
	if info.Applies != 2 {
		t.Fatalf("recovery must count the replayed applies: %+v", info)
	}
	if _, got := do(t, "GET", base2+q, ""); got != wantAnswers {
		t.Fatalf("recovered answers differ:\n got: %s\nwant: %s", got, wantAnswers)
	}
	if _, got := do(t, "GET", base2+"/assessment", ""); got != wantAssess {
		t.Fatalf("recovered assessment differs:\n got: %s\nwant: %s", got, wantAssess)
	}
	_, metrics := do(t, "GET", ts2.URL+"/metrics", "")
	if !strings.Contains(metrics, `mdserve_sessions_recovered_total{context="hospital"} 1`) {
		t.Fatalf("recovery must be counted:\n%s", metrics)
	}

	// The recovered session keeps absorbing deltas, and new sessions
	// never collide with recovered ids.
	one := `{"atoms":[{"pred":"Measurements","args":["Sep/6-13:00","Tom Waits","37.1"]}]}` + "\n"
	if status, body := do(t, "POST", base2+"/apply", one); status != http.StatusOK {
		t.Fatalf("post-recovery apply: %d %s", status, body)
	}
	status, body = do(t, "POST", ts2.URL+"/v1/contexts/hospital/sessions", "")
	if status != http.StatusOK {
		t.Fatalf("create after recovery: %d %s", status, body)
	}
	var sr2 SessionResponse
	_ = json.Unmarshal([]byte(body), &sr2)
	if sr2.ID == sr.ID {
		t.Fatalf("new session id must not collide with recovered %s", sr.ID)
	}
}

// TestTornTailSurvivesRestarts: a crash that tears an append leaves a
// partial record at the end of the newest WAL segment. The restart
// drops it, and so must every later restart, after the recovered
// session has taken more batches into a newer segment.
func TestTornTailSurvivesRestarts(t *testing.T) {
	dir := t.TempDir()
	srv := newDurableServer(t, dir, Config{})
	ts := httptest.NewServer(srv)
	sid := openSession(t, ts.URL)
	mustAck(t, applyLines(t, ts.URL, sid, applyBatches))
	ts.Close() // crash
	seg := filepath.Join(dir, "hospital", sid, wal.SegmentName(1))
	f, err := os.OpenFile(seg, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x10, 0, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	srv = newDurableServer(t, dir, Config{})
	ts = httptest.NewServer(srv)
	mustAck(t, applyLines(t, ts.URL, sid, oneMeasurement))
	const q = `m(t, p, v) <- Measurements(t, p, v).`
	want := served(t, ts.URL, sid, q)
	ts.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	srv = newDurableServer(t, dir, Config{})
	defer srv.Close()
	ts = httptest.NewServer(srv)
	defer ts.Close()
	if got := served(t, ts.URL, sid, q); got != want {
		t.Fatalf("third start serves\n%s\nbefore shutdown\n%s", got, want)
	}
}

// TestCleanShutdownRecovery covers the graceful path: Close writes a
// covering snapshot, and a restart recovers without replaying any WAL.
func TestCleanShutdownRecovery(t *testing.T) {
	dir := t.TempDir()
	srv1 := newDurableServer(t, dir, Config{})
	ts1 := httptest.NewServer(srv1)
	if status, body := do(t, "POST", ts1.URL+"/v1/contexts/hospital/sessions", ""); status != http.StatusOK {
		t.Fatalf("create: %d %s", status, body)
	}
	base1 := ts1.URL + "/v1/contexts/hospital/sessions/s1"
	if status, body := do(t, "POST", base1+"/apply", applyBatches); status != http.StatusOK {
		t.Fatalf("apply: %d %s", status, body)
	}
	_, wantAssess := do(t, "GET", base1+"/assessment", "")
	ts1.Close()
	if err := srv1.Close(); err != nil {
		t.Fatalf("clean close: %v", err)
	}

	srv2 := newDurableServer(t, dir, Config{})
	defer srv2.Close()
	ts2 := httptest.NewServer(srv2)
	defer ts2.Close()
	if _, got := do(t, "GET", ts2.URL+"/v1/contexts/hospital/sessions/s1/assessment", ""); got != wantAssess {
		t.Fatalf("post-shutdown recovery differs:\n got: %s\nwant: %s", got, wantAssess)
	}
}

// TestSnapshotCompaction drives enough batches through a tight
// SnapshotEvery to force mid-stream compaction, then recovers.
func TestSnapshotCompaction(t *testing.T) {
	dir := t.TempDir()
	srv1 := newDurableServer(t, dir, Config{SnapshotEvery: 1})
	ts1 := httptest.NewServer(srv1)
	if status, body := do(t, "POST", ts1.URL+"/v1/contexts/hospital/sessions", ""); status != http.StatusOK {
		t.Fatalf("create: %d %s", status, body)
	}
	base := ts1.URL + "/v1/contexts/hospital/sessions/s1"
	if status, body := do(t, "POST", base+"/apply", applyBatches); status != http.StatusOK {
		t.Fatalf("apply: %d %s", status, body)
	}
	_, metrics := do(t, "GET", ts1.URL+"/metrics", "")
	if !strings.Contains(metrics, `mdserve_snapshots_written_total{context="hospital"} 2`) {
		t.Fatalf("SnapshotEvery=1 must compact per batch:\n%s", metrics)
	}
	if !strings.Contains(metrics, `mdserve_wal_appends_total{context="hospital"} 2`) {
		t.Fatalf("both batches must be WAL-appended:\n%s", metrics)
	}
	_, wantAssess := do(t, "GET", base+"/assessment", "")
	ts1.Close() // crash

	srv2 := newDurableServer(t, dir, Config{})
	defer srv2.Close()
	ts2 := httptest.NewServer(srv2)
	defer ts2.Close()
	if _, got := do(t, "GET", ts2.URL+"/v1/contexts/hospital/sessions/s1/assessment", ""); got != wantAssess {
		t.Fatalf("compacted recovery differs:\n got: %s\nwant: %s", got, wantAssess)
	}
}

// TestEvictionAndRevival bounds residency at one session: opening a
// second evicts the first to disk, and the next request against the
// evicted session transparently revives it.
func TestEvictionAndRevival(t *testing.T) {
	dir := t.TempDir()
	srv := newDurableServer(t, dir, Config{MaxResident: 1})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	if status, body := do(t, "POST", ts.URL+"/v1/contexts/hospital/sessions", ""); status != http.StatusOK {
		t.Fatalf("create s1: %d %s", status, body)
	}
	s1 := ts.URL + "/v1/contexts/hospital/sessions/s1"
	if status, body := do(t, "POST", s1+"/apply", applyBatches); status != http.StatusOK {
		t.Fatalf("apply s1: %d %s", status, body)
	}
	if status, body := do(t, "POST", ts.URL+"/v1/contexts/hospital/sessions", ""); status != http.StatusOK {
		t.Fatalf("create s2: %d %s", status, body)
	}
	srv.mu.Lock()
	resident := srv.residentCount
	srv.mu.Unlock()
	if resident != 1 {
		t.Fatalf("residentCount = %d, want 1 under MaxResident=1", resident)
	}
	// s1 was least recently used: it must now be on disk, and the next
	// read revives it with all its applied state.
	status, body := do(t, "GET", s1+"/answers?q="+queryEscape(`tom(t, v) <- Measurements(t, "Tom Waits", v).`), "")
	if status != http.StatusOK || !strings.Contains(body, `["Sep/6-12:30","37.3"]`) {
		t.Fatalf("revived session must hold its applied deltas: %d\n%s", status, body)
	}
	// Info works against an evicted session without reviving it.
	if status, body := do(t, "GET", ts.URL+"/v1/contexts/hospital/sessions/s2", ""); status != http.StatusOK {
		t.Fatalf("info on evicted session: %d %s", status, body)
	}
	_, metrics := do(t, "GET", ts.URL+"/metrics", "")
	for _, want := range []string{
		`mdserve_sessions_evicted_total{context="hospital"} 2`,
		`mdserve_sessions_revived_total{context="hospital"} 1`,
	} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("missing %q:\n%s", want, metrics)
		}
	}
}

// TestMaxResidentRequiresDataDir pins the config validation: eviction
// without a disk to evict to is a startup error, not a silent footgun.
func TestMaxResidentRequiresDataDir(t *testing.T) {
	_, err := New(context.Background(), Config{Parallelism: 1, MaxResident: 1}, []ContextSource{{
		Name: "hospital", Source: mdqa.HospitalQualityExampleSource(),
	}})
	if err == nil || !strings.Contains(err.Error(), "DataDir") {
		t.Fatalf("MaxResident without DataDir must fail startup, got %v", err)
	}
}

// TestNegativeHistoryDepthFailsStartup: every session keeps a version
// history, so New rejects a negative depth, for a prebuilt context
// (whose durable retention still comes from Config.HistoryDepth) as for
// one New builds from .mdq source.
func TestNegativeHistoryDepthFailsStartup(t *testing.T) {
	f, err := mdqa.ParseSource(mdqa.HospitalQualityExampleSource())
	if err != nil {
		t.Fatal(err)
	}
	qc, err := mdqa.NewContextFromFile(f)
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range []ContextSource{
		{Name: "hospital", Source: mdqa.HospitalQualityExampleSource()},
		{Name: "hospital", Context: qc},
	} {
		_, err := New(context.Background(), Config{Parallelism: 1, HistoryDepth: -1}, []ContextSource{src})
		if err == nil || !strings.Contains(err.Error(), "history depth") {
			t.Fatalf("HistoryDepth -1 must fail startup, got %v", err)
		}
	}
}

// TestLongHistoryStaysBounded: a durable session keeps the metadata of
// its newest mdqa.MaxHistoryVersions versions. A snapshot header that
// carries a longer past, as one written before the cap does, shrinks on
// its first restore: /versions lists only the newest versions, an
// instant before them answers 410, and the next snapshot header stays
// under a fixed size.
func TestLongHistoryStaysBounded(t *testing.T) {
	// The cap covers every version a default durable server can
	// reconstruct: compaction keeps the last depth versions plus up to
	// one snapshot interval behind the replay base, and up to one more
	// interval is logged before the next compaction.
	if reach := mdqa.DefaultHistoryDepth + 2*persist.DefaultSnapshotEvery; mdqa.MaxHistoryVersions < reach {
		t.Fatalf("MaxHistoryVersions %d lists fewer than the %d versions a default durable server can reach", mdqa.MaxHistoryVersions, reach)
	}
	dir := t.TempDir()
	srv1 := newDurableServer(t, dir, Config{SnapshotEvery: 1})
	ts1 := httptest.NewServer(srv1)
	sid := openSession(t, ts1.URL)
	const latest = 9_999
	t0 := time.Now().Add(-time.Hour).Truncate(time.Second)
	sess := sessionOf(srv1, sid)
	sess.mu.Lock()
	st := sess.s.ExportState()
	st.History = make([]mdqa.Version, latest+1)
	for i := range st.History {
		st.History[i] = mdqa.Version{
			Seq: uint64(i), WALSeq: uint64(i), Time: t0.Add(time.Duration(i) * time.Millisecond), Batch: 1, Rows: 40,
			Scores: map[string]mdqa.Score{"Measurements": {Original: 6, Quality: 2, Intersection: 2}},
		}
	}
	err := sess.log.WriteSnapshot(sess.meta(latest, latest), st)
	sess.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	ts1.Close() // crash

	srv2 := newDurableServer(t, dir, Config{SnapshotEvery: 1})
	defer srv2.Close()
	ts2 := httptest.NewServer(srv2)
	defer ts2.Close()
	base := ts2.URL + "/v1/contexts/hospital/sessions/" + sid
	status, body := do(t, http.MethodGet, base+"/versions", "")
	if status != http.StatusOK {
		t.Fatalf("versions: %d %s", status, body)
	}
	var vr VersionsResponse
	if err := json.Unmarshal([]byte(body), &vr); err != nil {
		t.Fatal(err)
	}
	if n := len(vr.Versions); n != mdqa.MaxHistoryVersions || vr.Latest != latest || vr.Versions[0].Seq != latest-mdqa.MaxHistoryVersions+1 {
		t.Fatalf("restored session lists %d versions up to %d, want the newest %d up to %d", n, vr.Latest, mdqa.MaxHistoryVersions, latest)
	}
	status, body = do(t, http.MethodGet, base+"/trajectory?rel=Measurements&as_of="+t0.Format(time.RFC3339), "")
	if status != http.StatusGone || errCode(t, body) != "version_evicted" {
		t.Fatalf("as_of before the listed versions = %d %s", status, body)
	}

	mustAck(t, applyLines(t, ts2.URL, sid, oneMeasurement))
	snaps, err := filepath.Glob(filepath.Join(dir, "hospital", sid, "snap-*.snap"))
	if err != nil || len(snaps) == 0 {
		t.Fatalf("snapshots: %v %v", snaps, err)
	}
	sort.Strings(snaps)
	data, err := os.ReadFile(snaps[len(snaps)-1])
	if err != nil {
		t.Fatal(err)
	}
	meta, header, err := persist.ReadMeta(data)
	if err != nil {
		t.Fatal(err)
	}
	const maxHeader = 256 * mdqa.MaxHistoryVersions
	if meta.Seq != latest+1 || len(meta.History) != mdqa.MaxHistoryVersions || header > maxHeader {
		t.Fatalf("snapshot at %d carries %d versions in a %d-byte header, want %d versions within %d bytes",
			meta.Seq, len(meta.History), header, mdqa.MaxHistoryVersions, maxHeader)
	}
}

// TestUnknownContextDirFailsStartup pins the loud-recovery contract: a
// data dir holding sessions for a context the server was not started
// with is an operator error, never silent data loss.
func TestUnknownContextDirFailsStartup(t *testing.T) {
	dir := t.TempDir()
	srv := newDurableServer(t, dir, Config{})
	ts := httptest.NewServer(srv)
	if status, body := do(t, "POST", ts.URL+"/v1/contexts/hospital/sessions", ""); status != http.StatusOK {
		t.Fatalf("create: %d %s", status, body)
	}
	ts.Close()
	_ = srv.Close()
	_, err := New(context.Background(), Config{Parallelism: 1, DataDir: dir}, []ContextSource{{
		Name: "ward", Source: mdqa.HospitalQualityExampleSource(),
	}})
	if err == nil || !strings.Contains(err.Error(), `unknown context "hospital"`) {
		t.Fatalf("recovery over a foreign data dir must fail loudly, got %v", err)
	}
}

// TestCloseApplyRace storms one session per round with concurrent
// applies, reads and a DELETE. The -race run is the point; the logical
// invariant checked afterwards is that a close can never leave a
// session behind on disk (an acknowledged DELETE removed the session
// dir even when applies were in flight), so a restart recovers
// nothing.
func TestCloseApplyRace(t *testing.T) {
	dir := t.TempDir()
	srv := newDurableServer(t, dir, Config{SnapshotEvery: 1})
	ts := httptest.NewServer(srv)
	client := ts.Client()
	req := func(method, url, body string) {
		r, err := http.NewRequest(method, url, strings.NewReader(body))
		if err != nil {
			return
		}
		resp, err := client.Do(r)
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}
	one := `{"atoms":[{"pred":"Measurements","args":["Sep/6-13:00","Tom Waits","37.1"]}]}` + "\n"
	for round := 0; round < 6; round++ {
		status, body := do(t, "POST", ts.URL+"/v1/contexts/hospital/sessions", "")
		if status != http.StatusOK {
			t.Fatalf("create: %d %s", status, body)
		}
		var sr SessionResponse
		if err := json.Unmarshal([]byte(body), &sr); err != nil {
			t.Fatal(err)
		}
		base := ts.URL + "/v1/contexts/hospital/sessions/" + sr.ID
		var wg sync.WaitGroup
		start := make(chan struct{})
		for i := 0; i < 3; i++ {
			wg.Add(1)
			go func() { defer wg.Done(); <-start; req("POST", base+"/apply", one) }()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			req("GET", base+"/answers?q="+queryEscape(`m(t,p,v) <- Measurements(t,p,v).`), "")
		}()
		wg.Add(1)
		go func() { defer wg.Done(); <-start; req("GET", base+"/assessment", "") }()
		wg.Add(1)
		go func() { defer wg.Done(); <-start; req("DELETE", base, "") }()
		close(start)
		wg.Wait()
		// The DELETE always finds the session (ids are unique per
		// round), so by now it must be gone.
		if status, _ := do(t, "GET", base, ""); status != http.StatusNotFound {
			t.Fatalf("round %d: session must be closed, got %d", round, status)
		}
	}
	ts.Close()
	_ = srv.Close()
	srv2 := newDurableServer(t, dir, Config{})
	defer srv2.Close()
	if n := srv2.sessionCount(); n != 0 {
		t.Fatalf("closed sessions must not recover, found %d", n)
	}
}
