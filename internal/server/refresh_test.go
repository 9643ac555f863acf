package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/qerr"
	"repro/mdqa"
)

// sourcedFixture is a hospital server whose PatientWard and
// WorkingSchedules relations are fed by live in-memory sources on top
// of the static Table III/IV facts.
type sourcedFixture struct {
	wards  *mdqa.MemSource
	scheds *mdqa.MemSource
}

func newSourcedFixture() *sourcedFixture {
	return &sourcedFixture{
		wards: mdqa.NewMemSource(mdqa.SourceSchema{
			Relation: "PatientWard", Attrs: []string{"Ward", "Day", "Patient"},
		}),
		scheds: mdqa.NewMemSource(mdqa.SourceSchema{
			Relation: "WorkingSchedules", Attrs: []string{"Unit", "Day", "Nurse", "Type"},
		}),
	}
}

func (f *sourcedFixture) options() []mdqa.Option {
	return []mdqa.Option{
		mdqa.WithSource("wards", f.wards),
		mdqa.WithSource("scheds", f.scheds),
	}
}

// measurementsQ fetches the session assessment and returns the tuple
// count of the Measurements quality version.
func measurementsQ(t *testing.T, base, sid string) int {
	t.Helper()
	status, body := do(t, http.MethodGet, base+"/v1/contexts/hospital/sessions/"+sid+"/assessment", "")
	if status != http.StatusOK {
		t.Fatalf("assessment: %d %s", status, body)
	}
	var ar AssessResponse
	if err := json.Unmarshal([]byte(body), &ar); err != nil {
		t.Fatal(err)
	}
	return len(ar.Versions["Measurements"].Tuples)
}

func openSession(t *testing.T, base string) string {
	t.Helper()
	status, body := do(t, http.MethodPost, base+"/v1/contexts/hospital/sessions", "")
	if status != http.StatusOK {
		t.Fatalf("open session: %d %s", status, body)
	}
	var sr SessionResponse
	if err := json.Unmarshal([]byte(body), &sr); err != nil {
		t.Fatal(err)
	}
	return sr.ID
}

func refresh(t *testing.T, base, sid string) (int, RefreshResponse, string) {
	t.Helper()
	status, body := do(t, http.MethodPost, base+"/v1/contexts/hospital/sessions/"+sid+"/refresh", "")
	var rr RefreshResponse
	if status == http.StatusOK {
		if err := json.Unmarshal([]byte(body), &rr); err != nil {
			t.Fatal(err)
		}
	}
	return status, rr, body
}

// TestRefreshEndpoint drives the tentpole end to end over HTTP: a
// session over a live-sourced context picks up upstream changes via
// POST .../refresh — incrementally for additions, with a rebuild for
// removals — and the source metrics appear on /metrics.
func TestRefreshEndpoint(t *testing.T) {
	f := newSourcedFixture()
	ts := newHospitalServer(t, f.options()...)
	sid := openSession(t, ts.URL)

	if got := measurementsQ(t, ts.URL, sid); got != 2 {
		t.Fatalf("baseline Measurements_q = %d tuples, want 2", got)
	}

	// Upstream change: Tom moves into the standard ward W1 on Sep/9
	// and a certified nurse covers Standard/Sep/9.
	f.wards.Add("W1", "Sep/9", "Tom Waits")
	f.scheds.Add("Standard", "Sep/9", "Alice", "cert.")
	status, rr, body := refresh(t, ts.URL, sid)
	if status != http.StatusOK {
		t.Fatalf("refresh: %d %s", status, body)
	}
	if !rr.Changed || rr.Rebuilt {
		t.Fatalf("additions refresh: %+v", rr)
	}
	if len(rr.Sources) != 2 || rr.Sources[0].Added != 1 || rr.Sources[1].Added != 1 {
		t.Fatalf("per-source report: %+v", rr.Sources)
	}
	if rr.Inserted == 0 {
		t.Fatalf("incremental apply reported no inserts: %+v", rr)
	}
	if got := measurementsQ(t, ts.URL, sid); got != 3 {
		t.Fatalf("after refresh Measurements_q = %d tuples, want 3", got)
	}

	// No-op refresh: versions unchanged.
	if _, rr, _ := refresh(t, ts.URL, sid); rr.Changed {
		t.Fatalf("no-op refresh reported change: %+v", rr)
	}

	// Removal: the certified nurse drops off — rebuild, back to 2.
	f.scheds.Set()
	status, rr, body = refresh(t, ts.URL, sid)
	if status != http.StatusOK {
		t.Fatalf("removal refresh: %d %s", status, body)
	}
	if !rr.Changed || !rr.Rebuilt {
		t.Fatalf("removal refresh: %+v", rr)
	}
	if got := measurementsQ(t, ts.URL, sid); got != 2 {
		t.Fatalf("after removal Measurements_q = %d tuples, want 2", got)
	}

	// Source metrics are on /metrics, labeled per context and source.
	_, metricsBody := do(t, http.MethodGet, ts.URL+"/metrics", "")
	for _, want := range []string{
		`mdserve_source_fetches_total{context="hospital",source="wards"}`,
		`mdserve_source_fetch_errors_total{context="hospital",source="scheds"}`,
		`mdserve_source_cache_hits_total{context="hospital",source="wards"}`,
		`mdserve_refreshes_total{context="hospital"} 3`,
		`mdserve_refresh_rebuilds_total{context="hospital"} 1`,
		`mdserve_source_fetch_latency_seconds_count{context="hospital"}`,
	} {
		if !strings.Contains(metricsBody, want) {
			t.Errorf("metrics missing %s", want)
		}
	}
}

// TestSourceFetchLatencyCount pins the fetch-latency summary's _count
// to every fetch observed, past the 256 samples its ring retains.
func TestSourceFetchLatencyCount(t *testing.T) {
	wards := mdqa.NewMemSource(mdqa.SourceSchema{
		Relation: "PatientWard", Attrs: []string{"Ward", "Day", "Patient"},
	})
	ts := newHospitalServer(t, mdqa.WithSource("wards", wards))
	sid := openSession(t, ts.URL) // the session's first resolve is fetch 1
	for i := 0; i < 300; i++ {
		if status, _, body := refresh(t, ts.URL, sid); status != http.StatusOK {
			t.Fatalf("refresh %d: %d %s", i, status, body)
		}
	}
	_, metricsBody := do(t, http.MethodGet, ts.URL+"/metrics", "")
	for _, want := range []string{
		`mdserve_source_fetches_total{context="hospital",source="wards"} 301`,
		`mdserve_source_fetch_latency_seconds_count{context="hospital"} 301`,
	} {
		if !strings.Contains(metricsBody, want) {
			t.Errorf("metrics missing %s", want)
		}
	}
}

// TestRefreshSourceDown pins the failure contract on the wire: a dead
// source surfaces as 502 with code source_unavailable naming the
// binding, and the session keeps serving its last state.
func TestRefreshSourceDown(t *testing.T) {
	f := newSourcedFixture()
	ts := newHospitalServer(t, f.options()...)
	sid := openSession(t, ts.URL)

	f.wards.SetError(errors.New("connection refused"))
	status, _, body := refresh(t, ts.URL, sid)
	if status != http.StatusBadGateway {
		t.Fatalf("refresh with dead source: %d %s", status, body)
	}
	var eb ErrorBody
	if err := json.Unmarshal([]byte(body), &eb); err != nil {
		t.Fatal(err)
	}
	if eb.Error.Code != "source_unavailable" || eb.Error.Source != "wards" {
		t.Fatalf("error body: %+v", eb.Error)
	}
	if got := measurementsQ(t, ts.URL, sid); got != 2 {
		t.Fatalf("failed refresh changed state: %d tuples", got)
	}

	// Opening a session against the dead source also maps to 502.
	status, body = do(t, http.MethodPost, ts.URL+"/v1/contexts/hospital/sessions", "")
	if status != http.StatusBadGateway {
		t.Fatalf("open with dead source: %d %s", status, body)
	}

	// MapError contract, directly.
	st, we := MapError(fmt.Errorf("wrap: %w", &qerr.SourceUnavailableError{Source: "wards", Err: errors.New("down")}))
	if st != http.StatusBadGateway || we.Error.Code != "source_unavailable" || we.Error.Source != "wards" {
		t.Fatalf("MapError = %d %+v", st, we.Error)
	}
}

// TestRefreshUnsourcedContext: refresh on a context without sources is
// a 200 no-op, not an error.
func TestRefreshUnsourcedContext(t *testing.T) {
	ts := newHospitalServer(t)
	sid := openSession(t, ts.URL)
	status, rr, body := refresh(t, ts.URL, sid)
	if status != http.StatusOK || rr.Changed || len(rr.Sources) != 0 {
		t.Fatalf("refresh without sources: %d %s", status, body)
	}
	// And a sourceless scrape stays free of federation metrics.
	_, metricsBody := do(t, http.MethodGet, ts.URL+"/metrics", "")
	if strings.Contains(metricsBody, "mdserve_source_") || strings.Contains(metricsBody, "mdserve_refreshes_total") {
		t.Error("sourceless context leaked source metrics")
	}
}

// TestDurableRefreshRecovery pins refresh durability: an incremental
// refresh WAL-appends its delta, a rebuild refresh writes a synchronous
// snapshot, and a restarted server recovers the refreshed state either
// way.
func TestDurableRefreshRecovery(t *testing.T) {
	dir := t.TempDir()
	f := newSourcedFixture()
	mk := func() (*Server, *httptest.Server) {
		srv, err := New(context.Background(), Config{Parallelism: 1, DataDir: dir}, []ContextSource{{
			Name:    "hospital",
			Source:  mdqa.HospitalQualityExampleSource(),
			Options: f.options(),
		}})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv)
		return srv, ts
	}

	srv, ts := mk()
	sid := openSession(t, ts.URL)
	f.wards.Add("W1", "Sep/9", "Tom Waits")
	f.scheds.Add("Standard", "Sep/9", "Alice", "cert.")
	if status, rr, body := refresh(t, ts.URL, sid); status != http.StatusOK || rr.Rebuilt {
		t.Fatalf("incremental refresh: %d %s", status, body)
	}
	if got := measurementsQ(t, ts.URL, sid); got != 3 {
		t.Fatalf("pre-restart Measurements_q = %d, want 3", got)
	}
	ts.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: the WAL-appended refresh delta replays into the restored
	// session.
	srv, ts = mk()
	if got := measurementsQ(t, ts.URL, sid); got != 3 {
		t.Fatalf("recovered Measurements_q = %d, want 3", got)
	}

	// Rebuild refresh (removal), then crash-style restart (no clean
	// Close — the rebuild wrote its own snapshot synchronously).
	f.scheds.Set()
	if status, rr, body := refresh(t, ts.URL, sid); status != http.StatusOK || !rr.Rebuilt {
		t.Fatalf("rebuild refresh: %d %s", status, body)
	}
	if got := measurementsQ(t, ts.URL, sid); got != 2 {
		t.Fatalf("post-rebuild Measurements_q = %d, want 2", got)
	}
	ts.Close() // no srv.Close(): recovery must come from the rebuild snapshot

	srv, ts = mk()
	defer ts.Close()
	defer srv.Close()
	if got := measurementsQ(t, ts.URL, sid); got != 2 {
		t.Fatalf("crash-recovered Measurements_q = %d, want 2", got)
	}
	// The recovered session keeps refreshing.
	f.scheds.Add("Standard", "Sep/9", "Alice", "cert.")
	if status, rr, body := refresh(t, ts.URL, sid); status != http.StatusOK || !rr.Changed {
		t.Fatalf("post-recovery refresh: %d %s", status, body)
	}
	if got := measurementsQ(t, ts.URL, sid); got != 3 {
		t.Fatalf("post-recovery Measurements_q = %d, want 3", got)
	}
}

// TestRefreshLoop pins the background poller: a changed source is
// folded in without any client call.
func TestRefreshLoop(t *testing.T) {
	f := newSourcedFixture()
	srv, err := New(context.Background(), Config{Parallelism: 1}, []ContextSource{{
		Name:    "hospital",
		Source:  mdqa.HospitalQualityExampleSource(),
		Options: f.options(),
	}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	sid := openSession(t, ts.URL)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go srv.RefreshLoop(ctx, 5*time.Millisecond)

	f.wards.Add("W1", "Sep/9", "Tom Waits")
	f.scheds.Add("Standard", "Sep/9", "Alice", "cert.")
	deadline := time.Now().Add(5 * time.Second)
	for {
		if measurementsQ(t, ts.URL, sid) == 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("background refresh loop never folded the source change in")
		}
		time.Sleep(10 * time.Millisecond)
	}
}
