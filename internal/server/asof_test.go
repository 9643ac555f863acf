package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/mdqa"
)

// newHistoryServer builds an ephemeral hospital server with explicit
// history bounds.
func newHistoryServer(t *testing.T, cfg Config) *httptest.Server {
	t.Helper()
	cfg.Parallelism = 1
	srv, err := New(context.Background(), cfg, []ContextSource{{
		Name:   "hospital",
		Source: mdqa.HospitalQualityExampleSource(),
	}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts
}

// openSessionHTTP creates a session and returns its base URL.
func openSessionHTTP(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	status, body := do(t, "POST", ts.URL+"/v1/contexts/hospital/sessions", "")
	if status != http.StatusOK {
		t.Fatalf("create: %d %s", status, body)
	}
	var sr SessionResponse
	if err := json.Unmarshal([]byte(body), &sr); err != nil {
		t.Fatal(err)
	}
	return ts.URL + "/v1/contexts/hospital/sessions/" + sr.ID
}

// applyOne posts a single one-batch NDJSON apply.
func applyOne(t *testing.T, base string, i int) {
	t.Helper()
	batch := fmt.Sprintf(`{"atoms":[{"pred":"Clock","args":["Sep/6-%02d:00","Sep/6"]},{"pred":"Measurements","args":["Sep/6-%02d:00","Tom Waits","37.%d"]}]}`, i+14, i+14, i)
	if status, body := do(t, "POST", base+"/apply", batch+"\n"); status != http.StatusOK {
		t.Fatalf("apply %d: %d %s", i, status, body)
	}
}

const asofQuery = "/answers?q=" + "temp(t%2C%20p%2C%20v)%20%3C-%20Measurements(t%2C%20p%2C%20v)."

// TestVersionsAndTrajectory pins the new read endpoints: one version
// per applied batch, trajectory one scored point per version, as_of
// truncation, and the parameter-validation vocabulary.
func TestVersionsAndTrajectory(t *testing.T) {
	ts := newHistoryServer(t, Config{})
	base := openSessionHTTP(t, ts)
	const n = 3
	for i := 0; i < n; i++ {
		applyOne(t, base, i)
	}

	status, body := do(t, "GET", base+"/versions", "")
	if status != http.StatusOK {
		t.Fatalf("versions: %d %s", status, body)
	}
	var vr VersionsResponse
	if err := json.Unmarshal([]byte(body), &vr); err != nil {
		t.Fatal(err)
	}
	if vr.Latest != n || len(vr.Versions) != n+1 {
		t.Fatalf("versions = latest %d, %d entries; want %d, %d", vr.Latest, len(vr.Versions), n, n+1)
	}
	for i, v := range vr.Versions {
		if v.Seq != uint64(i) {
			t.Fatalf("versions[%d].Seq = %d", i, v.Seq)
		}
		if !v.Retained {
			t.Fatalf("default depth must retain all %d versions, %d is not", n+1, v.Seq)
		}
	}

	status, body = do(t, "GET", base+"/trajectory?rel=Measurements", "")
	if status != http.StatusOK {
		t.Fatalf("trajectory: %d %s", status, body)
	}
	var tr TrajectoryResponse
	if err := json.Unmarshal([]byte(body), &tr); err != nil {
		t.Fatal(err)
	}
	if len(tr.Points) != n+1 {
		t.Fatalf("trajectory points = %d, want %d", len(tr.Points), n+1)
	}
	for i, p := range tr.Points {
		if p.Version != uint64(i) {
			t.Fatalf("points[%d].Version = %d", i, p.Version)
		}
		// The example starts with 6 Measurements rows; each applied
		// batch adds one.
		if want := 6 + i; p.Original != want {
			t.Fatalf("points[%d].Original = %d, want %d", i, p.Original, want)
		}
		if p.CleanFraction < 0 || p.CleanFraction > 1 {
			t.Fatalf("points[%d].CleanFraction = %f", i, p.CleanFraction)
		}
	}

	// as_of truncates the series.
	status, body = do(t, "GET", base+"/trajectory?rel=Measurements&as_of=1", "")
	if status != http.StatusOK {
		t.Fatalf("trajectory as_of: %d %s", status, body)
	}
	var trunc TrajectoryResponse
	if err := json.Unmarshal([]byte(body), &trunc); err != nil {
		t.Fatal(err)
	}
	if len(trunc.Points) != 2 || trunc.Points[1] != tr.Points[1] {
		t.Fatalf("as_of=1 trajectory = %+v", trunc.Points)
	}

	// Validation vocabulary, symmetric across endpoints.
	for _, tc := range []struct {
		path   string
		status int
		code   string
	}{
		{"/trajectory", http.StatusBadRequest, "bad_request"},
		{"/trajectory?rel=Nope", http.StatusBadRequest, "unknown_relation"},
		{"/trajectory?rel=Measurements&explain=1", http.StatusBadRequest, "bad_request"},
		{"/trajectory?rel=Measurements&as_of=banana", http.StatusBadRequest, "invalid_as_of"},
		{"/trajectory?rel=Measurements&as_of=99", http.StatusBadRequest, "invalid_as_of"},
		{asofQuery + "&as_of=banana", http.StatusBadRequest, "invalid_as_of"},
		{asofQuery + "&as_of=99", http.StatusBadRequest, "invalid_as_of"},
		{"/assessment?as_of=banana", http.StatusBadRequest, "invalid_as_of"},
		{"/assessment?explain=1", http.StatusBadRequest, "bad_request"},
	} {
		status, body := do(t, "GET", base+tc.path, "")
		if status != tc.status || errCode(t, body) != tc.code {
			t.Errorf("GET %s = %d %s, want %d %s", tc.path, status, body, tc.status, tc.code)
		}
	}
}

// TestAsOfReadsMatchLive pins the tentpole over HTTP: answers and
// assessments at ?as_of=v are byte-identical to the responses captured
// live right after batch v, both by version number and by RFC3339
// instant.
func TestAsOfReadsMatchLive(t *testing.T) {
	ts := newHistoryServer(t, Config{})
	base := openSessionHTTP(t, ts)
	const n = 3
	liveAnswers := map[int]string{}
	liveAssess := map[int]string{}
	capture := func(v int) {
		if _, body := do(t, "GET", base+asofQuery, ""); true {
			liveAnswers[v] = body
		}
		if _, body := do(t, "GET", base+"/assessment", ""); true {
			liveAssess[v] = body
		}
	}
	capture(0)
	for i := 0; i < n; i++ {
		applyOne(t, base, i)
		capture(i + 1)
	}
	_, body := do(t, "GET", base+"/versions", "")
	var vr VersionsResponse
	if err := json.Unmarshal([]byte(body), &vr); err != nil {
		t.Fatal(err)
	}

	for v := 0; v <= n; v++ {
		status, got := do(t, "GET", base+asofQuery+fmt.Sprintf("&as_of=%d", v), "")
		if status != http.StatusOK {
			t.Fatalf("as_of=%d answers: %d %s", v, status, got)
		}
		if got != liveAnswers[v] {
			t.Errorf("as_of=%d answers drifted:\n got %s\nwant %s", v, got, liveAnswers[v])
		}
		// The as-of instant of the version's own timestamp resolves to
		// the same version.
		status, byTime := do(t, "GET", base+asofQuery+"&as_of="+vr.Versions[v].Time, "")
		if status != http.StatusOK || byTime != liveAnswers[v] {
			t.Errorf("as_of=<time of v%d> = %d:\n got %s\nwant %s", v, status, byTime, liveAnswers[v])
		}

		status, assess := do(t, "GET", base+fmt.Sprintf("/assessment?as_of=%d", v), "")
		if status != http.StatusOK {
			t.Fatalf("as_of=%d assessment: %d %s", v, status, assess)
		}
		var ar AssessResponse
		if err := json.Unmarshal([]byte(assess), &ar); err != nil {
			t.Fatal(err)
		}
		if ar.Version == nil || *ar.Version != uint64(v) {
			t.Errorf("as_of=%d assessment must carry its version, got %+v", v, ar.Version)
		}
		// Strip the version stamp and compare against the live capture.
		ar.Version = nil
		restamped, _ := json.Marshal(ar)
		var live AssessResponse
		if err := json.Unmarshal([]byte(liveAssess[v]), &live); err != nil {
			t.Fatal(err)
		}
		liveJSON, _ := json.Marshal(live)
		if string(restamped) != string(liveJSON) {
			t.Errorf("as_of=%d assessment drifted:\n got %s\nwant %s", v, restamped, liveJSON)
		}
	}

	// Explain stays version-faithful: an as-of explain succeeds and
	// reports the plan for the historical snapshot.
	status, got := do(t, "GET", base+asofQuery+"&as_of=0&explain=1", "")
	if status != http.StatusOK {
		t.Fatalf("as_of explain: %d %s", status, got)
	}
	var er ExplainResponse
	if err := json.Unmarshal([]byte(got), &er); err != nil || er.Plan == "" {
		t.Fatalf("as_of explain body: %v %s", err, got)
	}
}

// TestAsOfEvictedEphemeral pins the 410 contract: on an ephemeral
// server, versions behind the in-memory ring are gone for good.
func TestAsOfEvictedEphemeral(t *testing.T) {
	ts := newHistoryServer(t, Config{HistoryDepth: 1})
	base := openSessionHTTP(t, ts)
	for i := 0; i < 2; i++ {
		applyOne(t, base, i)
	}
	status, body := do(t, "GET", base+asofQuery+"&as_of=0", "")
	if status != http.StatusGone || errCode(t, body) != "version_evicted" {
		t.Fatalf("evicted as_of = %d %s", status, body)
	}
	var eb ErrorBody
	if err := json.Unmarshal([]byte(body), &eb); err != nil {
		t.Fatal(err)
	}
	if eb.Error.Version != 0 || eb.Error.Oldest != 2 {
		t.Fatalf("410 must name the version and boundary: %+v", eb.Error)
	}
	// The latest version still serves.
	if status, _ := do(t, "GET", base+asofQuery+"&as_of=2", ""); status != http.StatusOK {
		t.Fatalf("latest as_of: %d", status)
	}
}

// TestAsOfDiskReconstruction pins the durable fallback: a version
// behind the in-memory ring but covered by a retained on-disk snapshot
// is reconstructed by replay and answers byte-identically.
func TestAsOfDiskReconstruction(t *testing.T) {
	dir := t.TempDir()
	srv := newDurableServer(t, dir, Config{SnapshotEvery: 1, HistoryDepth: 2})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	base := openSessionHTTP(t, ts)
	live := map[int]string{}
	const n = 4
	for i := 0; i < n; i++ {
		applyOne(t, base, i)
		_, live[i+1] = do(t, "GET", base+asofQuery, "")
	}
	// Depth 2 retains versions 3..4 in memory; version 2 is behind the
	// ring but within the durable retention window.
	status, body := do(t, "GET", base+asofQuery+"&as_of=2", "")
	if status != http.StatusOK {
		t.Fatalf("disk as_of: %d %s", status, body)
	}
	if body != live[2] {
		t.Errorf("disk-reconstructed answers drifted:\n got %s\nwant %s", body, live[2])
	}
	srv.met.with("hospital", func(cm *contextMetrics) {
		if cm.asofReconstructs == 0 {
			t.Error("as_of=2 must have been served by disk reconstruction")
		}
	})
	// The assessment endpoint takes the same fallback.
	status, assess := do(t, "GET", base+"/assessment?as_of=2", "")
	if status != http.StatusOK {
		t.Fatalf("disk as_of assessment: %d %s", status, assess)
	}
	// Versions behind every retained snapshot are gone, with the
	// boundary named.
	status, body = do(t, "GET", base+asofQuery+"&as_of=0", "")
	if status != http.StatusGone || errCode(t, body) != "version_evicted" {
		t.Fatalf("pre-retention as_of = %d %s", status, body)
	}
}

// TestAsOfOneShotAssess pins the symmetric surface on the one-shot
// endpoint: as_of=0 names the fresh session's initial version, higher
// versions are client errors.
func TestAsOfOneShotAssess(t *testing.T) {
	ts := newHistoryServer(t, Config{})
	status, body := do(t, "POST", ts.URL+"/v1/contexts/hospital/assess?as_of=0", "")
	if status != http.StatusOK {
		t.Fatalf("one-shot as_of=0: %d %s", status, body)
	}
	var ar AssessResponse
	if err := json.Unmarshal([]byte(body), &ar); err != nil {
		t.Fatal(err)
	}
	if ar.Version == nil || *ar.Version != 0 {
		t.Fatalf("one-shot as_of must stamp the version: %+v", ar.Version)
	}
	status, body = do(t, "POST", ts.URL+"/v1/contexts/hospital/assess?as_of=5", "")
	if status != http.StatusBadRequest || errCode(t, body) != "invalid_as_of" {
		t.Fatalf("one-shot future as_of = %d %s", status, body)
	}
	// Without as_of the response keeps its pre-time-travel shape.
	status, body = do(t, "POST", ts.URL+"/v1/contexts/hospital/assess", "")
	if status != http.StatusOK {
		t.Fatalf("one-shot: %d", status)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal([]byte(body), &raw); err != nil {
		t.Fatal(err)
	}
	if _, has := raw["version"]; has {
		t.Fatal("latest-state assess must not carry a version field")
	}
}

// TestAsOfAfterEvictionRevival pins history across LRU eviction: a
// session evicted to disk and revived serves the same as-of reads.
func TestAsOfAfterEvictionRevival(t *testing.T) {
	dir := t.TempDir()
	srv := newDurableServer(t, dir, Config{SnapshotEvery: 1000, MaxResident: 1})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	s1 := openSessionHTTP(t, ts)
	for i := 0; i < 2; i++ {
		applyOne(t, s1, i)
	}
	_, want := do(t, "GET", s1+asofQuery+"&as_of=1", "")
	// A second session pushes s1 out of residence.
	s2 := openSessionHTTP(t, ts)
	applyOne(t, s2, 0)
	// Reading s1 revives it; the revived ring must still serve v1.
	status, got := do(t, "GET", s1+asofQuery+"&as_of=1", "")
	if status != http.StatusOK {
		t.Fatalf("revived as_of: %d %s", status, got)
	}
	if got != want {
		t.Errorf("as-of answers changed across eviction/revival:\n got %s\nwant %s", got, want)
	}
}
