package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/mdqa"
)

// newExampleServer boots the built-in hospital context, optionally
// durable under dir.
func newExampleServer(t testing.TB, cfg Config) *httptest.Server {
	t.Helper()
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

// createSession posts a session-create request with the given body and
// returns status and decoded response id (when 2xx).
func createSession(t *testing.T, base, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(base+"/v1/contexts/hospital/sessions", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out SessionResponse
	if resp.StatusCode/100 == 2 {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, out.ID
}

func TestClientChosenSessionIDs(t *testing.T) {
	ts := newExampleServer(t, Config{Parallelism: 1})

	// A client-chosen id is honored verbatim.
	status, id := createSession(t, ts.URL, `{"id":"shard-7.session"}`)
	if status != http.StatusOK || id != "shard-7.session" {
		t.Fatalf("custom id create: got %d %q", status, id)
	}
	// The same id again is a 409, with the stable error code.
	resp, err := http.Post(ts.URL+"/v1/contexts/hospital/sessions", "application/json", strings.NewReader(`{"id":"shard-7.session"}`))
	if err != nil {
		t.Fatal(err)
	}
	var body struct {
		Error WireError `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict || body.Error.Code != "session_exists" {
		t.Fatalf("duplicate id: got %d code %q, want 409 session_exists", resp.StatusCode, body.Error.Code)
	}
	// The session is addressable under its chosen id.
	info, err := http.Get(ts.URL + "/v1/contexts/hospital/sessions/shard-7.session")
	if err != nil {
		t.Fatal(err)
	}
	info.Body.Close()
	if info.StatusCode != http.StatusOK {
		t.Fatalf("info under custom id: got %d", info.StatusCode)
	}
	// Invalid ids are client errors, not sessions.
	for _, bad := range []string{`{"id":"../escape"}`, `{"id":".dot"}`, `{"id":"a b"}`, fmt.Sprintf(`{"id":%q}`, strings.Repeat("x", 65))} {
		if status, _ := createSession(t, ts.URL, bad); status != http.StatusBadRequest {
			t.Fatalf("invalid id %s: got %d, want 400", bad, status)
		}
	}
	// Auto-numbered creates still work alongside custom ids.
	if status, id := createSession(t, ts.URL, ""); status != http.StatusOK || id == "" {
		t.Fatalf("auto id create: got %d %q", status, id)
	}
}

func TestCustomNumericIDBumpsAutoCounter(t *testing.T) {
	ts := newExampleServer(t, Config{Parallelism: 1})
	// Claim "s5" explicitly; the next auto-numbered session must skip
	// past it instead of colliding.
	if status, _ := createSession(t, ts.URL, `{"id":"s5"}`); status != http.StatusOK {
		t.Fatalf("create s5: got %d", status)
	}
	// The custom create consumed a counter slot for its ordering seq,
	// so the next auto id lands past both "s5" and that slot.
	status, id := createSession(t, ts.URL, "")
	if status != http.StatusOK || id != "s7" {
		t.Fatalf("auto create after claiming s5: got %d %q, want 200 s7", status, id)
	}
	if status, _ := createSession(t, ts.URL, ""); status != http.StatusOK {
		t.Fatalf("second auto create: got %d", status)
	}
}

func TestConcurrentCreatesOfOneIDYieldOneSession(t *testing.T) {
	ts := newExampleServer(t, Config{Parallelism: 1})
	const racers = 8
	var wg sync.WaitGroup
	codes := make([]int, racers)
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			codes[i], _ = createSession(t, ts.URL, `{"id":"contested"}`)
		}(i)
	}
	wg.Wait()
	ok, conflicts := 0, 0
	for _, c := range codes {
		switch c {
		case http.StatusOK:
			ok++
		case http.StatusConflict:
			conflicts++
		}
	}
	if ok != 1 || conflicts != racers-1 {
		t.Fatalf("want exactly one winner, got %d ok / %d conflicts (codes %v)", ok, conflicts, codes)
	}
}

func TestCustomIDSurvivesDurableRestart(t *testing.T) {
	dir := t.TempDir()
	ts := newExampleServer(t, Config{Parallelism: 1, DataDir: dir})
	if status, _ := createSession(t, ts.URL, `{"id":"pinned-42"}`); status != http.StatusOK {
		t.Fatalf("create: got %d", status)
	}
	ts.Close()

	ts2 := newExampleServer(t, Config{Parallelism: 1, DataDir: dir})
	info, err := http.Get(ts2.URL + "/v1/contexts/hospital/sessions/pinned-42")
	if err != nil {
		t.Fatal(err)
	}
	info.Body.Close()
	if info.StatusCode != http.StatusOK {
		t.Fatalf("recovered custom-id session: got %d", info.StatusCode)
	}
	// And it still conflicts with a fresh create of the same id.
	if status, _ := createSession(t, ts2.URL, `{"id":"pinned-42"}`); status != http.StatusConflict {
		t.Fatalf("create over recovered id: got %d, want 409", status)
	}
}

// TestAutoIDSkipsLiveSessions: the client-chosen id
// s18446744073709551615 wraps the auto counter to 0, and the next
// auto-numbered create must not land on (and replace) the live s1.
func TestAutoIDSkipsLiveSessions(t *testing.T) {
	ts := newExampleServer(t, Config{Parallelism: 1})
	base := ts.URL + "/v1/contexts/hospital/sessions"
	if status, id := createSession(t, ts.URL, ""); status != http.StatusOK || id != "s1" {
		t.Fatalf("first create: got %d %q, want 200 s1", status, id)
	}
	if status, body := do(t, "POST", base+"/s1/apply", applyBatches); status != http.StatusOK {
		t.Fatalf("apply: %d %s", status, body)
	}
	if status, _ := createSession(t, ts.URL, `{"id":"s18446744073709551615"}`); status != http.StatusOK {
		t.Fatalf("create s18446744073709551615: got %d", status)
	}
	if status, id := createSession(t, ts.URL, ""); status != http.StatusOK || id == "s1" || id == "s18446744073709551615" {
		t.Fatalf("auto create after the wrap: got %d %q, want 200 and a fresh id", status, id)
	}
	_, body := do(t, "GET", base+"/s1", "")
	var info SessionInfo
	if err := json.Unmarshal([]byte(body), &info); err != nil || info.Applies != 2 {
		t.Fatalf("s1 lost its batches: %s (err %v)", body, err)
	}
	_, body = do(t, "GET", base, "")
	var list SessionList
	if err := json.Unmarshal([]byte(body), &list); err != nil || len(list.Sessions) != 3 {
		t.Fatalf("want 3 sessions listed: %s (err %v)", body, err)
	}
	if _, metrics := do(t, "GET", ts.URL+"/metrics", ""); !strings.Contains(metrics, `mdserve_sessions_open{context="hospital"} 3`) {
		t.Fatalf("open-sessions gauge disagrees with the listing:\n%s", metrics)
	}
}

// TestAutoIDSkipsLiveSessionsDurable is the durable twin: the wrapped
// auto create must neither fail nor overwrite s1's initial snapshot, so
// a crash and restart recover s1 with every acknowledged batch.
func TestAutoIDSkipsLiveSessionsDurable(t *testing.T) {
	dir := t.TempDir()
	ts1 := httptest.NewServer(newDurableServer(t, dir, Config{SnapshotEvery: 1000}))
	if status, id := createSession(t, ts1.URL, ""); status != http.StatusOK || id != "s1" {
		t.Fatalf("first create: got %d %q, want 200 s1", status, id)
	}
	s1 := ts1.URL + "/v1/contexts/hospital/sessions/s1"
	if status, body := do(t, "POST", s1+"/apply", applyBatches); status != http.StatusOK {
		t.Fatalf("apply: %d %s", status, body)
	}
	q := "/answers?q=" + queryEscape(`m(t, p, v) <- Measurements(t, p, v).`)
	_, want := do(t, "GET", s1+q, "")
	if status, _ := createSession(t, ts1.URL, `{"id":"s18446744073709551615"}`); status != http.StatusOK {
		t.Fatalf("create s18446744073709551615: got %d", status)
	}
	status, id := createSession(t, ts1.URL, `{"instance":{"Measurements":[["Sep/9-12:00","Tom Waits","37.0"]]}}`)
	if status != http.StatusOK || id == "s1" {
		// Not fatal: what a restart recovers is the point of the test.
		t.Errorf("auto create after the wrap: got %d %q, want 200 and a fresh id", status, id)
	}
	ts1.Close() // crash: no final snapshot

	srv2 := newDurableServer(t, dir, Config{SnapshotEvery: 1000})
	ts2 := httptest.NewServer(srv2)
	defer ts2.Close()
	defer srv2.Close()
	if _, got := do(t, "GET", ts2.URL+"/v1/contexts/hospital/sessions/s1"+q, ""); got != want {
		t.Fatalf("recovered s1 answers differ:\n got: %s\nwant: %s", got, want)
	}
}
