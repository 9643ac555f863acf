package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/qerr"
	"repro/mdqa"
)

// newHospitalServer builds a server over the built-in hospital quality
// example, with extra facade options applied on top.
func newHospitalServer(t *testing.T, extra ...mdqa.Option) *httptest.Server {
	t.Helper()
	srv, err := New(context.Background(), Config{Parallelism: 1}, []ContextSource{{
		Name:    "hospital",
		Source:  mdqa.HospitalQualityExampleSource(),
		Options: extra,
	}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts
}

// do performs a request and returns the status code and full body.
func do(t *testing.T, method, reqURL, body string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(method, reqURL, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(data)
}

// errCode extracts error.code from a structured error body.
func errCode(t *testing.T, body string) string {
	t.Helper()
	var eb ErrorBody
	if err := json.Unmarshal([]byte(body), &eb); err != nil {
		t.Fatalf("not an error body: %v\n%s", err, body)
	}
	return eb.Error.Code
}

// TestMapError pins the qerr → HTTP status contract directly.
func TestMapError(t *testing.T) {
	cases := []struct {
		name   string
		err    error
		status int
		code   string
	}{
		{"inconsistent", fmt.Errorf("wrap: %w", &qerr.InconsistentError{Violations: []qerr.Violation{{ID: "c1", Detail: "d"}}}), http.StatusConflict, "inconsistent"},
		{"bound", fmt.Errorf("wrap: %w", &qerr.BoundExceededError{Op: "chase", Rounds: 3, Atoms: 99}), http.StatusUnprocessableEntity, "bound_exceeded"},
		{"unknown-relation", &qerr.UnknownRelationError{Relation: "Nope"}, http.StatusBadRequest, "unknown_relation"},
		{"unsafe-rule", &qerr.UnsafeRuleError{Rule: "r", Var: "x"}, http.StatusBadRequest, "unsafe_rule"},
		{"not-found", &notFoundError{kind: "context", name: "x"}, http.StatusNotFound, "not_found"},
		{"bad-request", &badRequestError{msg: "nope"}, http.StatusBadRequest, "bad_request"},
		{"overloaded", &overloadedError{msg: "full"}, http.StatusTooManyRequests, "overloaded"},
		{"cancelled", context.Canceled, StatusClientClosedRequest, "client_closed_request"},
		{"too-large", fmt.Errorf("read: %w", &http.MaxBytesError{Limit: maxBodyBytes}), http.StatusRequestEntityTooLarge, "payload_too_large"},
		{"deadline", fmt.Errorf("op: %w", context.DeadlineExceeded), StatusClientClosedRequest, "client_closed_request"},
		{"internal", errors.New("boom"), http.StatusInternalServerError, "internal"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, body := MapError(tc.err)
			if status != tc.status || body.Error.Code != tc.code {
				t.Fatalf("MapError(%v) = %d %q, want %d %q", tc.err, status, body.Error.Code, tc.status, tc.code)
			}
		})
	}

	// Typed detail rides along.
	_, body := MapError(&qerr.InconsistentError{Violations: []qerr.Violation{{ID: "c1", Detail: "d"}}})
	if len(body.Error.Violations) != 1 || body.Error.Violations[0].ID != "c1" {
		t.Fatalf("409 body must carry the violations: %+v", body.Error)
	}
	_, body = MapError(&qerr.BoundExceededError{Rounds: 7, Atoms: 42})
	if body.Error.Rounds != 7 || body.Error.Atoms != 42 {
		t.Fatalf("422 body must carry chase progress: %+v", body.Error)
	}
	_, body = MapError(&qerr.UnknownRelationError{Relation: "Ghost"})
	if body.Error.Relation != "Ghost" {
		t.Fatalf("400 body must name the relation: %+v", body.Error)
	}
}

// TestErrorStatusOverHTTP drives each qerr class through a real
// endpoint and checks the wire status and code.
func TestErrorStatusOverHTTP(t *testing.T) {
	ts := newHospitalServer(t)

	t.Run("unknown context 404", func(t *testing.T) {
		status, body := do(t, "POST", ts.URL+"/v1/contexts/nope/assess", "")
		if status != http.StatusNotFound || errCode(t, body) != "not_found" {
			t.Fatalf("got %d %s", status, body)
		}
	})
	t.Run("unknown session 404", func(t *testing.T) {
		status, body := do(t, "GET", ts.URL+"/v1/contexts/hospital/sessions/s999", "")
		if status != http.StatusNotFound || errCode(t, body) != "not_found" {
			t.Fatalf("got %d %s", status, body)
		}
	})
	t.Run("malformed body 400", func(t *testing.T) {
		status, body := do(t, "POST", ts.URL+"/v1/contexts/hospital/assess", "{not json")
		if status != http.StatusBadRequest || errCode(t, body) != "bad_request" {
			t.Fatalf("got %d %s", status, body)
		}
	})
	t.Run("arity mismatch 400", func(t *testing.T) {
		status, body := do(t, "POST", ts.URL+"/v1/contexts/hospital/assess",
			`{"instance":{"Measurements":[["a","b","c"],["a","b"]]}}`)
		if status != http.StatusBadRequest || errCode(t, body) != "bad_request" {
			t.Fatalf("got %d %s", status, body)
		}
	})
	// The context's rules read Measurements(t, p, v): an instance that
	// holds it at another arity, or holds a relation without a name,
	// would be assessed as if it were empty.
	for _, tc := range []struct{ name, path, body string }{
		{"context arity on assess 400", "/assess", `{"instance":{"Measurements":[["a"]]}}`},
		{"context arity on session create 400", "/sessions", `{"instance":{"Measurements":[["a"]]}}`},
		{"empty relation name 400", "/assess", `{"instance":{"":[["a"]]}}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			status, body := do(t, "POST", ts.URL+"/v1/contexts/hospital"+tc.path, tc.body)
			if status != http.StatusBadRequest || errCode(t, body) != "bad_request" {
				t.Fatalf("got %d %s", status, body)
			}
		})
	}

	// Session-scoped error paths.
	status, body := do(t, "POST", ts.URL+"/v1/contexts/hospital/sessions", "")
	if status != http.StatusOK {
		t.Fatalf("create session: %d %s", status, body)
	}
	var sr SessionResponse
	if err := json.Unmarshal([]byte(body), &sr); err != nil {
		t.Fatal(err)
	}
	base := ts.URL + "/v1/contexts/hospital/sessions/" + sr.ID

	t.Run("unknown relation in query 400", func(t *testing.T) {
		status, body := do(t, "GET", base+"/answers?q="+queryEscape(`ghost(x) <- Ghost(x).`), "")
		if status != http.StatusBadRequest || errCode(t, body) != "unknown_relation" {
			t.Fatalf("got %d %s", status, body)
		}
		var eb ErrorBody
		_ = json.Unmarshal([]byte(body), &eb)
		if eb.Error.Relation != "Ghost" {
			t.Fatalf("error body must name the relation: %s", body)
		}
	})
	// Measurements is declared with arity 3; clean mode rewrites it
	// to its quality version, which has the same arity.
	for _, mode := range []string{"clean", "raw"} {
		t.Run("query arity "+mode+" 400", func(t *testing.T) {
			status, body := do(t, "GET", base+"/answers?mode="+mode+"&q="+queryEscape(`m(t) <- Measurements(t).`), "")
			if status != http.StatusBadRequest || errCode(t, body) != "bad_request" {
				t.Fatalf("got %d %s", status, body)
			}
			if !strings.Contains(body, "has 1 arguments, the relation has 3") {
				t.Fatalf("error must name both arities: %s", body)
			}
		})
	}
	t.Run("unparsable query 400", func(t *testing.T) {
		status, body := do(t, "GET", base+"/answers?q="+queryEscape(`this is not a query`), "")
		if status != http.StatusBadRequest || errCode(t, body) != "bad_request" {
			t.Fatalf("got %d %s", status, body)
		}
	})
	t.Run("missing q 400", func(t *testing.T) {
		status, body := do(t, "GET", base+"/answers", "")
		if status != http.StatusBadRequest || errCode(t, body) != "bad_request" {
			t.Fatalf("got %d %s", status, body)
		}
	})
	// A rejected apply batch answers an NDJSON error line.
	for _, tc := range []struct{ name, atom string }{
		{"apply context arity 400", `{"pred":"Measurements","args":["a"]}`},
		{"apply empty pred 400", `{"pred":"","args":["a"]}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			status, body := do(t, "POST", base+"/apply", `{"atoms":[`+tc.atom+`]}`)
			if status != http.StatusOK || errCode(t, body) != "bad_request" {
				t.Fatalf("got %d %s", status, body)
			}
		})
	}
	t.Run("bad mode 400", func(t *testing.T) {
		status, body := do(t, "GET", base+"/answers?mode=warp&q="+queryEscape(`m(d) <- MonthDay(m, d).`), "")
		if status != http.StatusBadRequest || errCode(t, body) != "bad_request" {
			t.Fatalf("got %d %s", status, body)
		}
	})
}

// TestStrictConsistency409 maps ErrInconsistent to 409 with the
// violations attached: the hospital example violates its
// intensive-closed constraint.
func TestStrictConsistency409(t *testing.T) {
	ts := newHospitalServer(t, mdqa.WithStrictConsistency())
	status, body := do(t, "POST", ts.URL+"/v1/contexts/hospital/assess", "")
	if status != http.StatusConflict || errCode(t, body) != "inconsistent" {
		t.Fatalf("strict assess must 409: %d %s", status, body)
	}
	var eb ErrorBody
	if err := json.Unmarshal([]byte(body), &eb); err != nil {
		t.Fatal(err)
	}
	if len(eb.Error.Violations) == 0 || eb.Error.Violations[0].ID != "closed" {
		t.Fatalf("409 must carry the closed-constraint violation: %s", body)
	}
}

// TestChaseBound422 maps ErrBoundExceeded to 422: the hospital chase
// needs 2 rounds, so a bound of 1 trips it.
func TestChaseBound422(t *testing.T) {
	ts := newHospitalServer(t, mdqa.WithChaseBound(1))
	status, body := do(t, "POST", ts.URL+"/v1/contexts/hospital/assess", "")
	if status != http.StatusUnprocessableEntity || errCode(t, body) != "bound_exceeded" {
		t.Fatalf("bounded assess must 422: %d %s", status, body)
	}
	var eb ErrorBody
	if err := json.Unmarshal([]byte(body), &eb); err != nil {
		t.Fatal(err)
	}
	if eb.Error.Rounds == 0 && eb.Error.Atoms == 0 {
		t.Fatalf("422 must carry chase progress: %s", body)
	}
}

// TestSessionLifecycle covers create, list, info, apply, answers,
// assessment, close and the post-close 404.
func TestSessionLifecycle(t *testing.T) {
	ts := newHospitalServer(t)
	status, body := do(t, "POST", ts.URL+"/v1/contexts/hospital/sessions", "")
	if status != http.StatusOK {
		t.Fatalf("create: %d %s", status, body)
	}
	var sr SessionResponse
	if err := json.Unmarshal([]byte(body), &sr); err != nil {
		t.Fatal(err)
	}
	if sr.ID != "s1" || sr.Context != "hospital" {
		t.Fatalf("first session must be s1: %+v", sr)
	}
	base := ts.URL + "/v1/contexts/hospital/sessions/" + sr.ID

	// Apply two NDJSON batches in one request.
	batches := `{"atoms":[{"pred":"Clock","args":["Sep/6-12:30","Sep/6"]},{"pred":"Measurements","args":["Sep/6-12:30","Tom Waits","37.3"]}]}
{"atoms":[{"pred":"Clock","args":["Sep/5-13:00","Sep/5"]},{"pred":"Measurements","args":["Sep/5-13:00","Lou Reed","38.4"]}]}
`
	status, body = do(t, "POST", base+"/apply", batches)
	if status != http.StatusOK {
		t.Fatalf("apply: %d %s", status, body)
	}
	lines := strings.Split(strings.TrimSpace(body), "\n")
	if len(lines) != 2 {
		t.Fatalf("want 2 apply result lines, got %d:\n%s", len(lines), body)
	}
	for _, line := range lines {
		var ar ApplyResponse
		if err := json.Unmarshal([]byte(line), &ar); err != nil {
			t.Fatalf("bad apply line %q: %v", line, err)
		}
		if ar.Inserted != 2 {
			t.Fatalf("each batch inserts 2 new facts: %+v", ar)
		}
	}

	// The clean answers include the incrementally applied measurement.
	status, body = do(t, "GET", base+"/answers?q="+queryEscape(`tomtemp(t, v) <- Measurements(t, "Tom Waits", v).`), "")
	if status != http.StatusOK {
		t.Fatalf("answers: %d %s", status, body)
	}
	if !strings.Contains(body, `["Sep/6-12:30","37.3"]`) {
		t.Fatalf("clean answers must include the applied delta:\n%s", body)
	}
	if !strings.Contains(body, `{"count":3}`) {
		t.Fatalf("stream must end with the count line:\n%s", body)
	}
	// Raw mode evaluates the query as written (original relation).
	status, body = do(t, "GET", base+"/answers?mode=raw&q="+queryEscape(`tomtemp(t, v) <- Measurements(t, "Tom Waits", v).`), "")
	if status != http.StatusOK || !strings.Contains(body, `{"count":5}`) {
		t.Fatalf("raw answers must see all 5 Tom Waits measurements: %d\n%s", status, body)
	}
	// Named queries from the .mdq file resolve by name.
	status, body = do(t, "GET", base+"/answers?mode=raw&q=tomunits", "")
	if status != http.StatusOK || !strings.Contains(body, "Standard") {
		t.Fatalf("named query must answer over the context: %d\n%s", status, body)
	}

	// Session info reflects the applies.
	status, body = do(t, "GET", base, "")
	if status != http.StatusOK {
		t.Fatalf("info: %d %s", status, body)
	}
	var info SessionInfo
	if err := json.Unmarshal([]byte(body), &info); err != nil {
		t.Fatal(err)
	}
	if info.Applies != 2 || info.ChaseRounds == 0 {
		t.Fatalf("info must count applies and chase rounds: %+v", info)
	}

	// Assessment over the session's current state.
	status, body = do(t, "GET", base+"/assessment", "")
	if status != http.StatusOK || !strings.Contains(body, `"quality":3`) {
		t.Fatalf("assessment must reflect the applied deltas: %d\n%s", status, body)
	}

	// List, close, and the session is gone.
	status, body = do(t, "GET", ts.URL+"/v1/contexts/hospital/sessions", "")
	if status != http.StatusOK || !strings.Contains(body, `"id":"s1"`) {
		t.Fatalf("list must show s1: %d %s", status, body)
	}
	status, body = do(t, "DELETE", base, "")
	if status != http.StatusOK || !strings.Contains(body, `"closed":true`) {
		t.Fatalf("close: %d %s", status, body)
	}
	status, _ = do(t, "GET", base, "")
	if status != http.StatusNotFound {
		t.Fatalf("closed session must 404, got %d", status)
	}
}

// TestDeclaredButEmptyRelations pins the empty-vs-unknown contract: a
// query over a declared relation that holds no tuples in the snapshot
// streams zero answers with a 200; only genuinely unknown predicates
// 400.
func TestDeclaredButEmptyRelations(t *testing.T) {
	ts := newHospitalServer(t)
	// A session whose instance has Clock data but no Measurements: the
	// declared input relation "Measurements" exists in the vocabulary
	// but not in the snapshot.
	status, body := do(t, "POST", ts.URL+"/v1/contexts/hospital/sessions",
		`{"instance":{"Clock":[["Sep/5-09:00","Sep/5"]]}}`)
	if status != http.StatusOK {
		t.Fatalf("create: %d %s", status, body)
	}
	var sr SessionResponse
	if err := json.Unmarshal([]byte(body), &sr); err != nil {
		t.Fatal(err)
	}
	base := ts.URL + "/v1/contexts/hospital/sessions/" + sr.ID
	for _, q := range []string{
		`m(t, p, v) <- Measurements(t, p, v).`,    // declared input, no tuples
		`n(t, p) <- TakenByNurse(t, p, x, y).`,    // quality predicate, underived
		`c(t, v) <- Measurements_q(t, "Tom", v).`, // version predicate, underived
	} {
		status, body := do(t, "GET", base+"/answers?mode=raw&q="+queryEscape(q), "")
		if status != http.StatusOK || !strings.Contains(body, `{"count":0}`) {
			t.Fatalf("declared-but-empty relation must stream zero answers (%s): %d\n%s", q, status, body)
		}
	}
}

// TestDoubleClose pins atomic close: the second DELETE of one session
// is a 404, and the open-sessions gauge never goes negative.
func TestDoubleClose(t *testing.T) {
	ts := newHospitalServer(t)
	status, body := do(t, "POST", ts.URL+"/v1/contexts/hospital/sessions", "")
	if status != http.StatusOK {
		t.Fatalf("create: %d %s", status, body)
	}
	base := ts.URL + "/v1/contexts/hospital/sessions/s1"
	if status, body := do(t, "DELETE", base, ""); status != http.StatusOK {
		t.Fatalf("first close: %d %s", status, body)
	}
	status, body = do(t, "DELETE", base, "")
	if status != http.StatusNotFound || errCode(t, body) != "not_found" {
		t.Fatalf("second close must 404: %d %s", status, body)
	}
	_, metrics := do(t, "GET", ts.URL+"/metrics", "")
	if !strings.Contains(metrics, `mdserve_sessions_open{context="hospital"} 0`) {
		t.Fatalf("gauge must read 0 after close, not negative:\n%s", metrics)
	}
}

// TestZeroArityAnswer pins the wire shape of a boolean query's answer:
// the empty tuple serializes as {"answer":[]}, distinguishable from
// count and error lines.
func TestZeroArityAnswer(t *testing.T) {
	ts := newHospitalServer(t)
	status, body := do(t, "POST", ts.URL+"/v1/contexts/hospital/sessions", "")
	if status != http.StatusOK {
		t.Fatalf("create: %d %s", status, body)
	}
	status, body = do(t, "GET",
		ts.URL+"/v1/contexts/hospital/sessions/s1/answers?mode=raw&q="+
			queryEscape(`any() <- Measurements(t, "Tom Waits", v).`), "")
	if status != http.StatusOK {
		t.Fatalf("answers: %d %s", status, body)
	}
	if !strings.Contains(body, `{"answer":[]}`) || !strings.Contains(body, `{"count":1}`) {
		t.Fatalf("boolean answer must serialize as {\"answer\":[]}:\n%s", body)
	}
}

// TestSessionLimit enforces the registry bound.
func TestSessionLimit(t *testing.T) {
	srv, err := New(context.Background(), Config{Parallelism: 1, MaxSessions: 1}, []ContextSource{{
		Name: "hospital", Source: mdqa.HospitalQualityExampleSource(),
	}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	if status, body := do(t, "POST", ts.URL+"/v1/contexts/hospital/sessions", ""); status != http.StatusOK {
		t.Fatalf("first session: %d %s", status, body)
	}
	status, body := do(t, "POST", ts.URL+"/v1/contexts/hospital/sessions", "")
	if status != http.StatusTooManyRequests || errCode(t, body) != "overloaded" {
		t.Fatalf("second session must hit the limit with 429: %d %s", status, body)
	}
}

// TestAssessWithWireInstance assesses a client-supplied instance
// instead of the declared input.
func TestAssessWithWireInstance(t *testing.T) {
	ts := newHospitalServer(t)
	// One clean measurement (Tom Waits, Sep/6 → W2 → Standard, Helen
	// certified) and one with no ward data.
	req := `{"instance":{
		"Measurements":[["Sep/6-09:00","Tom Waits","36.9"],["Sep/6-09:05","Nobody","37.0"]],
		"Clock":[["Sep/6-09:00","Sep/6"],["Sep/6-09:05","Sep/6"]]}}`
	status, body := do(t, "POST", ts.URL+"/v1/contexts/hospital/assess", req)
	if status != http.StatusOK {
		t.Fatalf("assess: %d %s", status, body)
	}
	var ar AssessResponse
	if err := json.Unmarshal([]byte(body), &ar); err != nil {
		t.Fatal(err)
	}
	m := ar.Measures["Measurements"]
	if m.Original != 2 || m.Quality != 1 || m.Intersection != 1 {
		t.Fatalf("measure over the wire instance: %+v", m)
	}
	if len(ar.Versions["Measurements"].Tuples) != 1 {
		t.Fatalf("one clean tuple expected: %+v", ar.Versions)
	}
}

// TestHealthAndContexts covers the discovery endpoints.
func TestHealthAndContexts(t *testing.T) {
	ts := newHospitalServer(t)
	status, body := do(t, "GET", ts.URL+"/healthz", "")
	if status != http.StatusOK || !strings.Contains(body, `"contexts":["hospital"]`) {
		t.Fatalf("healthz: %d %s", status, body)
	}
	status, body = do(t, "GET", ts.URL+"/v1/contexts", "")
	if status != http.StatusOK || !strings.Contains(body, `"versioned":["Measurements"]`) {
		t.Fatalf("contexts: %d %s", status, body)
	}
	for i := 0; i < 3; i++ {
		if status, body := do(t, "POST", ts.URL+"/v1/contexts/hospital/assess", ""); status != http.StatusOK {
			t.Fatalf("assess: %d %s", status, body)
		}
	}
	status, body = do(t, "GET", ts.URL+"/metrics", "")
	if status != http.StatusOK || !strings.Contains(body, "mdserve_assess_total") {
		t.Fatalf("metrics: %d %s", status, body)
	}
	// Three assesses, one latency series: only ops that ran appear.
	for _, want := range []string{
		"# TYPE mdserve_request_latency_seconds histogram\n",
		`mdserve_request_latency_seconds_bucket{context="hospital",op="assess",le="+Inf"} 3` + "\n",
		`mdserve_request_latency_seconds_count{context="hospital",op="assess"} 3` + "\n",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics missing %q:\n%s", want, body)
		}
	}
	if strings.Contains(body, `op="apply"`) {
		t.Fatalf("an op that never ran has a latency series:\n%s", body)
	}
}

// TestCancelledAssess maps a cancelled request context to 499 — the
// handler path, not the transport, because the client constructs the
// cancellation before the server writes.
func TestCancelledAssess(t *testing.T) {
	srv, err := New(context.Background(), Config{Parallelism: 1}, []ContextSource{{
		Name: "hospital", Source: mdqa.HospitalQualityExampleSource(),
	}})
	if err != nil {
		t.Fatal(err)
	}
	// Exercise the handler directly with a pre-cancelled context: over
	// a real transport the connection would just drop.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest("POST", "/v1/contexts/hospital/assess", nil).WithContext(ctx)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != StatusClientClosedRequest {
		t.Fatalf("cancelled request must map to 499, got %d: %s", rec.Code, rec.Body)
	}
}

// queryEscape URL-encodes an inline query for the ?q= parameter.
func queryEscape(s string) string { return url.QueryEscape(s) }

// spaces is an endless stream of blanks.
type spaces struct{}

func (spaces) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = ' '
	}
	return len(p), nil
}

// TestOversizedBody413: a one-shot assess body one byte over the limit
// fails with 413 payload_too_large, and the server keeps serving.
func TestOversizedBody413(t *testing.T) {
	ts := newHospitalServer(t)
	req, err := http.NewRequest("POST", ts.URL+"/v1/contexts/hospital/assess", io.LimitReader(spaces{}, maxBodyBytes+1))
	if err != nil {
		t.Fatal(err)
	}
	req.ContentLength = maxBodyBytes + 1
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge || errCode(t, string(data)) != "payload_too_large" {
		t.Fatalf("oversized assess: %d %s", resp.StatusCode, data)
	}
	if status, body := do(t, "GET", ts.URL+"/healthz", ""); status != http.StatusOK {
		t.Fatalf("healthz after an oversized body: %d %s", status, body)
	}
}

// TestFailedApplyKeepsConnection: an apply stream that fails at its
// first batch still reads the rest of its body, so the client's
// keep-alive connection carries the next request. Fifty posts over one
// client, each a wrong-arity batch followed by 2,000 valid ones, all
// complete on one connection, and net/http logs no panic.
func TestFailedApplyKeepsConnection(t *testing.T) {
	srv, err := New(context.Background(), Config{Parallelism: 1}, []ContextSource{{
		Name: "hospital", Source: mdqa.HospitalQualityExampleSource(),
	}})
	if err != nil {
		t.Fatal(err)
	}
	// Read only after ts.Close, which waits for every connection
	// goroutine that could log.
	var logged strings.Builder
	var conns atomic.Int32
	ts := httptest.NewUnstartedServer(srv)
	ts.Config.ErrorLog = log.New(&logged, "", 0)
	ts.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			conns.Add(1)
		}
	}
	ts.Start()
	defer ts.Close()
	sid := openSession(t, ts.URL)

	var body strings.Builder
	body.WriteString(`{"atoms":[{"pred":"Measurements","args":["Sep/6-13:00","Tom Waits"]}]}` + "\n")
	for i := 0; i < 2000; i++ {
		fmt.Fprintf(&body, `{"atoms":[{"pred":"Measurements","args":["Sep/6-13:%02d","Tom Waits","37.%d"]}]}`+"\n", i%60, i%10)
	}
	client := ts.Client()
	before := conns.Load()
	for i := 0; i < 50; i++ {
		resp, err := client.Post(ts.URL+"/v1/contexts/hospital/sessions/"+sid+"/apply", "application/x-ndjson", strings.NewReader(body.String()))
		if err != nil {
			t.Fatalf("post %d: %v", i, err)
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("post %d: read: %v", i, err)
		}
		if code := errCode(t, string(data)); code != "bad_request" {
			t.Fatalf("post %d: %s, want one bad_request line", i, data)
		}
	}
	if n := conns.Load() - before; n != 1 {
		t.Errorf("50 posts opened %d connections, want 1", n)
	}
	ts.Close()
	if msg := logged.String(); msg != "" {
		t.Fatalf("net/http logged:\n%s", msg)
	}
}
