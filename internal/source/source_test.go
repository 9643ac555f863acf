package source

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/qerr"
)

func mustFetch(t *testing.T, s Source, prev string) *Result {
	t.Helper()
	res, err := s.Fetch(context.Background(), prev)
	if err != nil {
		t.Fatalf("Fetch: %v", err)
	}
	return res
}

func wantTuples(t *testing.T, res *Result, want [][]string) {
	t.Helper()
	if len(res.Tuples) != len(want) {
		t.Fatalf("got %d tuples %v, want %d %v", len(res.Tuples), res.Tuples, len(want), want)
	}
	for i := range want {
		if strings.Join(res.Tuples[i], "\x00") != strings.Join(want[i], "\x00") {
			t.Fatalf("tuple %d = %v, want %v", i, res.Tuples[i], want[i])
		}
	}
}

// --- File connector ---

func writeFile(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestFileCSVHeaderAndData(t *testing.T) {
	path := writeFile(t, "wards.csv", "ward,day,patient\nW1,Sep/5,Tom\nW2,Sep/6,Lou\n")
	src := NewFile(path, Schema{Relation: "PatientWard"})
	res := mustFetch(t, src, "")
	wantTuples(t, res, [][]string{{"W1", "Sep/5", "Tom"}, {"W2", "Sep/6", "Lou"}})
	if len(res.Attrs) != 3 || res.Attrs[0] != "ward" {
		t.Fatalf("header not used as attrs: %v", res.Attrs)
	}
	inst, err := res.Instance(src.Schema())
	if err != nil {
		t.Fatal(err)
	}
	rel := inst.Relation("PatientWard")
	if rel == nil || rel.Len() != 2 {
		t.Fatalf("instance missing tuples: %v", rel)
	}
	if rel.Schema().Attrs[1] != "day" {
		t.Fatalf("instance attrs = %v", rel.Schema().Attrs)
	}
}

func TestFileCSVDeclaredAttrsNoHeader(t *testing.T) {
	path := writeFile(t, "wards.csv", "W1,Sep/5,Tom\n")
	src := NewFile(path, Schema{Relation: "PatientWard", Attrs: []string{"w", "d", "p"}})
	res := mustFetch(t, src, "")
	wantTuples(t, res, [][]string{{"W1", "Sep/5", "Tom"}})
}

func TestFileMtimeUnchanged(t *testing.T) {
	path := writeFile(t, "rows.ndjson", `["a","b"]`)
	src := NewFile(path, Schema{Relation: "R"})
	res := mustFetch(t, src, "")
	again := mustFetch(t, src, res.Version)
	if !again.Unchanged {
		t.Fatalf("same mtime+size should be Unchanged, got %+v", again)
	}
	// A content change with a different size must invalidate the token.
	if err := os.WriteFile(path, []byte(`["a","b"]`+"\n"+`["c","d"]`), 0o644); err != nil {
		t.Fatal(err)
	}
	changed := mustFetch(t, src, res.Version)
	if changed.Unchanged {
		t.Fatal("rewritten file reported Unchanged")
	}
	wantTuples(t, changed, [][]string{{"a", "b"}, {"c", "d"}})
}

func TestFileNDJSONObjectRowsNeedAttrs(t *testing.T) {
	path := writeFile(t, "rows.ndjson", `{"w":"W1","d":"Sep/5"}`)
	src := NewFile(path, Schema{Relation: "R"})
	if _, err := src.Fetch(context.Background(), ""); err == nil {
		t.Fatal("object rows without declared attrs must fail")
	}
	src = NewFile(path, Schema{Relation: "R", Attrs: []string{"w", "d"}})
	res := mustFetch(t, src, "")
	wantTuples(t, res, [][]string{{"W1", "Sep/5"}})
}

func TestFileJSONArrayBody(t *testing.T) {
	path := writeFile(t, "rows.json", `[["a","1"],["b","2"]]`)
	src := NewFile(path, Schema{Relation: "R"})
	res := mustFetch(t, src, "")
	wantTuples(t, res, [][]string{{"a", "1"}, {"b", "2"}})
}

func TestFileEmptyPayload(t *testing.T) {
	for _, name := range []string{"empty.ndjson", "empty.csv"} {
		path := writeFile(t, name, "")
		src := NewFile(path, Schema{Relation: "R", Attrs: []string{"a", "b"}})
		res := mustFetch(t, src, "")
		if len(res.Tuples) != 0 {
			t.Fatalf("%s: want no tuples, got %v", name, res.Tuples)
		}
	}
}

func TestFileMalformedPayloads(t *testing.T) {
	cases := map[string]string{
		"torn.ndjson":    "[\"a\",\"b\"]\n[\"c\",", // torn mid-row
		"badjson.ndjson": `{"w": }`,                // invalid JSON
		"null.ndjson":    `["a", null]`,            // null field
		"nested.ndjson":  `["a", {"x": 1}]`,        // nested structure
		"scalar.ndjson":  `"just a string"`,        // not a row
		"torn.csv":       "a,b\nx,y\nz\n",          // ragged CSV
		"missing.ndjson": `{"w":"W1"}`,             // missing declared field
	}
	for name, content := range cases {
		path := writeFile(t, name, content)
		attrs := []string{"w", "d"}
		src := NewFile(path, Schema{Relation: "R", Attrs: attrs})
		if _, err := src.Fetch(context.Background(), ""); err == nil {
			t.Errorf("%s: malformed payload fetched without error", name)
		}
	}
}

func TestFileMissing(t *testing.T) {
	src := NewFile(filepath.Join(t.TempDir(), "nope.csv"), Schema{Relation: "R"})
	if _, err := src.Fetch(context.Background(), ""); err == nil {
		t.Fatal("missing file must fail the fetch")
	}
}

// An empty payload with no declared attrs has no arity to infer from:
// the snapshot must contribute no relation at all rather than an
// arity-0 one that collides with the contextual declaration on merge.
func TestEmptyResultNoAttrsCreatesNoRelation(t *testing.T) {
	res := &Result{Version: "v"}
	inst, err := res.Instance(Schema{Relation: "PatientWard"})
	if err != nil {
		t.Fatal(err)
	}
	if inst.Relation("PatientWard") != nil {
		t.Fatal("empty schema-less result materialized a relation")
	}
}

// TornResultArity covers the other torn shape: rows that parse but
// disagree in arity must fail at instance building.
func TestTornResultArity(t *testing.T) {
	res := &Result{Tuples: [][]string{{"a", "b"}, {"c"}}, Version: "v"}
	if _, err := res.Instance(Schema{Relation: "R", Attrs: []string{"x", "y"}}); err == nil {
		t.Fatal("mixed-arity tuples must not build an instance")
	}
}

// --- HTTP connector ---

func TestHTTPETagRevalidation(t *testing.T) {
	var hits atomic.Int64
	body := `["W1","Sep/5","Tom"]`
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		if r.Header.Get("If-None-Match") == `"v1"` {
			w.WriteHeader(http.StatusNotModified)
			return
		}
		w.Header().Set("ETag", `"v1"`)
		fmt.Fprintln(w, body)
	}))
	defer srv.Close()
	src := NewHTTP(srv.URL, Schema{Relation: "PatientWard"})
	res := mustFetch(t, src, "")
	wantTuples(t, res, [][]string{{"W1", "Sep/5", "Tom"}})
	if res.Version != `etag:"v1"` {
		t.Fatalf("version = %q", res.Version)
	}
	again := mustFetch(t, src, res.Version)
	if !again.Unchanged {
		t.Fatalf("304 should report Unchanged, got %+v", again)
	}
	if hits.Load() != 2 {
		t.Fatalf("server hits = %d, want 2", hits.Load())
	}
}

func TestHTTPBodyHashFallback(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `[["a","1"]]`)
	}))
	defer srv.Close()
	src := NewHTTP(srv.URL, Schema{Relation: "R"})
	res := mustFetch(t, src, "")
	if !strings.HasPrefix(res.Version, "sha256:") {
		t.Fatalf("version = %q, want a body hash", res.Version)
	}
	again := mustFetch(t, src, res.Version)
	if !again.Unchanged {
		t.Fatal("identical body hash should report Unchanged")
	}
}

func TestHTTPRetryOn5xx(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) < 3 {
			http.Error(w, "boom", http.StatusInternalServerError)
			return
		}
		fmt.Fprint(w, `[["ok","1"]]`)
	}))
	defer srv.Close()
	src := NewHTTP(srv.URL, Schema{Relation: "R"}, WithRetries(3), WithBackoff(time.Millisecond))
	res := mustFetch(t, src, "")
	wantTuples(t, res, [][]string{{"ok", "1"}})
	if hits.Load() != 3 {
		t.Fatalf("hits = %d, want 3 (two failures then success)", hits.Load())
	}
}

func TestHTTPNoRetryOn404(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		http.NotFound(w, r)
	}))
	defer srv.Close()
	src := NewHTTP(srv.URL, Schema{Relation: "R"}, WithRetries(3), WithBackoff(time.Millisecond))
	if _, err := src.Fetch(context.Background(), ""); err == nil {
		t.Fatal("404 must fail")
	}
	if hits.Load() != 1 {
		t.Fatalf("hits = %d, want 1 (4xx is not retryable)", hits.Load())
	}
}

func TestHTTPMalformedBody(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"not": "rows"`)
	}))
	defer srv.Close()
	src := NewHTTP(srv.URL, Schema{Relation: "R"})
	if _, err := src.Fetch(context.Background(), ""); err == nil {
		t.Fatal("malformed body must fail")
	}
}

func TestHTTPDownServer(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	srv.Close() // connection refused from here on
	src := NewHTTP(srv.URL, Schema{Relation: "R"}, WithRetries(1), WithBackoff(time.Millisecond))
	if _, err := src.Fetch(context.Background(), ""); err == nil {
		t.Fatal("down server must fail the fetch")
	}
}

// --- Resolver ---

func TestResolverTTLAndRevalidation(t *testing.T) {
	mem := NewMem(Schema{Relation: "R", Attrs: []string{"a"}}, []string{"x"})
	r := NewResolver([]Binding{{Name: "r", Src: mem, TTL: time.Minute}})
	clock := time.Unix(1000, 0)
	r.now = func() time.Time { return clock }

	snap, err := r.Get(context.Background(), "r")
	if err != nil {
		t.Fatal(err)
	}
	if snap.Inst.Relation("R").Len() != 1 {
		t.Fatal("first Get did not materialize the source")
	}
	// Inside the TTL: cache hit, no connector call.
	if _, err := r.Get(context.Background(), "r"); err != nil {
		t.Fatal(err)
	}
	if got := mem.Fetches(); got != 1 {
		t.Fatalf("fetches = %d, want 1 (second Get is a cache hit)", got)
	}
	// Past the TTL: revalidate (Unchanged — same version).
	clock = clock.Add(2 * time.Minute)
	if _, err := r.Get(context.Background(), "r"); err != nil {
		t.Fatal(err)
	}
	if got := mem.Fetches(); got != 2 {
		t.Fatalf("fetches = %d, want 2 (TTL expiry revalidates)", got)
	}
	st := r.Stats()["r"]
	if st.CacheHits != 1 || st.Fetches != 2 || st.Errors != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestResolverRefreshIgnoresTTL(t *testing.T) {
	mem := NewMem(Schema{Relation: "R", Attrs: []string{"a"}}, []string{"x"})
	r := NewResolver([]Binding{{Name: "r", Src: mem, TTL: time.Hour}})
	if _, err := r.Get(context.Background(), "r"); err != nil {
		t.Fatal(err)
	}
	mem.Add("y")
	snap, err := r.Refresh(context.Background(), "r")
	if err != nil {
		t.Fatal(err)
	}
	if snap.Inst.Relation("R").Len() != 2 {
		t.Fatal("Refresh did not revalidate inside the TTL")
	}
}

func TestResolverUnavailableAndStale(t *testing.T) {
	mem := NewMem(Schema{Relation: "R", Attrs: []string{"a"}}, []string{"x"})
	strict := NewResolver([]Binding{{Name: "r", Src: mem}})
	if _, err := strict.Get(context.Background(), "r"); err != nil {
		t.Fatal(err)
	}
	mem.SetError(errors.New("upstream down"))
	_, err := strict.Refresh(context.Background(), "r")
	if !errors.Is(err, qerr.ErrSourceUnavailable) {
		t.Fatalf("want ErrSourceUnavailable, got %v", err)
	}
	var se *qerr.SourceUnavailableError
	if !errors.As(err, &se) || se.Source != "r" {
		t.Fatalf("typed detail missing: %v", err)
	}

	mem.SetError(nil)
	lax := NewResolver([]Binding{{Name: "r", Src: mem, AllowStale: true}})
	if _, err := lax.Get(context.Background(), "r"); err != nil {
		t.Fatal(err)
	}
	mem.SetError(errors.New("upstream down"))
	snap, err := lax.Refresh(context.Background(), "r")
	if err != nil {
		t.Fatalf("AllowStale must degrade to the cached snapshot, got %v", err)
	}
	if snap.Inst.Relation("R").Len() != 1 {
		t.Fatal("stale snapshot lost tuples")
	}
	st := lax.Stats()["r"]
	if st.StaleServed != 1 || st.Errors != 1 {
		t.Fatalf("stats = %+v", st)
	}

	// With no cached snapshot, AllowStale still fails.
	cold := NewResolver([]Binding{{Name: "r", Src: mem, AllowStale: true}})
	if _, err := cold.Get(context.Background(), "r"); !errors.Is(err, qerr.ErrSourceUnavailable) {
		t.Fatalf("cold stale-allowed fetch failure must surface, got %v", err)
	}
}

// TestResolverSingleflight pins the dedup contract: N concurrent cold
// Gets of one binding produce one connector fetch.
func TestResolverSingleflight(t *testing.T) {
	var fetches atomic.Int64
	slow := &slowSource{mem: NewMem(Schema{Relation: "R", Attrs: []string{"a"}}, []string{"x"}), fetches: &fetches}
	r := NewResolver([]Binding{{Name: "r", Src: slow, TTL: time.Hour}})
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = r.Get(context.Background(), "r")
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := fetches.Load(); got != 1 {
		t.Fatalf("fetches = %d, want 1 (singleflight)", got)
	}
}

type slowSource struct {
	mem     *Mem
	fetches *atomic.Int64
}

func (s *slowSource) Schema() Schema { return s.mem.Schema() }

func (s *slowSource) Fetch(ctx context.Context, prev string) (*Result, error) {
	s.fetches.Add(1)
	time.Sleep(10 * time.Millisecond)
	return s.mem.Fetch(ctx, prev)
}

func TestResolverLatencySamples(t *testing.T) {
	mem := NewMem(Schema{Relation: "R", Attrs: []string{"a"}})
	r := NewResolver([]Binding{{Name: "r", Src: mem}})
	for i := 0; i < 3; i++ {
		if _, err := r.Refresh(context.Background(), "r"); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(r.FetchLatencies()); got != 3 {
		t.Fatalf("latency samples = %d, want 3", got)
	}
}
