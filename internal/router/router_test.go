package router

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"repro/internal/server"
	"repro/mdqa"
)

// fakeShard is a stub backend that records which paths it served and
// answers every mdserve-shaped route with a marker of its own name.
func fakeShard(t *testing.T, name string) (*httptest.Server, *[]string) {
	t.Helper()
	var served []string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		served = append(served, r.Method+" "+r.URL.Path)
		w.Header().Set("X-Backend", name)
		w.Header().Set("Content-Type", "application/json")
		if r.URL.Path == "/healthz" {
			fmt.Fprint(w, `{"status":"ok"}`)
			return
		}
		fmt.Fprintf(w, `{"backend":%q,"echo":%q}`, name, body)
	}))
	t.Cleanup(ts.Close)
	return ts, &served
}

func newTestRouter(t *testing.T, backends ...string) *Router {
	t.Helper()
	rt, err := New(Config{Backends: backends, Retries: 1})
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

func TestClassify(t *testing.T) {
	cases := []struct {
		method, path string
		class        routeClass
		key, ctx     string
		ok           bool
	}{
		{"GET", "/v1/contexts", classStateless, "contexts", "", true},
		{"POST", "/v1/contexts/hospital/assess", classStateless, "hospital", "hospital", true},
		{"POST", "/v1/contexts/hospital/sessions", classCreate, "", "hospital", true},
		{"GET", "/v1/contexts/hospital/sessions", classFanout, "", "hospital", true},
		{"DELETE", "/v1/contexts/hospital/sessions", 0, "", "", false},
		{"GET", "/v1/contexts/hospital/sessions/s1", classPinned, "hospital/s1", "hospital", true},
		{"POST", "/v1/contexts/hospital/sessions/lg-3/apply", classPinned, "hospital/lg-3", "hospital", true},
		{"GET", "/v1/contexts/hospital/sessions/s1/answers", classPinned, "hospital/s1", "hospital", true},
		{"DELETE", "/v1/contexts/hospital/sessions/s1", classPinned, "hospital/s1", "hospital", true},
		{"GET", "/v1/other", 0, "", "", false},
		{"GET", "/v1/contexts//sessions", 0, "", "", false},
	}
	for _, c := range cases {
		class, key, ctxName, ok := classify(c.method, c.path)
		if ok != c.ok || (ok && (class != c.class || key != c.key || ctxName != c.ctx)) {
			t.Errorf("classify(%s %s) = (%v,%q,%q,%v), want (%v,%q,%q,%v)",
				c.method, c.path, class, key, ctxName, ok, c.class, c.key, c.ctx, c.ok)
		}
	}
}

// TestPinnedRoutingIsStable sends many session-scoped requests: each
// session must land on the ring owner every time, and with enough
// sessions both backends must see traffic.
func TestPinnedRoutingIsStable(t *testing.T) {
	a, _ := fakeShard(t, "a")
	b, _ := fakeShard(t, "b")
	rt := newTestRouter(t, a.URL, b.URL)
	front := httptest.NewServer(rt)
	defer front.Close()

	hits := map[string]int{}
	for i := 0; i < 40; i++ {
		key := fmt.Sprintf("hospital/sess-%d", i%10) // 4 passes over 10 sessions
		resp, err := http.Get(front.URL + "/v1/contexts/hospital/sessions/sess-" + fmt.Sprint(i%10))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		got := resp.Header.Get("X-Mdrouter-Backend")
		want := rt.ring.Owner(key)
		if got != want {
			t.Fatalf("session %s landed on %s, ring owner is %s", key, got, want)
		}
		hits[got]++
	}
	if len(hits) != 2 {
		t.Fatalf("10 sessions all landed on one backend: %v", hits)
	}
}

// TestCreateInjectsID pins create semantics: a create without an id
// gets one injected by the router, and the backend that received it is
// the ring owner of the injected id — so follow-up requests stay home.
func TestCreateInjectsID(t *testing.T) {
	a, servedA := fakeShard(t, "a")
	b, servedB := fakeShard(t, "b")
	rt := newTestRouter(t, a.URL, b.URL)
	front := httptest.NewServer(rt)
	defer front.Close()

	resp, err := http.Post(front.URL+"/v1/contexts/hospital/sessions", "application/json", strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	var out struct{ Backend, Echo string }
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	var injected struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal([]byte(out.Echo), &injected); err != nil || injected.ID == "" {
		t.Fatalf("create body reaching backend must carry an injected id, got %q (err %v)", out.Echo, err)
	}
	owner := rt.ring.Owner("hospital/" + injected.ID)
	if got := resp.Header.Get("X-Mdrouter-Backend"); got != owner {
		t.Fatalf("create for id %s served by %s, ring owner is %s", injected.ID, got, owner)
	}
	_ = servedA
	_ = servedB

	// A client-chosen id is forwarded untouched to its owner.
	resp2, err := http.Post(front.URL+"/v1/contexts/hospital/sessions", "application/json",
		strings.NewReader(`{"id":"chosen-1"}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if got, want := resp2.Header.Get("X-Mdrouter-Backend"), rt.ring.Owner("hospital/chosen-1"); got != want {
		t.Fatalf("create with chosen id served by %s, owner is %s", got, want)
	}
}

// TestStatelessRetriesPastDeadBackend: with one backend down, every
// stateless request still succeeds by walking to the survivor, and the
// dead backend ends up marked unhealthy.
func TestStatelessRetriesPastDeadBackend(t *testing.T) {
	a, _ := fakeShard(t, "a")
	b, _ := fakeShard(t, "b")
	rt := newTestRouter(t, a.URL, b.URL)
	// Kill whichever backend owns the stateless key, so the first
	// request deterministically dials the dead one and must retry past
	// it (killing the non-owner would never exercise the retry).
	aliveURL, deadURL := a.URL, b.URL
	dead := b
	if rt.ring.Owner("contexts") == strings.TrimRight(a.URL, "/") {
		aliveURL, deadURL, dead = b.URL, a.URL, a
	}
	dead.Close()
	alive := struct{ URL string }{aliveURL}

	front := httptest.NewServer(rt)
	defer front.Close()

	for i := 0; i < 20; i++ {
		resp, err := http.Get(front.URL + "/v1/contexts")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d through half-dead cluster: got %d", i, resp.StatusCode)
		}
		if got := resp.Header.Get("X-Mdrouter-Backend"); got != strings.TrimRight(alive.URL, "/") {
			t.Fatalf("request %d served by %s, want the live backend", i, got)
		}
	}
	deadBE := rt.backends[strings.TrimRight(deadURL, "/")]
	if deadBE.healthy.Load() {
		t.Fatal("dial-refused backend still marked healthy")
	}
	if deadBE.retries.Load() == 0 {
		t.Fatal("no retry recorded against the dead owner — the walk never dialed it")
	}
	// Pinned requests owned by the dead backend are 503, not silently
	// rehomed: the state lives exactly one place.
	found := false
	for i := 0; i < 200 && !found; i++ {
		key := fmt.Sprintf("hospital/k%d", i)
		if rt.ring.Owner(key) == deadBE.name {
			found = true
			resp, err := http.Get(front.URL + "/v1/contexts/hospital/sessions/k" + fmt.Sprint(i))
			if err != nil {
				t.Fatal(err)
			}
			var body struct {
				Error struct{ Code string } `json:"error"`
			}
			json.NewDecoder(resp.Body).Decode(&body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusServiceUnavailable || body.Error.Code != "backend_unavailable" {
				t.Fatalf("pinned request to dead owner: got %d %q, want 503 backend_unavailable", resp.StatusCode, body.Error.Code)
			}
		}
	}
	if !found {
		t.Fatal("no test key hashed to the dead backend (ring broken?)")
	}
}

// TestCheckHealthFlipsFlags: CheckHealth marks dead backends unhealthy
// and /metrics + /topology report it.
func TestCheckHealthFlipsFlags(t *testing.T) {
	alive, _ := fakeShard(t, "alive")
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadURL := "http://" + l.Addr().String()
	l.Close()

	rt := newTestRouter(t, alive.URL, deadURL)
	rt.CheckHealth(context.Background())
	if got := rt.Healthy(); len(got) != 1 || got[0] != strings.TrimRight(alive.URL, "/") {
		t.Fatalf("Healthy() = %v, want only the live backend", got)
	}

	front := httptest.NewServer(rt)
	defer front.Close()
	resp, err := http.Get(front.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(metrics), fmt.Sprintf("mdrouter_backend_healthy{backend=%q} 0", strings.TrimRight(deadURL, "/"))) {
		t.Fatalf("metrics do not report the dead backend unhealthy:\n%s", metrics)
	}

	var topo TopologyResponse
	tresp, err := http.Get(front.URL + "/topology")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(tresp.Body).Decode(&topo); err != nil {
		t.Fatal(err)
	}
	tresp.Body.Close()
	if len(topo.Backends) != 2 {
		t.Fatalf("topology lists %d backends, want 2", len(topo.Backends))
	}
	sum := 0.0
	for _, b := range topo.Backends {
		sum += b.KeyShare
		if b.URL == strings.TrimRight(deadURL, "/") && b.Healthy {
			t.Fatal("topology reports dead backend healthy")
		}
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("topology key shares sum to %f, want 1", sum)
	}
}

// TestSessionListFanout merges listings across backends.
func TestSessionListFanout(t *testing.T) {
	mk := func(ids ...string) *httptest.Server {
		return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/healthz" {
				fmt.Fprint(w, `{"status":"ok"}`)
				return
			}
			var sessions []map[string]string
			for _, id := range ids {
				sessions = append(sessions, map[string]string{"id": id, "context": "hospital"})
			}
			json.NewEncoder(w).Encode(map[string]any{"sessions": sessions})
		}))
	}
	a := mk("s-b", "s-d")
	b := mk("s-a", "s-c")
	defer a.Close()
	defer b.Close()
	rt := newTestRouter(t, a.URL, b.URL)
	front := httptest.NewServer(rt)
	defer front.Close()

	resp, err := http.Get(front.URL + "/v1/contexts/hospital/sessions")
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		Sessions []struct {
			ID string `json:"id"`
		} `json:"sessions"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	var ids []string
	for _, s := range out.Sessions {
		ids = append(ids, s.ID)
	}
	if got, want := strings.Join(ids, ","), "s-a,s-b,s-c,s-d"; got != want {
		t.Fatalf("merged session list = %s, want %s (sorted union)", got, want)
	}
}

// TestRouterAgainstRealShards is the end-to-end check: two real
// mdserve cores behind the router, sessions created with router-chosen
// ids, data applied and queried — every response must come from the
// session's pinned home and agree with what was written.
func TestRouterAgainstRealShards(t *testing.T) {
	mkShard := func() *httptest.Server {
		srv, err := server.New(context.Background(), server.Config{Parallelism: 1}, []server.ContextSource{{
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
	s1, s2 := mkShard(), mkShard()
	rt := newTestRouter(t, s1.URL, s2.URL)
	front := httptest.NewServer(rt)
	defer front.Close()

	apply := `{"atoms":[{"pred":"Clock","args":["Sep/5-11:45","Sep/5"]},{"pred":"Measurements","args":["Sep/5-11:45","Mark Smith","38.2"]}]}` + "\n"

	// Three creates without an id, which the router places, then one
	// client-chosen id per shard, picked by computing ring owners: both
	// shards are used by construction, not by luck.
	var bodies []string
	for i := 0; i < 3; i++ {
		bodies = append(bodies, "")
	}
	for _, shard := range rt.ring.Nodes() {
		for i := 0; ; i++ {
			id := fmt.Sprintf("pinned-%d", i)
			if rt.ring.Owner("hospital/"+id) == shard {
				bodies = append(bodies, `{"id":"`+id+`"}`)
				break
			}
		}
	}
	homes := map[string]string{}
	for i, body := range bodies {
		resp, err := http.Post(front.URL+"/v1/contexts/hospital/sessions", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var created struct {
			ID string `json:"id"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&created); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || created.ID == "" {
			t.Fatalf("create %d via router: %d id=%q", i, resp.StatusCode, created.ID)
		}
		homes[created.ID] = resp.Header.Get("X-Mdrouter-Backend")
		if owner := rt.ring.Owner("hospital/" + created.ID); homes[created.ID] != owner {
			t.Fatalf("session %s created on %s, its ring owner is %s", created.ID, homes[created.ID], owner)
		}

		// Apply NDJSON through the router; must reach the same home.
		ar, err := http.Post(front.URL+"/v1/contexts/hospital/sessions/"+created.ID+"/apply",
			"application/x-ndjson", strings.NewReader(apply))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, ar.Body)
		ar.Body.Close()
		if ar.StatusCode != http.StatusOK {
			t.Fatalf("apply to %s: %d", created.ID, ar.StatusCode)
		}
		if got := ar.Header.Get("X-Mdrouter-Backend"); got != homes[created.ID] {
			t.Fatalf("apply for %s went to %s, created on %s", created.ID, got, homes[created.ID])
		}

		// And the written fact is queryable through the router.
		qr, err := http.Get(front.URL + "/v1/contexts/hospital/sessions/" + created.ID +
			"/answers?q=" + url.QueryEscape(`m(t, p, v) <- Measurements(t, p, v).`))
		if err != nil {
			t.Fatal(err)
		}
		qbody, _ := io.ReadAll(qr.Body)
		qr.Body.Close()
		if qr.StatusCode != http.StatusOK {
			t.Fatalf("answers for %s: %d %s", created.ID, qr.StatusCode, qbody)
		}
		if !strings.Contains(string(qbody), "38.2") {
			t.Fatalf("answers for %s missing written value: %s", created.ID, qbody)
		}
	}
	// Every session is on its ring owner, and the pinned ids cover
	// both shards.
	used := map[string]bool{}
	for _, h := range homes {
		used[h] = true
	}
	if len(used) != 2 {
		t.Fatalf("sessions did not land on both shards: %v", homes)
	}

	// The merged session list sees every session exactly once.
	lr, err := http.Get(front.URL + "/v1/contexts/hospital/sessions")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Sessions []struct {
			ID string `json:"id"`
		} `json:"sessions"`
	}
	if err := json.NewDecoder(lr.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	lr.Body.Close()
	if len(list.Sessions) != len(homes) {
		t.Fatalf("merged list has %d sessions, created %d", len(list.Sessions), len(homes))
	}
	for _, s := range list.Sessions {
		if _, ok := homes[s.ID]; !ok {
			t.Fatalf("merged list contains unknown session %q", s.ID)
		}
	}
}
