package router

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Config tunes the router.
type Config struct {
	// Backends are the mdserve base URLs ("http://host:port"). The
	// normalized URL string is the backend's ring name and metrics
	// label.
	Backends []string
	// VNodes is the virtual-node count per backend (0 = DefaultVNodes).
	VNodes int
	// LoadFactor bounds the load spread of stateless requests: a
	// backend carrying more than LoadFactor times its fair share of
	// in-flight requests is skipped in favor of the next ring successor
	// (0 = DefaultLoadFactor). Session-pinned requests ignore it — the
	// owner holds the only copy of the state.
	LoadFactor float64
	// HealthInterval is the background /healthz probe period
	// (0 = DefaultHealthInterval); HealthTimeout bounds one probe
	// (0 = DefaultHealthTimeout).
	HealthInterval time.Duration
	HealthTimeout  time.Duration
	// Retries is how many additional attempts a retry-safe request gets
	// after a connect failure (0 = DefaultRetries; negative disables).
	Retries int
	// Transport overrides the outbound round tripper (tests). nil
	// builds a pooled transport sized for the backend count.
	Transport http.RoundTripper
}

const (
	DefaultLoadFactor     = 1.25
	DefaultHealthInterval = 2 * time.Second
	DefaultHealthTimeout  = time.Second
	DefaultRetries        = 1

	// maxBufferedBody bounds request bodies the router buffers for
	// retry or rewrite (session creates, one-shot assess payloads).
	// Apply streams are never buffered.
	maxBufferedBody = 32 << 20
)

// backend is one mdserve process behind the router.
type backend struct {
	name string // normalized URL, the ring node name and metrics label
	url  *url.URL

	healthy  atomic.Bool
	inflight atomic.Int64
	requests atomic.Int64
	errors   atomic.Int64 // transport failures + 5xx responses
	retries  atomic.Int64

	mu  sync.Mutex
	lat obs.Histogram // proxied request latency, guarded by mu
}

// Router is the mdrouter HTTP handler: a consistent-hash reverse proxy
// over share-nothing mdserve backends. Build one with New, optionally
// kick off Start for background health checking, and serve it with
// net/http.
type Router struct {
	cfg       Config
	ring      *Ring
	backends  map[string]*backend
	transport http.RoundTripper
	mux       *http.ServeMux

	proxied    atomic.Int64 // requests forwarded to a backend
	unroutable atomic.Int64 // requests answered 503 (no usable backend)
	genSeq     atomic.Uint64
	genSalt    uint64
}

// New builds a router over the given backends. All backends start out
// healthy; run CheckHealth (or Start) to probe them for real.
func New(cfg Config) (*Router, error) {
	if len(cfg.Backends) == 0 {
		return nil, fmt.Errorf("router: no backends")
	}
	if cfg.LoadFactor <= 1 {
		cfg.LoadFactor = DefaultLoadFactor
	}
	if cfg.HealthInterval <= 0 {
		cfg.HealthInterval = DefaultHealthInterval
	}
	if cfg.HealthTimeout <= 0 {
		cfg.HealthTimeout = DefaultHealthTimeout
	}
	if cfg.Retries == 0 {
		cfg.Retries = DefaultRetries
	}
	rt := &Router{
		cfg:      cfg,
		backends: make(map[string]*backend, len(cfg.Backends)),
		genSalt:  uint64(time.Now().UnixNano()),
	}
	var names []string
	for _, raw := range cfg.Backends {
		u, err := url.Parse(strings.TrimRight(raw, "/"))
		if err != nil || u.Scheme == "" || u.Host == "" {
			return nil, fmt.Errorf("router: bad backend URL %q", raw)
		}
		b := &backend{name: u.String(), url: u}
		b.healthy.Store(true)
		if _, dup := rt.backends[b.name]; dup {
			return nil, fmt.Errorf("router: duplicate backend %q", b.name)
		}
		rt.backends[b.name] = b
		names = append(names, b.name)
	}
	ring, err := NewRing(names, cfg.VNodes)
	if err != nil {
		return nil, err
	}
	rt.ring = ring
	rt.transport = cfg.Transport
	if rt.transport == nil {
		rt.transport = &http.Transport{
			MaxIdleConns:        64 * len(names),
			MaxIdleConnsPerHost: 64,
			IdleConnTimeout:     90 * time.Second,
		}
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", rt.handleHealthz)
	mux.HandleFunc("GET /metrics", rt.handleMetrics)
	mux.HandleFunc("GET /topology", rt.handleTopology)
	mux.HandleFunc("/", rt.handleProxy)
	rt.mux = mux
	return rt, nil
}

func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) { rt.mux.ServeHTTP(w, r) }

// Start runs the background health-check loop until ctx is cancelled.
func (rt *Router) Start(ctx context.Context) {
	t := time.NewTicker(rt.cfg.HealthInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			rt.CheckHealth(ctx)
		}
	}
}

// CheckHealth probes every backend's /healthz once, concurrently, and
// updates the health flags.
func (rt *Router) CheckHealth(ctx context.Context) {
	var wg sync.WaitGroup
	for _, b := range rt.backends {
		wg.Add(1)
		go func(b *backend) {
			defer wg.Done()
			pctx, cancel := context.WithTimeout(ctx, rt.cfg.HealthTimeout)
			defer cancel()
			req, err := http.NewRequestWithContext(pctx, "GET", b.name+"/healthz", nil)
			if err != nil {
				b.healthy.Store(false)
				return
			}
			resp, err := rt.transport.RoundTrip(req)
			if err != nil {
				b.healthy.Store(false)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			b.healthy.Store(resp.StatusCode == http.StatusOK)
		}(b)
	}
	wg.Wait()
}

// Healthy reports the currently healthy backend names, sorted.
func (rt *Router) Healthy() []string {
	var out []string
	for _, name := range rt.ring.Nodes() {
		if rt.backends[name].healthy.Load() {
			out = append(out, name)
		}
	}
	return out
}

// --- request classification ---------------------------------------

// routeClass is what the path tells us about placement.
type routeClass int

const (
	classPinned    routeClass = iota // session-scoped: owner or nothing
	classStateless                   // spreadable: bounded-load walk
	classCreate                      // session create: place by (possibly generated) id
	classFanout                      // session list: merge across backends
)

// classify parses an mdserve API path. key is the ring key ("" for
// unkeyed stateless requests); contextName is set for context-scoped
// paths.
func classify(method, path string) (class routeClass, key, contextName string, ok bool) {
	if path == "/v1/contexts" {
		return classStateless, "contexts", "", true
	}
	parts := strings.Split(path, "/")
	// /v1/contexts/{name}/... → ["", "v1", "contexts", name, ...]
	if len(parts) < 5 || parts[1] != "v1" || parts[2] != "contexts" || parts[3] == "" {
		return 0, "", "", false
	}
	name := parts[3]
	switch {
	case len(parts) == 5 && parts[4] == "assess":
		return classStateless, name, name, true
	case len(parts) == 5 && parts[4] == "sessions":
		switch method {
		case http.MethodPost:
			return classCreate, "", name, true
		case http.MethodGet:
			return classFanout, "", name, true
		}
		return 0, "", "", false
	case len(parts) >= 6 && parts[4] == "sessions" && parts[5] != "":
		return classPinned, name + "/" + parts[5], name, true
	}
	return 0, "", "", false
}

// --- routing policies ---------------------------------------------

// owner resolves the pinned backend for a session key; nil when the
// owner is down (the session's state has exactly one home — a
// different backend would just 404).
func (rt *Router) owner(key string) *backend {
	b := rt.backends[rt.ring.Owner(key)]
	if !b.healthy.Load() {
		return nil
	}
	return b
}

// spread picks a backend for stateless work: the bounded-load walk
// starts at the key's owner (cache affinity) and skips unhealthy
// backends and backends above LoadFactor times their fair share of
// in-flight requests. Every candidate overloaded → least-loaded
// healthy backend (shedding is the backend's job, not the router's).
func (rt *Router) spread(key string, skip map[string]bool) *backend {
	healthy := 0
	var total int64
	for _, b := range rt.backends {
		if b.healthy.Load() && !skip[b.name] {
			healthy++
			total += b.inflight.Load()
		}
	}
	if healthy == 0 {
		return nil
	}
	limit := int64(rt.cfg.LoadFactor*float64(total+1)/float64(healthy)) + 1
	var pick, least *backend
	rt.ring.Walk(key, func(name string) bool {
		b := rt.backends[name]
		if !b.healthy.Load() || skip[name] {
			return true
		}
		if least == nil || b.inflight.Load() < least.inflight.Load() {
			least = b
		}
		if b.inflight.Load() < limit {
			pick = b
			return false
		}
		return true
	})
	if pick == nil {
		pick = least
	}
	return pick
}

// --- proxying ------------------------------------------------------

// trackedBody reports whether any request-body byte was consumed — a
// connect failure after the body started flowing is not retry-safe.
type trackedBody struct {
	io.ReadCloser
	read atomic.Bool
}

func (t *trackedBody) Read(p []byte) (int, error) {
	n, err := t.ReadCloser.Read(p)
	if n > 0 {
		t.read.Store(true)
	}
	return n, err
}

// isDialError reports a failure that happened before any bytes reached
// the backend — always safe to retry.
func isDialError(err error) bool {
	var op *net.OpError
	return errors.As(err, &op) && op.Op == "dial"
}

// forward sends one attempt to b, streaming the response back. body
// non-nil replaces the request body (replayable buffer). Returns the
// transport error, if any, for the caller's retry decision.
func (rt *Router) forward(w http.ResponseWriter, r *http.Request, b *backend, body []byte, tracked *trackedBody) error {
	start := time.Now()
	b.inflight.Add(1)
	defer b.inflight.Add(-1)
	b.requests.Add(1)
	rt.proxied.Add(1)

	out := &http.Request{
		Method: r.Method,
		URL: &url.URL{
			Scheme:   b.url.Scheme,
			Host:     b.url.Host,
			Path:     r.URL.Path,
			RawQuery: r.URL.RawQuery,
		},
		Proto:      "HTTP/1.1",
		ProtoMajor: 1,
		ProtoMinor: 1,
		Host:       b.url.Host,
		Header:     r.Header.Clone(),
	}
	out = out.WithContext(r.Context())
	for _, hop := range []string{"Connection", "Keep-Alive", "Upgrade", "Proxy-Connection", "Te", "Trailer", "Transfer-Encoding"} {
		out.Header.Del(hop)
	}
	if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
		out.Header.Set("X-Forwarded-For", host)
	}
	switch {
	case body != nil:
		out.Body = io.NopCloser(bytes.NewReader(body))
		out.ContentLength = int64(len(body))
	case tracked != nil:
		out.Body = tracked
		out.ContentLength = r.ContentLength
	}

	resp, err := rt.transport.RoundTrip(out)
	if err != nil {
		b.errors.Add(1)
		if !errors.Is(err, context.Canceled) {
			// A backend we cannot reach is unhealthy now; the probe loop
			// restores it when it comes back.
			if isDialError(err) {
				b.healthy.Store(false)
			}
		}
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 500 {
		b.errors.Add(1)
	}
	h := w.Header()
	for k, vs := range resp.Header {
		for _, v := range vs {
			h.Add(k, v)
		}
	}
	h.Set("X-Mdrouter-Backend", b.name)
	w.WriteHeader(resp.StatusCode)
	// Unframed (chunked) responses are live NDJSON streams: flush each
	// chunk so answers don't sit in the proxy. Framed responses take
	// the plain buffered copy.
	if flusher, ok := w.(http.Flusher); ok && resp.ContentLength < 0 {
		buf := make([]byte, 32<<10)
		for {
			n, rerr := resp.Body.Read(buf)
			if n > 0 {
				if _, werr := w.Write(buf[:n]); werr != nil {
					break
				}
				flusher.Flush()
			}
			if rerr != nil {
				break
			}
		}
	} else {
		_, _ = io.Copy(w, resp.Body)
	}
	b.mu.Lock()
	b.lat.Observe(time.Since(start))
	b.mu.Unlock()
	return nil
}

// routerError answers a request the router itself must fail, in the
// backend's error-body vocabulary.
func (rt *Router) routerError(w http.ResponseWriter, status int, code, msg string) {
	if status == http.StatusServiceUnavailable {
		rt.unroutable.Add(1)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]any{"error": map[string]string{"code": code, "message": msg}})
}

func (rt *Router) handleProxy(w http.ResponseWriter, r *http.Request) {
	class, key, contextName, ok := classify(r.Method, r.URL.Path)
	if !ok {
		rt.routerError(w, http.StatusNotFound, "not_found", fmt.Sprintf("no route for %s %s", r.Method, r.URL.Path))
		return
	}
	switch class {
	case classPinned:
		rt.proxyPinned(w, r, key)
	case classStateless:
		rt.proxyStateless(w, r, key)
	case classCreate:
		rt.proxyCreate(w, r, contextName)
	case classFanout:
		rt.proxySessionList(w, r, contextName)
	}
}

// proxyPinned serves a session-scoped request: the ring owner or 503.
// Retries stay on the owner — only it has the session — and are
// attempted only when no request-body byte was consumed (GETs, or a
// connect failure before the body started flowing).
func (rt *Router) proxyPinned(w http.ResponseWriter, r *http.Request, key string) {
	tracked := &trackedBody{ReadCloser: r.Body}
	for attempt := 0; ; attempt++ {
		b := rt.owner(key)
		if b == nil {
			rt.routerError(w, http.StatusServiceUnavailable, "backend_unavailable",
				fmt.Sprintf("backend owning session key %q is down (session state is not replicated)", key))
			return
		}
		err := rt.forward(w, r, b, nil, tracked)
		if err == nil {
			return
		}
		if attempt < rt.cfg.Retries && isDialError(err) && !tracked.read.Load() {
			b.retries.Add(1)
			continue // owner() re-checks health; a recovered flag retries the same home
		}
		rt.routerError(w, http.StatusBadGateway, "backend_error", err.Error())
		return
	}
}

// proxyStateless serves spreadable work. Connect failures advance to
// the next ring successor; mid-stream failures retry only for GETs
// with the body untouched (there is none).
func (rt *Router) proxyStateless(w http.ResponseWriter, r *http.Request, key string) {
	// Buffer small bodies (assess instances) so a retry can replay.
	var body []byte
	var tracked *trackedBody
	if r.Body != nil && r.ContentLength >= 0 && r.ContentLength <= maxBufferedBody {
		data, err := io.ReadAll(io.LimitReader(r.Body, maxBufferedBody+1))
		if err != nil {
			rt.routerError(w, http.StatusBadRequest, "bad_request", fmt.Sprintf("read body: %v", err))
			return
		}
		body = data
	} else {
		tracked = &trackedBody{ReadCloser: r.Body}
	}
	skip := map[string]bool{}
	for attempt := 0; ; attempt++ {
		b := rt.spread(key, skip)
		if b == nil {
			rt.routerError(w, http.StatusServiceUnavailable, "backend_unavailable", "no healthy backend")
			return
		}
		err := rt.forward(w, r, b, body, tracked)
		if err == nil {
			return
		}
		replayable := body != nil || (tracked != nil && !tracked.read.Load())
		if attempt < rt.cfg.Retries && replayable && (isDialError(err) || r.Method == http.MethodGet) {
			b.retries.Add(1)
			skip[b.name] = true
			continue
		}
		rt.routerError(w, http.StatusBadGateway, "backend_error", err.Error())
		return
	}
}

// proxyCreate places a new session. The {context, id} hash decides the
// owner, so the id must exist before the backend sees the request: a
// client-chosen id is used as sent (503 when its owner is down), and a
// missing id is generated by the router — re-rolled until its owner is
// healthy — and injected into the body. Either way the client learns
// the id from the backend's response and every later request for it
// hashes to the same home.
func (rt *Router) proxyCreate(w http.ResponseWriter, r *http.Request, contextName string) {
	data, err := io.ReadAll(io.LimitReader(r.Body, maxBufferedBody+1))
	if err != nil || len(data) > maxBufferedBody {
		rt.routerError(w, http.StatusBadRequest, "bad_request", "session create body unreadable or too large")
		return
	}
	fields := map[string]json.RawMessage{}
	if len(bytes.TrimSpace(data)) > 0 {
		if err := json.Unmarshal(data, &fields); err != nil {
			rt.routerError(w, http.StatusBadRequest, "bad_request", fmt.Sprintf("decode body: %v", err))
			return
		}
	}
	var id string
	if raw, ok := fields["id"]; ok {
		if err := json.Unmarshal(raw, &id); err != nil {
			rt.routerError(w, http.StatusBadRequest, "bad_request", "session id must be a string")
			return
		}
	}
	var b *backend
	if id != "" {
		if b = rt.owner(contextName + "/" + id); b == nil {
			rt.routerError(w, http.StatusServiceUnavailable, "backend_unavailable",
				fmt.Sprintf("backend owning session key %q is down", contextName+"/"+id))
			return
		}
	} else {
		// Generate an id whose owner is up. Bounded: with any healthy
		// backend the expected tries are len/healthy.
		for tries := 0; tries < 16*len(rt.backends); tries++ {
			candidate := fmt.Sprintf("r%x", hash64(fmt.Sprintf("%d/%d", rt.genSalt, rt.genSeq.Add(1))))
			if b = rt.owner(contextName + "/" + candidate); b != nil {
				id = candidate
				break
			}
		}
		if b == nil {
			rt.routerError(w, http.StatusServiceUnavailable, "backend_unavailable", "no healthy backend")
			return
		}
		idJSON, _ := json.Marshal(id)
		fields["id"] = idJSON
		if data, err = json.Marshal(fields); err != nil {
			rt.routerError(w, http.StatusInternalServerError, "internal", err.Error())
			return
		}
	}
	for attempt := 0; ; attempt++ {
		err := rt.forward(w, r, b, data, nil)
		if err == nil {
			return
		}
		// A dial failure never reached the backend: re-resolving the
		// owner is safe even for a create.
		if attempt < rt.cfg.Retries && isDialError(err) {
			b.retries.Add(1)
			if b = rt.owner(contextName + "/" + id); b != nil {
				continue
			}
			rt.routerError(w, http.StatusServiceUnavailable, "backend_unavailable",
				fmt.Sprintf("backend owning session key %q is down", contextName+"/"+id))
			return
		}
		rt.routerError(w, http.StatusBadGateway, "backend_error", err.Error())
		return
	}
}

// proxySessionList merges GET .../sessions across every healthy
// backend: sessions live exactly one place each, so the union is the
// cluster's listing. Sorted by id for a deterministic body.
func (rt *Router) proxySessionList(w http.ResponseWriter, r *http.Request, contextName string) {
	type entry struct {
		id  string
		raw json.RawMessage
	}
	var mu sync.Mutex
	var entries []entry
	var firstErr error
	var wg sync.WaitGroup
	for _, name := range rt.ring.Nodes() {
		b := rt.backends[name]
		if !b.healthy.Load() {
			continue
		}
		wg.Add(1)
		go func(b *backend) {
			defer wg.Done()
			b.requests.Add(1)
			req, err := http.NewRequestWithContext(r.Context(), "GET", b.name+r.URL.Path, nil)
			if err == nil {
				var resp *http.Response
				if resp, err = rt.transport.RoundTrip(req); err == nil {
					defer resp.Body.Close()
					var body struct {
						Sessions []json.RawMessage `json:"sessions"`
					}
					if resp.StatusCode != http.StatusOK {
						data, _ := io.ReadAll(resp.Body)
						err = fmt.Errorf("%s: %d %s", b.name, resp.StatusCode, strings.TrimSpace(string(data)))
					} else if err = json.NewDecoder(resp.Body).Decode(&body); err == nil {
						mu.Lock()
						for _, raw := range body.Sessions {
							var idOnly struct {
								ID string `json:"id"`
							}
							_ = json.Unmarshal(raw, &idOnly)
							entries = append(entries, entry{id: idOnly.ID, raw: raw})
						}
						mu.Unlock()
						return
					}
				}
			}
			b.errors.Add(1)
			mu.Lock()
			if firstErr == nil {
				firstErr = err
			}
			mu.Unlock()
		}(b)
	}
	wg.Wait()
	if firstErr != nil {
		rt.routerError(w, http.StatusBadGateway, "backend_error", firstErr.Error())
		return
	}
	rt.proxied.Add(1)
	sort.Slice(entries, func(i, j int) bool { return entries[i].id < entries[j].id })
	sessions := make([]json.RawMessage, len(entries))
	for i, e := range entries {
		sessions[i] = e.raw
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_ = json.NewEncoder(w).Encode(map[string]any{"sessions": sessions})
}

// --- observability -------------------------------------------------

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	healthy := rt.Healthy()
	status := "ok"
	code := http.StatusOK
	if len(healthy) == 0 {
		status, code = "no_backends", http.StatusServiceUnavailable
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]any{
		"status":   status,
		"backends": len(rt.backends),
		"healthy":  len(healthy),
	})
}

// TopologyBackend is one backend's slice of GET /topology.
type TopologyBackend struct {
	URL      string  `json:"url"`
	Healthy  bool    `json:"healthy"`
	KeyShare float64 `json:"key_share"` // fraction of the hash space owned
	Inflight int64   `json:"inflight"`
	Requests int64   `json:"requests"`
	Errors   int64   `json:"errors"`
	Retries  int64   `json:"retries"`
}

// TopologyResponse is the body of GET /topology: the ring as deployed.
type TopologyResponse struct {
	VNodes     int               `json:"vnodes"`
	LoadFactor float64           `json:"load_factor"`
	Backends   []TopologyBackend `json:"backends"`
}

func (rt *Router) handleTopology(w http.ResponseWriter, r *http.Request) {
	shares := rt.ring.Shares()
	resp := TopologyResponse{VNodes: rt.ring.VNodes(), LoadFactor: rt.cfg.LoadFactor}
	for _, name := range rt.ring.Nodes() {
		b := rt.backends[name]
		resp.Backends = append(resp.Backends, TopologyBackend{
			URL:      name,
			Healthy:  b.healthy.Load(),
			KeyShare: shares[name],
			Inflight: b.inflight.Load(),
			Requests: b.requests.Load(),
			Errors:   b.errors.Load(),
			Retries:  b.retries.Load(),
		})
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(resp)
}

func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var mw obs.Writer
	mw.Counter("mdrouter_requests_total", rt.proxied.Load())
	mw.Counter("mdrouter_unroutable_total", rt.unroutable.Load())
	perBackend := func(sample func(name string, v int64, labels ...string), metric string, pick func(*backend) int64) {
		for _, name := range rt.ring.Nodes() {
			sample(metric, pick(rt.backends[name]), "backend", name)
		}
	}
	perBackend(mw.Counter, "mdrouter_backend_requests_total", func(b *backend) int64 { return b.requests.Load() })
	perBackend(mw.Counter, "mdrouter_backend_errors_total", func(b *backend) int64 { return b.errors.Load() })
	perBackend(mw.Counter, "mdrouter_backend_retries_total", func(b *backend) int64 { return b.retries.Load() })
	perBackend(mw.Gauge, "mdrouter_backend_healthy", func(b *backend) int64 {
		if b.healthy.Load() {
			return 1
		}
		return 0
	})
	perBackend(mw.Gauge, "mdrouter_backend_inflight", func(b *backend) int64 { return b.inflight.Load() })
	for _, name := range rt.ring.Nodes() {
		b := rt.backends[name]
		b.mu.Lock()
		mw.Histogram("mdrouter_request_latency_seconds", &b.lat, "backend", name)
		b.mu.Unlock()
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	_, _ = io.WriteString(w, mw.String())
}
