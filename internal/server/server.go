// Package server implements mdserve: a concurrent quality-assessment
// HTTP/JSON service over the mdqa facade's prepared sessions.
//
// The server loads one or more quality contexts at startup, compiles
// each into an mdqa.Prepared exactly once, and serves three request
// families per context:
//
//   - POST /v1/contexts/{name}/assess — one-shot assessment of an
//     instance carried in the request body (or the context's declared
//     input when the body is empty);
//   - long-lived named sessions: POST .../sessions opens one,
//     POST .../sessions/{id}/apply ingests NDJSON delta batches
//     (each batch applied atomically through the incremental chase),
//     GET .../sessions/{id}/answers?q= streams quality-query answers
//     off a consistent copy-on-write snapshot, and
//     GET .../sessions/{id}/assessment materializes the Figure 2
//     outcome for the session's current state;
//   - time travel: every applied batch produces a numbered session
//     version; GET .../sessions/{id}/versions lists the timeline,
//     GET .../sessions/{id}/trajectory?rel= returns a relation's
//     quality-score series, and ?as_of=<version|RFC3339> on answers,
//     assessment, assess and trajectory serves any retained (or, with
//     a data dir, disk-reconstructable) historical version;
//   - GET /healthz and GET /metrics for liveness and per-context
//     counters, chase rounds and request-latency histograms (Prometheus
//     _bucket/_sum/_count per op, cumulative since startup).
//
// Concurrency: any number of readers stream answers and assessments
// off frozen snapshots while writers keep applying deltas; writers
// serialize per session at batch granularity (each batch is atomic —
// a reader never observes half of one). Request-scoped cancellation
// flows end to end: the request context reaches every chase and eval
// work unit, and a client that disconnects mid-assessment aborts the
// engine work it paid for. An apply batch is the exception: the
// context is checked before the batch touches the session, and a
// batch under way runs to completion (and is logged), since stopping
// it would leave it half applied. Engine failures map to structured HTTP
// error bodies via MapError (ErrInconsistent → 409 with violations,
// ErrBoundExceeded → 422, unknown relations → 400).
package server

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/par"
	"repro/internal/persist"
	"repro/internal/wal"
	"repro/mdqa"
)

// Config tunes the server.
type Config struct {
	// Parallelism bounds the engine worker pool of every Path/Source
	// context (0 = GOMAXPROCS, 1 = no worker goroutines) and the startup
	// fan-out that prepares the contexts. A prebuilt
	// ContextSource.Context keeps the parallelism it was constructed
	// with (mdqa.WithParallelism is a construction-time option) — set
	// it there.
	Parallelism int
	// MaxSessions bounds the number of concurrently open sessions
	// across all contexts (0 = DefaultMaxSessions). Session state is
	// memory: an unbounded registry would let clients exhaust it.
	MaxSessions int
	// DataDir enables durable sessions: every acknowledged apply batch
	// is write-ahead logged and periodically compacted into snapshots
	// under <DataDir>/<context>/<session-id>/, and New recovers every
	// persisted session on startup. Empty means ephemeral (the
	// pre-durability behavior).
	DataDir string
	// Fsync selects when WAL appends reach stable storage (see
	// wal.SyncMode); only meaningful with DataDir.
	Fsync wal.SyncMode
	// FsyncInterval is the wal.SyncInterval flush period
	// (0 = wal.DefaultInterval).
	FsyncInterval time.Duration
	// SnapshotEvery is how many acknowledged batches accumulate in a
	// session's WAL before it is compacted into a snapshot
	// (0 = persist.DefaultSnapshotEvery).
	SnapshotEvery int
	// MaxResident bounds the sessions held saturated in memory; beyond
	// it the least-recently-used session is snapshotted to disk,
	// evicted and transparently revived on its next request. 0 keeps
	// every session resident. Requires DataDir.
	MaxResident int
	// HistoryDepth bounds how many version snapshots each session
	// retains in memory for as-of reads (0 = mdqa.DefaultHistoryDepth;
	// negative disables history — as-of reads then fail with 400).
	// With DataDir it also sets the durable store's snapshot retention,
	// so versions behind the in-memory ring stay reconstructable from
	// disk. Applies to Path/Source contexts; a prebuilt
	// ContextSource.Context keeps the history options it was built with.
	HistoryDepth int
	// HistoryBytes caps the estimated memory of each session's retained
	// version snapshots (0 = bounded by HistoryDepth alone).
	HistoryBytes int64
}

// DefaultMaxSessions bounds the session registry when
// Config.MaxSessions is zero.
const DefaultMaxSessions = 1024

// defaultPlanCacheSize bounds each context's compiled ad-hoc query
// plan cache (distinct query shapes, not bytes).
const defaultPlanCacheSize = 128

// ContextSource names one quality context to load. Exactly one of
// Path, Source or Context must be set.
type ContextSource struct {
	// Name is the context's URL segment: /v1/contexts/{Name}/...
	Name string
	// Path is a .mdq file with a quality context declaration.
	Path string
	// Source is inline .mdq source (the built-in example ships this
	// way).
	Source string
	// Context is a pre-built facade context, for embedding the server
	// over programmatic contexts (tests, generated workloads). Input
	// optionally carries its default instance under assessment. A
	// prebuilt context is served as constructed: Config.Parallelism
	// and Options do not apply to it.
	Context *mdqa.Context
	// Input is the default instance assessed when a request carries
	// none. Derived from the .mdq input declarations for Path/Source
	// contexts.
	Input *mdqa.Instance
	// Options are extra facade options applied on top of a Path or
	// Source context's declarations (chase bounds, strict consistency,
	// ...). Ignored for prebuilt contexts.
	Options []mdqa.Option
}

// loadedContext is one served quality context: the immutable facade
// context, its cached compilation, the default input and the named
// queries the context's file declared.
type loadedContext struct {
	name    string
	qc      *mdqa.Context
	prep    *mdqa.Prepared
	input   *mdqa.Instance
	queries map[string]*mdqa.Query
	// declared maps the context's predicate vocabulary to arities:
	// queries over these are well-formed even when the relation holds
	// no tuples in a given snapshot, and input facts must match.
	declared map[string]int
	// cache holds compiled ad-hoc query plans shared by every answers
	// request against this context (concurrency-safe; keyed by query
	// shape and snapshot lineage).
	cache *mdqa.PlanCache
}

// session is one live assessment session.
type session struct {
	id  string
	seq uint64 // creation order, for numeric listing
	lc  *loadedContext

	// mu serializes writers: one apply batch at a time per session,
	// pairing the engine apply with the WAL append and the chase-round
	// bookkeeping. Readers take it only long enough to resolve s
	// (reviving an evicted session if needed) — the snapshots they
	// then read are frozen and lock-free.
	mu sync.Mutex
	// s is the live engine session; nil while evicted to disk or
	// after close. Resolve it through Server.resident.
	s *mdqa.Session
	// closed marks a DELETEd session: applies observe it under mu, so
	// a close concurrent with an in-flight apply can never let a batch
	// be acknowledged after its log is gone.
	closed bool
	// log is the session's durable log; nil when the server is
	// ephemeral, while evicted, and after close.
	log *persist.SessionLog
	// snapshotting gates snapshot writes: at most one per session in
	// flight (the write happens outside mu; see Server.writeSnapshot).
	snapshotting bool
	applies      int64
	lastRounds   int
	// lastTouch is the LRU clock for MaxResident eviction (UnixNano,
	// updated lock-free on every request touching the session).
	lastTouch atomic.Int64
	// isResident mirrors s != nil for the eviction scan, which runs
	// under the registry lock and must not take sess.mu (lock order:
	// sess.mu before Server.mu, never the reverse). Advisory — evict
	// re-checks under sess.mu.
	isResident atomic.Bool
}

func (sess *session) touch() { sess.lastTouch.Store(time.Now().UnixNano()) }

// Server is the mdserve HTTP handler. Build one with New and serve it
// with net/http; it is safe for any number of concurrent requests.
type Server struct {
	cfg      Config
	contexts map[string]*loadedContext
	names    []string // sorted context names
	met      *metrics
	mux      *http.ServeMux
	// store is the durable-session store; nil when Config.DataDir is
	// empty.
	store *persist.Store

	mu       sync.Mutex // guards sessions + reserved + nextID + residentCount
	sessions map[string]*session
	// reserved holds session ids mid-registration: claimed under mu but
	// not yet addressable (their durable directory is still being
	// created). Two concurrent creates of one client-chosen id must not
	// both reach the store.
	reserved map[string]struct{}
	nextID   uint64
	// residentCount tracks sessions whose engine state is in memory
	// (session.s != nil), for MaxResident eviction.
	residentCount int
}

// New loads and prepares every context source — fanned out across the
// configured worker pool, one compilation per context — and returns
// the ready-to-serve handler.
func New(ctx context.Context, cfg Config, sources []ContextSource) (*Server, error) {
	if len(sources) == 0 {
		return nil, fmt.Errorf("server: no contexts to load")
	}
	if cfg.MaxSessions == 0 {
		cfg.MaxSessions = DefaultMaxSessions
	}
	loaded, err := par.Map(ctx, par.New(cfg.Parallelism), len(sources), func(i int) (*loadedContext, error) {
		return loadContext(ctx, cfg, sources[i])
	})
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:      cfg,
		contexts: make(map[string]*loadedContext, len(loaded)),
		sessions: map[string]*session{},
		reserved: map[string]struct{}{},
	}
	for _, lc := range loaded {
		if _, dup := s.contexts[lc.name]; dup {
			return nil, fmt.Errorf("server: duplicate context name %q", lc.name)
		}
		s.contexts[lc.name] = lc
		s.names = append(s.names, lc.name)
	}
	sort.Strings(s.names)
	s.met = newMetrics(s.names, s.contexts)
	s.routes()
	if cfg.DataDir != "" {
		if err := s.openStore(ctx); err != nil {
			return nil, err
		}
	} else if cfg.MaxResident > 0 {
		return nil, fmt.Errorf("server: MaxResident requires DataDir (evicted sessions live on disk)")
	}
	return s, nil
}

// loadContext parses (when needed), validates and compiles one context
// source.
func loadContext(ctx context.Context, cfg Config, src ContextSource) (*loadedContext, error) {
	if src.Name == "" {
		return nil, fmt.Errorf("server: context source needs a name")
	}
	lc := &loadedContext{
		name:    src.Name,
		input:   src.Input,
		queries: map[string]*mdqa.Query{},
		cache:   mdqa.NewPlanCache(defaultPlanCacheSize),
	}
	switch {
	case src.Context != nil:
		lc.qc = src.Context
	case src.Path != "" || src.Source != "":
		var f *mdqa.File
		var err error
		if src.Path != "" {
			f, err = mdqa.ParseFile(src.Path)
		} else {
			f, err = mdqa.ParseSource(src.Source)
		}
		if err != nil {
			return nil, fmt.Errorf("server: context %s: %w", src.Name, err)
		}
		if !mdqa.HasQualityContext(f) {
			return nil, fmt.Errorf("server: context %s declares no quality context", src.Name)
		}
		opts := append([]mdqa.Option{
			mdqa.WithParallelism(cfg.Parallelism),
			mdqa.WithHistoryDepth(cfg.HistoryDepth),
			mdqa.WithHistoryBytes(cfg.HistoryBytes),
		}, src.Options...)
		lc.qc, err = mdqa.NewContextFromFile(f, opts...)
		if err != nil {
			return nil, fmt.Errorf("server: context %s: %w", src.Name, err)
		}
		if lc.input == nil {
			lc.input = mdqa.InputInstance(f)
		}
		for _, nq := range f.Queries {
			lc.queries[nq.Name] = nq.Query
		}
	default:
		return nil, fmt.Errorf("server: context %s has no path, source or prebuilt context", src.Name)
	}
	prep, err := lc.qc.Prepare(ctx)
	if err != nil {
		return nil, fmt.Errorf("server: prepare context %s: %w", src.Name, err)
	}
	lc.prep = prep
	lc.declared = lc.qc.DeclaredPreds()
	return lc, nil
}

// ServeHTTP dispatches to the route table.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Contexts lists the loaded context names, sorted.
func (s *Server) Contexts() []string { return append([]string(nil), s.names...) }

// context resolves a context name or reports 404.
func (s *Server) context(name string) (*loadedContext, error) {
	if lc, ok := s.contexts[name]; ok {
		return lc, nil
	}
	return nil, &notFoundError{kind: "context", name: name}
}

// session resolves a session id within a context or reports 404 (a
// session is addressable only under the context it was opened in).
func (s *Server) session(contextName, id string) (*session, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sess, ok := s.sessions[id]
	if !ok || sess.lc.name != contextName {
		return nil, &notFoundError{kind: "session", name: id}
	}
	return sess, nil
}

// register files a new session under the next free id ("s1", "s2",
// ...) or under the client-chosen requestedID when one was sent (409
// when it already names a live session — routing layers place sessions
// by hashing the id, so the id is the client's to pick). Sessions never
// expire on their own — clients close what they open, and the
// MaxSessions bound caps the damage of clients that don't. With a
// durable store, the session's directory (initial snapshot + first WAL
// segment) is created before the session becomes addressable, so no
// request can ever apply to an unlogged session; the id is reserved
// across that window so concurrent creates of one id cannot both reach
// the store.
func (s *Server) register(lc *loadedContext, ms *mdqa.Session, requestedID string) (*session, error) {
	s.mu.Lock()
	if len(s.sessions)+len(s.reserved) >= s.cfg.MaxSessions {
		s.mu.Unlock()
		return nil, &overloadedError{msg: fmt.Sprintf("session limit reached (%d open); close sessions with DELETE", s.cfg.MaxSessions)}
	}
	taken := func(id string) bool {
		_, live := s.sessions[id]
		_, held := s.reserved[id]
		return live || held
	}
	var id string
	if requestedID != "" {
		if taken(requestedID) {
			s.mu.Unlock()
			return nil, &conflictError{msg: fmt.Sprintf("session %q already exists", requestedID)}
		}
		id = requestedID
		// A client-chosen "s<n>" pushes the auto counter past n, so auto
		// numbering continues after it.
		var n uint64
		var rest string
		if k, err := fmt.Sscanf(requestedID, "s%d%s", &n, &rest); k == 1 && err != nil && n > s.nextID {
			s.nextID = n
		}
		s.nextID++
	} else {
		// The counter can still land on a taken id: a client-chosen
		// s18446744073709551615 wraps it to 0. Skip ahead past any id
		// that is live or reserved.
		for id == "" || taken(id) {
			s.nextID++
			id = fmt.Sprintf("s%d", s.nextID)
		}
	}
	s.reserved[id] = struct{}{}
	sess := &session{
		id:  id,
		seq: s.nextID,
		lc:  lc,
		s:   ms,
	}
	sess.lastRounds = ms.ChaseRounds()
	s.mu.Unlock()

	release := func() {
		s.mu.Lock()
		delete(s.reserved, id)
		s.mu.Unlock()
	}
	if s.store != nil {
		log, err := s.store.CreateSession(lc.name, sess.id, persist.Meta{Created: timestamp()}, ms.ExportState())
		if err != nil {
			release()
			return nil, fmt.Errorf("server: persist session %s: %w", sess.id, err)
		}
		sess.log = log
	}
	sess.touch()

	s.mu.Lock()
	delete(s.reserved, id)
	sess.isResident.Store(true)
	s.sessions[sess.id] = sess
	s.residentCount++
	s.mu.Unlock()
	s.enforceResident(sess)
	return sess, nil
}

// timestamp renders snapshot meta creation times.
func timestamp() string { return time.Now().UTC().Format(time.RFC3339) }

// unregister atomically removes a session from the registry,
// reporting 404 when it is already gone — two concurrent closes
// cannot both succeed (and double-decrement the open-sessions gauge).
// The engine state is garbage once no request references it (sessions
// hold no external resources).
func (s *Server) unregister(contextName, id string) (*session, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sess, ok := s.sessions[id]
	if !ok || sess.lc.name != contextName {
		return nil, &notFoundError{kind: "session", name: id}
	}
	delete(s.sessions, id)
	return sess, nil
}

// sessionCount returns how many sessions are open.
func (s *Server) sessionCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sessions)
}

// sessionsOf snapshots the sessions of one context in creation order
// (numeric, so s2 lists before s10).
func (s *Server) sessionsOf(contextName string) []*session {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []*session
	for _, sess := range s.sessions {
		if sess.lc.name == contextName {
			out = append(out, sess)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].seq < out[j].seq })
	return out
}
