package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"iter"
	"net/http"
	"regexp"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/par"
	"repro/mdqa"
)

// routes builds the method-and-pattern route table.
func (s *Server) routes() {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /v1/contexts", s.handleContexts)
	mux.HandleFunc("POST /v1/contexts/{name}/assess", s.handleAssess)
	mux.HandleFunc("POST /v1/contexts/{name}/sessions", s.handleSessionCreate)
	mux.HandleFunc("GET /v1/contexts/{name}/sessions", s.handleSessionList)
	mux.HandleFunc("GET /v1/contexts/{name}/sessions/{id}", s.handleSessionInfo)
	mux.HandleFunc("DELETE /v1/contexts/{name}/sessions/{id}", s.handleSessionClose)
	mux.HandleFunc("POST /v1/contexts/{name}/sessions/{id}/apply", s.handleApply)
	mux.HandleFunc("POST /v1/contexts/{name}/sessions/{id}/refresh", s.handleRefresh)
	mux.HandleFunc("GET /v1/contexts/{name}/sessions/{id}/answers", s.handleAnswers)
	mux.HandleFunc("GET /v1/contexts/{name}/sessions/{id}/assessment", s.handleSessionAssess)
	mux.HandleFunc("GET /v1/contexts/{name}/sessions/{id}/versions", s.handleVersions)
	mux.HandleFunc("GET /v1/contexts/{name}/sessions/{id}/trajectory", s.handleTrajectory)
	s.mux = mux
}

// writeJSON writes one JSON body with a trailing newline (curl-
// friendly; json.Encoder appends it).
func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(body)
}

// fail maps err to its status and structured body and counts it.
func (s *Server) fail(w http.ResponseWriter, contextName string, err error) {
	status, body := MapError(err)
	s.met.with(contextName, func(cm *contextMetrics) { cm.errorsTotal++ })
	writeJSON(w, status, body)
}

// maxBodyBytes bounds the request bodies decodeBody reads: one-shot
// assess and session-create payloads, and the rest of a failed apply
// stream that failApply drains. It is the limit mdrouter already
// applies to the bodies it buffers. Apply streams are not bounded;
// they are long-lived by design.
const maxBodyBytes = 32 << 20

// decodeBody decodes an optional JSON request body of at most
// maxBodyBytes into v. An empty body is fine (v keeps its zero value);
// malformed JSON is a client error, and a longer body fails with
// *http.MaxBytesError (413).
func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return err
		}
		return &badRequestError{msg: fmt.Sprintf("read body: %v", err)}
	}
	if len(strings.TrimSpace(string(data))) == 0 {
		return nil
	}
	if err := json.Unmarshal(data, v); err != nil {
		return &badRequestError{msg: fmt.Sprintf("decode body: %v", err)}
	}
	return nil
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, HealthResponse{
		Status:   "ok",
		Contexts: s.Contexts(),
		Sessions: s.sessionCount(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var mw obs.Writer
	s.met.render(&mw)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	_, _ = io.WriteString(w, mw.String())
}

func (s *Server) handleContexts(w http.ResponseWriter, r *http.Request) {
	out := ContextList{Contexts: []ContextInfo{}}
	for _, name := range s.names {
		lc := s.contexts[name]
		info := ContextInfo{Name: name, Versioned: lc.qc.Versioned()}
		for q := range lc.queries {
			info.Queries = append(info.Queries, q)
		}
		sort.Strings(info.Queries)
		if lc.input != nil {
			info.BaseTuples = lc.input.TotalTuples()
		}
		out.Contexts = append(out.Contexts, info)
	}
	writeJSON(w, http.StatusOK, out)
}

// requestInstance resolves the instance under assessment: the wire
// instance from the body when one was sent, its relations checked
// against the context's arities, the context's declared input
// otherwise.
func requestInstance(wi WireInstance, lc *loadedContext) (*mdqa.Instance, error) {
	if len(wi) == 0 {
		return lc.input, nil
	}
	inst, err := wi.Instance()
	if err != nil {
		return nil, err
	}
	for _, name := range inst.RelationNames() {
		if err := checkFact(lc.declared, name, inst.Relation(name).Schema().Arity()); err != nil {
			return nil, err
		}
	}
	return inst, nil
}

// sessionIDPattern admits client-chosen session ids: they become URL
// segments, metrics labels and (durable servers) directory names, so
// the vocabulary is deliberately narrow.
var sessionIDPattern = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$`)

// handleAssess serves the one-shot path: merge, chase, evaluate,
// measure — a fresh session per request over the shared compilation,
// driven entirely by the request context (a disconnecting client
// aborts the chase).
func (s *Server) handleAssess(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	lc, err := s.context(r.PathValue("name"))
	if err != nil {
		s.fail(w, "", err)
		return
	}
	var req AssessRequest
	if err := decodeBody(w, r, &req); err != nil {
		s.fail(w, lc.name, err)
		return
	}
	// The one-shot path accepts the same ?as_of= the session reads do
	// (symmetry of the read surface); a fresh session has only its
	// initial version 0, so anything else fails like any other
	// out-of-range as-of.
	ao, _, err := parseReadParams(r, false)
	if err != nil {
		s.fail(w, lc.name, err)
		return
	}
	inst, err := requestInstance(req.Instance, lc)
	if err != nil {
		s.fail(w, lc.name, err)
		return
	}
	sess, err := lc.prep.NewSession(r.Context(), inst)
	if err != nil {
		s.fail(w, lc.name, err)
		return
	}
	var viewOpts []mdqa.ViewOption
	var atVersion *uint64
	if ao != nil {
		version, err := resolveVersion(sess, ao)
		if err != nil {
			s.fail(w, lc.name, err)
			return
		}
		viewOpts = append(viewOpts, mdqa.At(version))
		atVersion = &version
	}
	a, err := sess.Assess(r.Context(), viewOpts...)
	if err != nil {
		s.fail(w, lc.name, err)
		return
	}
	resp, err := s.renderAssessment(r.Context(), lc, a)
	if err != nil {
		s.fail(w, lc.name, err)
		return
	}
	resp.Version = atVersion
	s.met.with(lc.name, func(cm *contextMetrics) {
		cm.assessTotal++
		cm.chaseRounds += int64(sess.ChaseRounds())
	})
	s.met.observe(lc.name, "assess", time.Since(start))
	writeJSON(w, http.StatusOK, resp)
}

// renderAssessment builds the wire form of an assessment. The
// versioned relations render independently (decoding every tuple is
// the expensive part), so they fan out across the server's worker
// pool — the request-level reuse of internal/par. Version relations
// already hold their rows in sorted order.
func (s *Server) renderAssessment(ctx context.Context, lc *loadedContext, a *mdqa.Assessment) (*AssessResponse, error) {
	versioned := lc.qc.Versioned()
	type rendered struct {
		rel     string
		version WireRelation
		measure WireMeasure
		hasMeas bool
	}
	pool := par.New(s.cfg.Parallelism)
	parts, err := par.Map(ctx, pool, len(versioned), func(i int) (rendered, error) {
		rel := versioned[i]
		out := rendered{rel: rel}
		v, err := a.Version(rel)
		if err != nil {
			return out, err
		}
		wr := WireRelation{Attrs: v.Schema().Attrs, Tuples: [][]string{}}
		buf := make([]mdqa.Term, 0, v.Schema().Arity())
		for _, row := range v.Rows() {
			wr.Tuples = append(wr.Tuples, termStrings(v.Interner().Terms(row, buf[:0])))
		}
		out.version = wr
		if m, ok := a.Measures()[rel]; ok {
			out.measure, out.hasMeas = wireMeasure(m), true
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	resp := &AssessResponse{
		Context:    lc.name,
		Consistent: a.Consistent(),
		Violations: wireViolations(a.Violations()),
		Versions:   map[string]WireRelation{},
		Measures:   map[string]WireMeasure{},
	}
	for _, p := range parts {
		resp.Versions[p.rel] = p.version
		if p.hasMeas {
			resp.Measures[p.rel] = p.measure
		}
	}
	return resp, nil
}

// handleSessionCreate opens a long-lived session: the cold assessment
// every later apply amortizes.
func (s *Server) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	lc, err := s.context(r.PathValue("name"))
	if err != nil {
		s.fail(w, "", err)
		return
	}
	var req SessionCreateRequest
	if err := decodeBody(w, r, &req); err != nil {
		s.fail(w, lc.name, err)
		return
	}
	if req.ID != "" && !sessionIDPattern.MatchString(req.ID) {
		s.fail(w, lc.name, &badRequestError{msg: fmt.Sprintf("invalid session id %q (want %s)", req.ID, sessionIDPattern)})
		return
	}
	inst, err := requestInstance(req.Instance, lc)
	if err != nil {
		s.fail(w, lc.name, err)
		return
	}
	ms, err := lc.prep.NewSession(r.Context(), inst)
	if err != nil {
		s.fail(w, lc.name, err)
		return
	}
	sess, err := s.register(lc, ms, req.ID)
	if err != nil {
		s.fail(w, lc.name, err)
		return
	}
	s.met.with(lc.name, func(cm *contextMetrics) {
		cm.sessionsTotal++
		cm.sessionsOpen++
		cm.chaseRounds += int64(sess.lastRounds)
	})
	s.met.observe(lc.name, "assess", time.Since(start))
	writeJSON(w, http.StatusOK, SessionResponse{ID: sess.id, Context: lc.name})
}

func (s *Server) handleSessionList(w http.ResponseWriter, r *http.Request) {
	lc, err := s.context(r.PathValue("name"))
	if err != nil {
		s.fail(w, "", err)
		return
	}
	out := SessionList{Sessions: []SessionInfo{}}
	for _, sess := range s.sessionsOf(lc.name) {
		out.Sessions = append(out.Sessions, sess.info())
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleSessionInfo(w http.ResponseWriter, r *http.Request) {
	sess, err := s.lookup(r)
	if err != nil {
		s.fail(w, r.PathValue("name"), err)
		return
	}
	writeJSON(w, http.StatusOK, sess.info())
}

// info snapshots a session's counters.
func (sess *session) info() SessionInfo {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	return SessionInfo{
		ID:          sess.id,
		Context:     sess.lc.name,
		Applies:     sess.applies,
		ChaseRounds: sess.lastRounds,
	}
}

// lookup resolves the {name}/{id} pair of a session route.
func (s *Server) lookup(r *http.Request) (*session, error) {
	if _, err := s.context(r.PathValue("name")); err != nil {
		return nil, err
	}
	return s.session(r.PathValue("name"), r.PathValue("id"))
}

func (s *Server) handleSessionClose(w http.ResponseWriter, r *http.Request) {
	if _, err := s.context(r.PathValue("name")); err != nil {
		s.fail(w, "", err)
		return
	}
	sess, err := s.unregister(r.PathValue("name"), r.PathValue("id"))
	if err != nil {
		s.fail(w, r.PathValue("name"), err)
		return
	}
	// Mark the session closed under its writer lock: an apply that
	// raced this DELETE either finished (its batch is in the WAL we are
	// about to seal) or will observe closed and refuse the ack — a
	// batch can never be acknowledged after its log is gone.
	sess.mu.Lock()
	_ = s.release(sess, true)
	sess.mu.Unlock()
	if s.store != nil {
		if err := s.store.RemoveSession(sess.lc.name, sess.id); err != nil {
			s.met.with(sess.lc.name, func(cm *contextMetrics) { cm.errorsTotal++ })
		}
	}
	s.met.with(sess.lc.name, func(cm *contextMetrics) { cm.sessionsOpen-- })
	writeJSON(w, http.StatusOK, SessionResponse{ID: sess.id, Context: sess.lc.name, Closed: true})
}

// handleApply ingests an NDJSON stream of delta batches and answers
// with an NDJSON stream of per-batch apply results. Each batch goes
// through the incremental chase atomically: concurrent snapshot
// readers see all of a batch or none of it. Batches from concurrent
// writers to one session serialize (batch granularity); batches
// within one request apply in request order.
func (s *Server) handleApply(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	sess, err := s.lookup(r)
	if err != nil {
		s.fail(w, r.PathValue("name"), err)
		return
	}
	lc := sess.lc
	sess.touch()
	w.Header().Set("Content-Type", "application/x-ndjson")
	// HTTP/1.x closes the request body once the response starts;
	// full-duplex mode keeps the ingest stream readable while apply
	// results flow back per batch.
	_ = http.NewResponseController(w).EnableFullDuplex()
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	dec := json.NewDecoder(r.Body)
	for {
		var req ApplyRequest
		if err := dec.Decode(&req); err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			s.failApply(w, r, enc, lc.name, &badRequestError{msg: fmt.Sprintf("decode batch: %v", err)})
			return
		}
		atoms := make([]mdqa.Atom, len(req.Atoms))
		for i, a := range req.Atoms {
			if err := checkFact(lc.declared, a.Pred, len(a.Args)); err != nil {
				s.failApply(w, r, enc, lc.name, err)
				return
			}
			atoms[i] = a.Atom()
		}
		res, rounds, job, err := s.applyBatch(r.Context(), sess, atoms)
		if err != nil {
			s.failApply(w, r, enc, lc.name, err)
			return
		}
		s.met.with(lc.name, func(cm *contextMetrics) {
			cm.applyTotal++
			cm.chaseRounds += int64(rounds)
			if res.Replanned {
				cm.replans++
			}
		})
		_ = enc.Encode(ApplyResponse{
			Inserted:   res.Inserted,
			ChaseRows:  res.ChaseRows,
			Derived:    res.Derived,
			Fired:      res.Fired,
			Merged:     res.Merged,
			Rebuilt:    res.Rebuilt,
			Violations: len(res.Violations),
		})
		if flusher != nil {
			flusher.Flush()
		}
		// Compaction happens here, between batches, off the session
		// lock: the exported state was frozen under the lock, so
		// concurrent applies keep flowing into the fresh segment.
		s.compact(sess, job)
	}
	s.met.observe(lc.name, "apply", time.Since(start))
	s.enforceResident(sess)
}

// applyBatch runs one batch under the session's writer lock: resolve
// the live engine state (reviving it from disk if needed), apply
// through the incremental chase, then commit the batch to the WAL. A
// batch the engine rejected is never logged, and a batch the log
// rejected is never acknowledged (the client retries; set-semantics
// inserts make replays idempotent); either failure follows the failure
// rule. It returns the apply result, the chase rounds the batch ran,
// and the compaction job commit captured, for the caller to write
// outside the lock.
func (s *Server) applyBatch(ctx context.Context, sess *session, atoms []mdqa.Atom) (*mdqa.ApplyResult, int, *snapJob, error) {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	ms, err := s.residentLocked(ctx, sess, true)
	if err != nil {
		return nil, 0, nil, err
	}
	res, err := ms.Apply(ctx, atoms)
	if err != nil {
		return nil, 0, nil, s.stepFailed(sess, err)
	}
	job, err := s.commit(sess, atoms, false)
	if err != nil {
		return nil, 0, nil, err
	}
	return res, sess.newRounds(), job, nil
}

// failApply ends an apply stream at its first failed batch: it writes
// the error line, then reads what is left of the body, up to
// maxBodyBytes, and closes it, so the client's keep-alive connection
// carries its next request. Under full duplex, net/http discards an
// unread body only after the handler returns, and a discard that
// reaches the body's end there starts a connection read that collides
// with the next request's: the connection goroutine panics and drops
// the connection. A longer body is closed here: net/http reads a little
// further or closes the connection once the response ends. Drain and
// close errors are dropped: the stream has failed already.
func (s *Server) failApply(w http.ResponseWriter, r *http.Request, enc *json.Encoder, contextName string, err error) {
	s.streamError(w, enc, contextName, err)
	_, _ = io.CopyN(io.Discard, r.Body, maxBodyBytes)
	_ = r.Body.Close()
}

// streamError emits a structured error as an NDJSON line: the status
// header is already on the wire mid-stream, so the body line carries
// the same WireError a non-streaming response would.
func (s *Server) streamError(w http.ResponseWriter, enc *json.Encoder, contextName string, err error) {
	_, body := MapError(err)
	s.met.with(contextName, func(cm *contextMetrics) { cm.errorsTotal++ })
	_ = enc.Encode(AnswerLine{Error: &body.Error})
	if flusher, ok := w.(http.Flusher); ok {
		flusher.Flush()
	}
}

// handleSessionAssess materializes the Figure 2 outcome for the
// session's current state over a consistent snapshot — or, under
// ?as_of=, for any historical version: measures and violations come
// from the version's recorded history, so the response describes what
// an assessment at that point in time reported.
func (s *Server) handleSessionAssess(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	sess, err := s.lookup(r)
	if err != nil {
		s.fail(w, r.PathValue("name"), err)
		return
	}
	ao, _, err := parseReadParams(r, false)
	if err != nil {
		s.fail(w, sess.lc.name, err)
		return
	}
	ms, err := s.resident(r.Context(), sess)
	if err != nil {
		s.fail(w, sess.lc.name, err)
		return
	}
	var viewOpts []mdqa.ViewOption
	var atVersion *uint64
	target := ms
	if ao != nil {
		version, err := resolveVersion(ms, ao)
		if err != nil {
			s.fail(w, sess.lc.name, err)
			return
		}
		target, _, err = s.sessionAt(r.Context(), sess, ms, version)
		if err != nil {
			s.fail(w, sess.lc.name, err)
			return
		}
		viewOpts = append(viewOpts, mdqa.At(version))
		atVersion = &version
	}
	a, err := target.Assess(r.Context(), viewOpts...)
	if err != nil {
		s.fail(w, sess.lc.name, err)
		return
	}
	resp, err := s.renderAssessment(r.Context(), sess.lc, a)
	if err != nil {
		s.fail(w, sess.lc.name, err)
		return
	}
	resp.Version = atVersion
	s.met.with(sess.lc.name, func(cm *contextMetrics) { cm.assessTotal++ })
	s.met.observe(sess.lc.name, "assess", time.Since(start))
	writeJSON(w, http.StatusOK, resp)
}

// answerFlushEvery is how long answer rows may sit in the response
// buffers, after the first, while the iterator keeps producing rows.
const answerFlushEvery = 50 * time.Millisecond

// maxAnswers bounds the answers one request streams. The evaluator
// keeps a key per distinct answer it has produced, so an unbounded
// query (a cross product over the session's relations) would grow the
// heap until the client disconnects; at about 100 bytes a key, the
// cap holds that set near 27 MB.
const maxAnswers = 1 << 18

// handleAnswers streams quality-query answers off a consistent
// snapshot as NDJSON: one line per answer, a terminal count line, and
// early termination when the client disconnects. ?q= is either the
// name of a query declared in the context's .mdq file or an inline
// query (`head(vars) <- body.`); ?mode=clean (default) answers with
// quality semantics (rewritten over the quality versions, certain
// answers only), ?mode=raw evaluates the query as written, nulls
// included. ?as_of=<version|RFC3339> answers against that historical
// version instead of the latest state.
//
// The stream flushes its first row at once, so the time to first byte
// does not wait for the rest. Later rows go into net/http's response
// buffers, which write to the socket as they fill, and a row is
// flushed early when answerFlushEvery has passed since the last flush.
// The check runs as each row is written, so a row written just before
// a long gap in the iterator waits for the next row or the end of the
// stream. No goroutine flushes on a timer: it would need a lock around
// every write to the ResponseWriter. A stream stops after maxAnswers
// answers with a bound_exceeded error line.
func (s *Server) handleAnswers(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	sess, err := s.lookup(r)
	if err != nil {
		s.fail(w, r.PathValue("name"), err)
		return
	}
	lc := sess.lc
	qsrc := r.URL.Query().Get("q")
	if qsrc == "" {
		s.fail(w, lc.name, &badRequestError{msg: "missing q parameter (a declared query name or an inline query)"})
		return
	}
	mode := r.URL.Query().Get("mode")
	if mode == "" {
		mode = "clean"
	}
	if mode != "clean" && mode != "raw" {
		s.fail(w, lc.name, &badRequestError{msg: fmt.Sprintf("unknown mode %q (clean, raw)", mode)})
		return
	}
	q, ok := lc.queries[qsrc]
	if !ok {
		var err error
		q, err = mdqa.ParseQuery(qsrc)
		if err != nil {
			s.fail(w, lc.name, &badRequestError{msg: err.Error()})
			return
		}
	}
	ao, explain, err := parseReadParams(r, true)
	if err != nil {
		s.fail(w, lc.name, err)
		return
	}

	ms, err := s.resident(r.Context(), sess)
	if err != nil {
		s.fail(w, lc.name, err)
		return
	}
	snap := ms.Snapshot()
	cache := lc.cache
	if ao != nil {
		version, err := resolveVersion(ms, ao)
		if err != nil {
			s.fail(w, lc.name, err)
			return
		}
		snap, err = s.viewAt(r.Context(), sess, ms, version)
		if err != nil {
			s.fail(w, lc.name, err)
			return
		}
		// Historical views bypass the shared plan cache: its plans are
		// costed against the live instance's statistics, and explain
		// must show the plan the historical snapshot actually executes.
		cache = nil
	}
	// Resolve unknown relations before committing the 200: the eval
	// layer silently treats a missing relation as empty, but a query
	// over a relation the context has never heard of is a client
	// error and deserves a real status code.
	if err := checkQueryRelations(lc, snap, q, mode == "clean"); err != nil {
		s.fail(w, lc.name, err)
		return
	}
	if explain {
		// Return the compiled join plan instead of rows: the same
		// rewrite and plan cache the answer path would use, so explain
		// shows exactly what a subsequent identical query executes.
		text, err := snap.Explain(q, mode == "clean", cache)
		if err != nil {
			s.fail(w, lc.name, err)
			return
		}
		writeJSON(w, http.StatusOK, ExplainResponse{Query: qsrc, Mode: mode, Plan: text})
		return
	}
	seq := snap.AnswersCached(q, cache)
	if mode == "clean" {
		seq = snap.CleanAnswersCached(q, cache)
	}

	count, ok := s.streamAnswers(r.Context(), w, lc.name, seq)
	if !ok {
		return
	}
	s.met.with(lc.name, func(cm *contextMetrics) { cm.answersTotal += int64(count) })
	s.met.observe(lc.name, "answers", time.Since(start))
}

// streamAnswers writes seq as NDJSON answer lines and the terminal
// count line, flushing as handleAnswers describes. It reports the
// answer count, and false when the stream ended early: on an iterator
// error or an answer past maxAnswers (each written as an error line),
// or a gone client.
func (s *Server) streamAnswers(ctx context.Context, w http.ResponseWriter, contextName string, seq iter.Seq2[mdqa.Answer, error]) (int, bool) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	count := 0
	var flushed time.Time
	for ans, err := range seq {
		if err != nil {
			s.streamError(w, enc, contextName, err)
			return count, false
		}
		if ctx.Err() != nil {
			return count, false // client gone; stop the evaluation
		}
		if count == maxAnswers {
			s.streamError(w, enc, contextName, &mdqa.BoundExceededError{
				Op: fmt.Sprintf("answer stream (at most %d answers per request)", maxAnswers),
			})
			return count, false
		}
		_ = enc.Encode(answerTuple{Answer: termStrings(ans.Terms)})
		count++
		if flusher != nil && (count == 1 || time.Since(flushed) >= answerFlushEvery) {
			flusher.Flush()
			flushed = time.Now()
		}
	}
	_ = enc.Encode(AnswerLine{Count: &count})
	return count, true
}

// checkQueryRelations verifies every body and negated atom against
// the context's declared vocabulary or the snapshot (after clean
// rewriting when clean mode is on), so queries over relations the
// context has never heard of, or at another arity, fail with 400 up
// front instead of streaming an empty answer set. A declared arity
// of -1 (the context uses the predicate at several) is not checked.
// Declared predicates whose relations hold no tuples yet — input
// relations of a session opened empty, quality predicates whose rules
// derived nothing — are legitimate queries with zero answers, not
// errors; so is a negated atom over a relation that does not exist.
func checkQueryRelations(lc *loadedContext, snap *mdqa.Snapshot, q *mdqa.Query, clean bool) error {
	if clean {
		q = snap.RewriteClean(q)
	}
	for i, atom := range slices.Concat(q.Body, q.Negated) {
		want, ok := lc.declared[atom.Pred]
		if !ok {
			rel := snap.Instance().Relation(atom.Pred)
			switch {
			case rel != nil:
				want = rel.Schema().Arity()
			case i < len(q.Body):
				return &mdqa.UnknownRelationError{Relation: atom.Pred}
			default:
				continue
			}
		}
		if want >= 0 && want != len(atom.Args) {
			return &badRequestError{msg: fmt.Sprintf("query atom %s has %d arguments, the relation has %d", atom.Pred, len(atom.Args), want)}
		}
	}
	return nil
}
