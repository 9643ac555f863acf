package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"time"

	"repro/internal/chase"
	"repro/internal/datalog"
	"repro/internal/engine"
	"repro/internal/eval"
	"repro/internal/gen"
	"repro/internal/par"
	"repro/internal/persist"
	"repro/internal/server"
	"repro/internal/storage"
	"repro/internal/wal"
	"repro/mdqa"
)

// pipeline is the engine a quality context prepares, rebuilt from the
// workload's ontology and rules the way quality.Context.compile does:
// once as an engine.Prepared (depth 3), and once as the compiled chase
// program, base instance and rule strata the engine is made of
// (depth 4).
type pipeline struct {
	eng    *engine.Prepared
	cp     *chase.CompiledProgram
	base   *storage.Instance
	strata [][]*eval.Rule
	opts   chase.Options
	width  int
}

func newPipeline(wl *gen.StreamingWorkload) (*pipeline, error) {
	cfg := wl.Base.Config
	spec := func() (engine.Spec, error) {
		comp, err := wl.Base.Ontology.Compile(cfg.Compile)
		if err != nil {
			return engine.Spec{}, err
		}
		rules := eval.NewProgram()
		rules.Add(cfg.Mappings...)
		rules.Add(cfg.QualityRules...)
		for _, v := range cfg.Versions {
			rules.Add(v.Rules...)
		}
		return engine.Spec{Program: comp.Program, Base: comp.Instance, Rules: rules, ChaseOptions: cfg.Chase, Parallelism: cfg.Parallelism}, nil
	}
	s3, err := spec()
	if err != nil {
		return nil, err
	}
	eng, err := engine.Prepare(s3)
	if err != nil {
		return nil, err
	}
	// Depth 4 compiles its own copy: engine.Prepare owns its base.
	s4, err := spec()
	if err != nil {
		return nil, err
	}
	cp, err := chase.Compile(s4.Program, s4.Base)
	if err != nil {
		return nil, err
	}
	strata, err := s4.Rules.Stratify()
	if err != nil {
		return nil, err
	}
	p := &pipeline{eng: eng, cp: cp, base: s4.Base, strata: strata, opts: s4.ChaseOptions, width: par.New(s4.Parallelism).Width()}
	p.opts.Parallelism = p.width
	return p, nil
}

// depth4 is a session built from chase and eval calls, mirroring
// engine.Prepared.NewSession and engine.Session.Apply.
type depth4 struct {
	cs *chase.State
	ev *eval.State
}

// open merges d into a clone of the base, chases it cold and evaluates
// the rules, as spans of the current op under parent.
func (p *pipeline) open(ctx context.Context, tr *tracer, d *storage.Instance, parent string) (*depth4, error) {
	var inst *storage.Instance
	if err := tr.time(4, "storage.merge", parent, func() error {
		inst = p.base.CloneDetached()
		return storage.Merge(inst, d)
	}); err != nil {
		return nil, err
	}
	s := &depth4{}
	if err := tr.time(4, "chase.cold", parent, func() error {
		s.cs = p.cp.NewState(inst, p.opts)
		s.cs.Replan()
		if err := s.cs.Chase(ctx); err != nil {
			return err
		}
		if !s.cs.Result().Saturated {
			return fmt.Errorf("chase did not saturate")
		}
		return nil
	}); err != nil {
		return nil, err
	}
	ei := s.cs.Instance().Clone()
	err := tr.time(4, "eval.init", parent, func() error {
		s.ev = eval.NewState(p.strata, ei)
		s.ev.SetParallelism(p.width)
		return s.ev.Init(ctx)
	})
	return s, err
}

// apply extends the chase with delta and the derived layer with the
// chase's new rows, returning the derived facts.
func (s *depth4) apply(ctx context.Context, tr *tracer, delta []datalog.Atom, parent string) (inserted, derived int, err error) {
	ci := s.cs.Instance()
	lens := map[string]int{}
	for _, name := range ci.RelationNames() {
		lens[name] = ci.Relation(name).Len()
	}
	var info *chase.ExtendInfo
	if err := tr.time(4, "chase.extend", parent, func() (err error) {
		info, err = s.cs.Extend(ctx, delta)
		return err
	}); err != nil {
		return 0, 0, err
	}
	if info.Merged > 0 {
		return 0, 0, fmt.Errorf("chase merged terms; the pipeline mirrors only append-only applies")
	}
	var facts []eval.Fact
	for _, name := range ci.RelationNames() {
		for _, row := range ci.Relation(name).Rows()[lens[name]:] {
			facts = append(facts, eval.Fact{Pred: name, Row: row})
		}
	}
	var out []eval.Fact
	err = tr.time(4, "eval.extend", parent, func() (err error) {
		out, err = s.ev.Extend(ctx, facts)
		return err
	})
	return info.Inserted, len(out), err
}

// renderAssessment builds the server's wire form of an assessment from
// the exported wire types, as the assessment handlers do.
func renderAssessment(a *mdqa.Assessment, versioned []string) (*server.AssessResponse, error) {
	resp := &server.AssessResponse{
		Context:    contextName,
		Consistent: a.Consistent(),
		Versions:   map[string]server.WireRelation{},
		Measures:   map[string]server.WireMeasure{},
	}
	for _, v := range a.Violations() {
		resp.Violations = append(resp.Violations, server.WireViolation{Kind: v.Kind.String(), ID: v.ID, Detail: v.Detail})
	}
	for _, rel := range versioned {
		v, err := a.Version(rel)
		if err != nil {
			return nil, err
		}
		wr := server.WireRelation{Attrs: v.Schema().Attrs, Tuples: [][]string{}}
		for _, tup := range v.SortedTuples() {
			wr.Tuples = append(wr.Tuples, termNames(tup))
		}
		resp.Versions[rel] = wr
		if m, ok := a.Measures()[rel]; ok {
			resp.Measures[rel] = server.WireMeasure{
				Original: m.Original, Quality: m.Quality, Intersection: m.Intersection,
				CleanFraction: m.CleanFraction(), Distance: m.Distance(),
			}
		}
	}
	return resp, nil
}

func termNames(terms []mdqa.Term) []string {
	out := make([]string, len(terms))
	for i, t := range terms {
		out[i] = t.Name
		if t.IsNull() {
			out[i] = "⊥" + t.Name
		}
	}
	return out
}

// encodeJSON encodes v as the handlers do, into a discarded buffer.
func encodeJSON(v any) error {
	var buf bytes.Buffer
	return json.NewEncoder(&buf).Encode(v)
}

// ---- cold_assess ----

type coldReplay struct {
	f      *coldFixture
	prep   *mdqa.Prepared
	pipe   *pipeline
	order  []int
	rounds int
	fired  int
}

func setupColdReplay(ctx context.Context, e *env) (replay, error) {
	fx, err := setupCold(ctx, e)
	if err != nil {
		return nil, err
	}
	r := &coldReplay{f: fx.(*coldFixture), order: coldOrder(e.seed, 40)}
	if r.prep, err = r.f.ls.qc.Prepare(ctx); err != nil {
		return nil, err
	}
	wl, err := gen.NewStreamingWorkload(streamSpec(e.seed))
	if err != nil {
		return nil, err
	}
	r.pipe, err = newPipeline(wl)
	return r, err
}

func (r *coldReplay) op(ctx context.Context, tr *tracer, i int) (time.Duration, error) {
	body := r.order[i]
	want := r.f.clean[body]
	http := func() error { return r.f.op(ctx, body) }
	untraced, err := httpPair(tr, i, http, http)
	if err != nil {
		return 0, err
	}

	// Depth 2: what handleAssess does, call by call.
	var inst *mdqa.Instance
	var a *mdqa.Assessment
	err = tr.gcThen(func() error {
		if err := tr.time(2, "server.decode", "server.http", func() error {
			var req server.AssessRequest
			if err := json.Unmarshal(r.f.bodies[body], &req); err != nil {
				return err
			}
			var err error
			inst, err = req.Instance.Instance()
			return err
		}); err != nil {
			return err
		}
		var sess *mdqa.Session
		if err := tr.time(2, "quality.open", "server.http", func() (err error) {
			sess, err = r.prep.NewSession(ctx, inst)
			return err
		}); err != nil {
			return err
		}
		if err := tr.time(2, "quality.assess", "server.http", func() (err error) {
			a, err = sess.Assess(ctx)
			return err
		}); err != nil {
			return err
		}
		return tr.time(2, "server.encode", "server.http", func() error {
			resp, err := renderAssessment(a, r.f.ls.qc.Versioned())
			if err != nil {
				return err
			}
			return encodeJSON(resp)
		})
	})
	if err != nil {
		return 0, err
	}
	if got := a.Measures()["Measurements"].Quality; got != want {
		return 0, wrongf("depth 2: %d clean measurements, want %d", got, want)
	}

	// Depth 3: the engine session quality.open wraps.
	if err := tr.gcThen(func() error {
		return tr.time(3, "engine.open", "quality.open", func() error {
			_, err := r.pipe.eng.NewSession(ctx, inst)
			return err
		})
	}); err != nil {
		return 0, err
	}

	// Depth 4: the merge, cold chase and rule evaluation engine.open
	// makes.
	var s *depth4
	if err := tr.gcThen(func() (err error) {
		s, err = r.pipe.open(ctx, tr, inst, "engine.open")
		return err
	}); err != nil {
		return 0, err
	}
	res := s.cs.Result()
	r.rounds += res.Rounds
	r.fired += res.Fired
	if got := s.ev.Instance().Relation(r.f.ls.qc.VersionPred("Measurements")).Len(); got != want {
		return 0, wrongf("depth 4: %d clean measurements, want %d", got, want)
	}
	return untraced, nil
}

func (r *coldReplay) report(o *outcome, lr *layerReport) error {
	lr.put(o, "server.decode", "ms", false)
	lr.put(o, "server.encode", "ms", false)
	lr.put(o, "quality.open", "ms", true)
	lr.put(o, "quality.assess", "ms", false)
	lr.put(o, "engine.open", "ms", true)
	lr.put(o, "chase.cold", "ms", false)
	lr.put(o, "eval.init", "ms", false)
	lr.put(o, "storage.merge", "ms", false)
	n := float64(lr.calls["chase.cold"].n)
	o.set("cold_assess.chase.rounds_per_op", float64(r.rounds)/n, "count")
	o.set("cold_assess.chase.fired_per_op", float64(r.fired)/n, "count")
	return nil
}

func (r *coldReplay) ln() *countingListener { return r.f.ls.ln }
func (r *coldReplay) close()                { r.f.close() }

// ---- ingest ----

// ingestReplay applies the same ticks, in the same order, to five
// sessions opened on the same instance: two server sessions (traced and
// untraced HTTP), an mdqa session with its own durable log (depth 2),
// an engine session (depth 3) and a chase and eval pipeline (depth 4).
//
// After every apply the quality layer records a version that holds a
// snapshot of the derived instance, so the next apply copies each
// relation it grows. Depths 3 and 4 hold a snapshot the same way, so
// that their eval extensions pay the same copies.
type ingestReplay struct {
	wl      *gen.StreamingWorkload
	ls      *liveServer
	cl      *client
	ms      *mdqa.Session
	log     *persist.SessionLog
	logDir  string
	eng     *engine.Session
	d4      *depth4
	held3   *storage.Instance
	held4   *storage.Instance
	derived int
	walB    int64
	snaps   int
	snapB   int64
}

func setupIngestReplay(ctx context.Context, e *env) (replay, error) {
	wl, err := gen.NewStreamingWorkload(streamSpec(e.seed))
	if err != nil {
		return nil, err
	}
	dir, err := e.newDataDir("ingest-trace")
	if err != nil {
		return nil, err
	}
	r := &ingestReplay{wl: wl}
	cfg := server.Config{DataDir: filepath.Join(dir, "server"), Fsync: wal.SyncInterval, SnapshotEvery: ingestSnapshotEvery, HistoryDepth: ingestHistoryDepth}
	if r.ls, err = startServer(ctx, wl, cfg); err != nil {
		return nil, err
	}
	r.cl = newClient(r.ls.url, 1)
	for _, sid := range []string{"traced", "untraced"} {
		if err := r.cl.openSession(ctx, sid); err != nil {
			return nil, err
		}
	}
	prep, err := r.ls.qc.Prepare(ctx)
	if err != nil {
		return nil, err
	}
	if r.ms, err = prep.NewSession(ctx, wl.Base.Instance); err != nil {
		return nil, err
	}
	store, err := persist.OpenStore(filepath.Join(dir, "depth2"), persist.Options{
		WAL:           wal.Options{Mode: wal.SyncInterval},
		SnapshotEvery: ingestSnapshotEvery,
		RetainHistory: ingestHistoryDepth,
	})
	if err != nil {
		return nil, err
	}
	if r.log, err = store.CreateSession(contextName, "depth2", persist.Meta{Created: time.Now().UTC().Format(time.RFC3339)}, r.ms.ExportState()); err != nil {
		return nil, err
	}
	r.logDir = filepath.Join(dir, "depth2", contextName, "depth2")
	pipe, err := newPipeline(wl)
	if err != nil {
		return nil, err
	}
	if r.eng, err = pipe.eng.NewSession(ctx, wl.Base.Instance); err != nil {
		return nil, err
	}
	r.held3, _ = r.eng.State()
	// The depth-4 session is opened untimed, on a tracer nobody reads.
	if r.d4, err = pipe.open(ctx, newTracer(), wl.Base.Instance, ""); err != nil {
		return nil, err
	}
	r.held4 = r.d4.ev.Instance().Snapshot()
	return r, nil
}

// walBytes sums the session log's WAL segment sizes.
func (r *ingestReplay) walBytes() int64 {
	paths, _, err := wal.Segments(r.logDir)
	if err != nil {
		return 0
	}
	var n int64
	for _, p := range paths {
		if info, err := os.Stat(p); err == nil {
			n += info.Size()
		}
	}
	return n
}

func (r *ingestReplay) op(ctx context.Context, tr *tracer, i int) (time.Duration, error) {
	atoms, _ := r.wl.Tick(i)
	line, err := applyLine(atoms)
	if err != nil {
		return 0, err
	}
	check := func(depth string, got int) error {
		if got != len(atoms) {
			return wrongf("%s: %d inserted, batch carried %d new atoms", depth, got, len(atoms))
		}
		return nil
	}
	http := func(sid string) func() error {
		return func() error {
			got, err := r.cl.apply(ctx, sid, line)
			if err == nil {
				err = check(sid+" http", got)
			}
			return err
		}
	}
	untraced, err := httpPair(tr, i, http("untraced"), http("traced"))
	if err != nil {
		return 0, err
	}

	// Depth 2: what handleApply does for one batch line.
	err = tr.gcThen(func() error {
		var decoded []mdqa.Atom
		if err := tr.time(2, "server.decode", "server.http", func() error {
			var req server.ApplyRequest
			if err := json.NewDecoder(bytes.NewReader(line)).Decode(&req); err != nil {
				return err
			}
			decoded = make([]mdqa.Atom, len(req.Atoms))
			for j, a := range req.Atoms {
				decoded[j] = a.Atom()
			}
			return nil
		}); err != nil {
			return err
		}
		var res *mdqa.ApplyResult
		if err := tr.time(2, "quality.apply", "server.http", func() (err error) {
			res, err = r.ms.Apply(ctx, decoded)
			return err
		}); err != nil {
			return err
		}
		if err := check("depth 2", res.Inserted); err != nil {
			return err
		}
		w0 := r.walBytes()
		if err := tr.time(2, "wal.append", "server.http", func() error {
			_, err := r.log.Append(decoded)
			return err
		}); err != nil {
			return err
		}
		r.walB += r.walBytes() - w0
		if !r.log.NeedSnapshot() {
			return nil
		}
		covered, err := r.log.Rotate()
		if err != nil {
			return err
		}
		var st persist.SessionState
		_ = tr.time(2, "quality.export", "server.http", func() error {
			st = r.ms.ExportState()
			return nil
		})
		meta := persist.Meta{Context: contextName, Session: "depth2", Seq: covered, Applies: i + 1, Created: time.Now().UTC().Format(time.RFC3339)}
		if err := tr.time(2, "persist.snapshot", "server.http", func() error { return r.log.WriteSnapshot(meta, st) }); err != nil {
			return err
		}
		info, err := os.Stat(filepath.Join(r.logDir, persist.SnapName(covered)))
		if err != nil {
			return err
		}
		r.snaps++
		r.snapB += info.Size()
		return nil
	})
	if err != nil {
		return 0, err
	}

	// Depth 3: the engine apply quality.apply wraps.
	var engDerived int
	if err := tr.gcThen(func() error {
		return tr.time(3, "engine.apply", "quality.apply", func() error {
			res, err := r.eng.Apply(ctx, atoms)
			if err != nil {
				return err
			}
			engDerived = res.Derived
			return check("depth 3", res.Inserted)
		})
	}); err != nil {
		return 0, err
	}
	r.held3, _ = r.eng.State()

	// Depth 4: the chase and eval extensions engine.apply makes.
	var inserted, derived int
	if err := tr.gcThen(func() (err error) {
		inserted, derived, err = r.d4.apply(ctx, tr, atoms, "engine.apply")
		return err
	}); err != nil {
		return 0, err
	}
	if err := check("depth 4", inserted); err != nil {
		return 0, err
	}
	if derived != engDerived {
		return 0, wrongf("depth 4 derived %d facts, the engine %d", derived, engDerived)
	}
	r.held4 = r.d4.ev.Instance().Snapshot()
	r.derived += derived
	return untraced, nil
}

func (r *ingestReplay) report(o *outcome, lr *layerReport) error {
	lr.put(o, "server.decode", "ms", false)
	lr.put(o, "quality.apply", "ms", true)
	lr.put(o, "engine.apply", "ms", true)
	lr.put(o, "chase.extend", "ms", false)
	lr.put(o, "eval.extend", "ms", false)
	lr.put(o, "wal.append", "ms", false)
	lr.put(o, "persist.snapshot", "ms", false)
	n := float64(lr.calls["eval.extend"].n)
	o.set("ingest.eval.derived_per_op", float64(r.derived)/n, "count")
	o.set("ingest.wal.bytes_per_op", float64(r.walB)/n, "B")
	if r.snaps > 0 {
		o.set("ingest.persist.snapshot_mb", float64(r.snapB)/float64(r.snaps)/1e6, "MB")
	}
	return nil
}

func (r *ingestReplay) ln() *countingListener { return r.ls.ln }

func (r *ingestReplay) close() {
	r.cl.close()
	_ = r.ls.stop()
	_ = r.ls.srv.Close()
	_ = r.log.Close()
}

// ---- dashboard ----

// dashReplay serves the dashboard's op stream from the server and, at
// depth 2, from one mdqa session seeded like the server's first session.
// Every session receives the same number of ticks, each adding the same
// number of clean measurements, so the counts at every version agree.
type dashReplay struct {
	f    *dashFixture
	ms   *mdqa.Session
	pc   *mdqa.PlanCache
	qsrc string
}

func setupDashReplay(ctx context.Context, e *env) (replay, error) {
	fx, err := setupDashboard(ctx, e)
	if err != nil {
		return nil, err
	}
	r := &dashReplay{f: fx.(*dashFixture), pc: mdqa.NewPlanCache(128), qsrc: "m(t, p, v) <- Measurements(t, p, v)."}
	prep, err := r.f.ls.qc.Prepare(ctx)
	if err != nil {
		return nil, err
	}
	wl, err := gen.NewStreamingWorkload(streamSpec(e.seed))
	if err != nil {
		return nil, err
	}
	if r.ms, err = prep.NewSession(ctx, wl.Base.Instance); err != nil {
		return nil, err
	}
	for k := 0; k < dashSeedTicks; k++ {
		atoms, _ := wl.Tick(k)
		if _, err := r.ms.Apply(ctx, atoms); err != nil {
			return nil, err
		}
	}
	for s := range r.f.clean {
		if !reflect.DeepEqual(r.f.clean[s], r.f.clean[0]) {
			return nil, fmt.Errorf("session %d's clean counts %v differ from session 0's %v", s, r.f.clean[s], r.f.clean[0])
		}
	}
	return r, nil
}

func (r *dashReplay) op(ctx context.Context, tr *tracer, i int) (time.Duration, error) {
	http := func() error { return r.f.op(ctx, i) }
	untraced, err := httpPair(tr, i, http, http)
	if err != nil {
		return 0, err
	}
	op := r.f.ops[i%len(r.f.ops)]
	ms := r.ms
	want := r.f.clean[0][dashSeedTicks]
	var got int
	err = tr.gcThen(func() error {
		if op.kind == dashAssessment {
			var a *mdqa.Assessment
			if err := tr.time(2, "quality.assess", "server.http", func() (err error) {
				a, err = ms.Assess(ctx)
				return err
			}); err != nil {
				return err
			}
			got = a.Measures()["Measurements"].Quality
			return tr.time(2, "server.encode", "server.http", func() error {
				resp, err := renderAssessment(a, r.f.ls.qc.Versioned())
				if err != nil {
					return err
				}
				return encodeJSON(resp)
			})
		}
		// handleAnswers: parse, resolve the snapshot (a history view for
		// as_of), rewrite onto the quality versions, evaluate, encode.
		var q *mdqa.Query
		if err := tr.time(2, "parser.query", "server.http", func() (err error) {
			q, err = mdqa.ParseQuery(r.qsrc)
			return err
		}); err != nil {
			return err
		}
		snap, cache := ms.Snapshot(), r.pc
		if op.kind == dashAsOf {
			want = r.f.clean[0][op.version]
			cache = nil // historical views bypass the plan cache
			if err := tr.time(2, "history.view", "server.http", func() (err error) {
				snap, err = ms.View(mdqa.At(uint64(op.version)))
				return err
			}); err != nil {
				return err
			}
		}
		if err := tr.time(2, "quality.rewrite", "server.http", func() error {
			if snap.RewriteClean(q) == nil {
				return fmt.Errorf("no rewriting")
			}
			return nil
		}); err != nil {
			return err
		}
		var answers []mdqa.Answer
		if err := tr.time(2, "storage.query", "server.http", func() error {
			for ans, err := range snap.CleanAnswersCached(q, cache) {
				if err != nil {
					return err
				}
				answers = append(answers, ans)
			}
			return nil
		}); err != nil {
			return err
		}
		got = len(answers)
		return tr.time(2, "server.encode", "server.http", func() error {
			var buf bytes.Buffer
			enc := json.NewEncoder(&buf)
			for _, ans := range answers {
				if err := enc.Encode(server.AnswerLine{Answer: termNames(ans.Terms)}); err != nil {
					return err
				}
			}
			return enc.Encode(server.AnswerLine{Count: &got})
		})
	})
	if err != nil {
		return 0, err
	}
	if got != want {
		return 0, wrongf("depth 2 dashboard %s: %d clean rows, want %d", op.kind, got, want)
	}
	return untraced, nil
}

func (r *dashReplay) report(o *outcome, lr *layerReport) error {
	lr.put(o, "server.encode", "ms", false)
	lr.put(o, "parser.query", "us", false)
	lr.put(o, "quality.rewrite", "us", false)
	lr.put(o, "quality.assess", "ms", false)
	lr.put(o, "history.view", "us", false)
	lr.put(o, "storage.query", "ms", false)
	hits, misses, _ := r.pc.Stats()
	if lookups := hits + misses; lookups > 0 {
		o.set("dashboard.storage.plan_cache_hit_ratio", float64(hits)/float64(lookups), "ratio")
		o.notes["dashboard.storage.plan_cache_lookups"] = lookups
	}
	return nil
}

func (r *dashReplay) ln() *countingListener { return r.f.ls.ln }
func (r *dashReplay) close()                { r.f.close() }
