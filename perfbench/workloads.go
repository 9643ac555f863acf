package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/datalog"
	"repro/internal/gen"
	"repro/internal/load"
	"repro/internal/server"
	"repro/internal/wal"
)

// Workload sizes. Each was chosen on a 2-vCPU machine so that a timed
// op is several milliseconds of program work; see README.md.
const (
	// patients × days is the n = 800 measurements of every instance.
	patients, days, wards = 200, 4, 3

	// coldOpsPerSecond sets cold_assess's op count from --seconds
	// (about 150 ms per op), coldBodies the pool of distinct instances
	// the ops cycle through.
	coldOpsPerSecond = 6.5
	coldBodies       = 8
	coldBlock        = 4 // ops per steal check

	// ingestSessions receive ingestOpsPerSecond × --seconds ticks in
	// total: 40 ticks each at 20 seconds, so no session grows by more
	// than a fifth, and each compacts ten times. Every retained
	// version of a session keeps its own copy of the guideline
	// relation (about 30 MB at n = 800): with the default 8 versions, 12
	// sessions would hold over 3 GB, so ingest keeps one. The newest version
	// still shares the live relations, so every apply still pays the
	// copy-on-write clone.
	ingestSessions      = 12
	ingestOpsPerSecond  = 24
	ingestSnapshotEvery = 4
	ingestHistoryDepth  = 1

	// dashSessions are seeded with dashSeedTicks ticks each, so every
	// session has versions 0..dashSeedTicks in its history ring.
	dashSessions  = 4
	dashSeedTicks = 4
	dashRate      = 80 // open-loop reads per second
	dashClients   = 2  // open-loop senders
	// dashClosedClients drive the closed loop behind ops_s. Two clients
	// saturate both vCPUs, and their ops_s moved by 28% (IQR over
	// median, ten runs) as other tenants' load on the host changed.
	dashClosedClients = 1

	// A run sets its workload up at least setupRuns times and for at
	// least setupFor in total; setup_s is the median.
	setupRuns = 3
	setupFor  = time.Second
)

// streamSpec is every workload's generator: n = 800 measurements and
// one patient (16 atoms) per tick.
func streamSpec(seed int64) gen.StreamSpec {
	return gen.StreamSpec{
		Base:         gen.QualitySpec{Patients: patients, Days: days, Wards: wards, DirtyRatio: 0.5, Seed: seed},
		TickPatients: 1,
	}
}

// checkError marks an op whose output was wrong, as opposed to one
// that failed to complete.
type checkError struct{ msg string }

func (e *checkError) Error() string { return e.msg }

func wrongf(format string, args ...any) error { return &checkError{msg: fmt.Sprintf(format, args...)} }

// env is one benchmark run's settings and scratch space.
type env struct {
	seed    int64
	seconds int
	// dataRoot holds this run's data directories; removed at exit.
	dataRoot string
	dirs     int
	gate     *stealGate
}

func (e *env) newDataDir(name string) (string, error) {
	e.dirs++
	dir := filepath.Join(e.dataRoot, fmt.Sprintf("%s-%d", name, e.dirs))
	return dir, os.MkdirAll(dir, 0o755)
}

// outcome is what a workload run reports.
type outcome struct {
	metrics map[string]metric
	notes   map[string]any
	t       tally
	// checksOK is false when a check after the timed phase failed.
	checksOK bool
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]metric{}, notes: map[string]any{}, checksOK: true}
}

func (o *outcome) set(name string, v float64, unit string) {
	o.metrics[name] = metric{Value: v, Unit: unit}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// setLatency records p50_ms and tail_ms and notes their sample count.
func (o *outcome) setLatency(l latencies) error {
	s, err := l.summarize()
	if err != nil {
		return err
	}
	o.setSummary(s)
	return nil
}

func (o *outcome) setSummary(s summary) {
	o.set("p50_ms", ms(s.P50), "ms")
	o.set("tail_ms", ms(s.Tail), "ms")
	o.notes["latency_samples"] = s.N
	o.notes["tail_percentile"] = float64(s.TailPerMl) / 10
}

// setHeap forces a GC and records the live heap.
func (o *outcome) setHeap() {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	o.set("heap_live_mb", float64(m.HeapAlloc)/1e6, "MB")
}

// fixture is a set-up workload ready for its timed phase.
type fixture interface {
	// run executes the timed phase and the output checks.
	run(ctx context.Context, e *env, o *outcome) error
	// close stops everything the setup started.
	close()
}

// setupMedian sets the workload up setupRuns times or for setupFor,
// whichever is more, tearing down all but the last, and records the
// median set-up time as setup_s.
func setupMedian(ctx context.Context, e *env, o *outcome, setup func(context.Context, *env) (fixture, error)) (fixture, error) {
	var times []time.Duration
	var fx fixture
	for total := time.Duration(0); len(times) < setupRuns || total < setupFor; total += times[len(times)-1] {
		if fx != nil {
			fx.close()
			fx = nil
		}
		// Each set-up starts from a collected heap, not from the one
		// before it.
		runtime.GC()
		e.gate.wait(ctx)
		t0 := time.Now()
		var err error
		fx, err = setup(ctx, e)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		times = append(times, time.Since(t0))
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	o.set("setup_s", times[len(times)/2].Seconds(), "s")
	var all []float64
	for _, t := range times {
		all = append(all, t.Seconds())
	}
	o.notes["setup_runs_s"] = all
	return fx, nil
}

// setups are the workloads by name.
var setups = map[string]func(context.Context, *env) (fixture, error){
	"cold_assess": setupCold,
	"ingest":      setupIngest,
	"dashboard":   setupDashboard,
}

// runWorkload sets a workload up and runs its timed phase.
func runWorkload(ctx context.Context, name string, e *env) (*outcome, error) {
	o := newOutcome()
	fx, err := setupMedian(ctx, e, o, setups[name])
	if err != nil {
		return nil, err
	}
	defer fx.close()
	// Start the timed phase from a collected heap, whatever the
	// set-ups left behind.
	runtime.GC()
	if err := fx.run(ctx, e, o); err != nil {
		return nil, err
	}
	return o, nil
}

// timedDeadline bounds a fixed-size timed phase that runs far slower
// than planned: ops not sent by then count as failed.
func timedDeadline(e *env) time.Time { return time.Now().Add(time.Duration(4*e.seconds) * time.Second) }

// ---- cold_assess ----

type coldFixture struct {
	ls     *liveServer
	cl     *client
	bodies [][]byte
	clean  []int // ExpectedClean of each body's instance
}

// coldInputs generates the seed's assess bodies, each a fresh n = 800
// instance, and the clean count each must assess to.
func coldInputs(seed int64) (bodies [][]byte, clean []int, err error) {
	for k := 0; k < coldBodies; k++ {
		bwl, err := gen.NewQualityWorkload(streamSpec(seed*1_000_003 + int64(k) + 1).Base)
		if err != nil {
			return nil, nil, err
		}
		body, err := json.Marshal(server.AssessRequest{Instance: gen.WireInstance(bwl.Instance)})
		if err != nil {
			return nil, nil, err
		}
		bodies = append(bodies, body)
		clean = append(clean, bwl.ExpectedClean)
	}
	return bodies, clean, nil
}

func setupCold(ctx context.Context, e *env) (fixture, error) {
	wl, err := gen.NewStreamingWorkload(streamSpec(e.seed))
	if err != nil {
		return nil, err
	}
	f := &coldFixture{}
	if f.bodies, f.clean, err = coldInputs(e.seed); err != nil {
		return nil, err
	}
	if f.ls, err = startServer(ctx, wl, server.Config{}); err != nil {
		return nil, err
	}
	f.cl = newClient(f.ls.url, 1)
	return f, nil
}

// coldOrder is the seed's order of bodies over n ops.
func coldOrder(seed int64, n int) []int {
	rng := rand.New(rand.NewSource(seed))
	order := make([]int, n)
	for i := range order {
		order[i] = rng.Intn(coldBodies)
	}
	return order
}

func (f *coldFixture) op(ctx context.Context, body int) error {
	got, err := f.cl.assess(ctx, f.bodies[body])
	if err != nil {
		return err
	}
	if got != f.clean[body] {
		return wrongf("assess: %d clean measurements, want %d", got, f.clean[body])
	}
	return nil
}

func (f *coldFixture) run(ctx context.Context, e *env, o *outcome) error {
	n := int(coldOpsPerSecond * float64(e.seconds))
	order := coldOrder(e.seed, n)
	deadline := timedDeadline(e)
	// A one-shot assessment leaves no state behind, so blocks of ops
	// can run again when the host stole CPU time during them.
	type block struct {
		lat     latencies
		elapsed time.Duration
	}
	var lat latencies
	var elapsed time.Duration
	for b := 0; b < n; b += coldBlock {
		ops := order[b:min(b+coldBlock, n)]
		r := quietly(ctx, e.gate, func() block {
			l, d := closedLoop(ctx, e.gate, 1, len(ops), deadline, &o.t, func(ctx context.Context, i int) error {
				return f.op(ctx, ops[i])
			})
			return block{l, d}
		})
		lat = append(lat, r.lat...)
		elapsed += r.elapsed
	}
	o.setHeap()
	o.set("ops_s", float64(len(lat))/elapsed.Seconds(), "1/s")
	o.notes["loop"] = "closed, 1 client"
	o.notes["ops"] = n
	return o.setLatency(lat)
}

func (f *coldFixture) close() {
	f.cl.close()
	_ = f.ls.stop()
}

// ---- ingest ----

type ingestFixture struct {
	wl    *gen.StreamingWorkload
	cfg   server.Config
	ls    *liveServer
	cl    *client
	sids  []string
	lines [][]byte // op i's NDJSON batch line
	sess  []int    // op i's session
	atoms []int    // op i's atom count
	acked []bool   // op i's batch was acknowledged
}

// applyLine renders a tick as one NDJSON apply line.
func applyLine(atoms []datalog.Atom) ([]byte, error) {
	req := server.ApplyRequest{Atoms: make([]server.WireAtom, len(atoms))}
	for i, a := range atoms {
		args := make([]string, len(a.Args))
		for j, t := range a.Args {
			args[j] = t.Name
		}
		req.Atoms[i] = server.WireAtom{Pred: a.Pred, Args: args}
	}
	line, err := json.Marshal(req)
	return append(line, '\n'), err
}

// ingestOrder assigns n ops to sessions: every round of `sessions` ops
// visits each session once, in an order the seed shuffles.
func ingestOrder(seed int64, sessions, n int) []int {
	rng := rand.New(rand.NewSource(seed))
	out := make([]int, 0, n)
	for len(out) < n {
		for _, s := range rng.Perm(sessions) {
			if len(out) < n {
				out = append(out, s)
			}
		}
	}
	return out
}

func ingestOps(seconds int) int { return ingestOpsPerSecond * seconds }

func setupIngest(ctx context.Context, e *env) (fixture, error) {
	wl, err := gen.NewStreamingWorkload(streamSpec(e.seed))
	if err != nil {
		return nil, err
	}
	dir, err := e.newDataDir("ingest")
	if err != nil {
		return nil, err
	}
	f := &ingestFixture{
		wl:   wl,
		cfg:  server.Config{DataDir: dir, Fsync: wal.SyncInterval, SnapshotEvery: ingestSnapshotEvery, HistoryDepth: ingestHistoryDepth},
		sess: ingestOrder(e.seed, ingestSessions, ingestOps(e.seconds)),
	}
	for i := range f.sess {
		atoms, _ := wl.Tick(i)
		line, err := applyLine(atoms)
		if err != nil {
			return nil, err
		}
		f.lines = append(f.lines, line)
		f.atoms = append(f.atoms, len(atoms))
	}
	if f.ls, err = startServer(ctx, wl, f.cfg); err != nil {
		return nil, err
	}
	f.cl = newClient(f.ls.url, 1)
	for s := 0; s < ingestSessions; s++ {
		sid := fmt.Sprintf("i%d", s)
		if err := f.cl.openSession(ctx, sid); err != nil {
			return nil, err
		}
		f.sids = append(f.sids, sid)
	}
	return f, nil
}

// op applies op i's batch and checks the ack.
func (f *ingestFixture) op(ctx context.Context, i int) error {
	got, err := f.cl.apply(ctx, f.sids[f.sess[i]], f.lines[i])
	if err != nil {
		return err
	}
	f.acked[i] = true
	if got != f.atoms[i] {
		return wrongf("apply: ack says %d inserted, batch carried %d new atoms", got, f.atoms[i])
	}
	return nil
}

func (f *ingestFixture) run(ctx context.Context, e *env, o *outcome) error {
	n := len(f.lines)
	f.acked = make([]bool, n)
	lat, elapsed := closedLoop(ctx, e.gate, 1, n, timedDeadline(e), &o.t, f.op)
	o.setHeap()
	o.set("ops_s", float64(len(lat))/elapsed.Seconds(), "1/s")
	if err := o.setLatency(lat); err != nil {
		return err
	}
	var input int64
	for i, ok := range f.acked {
		if ok {
			input += int64(len(f.lines[i]))
		}
	}
	disk, err := dirBytes(f.cfg.DataDir)
	if err != nil {
		return err
	}
	o.notes["loop"] = "closed, 1 writer"
	o.notes["ops"] = n
	o.notes["disk_bytes_per_input_byte"] = float64(disk) / float64(input)
	o.notes["data_dir_bytes"] = disk
	o.notes["ndjson_bytes_acked"] = input
	if err := f.checkRecovery(ctx); err != nil {
		o.checksOK = false
		o.notes["recovery_check"] = err.Error()
	} else {
		o.notes["recovery_check"] = "ok"
	}
	return nil
}

// checkRecovery stops the server without closing its sessions, starts
// a new one on the same data dir and checks that every acknowledged
// batch is there: the raw and clean Measurements counts of each
// session.
func (f *ingestFixture) checkRecovery(ctx context.Context) error {
	raw := make([]int, len(f.sids))
	clean := make([]int, len(f.sids))
	for s := range f.sids {
		raw[s], clean[s] = f.wl.Base.Total, f.wl.Base.ExpectedClean
	}
	for i, ok := range f.acked {
		if ok {
			_, c := f.wl.Tick(i)
			raw[f.sess[i]] += f.wl.TickMeasurements()
			clean[f.sess[i]] += c
		}
	}
	f.cl.close()
	if err := f.ls.stop(); err != nil {
		return err
	}
	ls, err := startServer(ctx, f.wl, f.cfg)
	if err != nil {
		return fmt.Errorf("restart: %w", err)
	}
	defer func() {
		_ = ls.stop()
		_ = ls.srv.Close()
	}()
	cl := newClient(ls.url, 1)
	defer cl.close()
	for s, sid := range f.sids {
		for _, c := range []struct {
			mode string
			want int
		}{{"raw", raw[s]}, {"clean", clean[s]}} {
			got, err := cl.answers(ctx, answerPath(sid, measurementsQuery, c.mode, -1))
			if err != nil {
				return fmt.Errorf("after restart: %w", err)
			}
			if got != c.want {
				return fmt.Errorf("after restart: session %s has %d %s measurements, want %d", sid, got, c.mode, c.want)
			}
		}
	}
	return nil
}

func (f *ingestFixture) close() {
	f.cl.close()
	_ = f.ls.stop()
	_ = f.ls.srv.Close()
	_ = os.RemoveAll(f.cfg.DataDir)
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}

// ---- dashboard ----

type dashKind int

const (
	dashAnswers    dashKind = iota // clean Measurements answers, live
	dashAssessment                 // GET .../assessment
	dashAsOf                       // clean Measurements answers at a retained version
)

func (k dashKind) String() string { return [...]string{"answers", "assessment", "as_of"}[k] }

type dashOp struct {
	kind    dashKind
	sess    int
	version int // dashAsOf only
}

// dashMix is one round of the dashboard's op stream: 55% live answers,
// 25% assessments, 20% as-of answers. Every round holds exactly this
// mix, in an order the seed shuffles, so the mix a run measures does
// not depend on the seed.
var dashMix = []dashKind{
	dashAnswers, dashAnswers, dashAnswers, dashAnswers, dashAnswers, dashAnswers,
	dashAnswers, dashAnswers, dashAnswers, dashAnswers, dashAnswers,
	dashAssessment, dashAssessment, dashAssessment, dashAssessment, dashAssessment,
	dashAsOf, dashAsOf, dashAsOf, dashAsOf,
}

// dashOps is the seed's op stream, n rounds of dashMix; the loops cycle
// through it.
func dashOps(seed int64, rounds int) []dashOp {
	rng := rand.New(rand.NewSource(seed))
	var ops []dashOp
	for r := 0; r < rounds; r++ {
		for _, j := range rng.Perm(len(dashMix)) {
			op := dashOp{kind: dashMix[j], sess: rng.Intn(dashSessions), version: -1}
			if op.kind == dashAsOf {
				op.version = rng.Intn(dashSeedTicks + 1)
			}
			ops = append(ops, op)
		}
	}
	return ops
}

type dashFixture struct {
	ls   *liveServer
	cl   *client
	sids []string
	// clean[s][v] is session s's clean Measurements count at version v.
	clean [][]int
	ops   []dashOp
}

func setupDashboard(ctx context.Context, e *env) (fixture, error) {
	wl, err := gen.NewStreamingWorkload(streamSpec(e.seed))
	if err != nil {
		return nil, err
	}
	f := &dashFixture{ops: dashOps(e.seed, 256)}
	if f.ls, err = startServer(ctx, wl, server.Config{}); err != nil {
		return nil, err
	}
	f.cl = newClient(f.ls.url, dashClients)
	// Session s gets ticks s*dashSeedTicks.., each a new version.
	for s := 0; s < dashSessions; s++ {
		sid := fmt.Sprintf("d%d", s)
		if err := f.cl.openSession(ctx, sid); err != nil {
			return nil, err
		}
		f.sids = append(f.sids, sid)
		clean := []int{wl.Base.ExpectedClean}
		for k := 0; k < dashSeedTicks; k++ {
			atoms, c := wl.Tick(s*dashSeedTicks + k)
			line, err := applyLine(atoms)
			if err != nil {
				return nil, err
			}
			if got, err := f.cl.apply(ctx, sid, line); err != nil || got != len(atoms) {
				return nil, fmt.Errorf("seeding %s: %d of %d atoms inserted: %v", sid, got, len(atoms), err)
			}
			clean = append(clean, clean[k]+c)
		}
		f.clean = append(f.clean, clean)
	}
	return f, nil
}

func (f *dashFixture) op(ctx context.Context, i int) error {
	op := f.ops[i%len(f.ops)]
	sid := f.sids[op.sess]
	latest := f.clean[op.sess][dashSeedTicks]
	var got, want int
	var err error
	switch op.kind {
	case dashAnswers:
		got, err = f.cl.answers(ctx, answerPath(sid, measurementsQuery, "clean", -1))
		want = latest
	case dashAssessment:
		got, err = f.cl.assessment(ctx, sid)
		want = latest
	case dashAsOf:
		got, err = f.cl.answers(ctx, answerPath(sid, measurementsQuery, "clean", op.version))
		want = f.clean[op.sess][op.version]
	}
	if err != nil {
		return err
	}
	if got != want {
		return wrongf("dashboard %s on %s: %d clean rows, want %d", op.kind, sid, got, want)
	}
	return nil
}

// gcCycles reads the number of completed GC cycles.
func gcCycles() uint32 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.NumGC
}

func (f *dashFixture) run(ctx context.Context, e *env, o *outcome) error {
	do := f.op // op i of the stream; each loop continues where the last stopped
	warm, open, closed := phaseSplit(e.seconds)
	// Warm-up: both connections open, every query shape planned and
	// cached, and a GC cycle completed under the read mix.
	gc0 := gcCycles()
	next := 0
	warmStop := time.Now().Add(3 * warm)
	for t0 := time.Now(); time.Since(t0) < warm || (gcCycles() == gc0 && time.Now().Before(warmStop)); {
		next += int(closedLoopFor(ctx, dashClients, warm/4, &o.t, func(ctx context.Context, i int) error { return do(ctx, next+i) }))
	}
	o.notes["warmup_ops"] = o.t.attempted.Load()
	o.notes["warmup_gc_cycles"] = gcCycles() - gc0

	// Each loop starts right after a collection, so the number of GC
	// cycles inside it depends on what the reads allocate, not on where
	// the warm-up left the collector.
	runtime.GC()
	// The open loop is one schedule, so it always holds the collections
	// its reads cause. p50_ms and tail_ms come from the reads during
	// which the host stole no CPU time (see stealTrace); the tail
	// percentile is fixed by the number of reads offered.
	n := int(dashRate * open.Seconds())
	pm, ok := tailPermille(n)
	if !ok {
		return fmt.Errorf("open loop of %d reads: too few for a tail percentile", n)
	}
	st := startStealTrace(machineSteal)
	ops := openLoop(ctx, dashRate, n, dashClients, dashRate, func(ctx context.Context, i int) error { return do(ctx, next+i) })
	st.close()
	var all, lat latencies
	var late load.Histogram
	byKind := map[dashKind]*load.Histogram{dashAnswers: {}, dashAssessment: {}, dashAsOf: {}}
	dropped, stolen := 0, 0
	for i, op := range ops {
		if op.Dropped {
			dropped++
			op.Err = errors.New("open loop: dropped")
		}
		o.t.record(op.Err)
		if op.Dropped {
			continue
		}
		late.Observe(op.Lateness())
		if op.Err != nil {
			continue
		}
		all = append(all, op.Latency())
		if st.stolen(op.Due, op.Done) {
			stolen++
			continue
		}
		lat = append(lat, op.Latency())
		byKind[f.ops[(next+i)%len(f.ops)].kind].Observe(op.Latency())
	}
	kinds := map[string]load.Summary{}
	for k, h := range byKind {
		kinds[k.String()] = h.Summarize()
	}
	o.notes["open_loop_by_kind"] = kinds
	// Should the host steal from nearly every read, the metrics fall
	// back to all completed reads, and the notes say so.
	s, err := lat.summarizeAt(pm)
	if err != nil {
		if s, err = all.summarizeAt(pm); err != nil {
			return err
		}
	}
	o.setSummary(s)
	sorted := all.sorted()
	o.notes["open_loop"] = map[string]any{
		"rate_per_s": dashRate, "clients": dashClients, "ops": n, "dropped": dropped,
		"lateness": late.Summarize(), "stolen": stolen, "stolen_excluded": s.N == len(lat),
		"with_stolen": map[string]float64{"p50_ms": ms(quantile(sorted, 500)), "tail_ms": ms(quantile(sorted, pm))},
	}

	runtime.GC()
	type block struct {
		done int64
		busy time.Duration
	}
	var done int64
	var busy time.Duration
	for busy < closed {
		base := next + n + int(done)
		r := quietly(ctx, e.gate, func() block {
			t0 := time.Now()
			d := closedLoopFor(ctx, dashClosedClients, closed/10, &o.t, func(ctx context.Context, i int) error { return do(ctx, base+i) })
			return block{d, time.Since(t0)}
		})
		done += r.done
		busy += r.busy
	}
	o.set("ops_s", float64(done)/busy.Seconds(), "1/s")
	o.notes["closed_loop"] = map[string]any{"clients": dashClosedClients, "ops": done}
	o.setHeap()
	return nil
}

// phaseSplit divides the dashboard's --seconds between warm-up, the
// open loop (p50_ms, tail_ms) and the closed loop (ops_s).
func phaseSplit(seconds int) (warm, open, closed time.Duration) {
	total := time.Duration(seconds) * time.Second
	return total / 10, total * 55 / 100, total * 35 / 100
}

func (f *dashFixture) close() {
	f.cl.close()
	_ = f.ls.stop()
}
