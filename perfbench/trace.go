package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strings"
	"time"
)

// The traced replay times each layer from outside, by calling the
// layer's exported functions around every op of a sample. An op is
// driven at increasing depths, each a separate execution on identical
// state: over HTTP (depth 1), through the mdqa calls the handler makes
// (depth 2), and through a pipeline of engine calls (depth 3) and the
// chase, eval and storage calls the engine makes (depth 4). A span's
// self time is its duration minus its children's: the spans of the same
// op one depth deeper that name it as their parent.

// span is one timed call.
type span struct {
	Workload string `json:"workload"`
	Op       int    `json:"op"`
	Depth    int    `json:"depth"`
	Layer    string `json:"layer"`
	Call     string `json:"call"`
	Parent   string `json:"parent,omitempty"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
	Alloc    uint64 `json:"alloc_bytes"`
}

func (s span) dur() int64 { return s.EndNs - s.StartNs }

// tracer keeps spans in memory until the replay ends.
type tracer struct {
	t0       time.Time
	spans    []span
	allocs   []metrics.Sample
	workload string
	op       int
	// gc collects garbage before each depth's execution of an op, so
	// that no depth pays for another's allocations. It is set for the
	// workloads whose ops allocate tens of megabytes; a dashboard read
	// allocates about one, and a forced collection of its sessions
	// would cost more than the op.
	gc bool
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), allocs: []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}}
}

// allocated reads the process's cumulative heap allocation. The
// runtime counts small objects per span of its allocator, so a reading
// can lag by a few allocator spans: alloc figures below about a
// megabyte are coarse.
func (tr *tracer) allocated() uint64 {
	metrics.Read(tr.allocs)
	return tr.allocs[0].Value.Uint64()
}

// time runs f as one span of the current op. call is "<layer>.<name>";
// parent is the call one depth up that f is part of.
func (tr *tracer) time(depth int, call, parent string, f func() error) error {
	a0 := tr.allocated()
	start := time.Now()
	err := f()
	end := time.Now()
	a1 := tr.allocated()
	layer, _, _ := strings.Cut(call, ".")
	tr.spans = append(tr.spans, span{
		Workload: tr.workload, Op: tr.op, Depth: depth, Layer: layer, Call: call, Parent: parent,
		StartNs: start.Sub(tr.t0).Nanoseconds(), EndNs: end.Sub(tr.t0).Nanoseconds(), Alloc: a1 - a0,
	})
	if err != nil {
		return fmt.Errorf("%s: %w", call, err)
	}
	return nil
}

// selfTimes returns each span's duration minus the durations of its
// children, index for index.
func selfTimes(spans []span) []int64 {
	type key struct {
		workload string
		op       int
		depth    int
		call     string
	}
	children := map[key]int64{}
	for _, s := range spans {
		if s.Parent != "" {
			children[key{s.Workload, s.Op, s.Depth - 1, s.Parent}] += s.dur()
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		out[i] = s.dur() - children[key{s.Workload, s.Op, s.Depth, s.Call}]
	}
	return out
}

// callStats aggregates one call's spans over the sampled ops.
type callStats struct {
	n         int
	dur, self int64
	alloc     uint64
}

// layerReport turns one workload's spans into its per-layer metrics.
type layerReport struct {
	workload string
	calls    map[string]*callStats
	httpDur  int64
	// outside is the time of the HTTP ops' children in other layers
	// than the server's.
	outside  int64
	coverage int64 // sum over spans of max(0, self)
	ops      int
}

func newLayerReport(workload string, spans []span) *layerReport {
	r := &layerReport{workload: workload, calls: map[string]*callStats{}}
	self := selfTimes(spans)
	ops := map[int]bool{}
	for i, s := range spans {
		if s.Workload != workload {
			continue
		}
		ops[s.Op] = true
		cs := r.calls[s.Call]
		if cs == nil {
			cs = &callStats{}
			r.calls[s.Call] = cs
		}
		cs.n++
		cs.dur += s.dur()
		cs.self += self[i]
		cs.alloc += s.Alloc
		if self[i] > 0 {
			r.coverage += self[i]
		}
		if s.Depth == 1 {
			r.httpDur += s.dur()
		}
		if s.Depth == 2 && s.Layer != "server" {
			r.outside += s.dur()
		}
	}
	r.ops = len(ops)
	return r
}

// put records the mean duration and allocation of a call, as
// <workload>.<call>_<unit> and <workload>.<call>_alloc_mb; self uses
// the mean self time instead.
func (r *layerReport) put(o *outcome, call, unit string, self bool) {
	cs := r.calls[call]
	if cs == nil {
		o.notes[r.workload+"."+call] = "no span: the sampled ops never made this call"
		return
	}
	div := map[string]float64{"ms": 1e6, "us": 1e3}[unit]
	v, name := cs.dur, call
	if self {
		v, name = cs.self, call+"_self"
	}
	o.set(r.workload+"."+name+"_"+unit, float64(v)/float64(cs.n)/div, unit)
	o.set(r.workload+"."+call+"_alloc_mb", float64(cs.alloc)/float64(cs.n)/1e6, "MB")
}

// putCommon records what every workload reports: the server's own time
// (the HTTP op minus the mdqa and lower calls the handler makes), its
// socket writes, the coverage and the tracing overhead.
func (r *layerReport) putCommon(o *outcome, writes, bytes int64, traced, untraced latencies) error {
	h := r.calls["server.http"]
	if h == nil {
		return fmt.Errorf("no HTTP op completed")
	}
	o.set(r.workload+".server.self_ms", float64(h.dur-r.outside)/float64(h.n)/1e6, "ms")
	o.set(r.workload+".server.writes_per_op", float64(writes)/float64(h.n), "count")
	o.set(r.workload+".server.resp_kb_per_op", float64(bytes)/float64(h.n)/1e3, "KB")
	o.set(r.workload+".trace.coverage", float64(r.coverage)/float64(r.httpDur), "ratio")
	if len(traced) == 0 {
		return fmt.Errorf("no traced op completed")
	}
	t, u := traced.median(), untraced.median()
	o.set(r.workload+".trace.overhead", float64(t)/float64(u), "ratio")
	o.notes[r.workload+".traced_ops"] = r.ops
	o.notes[r.workload+".http_p50_ms"] = map[string]float64{"traced": ms(t), "untraced": ms(u)}
	return nil
}

// replay is one workload's traced replay.
type replay interface {
	// op drives sampled op i at every depth, on tracer tr; it returns
	// the untraced HTTP latency of an identical op.
	op(ctx context.Context, tr *tracer, i int) (time.Duration, error)
	// report adds the workload's per-layer metrics.
	report(o *outcome, r *layerReport) error
	ln() *countingListener
	close()
}

// runTrace replays a sample of every workload's ops, so that every
// per-layer metric is measured on the workload whose layers do the
// work, and writes the spans to spansPath as NDJSON.
func runTrace(ctx context.Context, e *env, spansPath string) (*outcome, error) {
	o := newOutcome()
	tr := newTracer()
	budget := time.Duration(e.seconds) * time.Second / 3
	for _, w := range []struct {
		name     string
		setup    func(context.Context, *env) (replay, error)
		min, max int
		gc       bool
	}{
		{"cold_assess", setupColdReplay, 3, 40, true},
		{"ingest", setupIngestReplay, 8, 40, true},
		{"dashboard", setupDashReplay, 60, 1000, false},
	} {
		rp, err := w.setup(ctx, e)
		if err != nil {
			return nil, fmt.Errorf("%s replay setup: %w", w.name, err)
		}
		tr.workload, tr.gc = w.name, w.gc
		var traced, untraced latencies
		var writes, bytes int64
		stop := time.Now().Add(budget)
		for i := 0; i < w.max && (i < w.min || time.Now().Before(stop)); i++ {
			e.gate.wait(ctx)
			tr.op = i
			first := len(tr.spans)
			w0, b0 := rp.ln().writes.Load(), rp.ln().bytes.Load()
			u, err := rp.op(ctx, tr, i)
			o.t.record(err)
			if err != nil {
				continue
			}
			// The depth-1 span is the op's first; the listener counts
			// only its writes because nothing else talks to the server
			// while the op runs.
			traced = append(traced, time.Duration(tr.spans[first].dur()))
			untraced = append(untraced, u)
			writes += rp.ln().writes.Load() - w0
			bytes += rp.ln().bytes.Load() - b0
		}
		r := newLayerReport(w.name, tr.spans)
		err = r.putCommon(o, writes, bytes, traced, untraced)
		if err == nil {
			err = rp.report(o, r)
		}
		rp.close()
		if err != nil {
			return nil, fmt.Errorf("%s replay: %w", w.name, err)
		}
	}
	if err := writeSpans(spansPath, tr.spans); err != nil {
		return nil, err
	}
	o.notes["spans"] = spansPath
	return o, nil
}

// gcThen runs one depth's execution of an op, after a collection when
// tr.gc is set.
func (tr *tracer) gcThen(f func() error) error {
	if tr.gc {
		runtime.GC()
	}
	return f()
}

// httpPair runs an op over HTTP twice on identical state: untraced,
// and traced as the op's depth-1 span. The order alternates with the
// op index so that neither run always follows the other. It returns the
// untraced latency.
func httpPair(tr *tracer, i int, untraced, traced func() error) (time.Duration, error) {
	var d time.Duration
	runU := func() error {
		return tr.gcThen(func() error {
			t0 := time.Now()
			err := untraced()
			d = time.Since(t0)
			return err
		})
	}
	runT := func() error { return tr.gcThen(func() error { return tr.time(1, "server.http", "", traced) }) }
	first, second := runU, runT
	if i%2 == 1 {
		first, second = runT, runU
	}
	if err := first(); err != nil {
		return 0, err
	}
	return d, second()
}

func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
