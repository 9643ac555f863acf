package server

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/mdqa"
)

// metrics aggregates per-context serving counters and request
// latencies. One mutex guards everything: the hot paths (an assess, an
// apply batch, an answers stream) each take it once per request, so
// contention stays negligible next to the engine work they account.
type metrics struct {
	mu       sync.Mutex
	names    []string // context names, sorted
	contexts map[string]*contextMetrics
	// walFsyncs counts fsyncs across the whole store (the WAL layer
	// reports them per sync mode, not per context), fed lock-free from
	// the wal.Options.OnSync hook on the append path.
	walFsyncs atomic.Int64
	// recoveryNanos is the startup recovery wall time (snapshot decode
	// + WAL replay across every persisted session); 0 until a durable
	// server finishes recovery.
	recoveryNanos atomic.Int64
}

// ops is the fixed latency class vocabulary, in render order.
// wal_append histograms stay empty on ephemeral servers, and refresh
// histograms on contexts without sources; an empty histogram renders
// nothing.
var ops = [...]string{"assess", "apply", "answers", "refresh", "wal_append"}

// fsynced is the wal.Options.OnSync hook.
func (m *metrics) fsynced() { m.walFsyncs.Add(1) }

// setRecovery records the startup recovery duration.
func (m *metrics) setRecovery(d time.Duration) { m.recoveryNanos.Store(int64(d)) }

// contextMetrics is the per-context slice of the counters.
type contextMetrics struct {
	// lc is the served context. Its ad-hoc query plan cache and, with
	// live sources, its source resolver keep their own counters and
	// fetch-latency histogram, read here at scrape time.
	lc *loadedContext

	assessTotal   int64 // one-shot + session assessments served
	applyTotal    int64 // apply batches absorbed
	answersTotal  int64 // answer tuples streamed
	sessionsTotal int64 // sessions ever opened
	sessionsOpen  int64 // sessions currently registered
	errorsTotal   int64 // requests answered with an error body
	chaseRounds   int64 // cumulative chase rounds across all sessions
	replans       int64 // session re-plans after stat drift (engine)

	// Source-refresh counters; all stay zero on contexts without live
	// sources (and are rendered only for sourced contexts).
	refreshesTotal  int64 // Session.Refresh calls served (HTTP + loop)
	refreshRebuilds int64 // refreshes that fell back to a rebuild
	refreshErrors   int64 // refreshes failed (source unavailable, ...)

	// Durability counters; all stay zero on ephemeral servers.
	walAppends        int64 // changes appended to WALs (commit)
	snapshotsWritten  int64 // snapshots written (writeSnapshot)
	sessionsEvicted   int64 // sessions snapshotted out under MaxResident
	sessionsRevived   int64 // evicted sessions transparently reloaded
	sessionsRecovered int64 // sessions restored from disk at startup
	asofReconstructs  int64 // as-of reads served by disk reconstruction

	// latency holds one histogram per ops entry, allocated on the op's
	// first observation.
	latency [len(ops)]*obs.Histogram
}

// newMetrics builds the counters of the served contexts; names lists
// them sorted.
func newMetrics(names []string, contexts map[string]*loadedContext) *metrics {
	m := &metrics{names: names, contexts: make(map[string]*contextMetrics, len(names))}
	for _, name := range names {
		m.contexts[name] = &contextMetrics{lc: contexts[name]}
	}
	return m
}

// with runs fn on the named context's counters under the lock;
// unknown names (races with nothing — context set is fixed at startup)
// are ignored.
func (m *metrics) with(context string, fn func(*contextMetrics)) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if cm, ok := m.contexts[context]; ok {
		fn(cm)
	}
}

// observe records one request latency in the op's histogram.
func (m *metrics) observe(context, op string, d time.Duration) {
	m.with(context, func(cm *contextMetrics) {
		for i, name := range ops {
			if name == op {
				if cm.latency[i] == nil {
					cm.latency[i] = new(obs.Histogram)
				}
				cm.latency[i].Observe(d)
			}
		}
	})
}

// render writes the Prometheus text exposition: counters first, then
// gauges, then the latency histograms, contexts and ops in fixed sorted
// order so scrapes are stable.
func (m *metrics) render(w *obs.Writer) {
	m.mu.Lock()
	defer m.mu.Unlock()
	names := m.names
	counter := func(metric string, over []string, pick func(*contextMetrics) int64) {
		for _, name := range over {
			w.Counter(metric, pick(m.contexts[name]), "context", name)
		}
	}
	counter("mdserve_assess_total", names, func(c *contextMetrics) int64 { return c.assessTotal })
	counter("mdserve_apply_batches_total", names, func(c *contextMetrics) int64 { return c.applyTotal })
	counter("mdserve_answers_streamed_total", names, func(c *contextMetrics) int64 { return c.answersTotal })
	counter("mdserve_sessions_opened_total", names, func(c *contextMetrics) int64 { return c.sessionsTotal })
	counter("mdserve_errors_total", names, func(c *contextMetrics) int64 { return c.errorsTotal })
	counter("mdserve_chase_rounds_total", names, func(c *contextMetrics) int64 { return c.chaseRounds })
	counter("mdserve_wal_appends_total", names, func(c *contextMetrics) int64 { return c.walAppends })
	counter("mdserve_snapshots_written_total", names, func(c *contextMetrics) int64 { return c.snapshotsWritten })
	counter("mdserve_sessions_evicted_total", names, func(c *contextMetrics) int64 { return c.sessionsEvicted })
	counter("mdserve_sessions_revived_total", names, func(c *contextMetrics) int64 { return c.sessionsRevived })
	counter("mdserve_sessions_recovered_total", names, func(c *contextMetrics) int64 { return c.sessionsRecovered })
	counter("mdserve_asof_reconstructs_total", names, func(c *contextMetrics) int64 { return c.asofReconstructs })
	counter("mdserve_replans_total", names, func(c *contextMetrics) int64 { return c.replans })
	for i, metric := range []string{"mdserve_plan_cache_hits_total", "mdserve_plan_cache_misses_total", "mdserve_plan_cache_evictions_total"} {
		for _, name := range names {
			var stats [3]int64 // hits, misses, evictions
			stats[0], stats[1], stats[2] = m.contexts[name].lc.cache.Stats()
			w.Counter(metric, stats[i], "context", name)
		}
	}
	// Source-federation metrics cover contexts with live source
	// bindings only: scrape output of sourceless deployments is
	// byte-identical to the pre-federation format.
	var sourced []string
	for _, name := range names {
		if m.contexts[name].lc.sourced() {
			sourced = append(sourced, name)
		}
	}
	counter("mdserve_refreshes_total", sourced, func(c *contextMetrics) int64 { return c.refreshesTotal })
	counter("mdserve_refresh_rebuilds_total", sourced, func(c *contextMetrics) int64 { return c.refreshRebuilds })
	counter("mdserve_refresh_errors_total", sourced, func(c *contextMetrics) int64 { return c.refreshErrors })
	for _, sc := range []struct {
		metric string
		pick   func(mdqa.SourceStats) int64
	}{
		{"mdserve_source_fetches_total", func(st mdqa.SourceStats) int64 { return st.Fetches }},
		{"mdserve_source_fetch_errors_total", func(st mdqa.SourceStats) int64 { return st.Errors }},
		{"mdserve_source_cache_hits_total", func(st mdqa.SourceStats) int64 { return st.CacheHits }},
		{"mdserve_source_stale_served_total", func(st mdqa.SourceStats) int64 { return st.StaleServed }},
	} {
		for _, name := range sourced {
			qc := m.contexts[name].lc.qc
			stats := qc.SourceStatsByName()
			for _, src := range qc.SourceNames() {
				w.Counter(sc.metric, sc.pick(stats[src]), "context", name, "source", src)
			}
		}
	}
	for _, name := range sourced {
		w.Histogram("mdserve_source_fetch_latency_seconds", m.contexts[name].lc.qc.SourceFetchLatency(), "context", name)
	}
	w.Counter("mdserve_wal_fsyncs_total", m.walFsyncs.Load())
	w.GaugeSeconds("mdserve_recovery_seconds", time.Duration(m.recoveryNanos.Load()))
	for _, name := range names {
		w.Gauge("mdserve_sessions_open", m.contexts[name].sessionsOpen, "context", name)
	}
	for _, name := range names {
		for i, op := range ops {
			w.Histogram("mdserve_request_latency_seconds", m.contexts[name].latency[i], "context", name, "op", op)
		}
	}
}
