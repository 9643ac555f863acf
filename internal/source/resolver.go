package source

import (
	"context"
	"errors"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/qerr"
	"repro/internal/storage"
)

// Binding attaches one Source to a quality context under a name, with
// the caching policy the context's sessions share.
type Binding struct {
	// Name identifies the binding in metrics and errors; unique per
	// context.
	Name string
	Src  Source
	// TTL is how long a fetched snapshot stays fresh: within the TTL,
	// Get serves the cache without consulting the source at all. 0
	// revalidates on every Get (connectors still short-circuit via
	// version tokens, so revalidation is cheap).
	TTL time.Duration
	// AllowStale serves the last good snapshot when a fetch fails,
	// instead of failing with qerr.ErrSourceUnavailable — the opt-in
	// degradation mode for sources that flap.
	AllowStale bool
}

// Snapshot is one materialized fetch: a frozen-by-convention instance
// (never mutated after construction — sessions diff and merge it, both
// read-only) plus the version it corresponds to.
type Snapshot struct {
	Inst    *storage.Instance
	Version string
	Fetched time.Time
}

// Stats counts one binding's resolver activity since construction.
type Stats struct {
	Fetches     int64 // connector Fetch calls, including revalidations
	Errors      int64 // failed Fetch calls
	CacheHits   int64 // Gets served inside the TTL without fetching
	StaleServed int64 // failed fetches degraded to the cached snapshot
}

// Resolver is the per-context source cache: one entry per binding,
// TTL-based freshness, and blocking singleflight — concurrent sessions
// resolving the same binding share one in-flight fetch instead of
// stampeding the upstream.
type Resolver struct {
	bindings []Binding
	entries  map[string]*entry
	now      func() time.Time // injected by TTL tests

	mu      sync.Mutex
	stats   map[string]*Stats
	latency obs.Histogram // every fetch's duration, all bindings
}

type entry struct {
	mu   sync.Mutex // blocking singleflight: one fetch per binding at a time
	snap *Snapshot
}

// NewResolver builds a resolver over the bindings. Binding validation
// (unique names, unique relations) is the caller's job — the quality
// layer rejects bad configs before a resolver exists.
func NewResolver(bindings []Binding) *Resolver {
	r := &Resolver{
		bindings: append([]Binding(nil), bindings...),
		entries:  make(map[string]*entry, len(bindings)),
		stats:    make(map[string]*Stats, len(bindings)),
		now:      time.Now,
	}
	for _, b := range r.bindings {
		r.entries[b.Name] = &entry{}
		r.stats[b.Name] = &Stats{}
	}
	return r
}

// Get resolves one binding, serving the cached snapshot when it is
// inside its TTL and fetching (with version revalidation) otherwise.
// Concurrent Gets of one binding serialize on the entry lock, so a
// burst of cold sessions triggers exactly one upstream fetch.
func (r *Resolver) Get(ctx context.Context, name string) (*Snapshot, error) {
	return r.resolve(ctx, name, false)
}

// Refresh revalidates one binding regardless of TTL — the
// Session.Refresh path, which wants "is there anything new right now".
func (r *Resolver) Refresh(ctx context.Context, name string) (*Snapshot, error) {
	return r.resolve(ctx, name, true)
}

func (r *Resolver) resolve(ctx context.Context, name string, force bool) (*Snapshot, error) {
	b, e := r.binding(name)
	if e == nil {
		return nil, &qerr.SourceUnavailableError{Source: name, Err: errors.New("no such source binding")}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if !force && e.snap != nil && b.TTL > 0 && r.now().Sub(e.snap.Fetched) < b.TTL {
		r.count(name, func(s *Stats) { s.CacheHits++ })
		return e.snap, nil
	}
	prev := ""
	if e.snap != nil {
		prev = e.snap.Version
	}
	start := r.now()
	res, err := b.Src.Fetch(ctx, prev)
	took := r.now().Sub(start)
	r.count(name, func(s *Stats) {
		s.Fetches++
		if err != nil {
			s.Errors++
		}
		r.latency.Observe(took)
	})
	if err != nil {
		if b.AllowStale && e.snap != nil {
			r.count(name, func(s *Stats) { s.StaleServed++ })
			return e.snap, nil
		}
		return nil, &qerr.SourceUnavailableError{Source: name, Err: err}
	}
	if res.Unchanged && e.snap != nil {
		e.snap = &Snapshot{Inst: e.snap.Inst, Version: e.snap.Version, Fetched: r.now()}
		return e.snap, nil
	}
	inst, err := res.Instance(b.Src.Schema())
	if err != nil {
		return nil, &qerr.SourceUnavailableError{Source: name, Err: err}
	}
	e.snap = &Snapshot{Inst: inst, Version: res.Version, Fetched: r.now()}
	return e.snap, nil
}

func (r *Resolver) binding(name string) (Binding, *entry) {
	for _, b := range r.bindings {
		if b.Name == name {
			return b, r.entries[name]
		}
	}
	return Binding{}, nil
}

// count runs f on the binding's counters under the resolver lock, which
// also guards the fetch-latency histogram.
func (r *Resolver) count(name string, f func(*Stats)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if s := r.stats[name]; s != nil {
		f(s)
	}
}

// Stats returns a copy of every binding's counters, keyed by binding
// name. Serving layers pull it at metrics-scrape time.
func (r *Resolver) Stats() map[string]Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]Stats, len(r.stats))
	for name, s := range r.stats {
		out[name] = *s
	}
	return out
}

// FetchLatency returns a copy of the histogram of every fetch's
// duration since construction.
func (r *Resolver) FetchLatency() *obs.Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.latency
	return &h
}
