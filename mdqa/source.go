package mdqa

import (
	"context"
	"database/sql"
	"net/http"
	"time"

	"repro/internal/obs"
	"repro/internal/quality"
	"repro/internal/source"
)

// Live external sources: the paper's E_i as pluggable connectors
// instead of pre-materialized instances. A Source is bound to a
// context with WithSource; sessions resolve every binding when they
// open (TTL-cached and singleflighted across sessions) and re-poll via
// Session.Refresh, feeding tuple-level changes through the incremental
// chase.

// Source is a pluggable external data source: it declares the
// contextual relation it feeds and fetches that relation's current
// tuples with an opaque version token for cheap revalidation.
type Source = source.Source

// SourceSchema declares the relation a source feeds; Attrs is
// optional (payload-derived or synthetic names apply when empty), but
// required to order the fields of NDJSON object rows.
type SourceSchema = source.Schema

// SourceResult is one fetch outcome: the relation's full current
// extension, or Unchanged when the upstream proved it still matches
// the previous version.
type SourceResult = source.Result

// SourceStats counts one binding's resolver activity: fetches
// (including revalidations), errors, TTL cache hits and stale serves.
type SourceStats = source.Stats

// Histogram is a mergeable log-linear latency histogram: counts per
// bucket of about 3% relative width, plus the exact count, sum, min
// and max.
type Histogram = obs.Histogram

// SourceOption tunes one source binding.
type SourceOption func(*source.Binding)

// SourceTTL sets how long a fetched snapshot stays fresh: within the
// TTL, opening a session serves the cached snapshot without consulting
// the source. The default (0) revalidates on every resolve —
// connectors still short-circuit via version tokens (file mtime, HTTP
// If-None-Match), so revalidation is cheap.
func SourceTTL(ttl time.Duration) SourceOption {
	return func(b *source.Binding) { b.TTL = ttl }
}

// SourceAllowStale opts the binding into degraded serving: when a
// fetch fails but a previously fetched snapshot exists, the stale
// snapshot is served instead of failing with ErrSourceUnavailable.
func SourceAllowStale() SourceOption {
	return func(b *source.Binding) { b.AllowStale = true }
}

// WithSource binds a live external source to the context under a name
// (used in metrics and errors; unique per context, as is the relation
// the source feeds). Unlike WithExternalSource, the tuples are not
// baked into the compiled context: each session resolves the source
// when it opens and can re-poll it with Session.Refresh.
func WithSource(name string, src Source, opts ...SourceOption) Option {
	return func(cfg *quality.Config) {
		b := source.Binding{Name: name, Src: src}
		for _, o := range opts {
			o(&b)
		}
		cfg.Sources = append(cfg.Sources, b)
	}
}

// NewFileSource reads a relation from a CSV or NDJSON/JSON file
// (format by extension), with mtime-based change detection. CSV's
// first record is a header naming the attributes unless the schema
// declares them.
func NewFileSource(path string, schema SourceSchema) Source {
	return source.NewFile(path, schema)
}

// HTTPSourceOption tunes an HTTP source.
type HTTPSourceOption = source.HTTPOption

// HTTPSourceClient substitutes the http.Client used by an HTTP
// source.
func HTTPSourceClient(c *http.Client) HTTPSourceOption { return source.WithClient(c) }

// HTTPSourceRetries sets how many times a transient failure (5xx,
// 429, connection error) is retried with exponential backoff.
func HTTPSourceRetries(n int) HTTPSourceOption { return source.WithRetries(n) }

// HTTPSourceBackoff sets the initial retry backoff, doubled per
// attempt.
func HTTPSourceBackoff(d time.Duration) HTTPSourceOption { return source.WithBackoff(d) }

// NewHTTPSource reads a relation from an HTTP endpoint serving JSON
// or NDJSON rows, revalidating with ETag/If-None-Match when the
// server provides ETags and falling back to body hashing otherwise.
func NewHTTPSource(url string, schema SourceSchema, opts ...HTTPSourceOption) Source {
	return source.NewHTTP(url, schema, opts...)
}

// SQLSourceOption tunes a SQL source.
type SQLSourceOption = source.SQLOption

// SQLSourcePlaceholder sets the positional placeholder syntax the
// driver expects (default "?"; Postgres drivers pass func(i) = "$i").
func SQLSourcePlaceholder(f func(i int) string) SQLSourceOption {
	return source.WithPlaceholder(f)
}

// NewSQLSource reads a relation from a parameterized query over a
// database/sql handle: ":name" parameters are substituted for the
// driver's positional placeholders and resolved against params up
// front. The binary ships no drivers — callers register their own and
// wire the source programmatically.
func NewSQLSource(db *sql.DB, query string, params map[string]any, schema SourceSchema, opts ...SQLSourceOption) (Source, error) {
	return source.NewSQL(db, query, params, schema, opts...)
}

// NewMemSource builds a settable in-memory source — tests and
// benchmarks drive Session.Refresh with it.
func NewMemSource(schema SourceSchema, tuples ...[]string) *MemSource {
	return source.NewMem(schema, tuples...)
}

// MemSource is an in-memory source whose tuples are set
// programmatically; every Set/Add bumps its version.
type MemSource = source.Mem

// SourceStatsByName returns the per-binding resolver counters, keyed
// by binding name (nil when the context declares no sources). Serving
// layers poll it at metrics-scrape time.
func (c *Context) SourceStatsByName() map[string]SourceStats { return c.q.SourceStats() }

// SourceFetchLatency returns a copy of the histogram of every source
// fetch's duration since the context was built (nil when the context
// declares no sources). Serving layers read it at metrics-scrape time.
func (c *Context) SourceFetchLatency() *Histogram { return c.q.SourceFetchLatency() }

// SourceNames lists the context's source binding names in declaration
// order.
func (c *Context) SourceNames() []string {
	var out []string
	for _, b := range c.q.SourceBindings() {
		out = append(out, b.Name)
	}
	return out
}

// SourceRefresh reports what one binding contributed to a Refresh.
type SourceRefresh = quality.SourceRefresh

// RefreshResult reports what Session.Refresh did: per-binding version
// movement and tuple counts, whether anything changed, and whether a
// removal forced a rebuild instead of an incremental apply.
type RefreshResult = quality.RefreshResult

// Refresh re-polls every source bound to the session's context
// (bypassing the TTL) and folds tuple-level changes into the live
// assessment: additions stream through the same incremental chase as
// Apply, removals rebuild the session from the retained applied state
// (see RefreshResult.Rebuilt). A failed fetch surfaces as
// ErrSourceUnavailable and leaves the session untouched; a session
// whose context has no sources returns an empty result.
func (s *Session) Refresh(ctx context.Context) (*RefreshResult, error) {
	return s.s.Refresh(ctx)
}
