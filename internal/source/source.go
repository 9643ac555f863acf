// Package source implements pluggable external-source connectors for
// quality contexts: the paper's external sources E_i, which PR 1–7
// only supported as pre-materialized in-memory instances, become live
// endpoints fetched at prepare/assess time and re-polled on demand.
//
// A Source declares the relation it feeds (Schema) and knows how to
// Fetch its current tuples together with an opaque version token.
// Versions make revalidation cheap: a connector that can prove the
// upstream is unchanged since the previous version (file mtime, HTTP
// ETag, row hash) returns Unchanged without re-parsing the payload.
//
// Three concrete connectors ship with the package — File (CSV/NDJSON,
// mtime change detection), HTTP (JSON/NDJSON bodies, ETag
// revalidation, retry with backoff) and SQL (parameterized query over
// database/sql) — plus Mem, a settable in-memory source for tests and
// benchmarks. Resolver adds the per-source TTL cache and singleflight
// dedup that sessions share.
package source

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync"

	"repro/internal/datalog"
	"repro/internal/storage"
)

// Schema declares the contextual relation a source feeds. Attrs is
// optional: when empty, attribute names come from the payload (CSV
// header, SQL column names) or are synthesized a0..aN. NDJSON object
// rows require Attrs (or payload-derived attrs) to order their fields.
type Schema struct {
	Relation string
	Attrs    []string
}

// Result is one fetch outcome. When Unchanged is true the upstream
// proved it still matches the prev version passed to Fetch and Tuples
// is nil; otherwise Tuples is the complete current extension of the
// relation (sources deliver full snapshots — diffing against the
// previous snapshot is the resolver's and session's job).
type Result struct {
	Tuples    [][]string
	Attrs     []string // payload-derived attribute names, when any
	Version   string   // opaque revalidation token, never ""
	Unchanged bool
}

// Source is a pluggable external data source. Fetch returns the
// current tuples and version; prev is the version token from the
// previous successful fetch ("" on the first), enabling conditional
// requests (If-None-Match, mtime short-circuit). Implementations must
// be safe for concurrent Fetch calls.
type Source interface {
	Schema() Schema
	Fetch(ctx context.Context, prev string) (*Result, error)
}

// Instance materializes a fetch result as a one-relation storage
// instance. Attribute names are taken from the declared schema when
// present, else from the payload; a tuple whose arity disagrees with
// the first one (a torn payload) or an empty tuple is an error, never
// a silent truncation.
func (r *Result) Instance(s Schema) (*storage.Instance, error) {
	attrs := s.Attrs
	if len(attrs) == 0 {
		attrs = r.Attrs
	}
	inst := storage.NewInstance()
	arity := len(attrs)
	if arity == 0 && len(r.Tuples) > 0 {
		arity = len(r.Tuples[0])
		if arity == 0 {
			return nil, fmt.Errorf("source %s: row 0 is empty", s.Relation)
		}
		attrs = make([]string, arity)
		for i := range attrs {
			attrs[i] = fmt.Sprintf("a%d", i)
		}
	}
	if arity == 0 {
		// Empty payload with no declared attrs: there is nothing to
		// infer an arity from, and creating the relation at arity 0
		// would collide with the contextual declaration on merge. An
		// empty snapshot contributes no relation at all.
		return inst, nil
	}
	if _, err := inst.CreateRelation(s.Relation, attrs...); err != nil {
		return nil, err
	}
	terms := make([]datalog.Term, arity)
	for i, tup := range r.Tuples {
		if len(tup) != arity {
			return nil, fmt.Errorf("source %s: row %d has %d values, want %d",
				s.Relation, i, len(tup), arity)
		}
		for j, v := range tup {
			terms[j] = datalog.C(v)
		}
		if _, err := inst.Insert(s.Relation, terms...); err != nil {
			return nil, err
		}
	}
	return inst, nil
}

// Mem is an in-memory source whose tuples are set programmatically;
// every Set/Add bumps the version. Tests and benchmarks use it to
// drive Session.Refresh without touching the filesystem or network.
type Mem struct {
	mu      sync.Mutex
	schema  Schema
	tuples  [][]string
	version int
	err     error
	fetches int
}

// NewMem builds an in-memory source over the given schema and initial
// tuples.
func NewMem(schema Schema, tuples ...[]string) *Mem {
	m := &Mem{schema: schema, version: 1}
	m.tuples = cloneTuples(tuples)
	return m
}

// Schema returns the declared schema.
func (m *Mem) Schema() Schema { return m.schema }

// Set replaces the source's tuples and bumps the version.
func (m *Mem) Set(tuples ...[]string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.tuples = cloneTuples(tuples)
	m.version++
}

// Add appends one tuple and bumps the version.
func (m *Mem) Add(tuple ...string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.tuples = append(m.tuples, append([]string(nil), tuple...))
	m.version++
}

// SetError makes every subsequent Fetch fail with err (nil restores
// normal operation) — the hook behind unavailability and stale-serving
// tests.
func (m *Mem) SetError(err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.err = err
}

// Fetches returns how many Fetch calls the source has served,
// including Unchanged revalidations — the observable the singleflight
// and TTL tests pin.
func (m *Mem) Fetches() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.fetches
}

// Fetch returns the current tuples, or Unchanged when prev matches the
// current version.
func (m *Mem) Fetch(ctx context.Context, prev string) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.fetches++
	if m.err != nil {
		return nil, m.err
	}
	version := fmt.Sprintf("mem:%d", m.version)
	if prev != "" && prev == version {
		return &Result{Version: version, Unchanged: true}, nil
	}
	return &Result{Tuples: cloneTuples(m.tuples), Version: version}, nil
}

func cloneTuples(tuples [][]string) [][]string {
	out := make([][]string, len(tuples))
	for i, t := range tuples {
		out[i] = append([]string(nil), t...)
	}
	return out
}

// parseRows decodes a JSON/NDJSON payload into tuples: either one JSON
// array of rows, or newline-delimited rows. Each row is a JSON array
// (positional values) or a JSON object (fields ordered by attrs, which
// must then be declared). Shared by the File and HTTP connectors.
func parseRows(data []byte, attrs []string) ([][]string, error) {
	trimmed := strings.TrimSpace(string(data))
	if trimmed == "" {
		return nil, nil
	}
	rawRows, isArray := rowArray(trimmed)
	if !isArray {
		for i, line := range strings.Split(trimmed, "\n") {
			line = strings.TrimSpace(line)
			if line == "" {
				continue
			}
			if !json.Valid([]byte(line)) {
				return nil, fmt.Errorf("source: malformed NDJSON line %d: %s", i+1, truncate(line))
			}
			rawRows = append(rawRows, json.RawMessage(line))
		}
	}
	out := make([][]string, 0, len(rawRows))
	for i, raw := range rawRows {
		tup, err := parseRow(raw, attrs)
		if err != nil {
			return nil, fmt.Errorf("source: row %d: %w", i+1, err)
		}
		out = append(out, tup)
	}
	return out, nil
}

// rowArray distinguishes a whole-payload JSON array of rows from
// NDJSON whose first line happens to be an array row: a payload is a
// row array, returned split into rows, only when it parses as an array
// whose every element is itself an array or object (a single NDJSON
// row like ["a","b"] holds scalars, so it falls through to
// line-delimited parsing).
func rowArray(s string) ([]json.RawMessage, bool) {
	var rows []json.RawMessage
	if s[0] != '[' || json.Unmarshal([]byte(s), &rows) != nil {
		return nil, false
	}
	for _, r := range rows {
		inner := strings.TrimSpace(string(r))
		if inner == "" || (inner[0] != '[' && inner[0] != '{') {
			return nil, false
		}
	}
	return rows, true
}

// parseRow decodes one row: array → positional, object → ordered by
// attrs. Values may be strings, numbers or booleans; nulls and nested
// structures are malformed.
func parseRow(raw json.RawMessage, attrs []string) ([]string, error) {
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		return nil, fmt.Errorf("malformed row: %w", err)
	}
	switch row := v.(type) {
	case []any:
		tup := make([]string, len(row))
		for i, f := range row {
			s, err := fieldString(f)
			if err != nil {
				return nil, err
			}
			tup[i] = s
		}
		return tup, nil
	case map[string]any:
		if len(attrs) == 0 {
			return nil, fmt.Errorf("object row needs declared attributes to order its fields")
		}
		tup := make([]string, len(attrs))
		for i, a := range attrs {
			f, ok := row[a]
			if !ok {
				return nil, fmt.Errorf("object row is missing field %q", a)
			}
			s, err := fieldString(f)
			if err != nil {
				return nil, err
			}
			tup[i] = s
		}
		return tup, nil
	default:
		return nil, fmt.Errorf("row must be a JSON array or object, got %T", v)
	}
}

// fieldString renders one row field as a term constant.
func fieldString(v any) (string, error) {
	switch f := v.(type) {
	case string:
		return f, nil
	case json.Number:
		return f.String(), nil
	case bool:
		if f {
			return "true", nil
		}
		return "false", nil
	default:
		return "", fmt.Errorf("field must be a string, number or boolean, got %T", v)
	}
}

func truncate(s string) string {
	if len(s) > 60 {
		return s[:60] + "..."
	}
	return s
}
