package storage

import (
	"container/list"
	"fmt"
	"strings"
	"sync"

	"repro/internal/datalog"
)

// PlanCache is a concurrency-safe LRU of compiled query plans keyed by
// normalized query shape, fronting CompileQueryPlan for ad-hoc queries
// (mdserve's ?q= answers re-parse and would otherwise re-plan the same
// conjunction on every request).
//
// Cache hits must be exactly as correct as a fresh compile, which
// pivots on interner identity: a query plan hard-codes interned
// constant ids and is only meaningful against an interner holding the
// same assignments. Server queries run against frozen snapshots, each
// a fresh fork of the session's live interner — never the same
// *Interner twice — so keying on db.Interner() would never hit.
// Instead entries are keyed by the snapshot's fork parent (the
// session's live interner, stable across snapshots) plus the query
// shape, and guarded by the interner length and total tuple count at
// compile time: two frozen forks of the same parent with equal Len
// hold identical id assignments (forking copies the parent's table,
// and a frozen instance never interns), so rebinding the cached plan
// to the new snapshot's interner is sound. The tuple-count guard
// additionally drops plans whose cost-based atom order was computed
// against data that has since changed — stale ordering is only a
// performance bug, but the guard is cheap and keeps estimates honest.
type PlanCache struct {
	mu      sync.Mutex
	cap     int
	entries map[cacheKey]*list.Element
	order   *list.List // front = most recently used
	hits    int64
	misses  int64
	evicted int64
}

type cacheKey struct {
	lineage *datalog.Interner // fork parent (or the interner itself for roots)
	shape   string
}

type cacheEntry struct {
	key   cacheKey
	plan  *Plan
	inLen int // interner length at compile time
	rows  int // total tuple count at compile time
}

// NewPlanCache returns a cache holding at most capacity plans;
// capacity <= 0 disables caching (every call compiles fresh).
func NewPlanCache(capacity int) *PlanCache {
	return &PlanCache{
		cap:     capacity,
		entries: map[cacheKey]*list.Element{},
		order:   list.New(),
	}
}

// ShapeKey returns the normalized shape of a conjunction: predicate
// symbols and argument patterns with variables canonicalized by first
// occurrence, so α-equivalent queries share one cache entry. Constants
// are length-prefixed, making the encoding injective.
func ShapeKey(body []datalog.Atom) string {
	var b strings.Builder
	vars := map[string]int{}
	for _, a := range body {
		b.WriteString(a.Pred)
		b.WriteByte('(')
		for i, t := range a.Args {
			if i > 0 {
				b.WriteByte(',')
			}
			if t.IsVar() {
				n, ok := vars[t.Name]
				if !ok {
					n = len(vars)
					vars[t.Name] = n
				}
				fmt.Fprintf(&b, "v%d", n)
			} else {
				s := t.String()
				fmt.Fprintf(&b, "c%d:%s", len(s), s)
			}
		}
		b.WriteString(").")
	}
	return b.String()
}

// QueryPlan returns a compiled read-only plan for the conjunction over
// db, serving from the cache when a structurally identical query was
// planned against an equivalent snapshot (see the type comment for the
// soundness argument). A nil cache, a disabled cache and a non-frozen
// instance all fall back to a plain CompileQueryPlan; eval.EvalQueryFunc
// plans its queries here.
func (c *PlanCache) QueryPlan(db *Instance, body []datalog.Atom) *Plan {
	if c == nil || c.cap <= 0 || !db.Frozen() {
		return CompileQueryPlan(db, body)
	}
	in := db.Interner()
	lineage := in.Parent()
	if lineage == nil {
		lineage = in
	}
	key := cacheKey{lineage: lineage, shape: ShapeKey(body)}

	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		e := el.Value.(*cacheEntry)
		if e.inLen == in.Len() && e.rows == db.TotalTuples() {
			c.order.MoveToFront(el)
			c.hits++
			c.mu.Unlock()
			// Rebind to this snapshot's interner, a fork of the one the
			// plan was compiled against: a struct copy sharing the
			// immutable compile artifacts.
			out := *e.plan
			out.in = in
			return &out
		}
		// Stale (data or interner advanced): replace below.
		c.order.Remove(el)
		delete(c.entries, key)
	}
	c.misses++
	c.mu.Unlock()

	plan := CompileQueryPlan(db, body)

	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[key]; !ok { // a racing compile may have filled it
		c.entries[key] = c.order.PushFront(&cacheEntry{
			key: key, plan: plan, inLen: in.Len(), rows: db.TotalTuples(),
		})
		for len(c.entries) > c.cap {
			back := c.order.Back()
			c.order.Remove(back)
			delete(c.entries, back.Value.(*cacheEntry).key)
			c.evicted++
		}
	}
	return plan
}

// Stats returns the cumulative hit/miss/eviction counters, for
// /metrics export.
func (c *PlanCache) Stats() (hits, misses, evictions int64) {
	if c == nil {
		return 0, 0, 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.evicted
}
