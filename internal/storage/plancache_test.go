package storage

import (
	"reflect"
	"testing"

	dl "repro/internal/datalog"
)

func cacheTestBody() []dl.Atom {
	return []dl.Atom{
		dl.A("R0", dl.V("c"), dl.V("x")),
		dl.A("Up", dl.V("p"), dl.V("c")),
	}
}

func TestShapeKeyAlphaEquivalence(t *testing.T) {
	a := []dl.Atom{dl.A("P", dl.V("x"), dl.V("y")), dl.A("Q", dl.V("y"), dl.C("k"))}
	b := []dl.Atom{dl.A("P", dl.V("u"), dl.V("v")), dl.A("Q", dl.V("v"), dl.C("k"))}
	if ShapeKey(a) != ShapeKey(b) {
		t.Errorf("α-equivalent bodies got distinct keys:\n%s\n%s", ShapeKey(a), ShapeKey(b))
	}
	// A different constant is a different query.
	c := []dl.Atom{dl.A("P", dl.V("u"), dl.V("v")), dl.A("Q", dl.V("v"), dl.C("k2"))}
	if ShapeKey(a) == ShapeKey(c) {
		t.Error("distinct constants share a key")
	}
	// A different variable pattern (join vs no join) is too.
	d := []dl.Atom{dl.A("P", dl.V("u"), dl.V("v")), dl.A("Q", dl.V("w"), dl.C("k"))}
	if ShapeKey(a) == ShapeKey(d) {
		t.Error("distinct join patterns share a key")
	}
}

func TestPlanCacheHitAcrossSiblingSnapshots(t *testing.T) {
	db := planTestInstance(t)
	pc := NewPlanCache(8)
	body := cacheTestBody()
	vars := dl.VarsOfAtoms(body)

	snap1 := db.Snapshot()
	p1 := pc.QueryPlan(snap1, body)
	want := collectRun(p1, snap1, dl.NewSubst(), vars)
	if h, m, e := pc.Stats(); h != 0 || m != 1 || e != 0 {
		t.Fatalf("after first query: hits=%d misses=%d evictions=%d, want 0/1/0", h, m, e)
	}

	// A sibling snapshot of the unchanged instance must hit, and the
	// rebound plan must produce identical answers.
	snap2 := db.Snapshot()
	p2 := pc.QueryPlan(snap2, body)
	if got := collectRun(p2, snap2, dl.NewSubst(), vars); !reflect.DeepEqual(got, want) {
		t.Errorf("cached plan answers %v, want %v", got, want)
	}
	if h, m, _ := pc.Stats(); h != 1 || m != 1 {
		t.Errorf("after sibling query: hits=%d misses=%d, want 1/1", h, m)
	}

	// An α-variant of the same query shares the entry.
	renamed := []dl.Atom{
		dl.A("R0", dl.V("cc"), dl.V("xx")),
		dl.A("Up", dl.V("pp"), dl.V("cc")),
	}
	p3 := pc.QueryPlan(snap2, renamed)
	if got := collectRun(p3, snap2, dl.NewSubst(), dl.VarsOfAtoms(renamed)); len(got) != len(want) {
		t.Errorf("α-variant answers %d rows, want %d", len(got), len(want))
	}
	if h, _, _ := pc.Stats(); h != 2 {
		t.Errorf("α-variant did not hit: hits=%d, want 2", h)
	}
}

func TestPlanCacheStaleEntryDropped(t *testing.T) {
	db := planTestInstance(t)
	pc := NewPlanCache(8)
	body := cacheTestBody()
	vars := dl.VarsOfAtoms(body)

	pc.QueryPlan(db.Snapshot(), body)

	// Growing the instance invalidates the entry (row count and
	// interner length both moved): next lookup recompiles.
	db.MustInsert("Up", dl.C("p9"), dl.C("c9"))
	snap := db.Snapshot()
	p := pc.QueryPlan(snap, body)
	got := collectRun(p, snap, dl.NewSubst(), vars)
	want := collectNaive(snap, body, dl.NewSubst(), vars)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("post-growth answers %v, want %v", got, want)
	}
	if h, m, _ := pc.Stats(); h != 0 || m != 2 {
		t.Errorf("stale entry served: hits=%d misses=%d, want 0/2", h, m)
	}
	// The refreshed entry hits again.
	pc.QueryPlan(db.Snapshot(), body)
	if h, _, _ := pc.Stats(); h != 1 {
		t.Errorf("refreshed entry missed: hits=%d, want 1", h)
	}
}

func TestPlanCacheEviction(t *testing.T) {
	db := planTestInstance(t)
	pc := NewPlanCache(2)
	snap := db.Snapshot()
	bodies := [][]dl.Atom{
		{dl.A("R0", dl.V("c"), dl.V("x"))},
		{dl.A("Up", dl.V("p"), dl.V("c"))},
		{dl.A("R0", dl.V("c"), dl.C("a"))},
	}
	for _, b := range bodies {
		pc.QueryPlan(snap, b)
	}
	if h, m, e := pc.Stats(); h != 0 || m != 3 || e != 1 {
		t.Fatalf("hits=%d misses=%d evictions=%d, want 0/3/1", h, m, e)
	}
	// The least recently used entry (the first body) was evicted.
	pc.QueryPlan(snap, bodies[0])
	if _, m, _ := pc.Stats(); m != 4 {
		t.Errorf("evicted entry still served: misses=%d, want 4", m)
	}
	// The most recent one survives.
	pc.QueryPlan(snap, bodies[2])
	if h, _, _ := pc.Stats(); h != 1 {
		t.Errorf("resident entry missed: hits=%d, want 1", h)
	}
}

func TestPlanCacheBypassesLiveInstances(t *testing.T) {
	db := planTestInstance(t)
	pc := NewPlanCache(8)
	body := cacheTestBody()
	// A mutable instance is never cached — its interner and data can
	// move under a cached plan.
	p := pc.QueryPlan(db, body)
	if p == nil {
		t.Fatal("nil plan for live instance")
	}
	if h, m, e := pc.Stats(); h != 0 || m != 0 || e != 0 {
		t.Errorf("live instance touched the cache: %d/%d/%d", h, m, e)
	}
	// A nil cache degrades to a plain compile.
	var nilCache *PlanCache
	if nilCache.QueryPlan(db.Snapshot(), body) == nil {
		t.Error("nil cache returned nil plan")
	}
}
