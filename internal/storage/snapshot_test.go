package storage

import (
	"testing"

	"repro/internal/datalog"
)

func snapDB(t *testing.T) *Instance {
	t.Helper()
	db := NewInstance()
	if _, err := db.CreateRelation("R", "a", "b"); err != nil {
		t.Fatal(err)
	}
	db.MustInsert("R", datalog.C("x"), datalog.C("y"))
	db.MustInsert("R", datalog.C("x"), datalog.C("z"))
	return db
}

func TestSnapshotIsolatesFromInserts(t *testing.T) {
	db := snapDB(t)
	snap := db.Snapshot()
	if !snap.Frozen() {
		t.Fatal("snapshot not frozen")
	}
	if snap.Relation("R").Len() != 2 {
		t.Fatalf("snapshot len = %d, want 2", snap.Relation("R").Len())
	}
	db.MustInsert("R", datalog.C("w"), datalog.C("y"))
	if snap.Relation("R").Len() != 2 {
		t.Fatalf("snapshot grew to %d after writer insert", snap.Relation("R").Len())
	}
	if db.Relation("R").Len() != 3 {
		t.Fatalf("writer len = %d, want 3", db.Relation("R").Len())
	}
	// A fresh snapshot sees the new state.
	if db.Snapshot().Relation("R").Len() != 3 {
		t.Fatal("fresh snapshot missed the insert")
	}
}

func TestSnapshotIsolatesFromReplaceTerms(t *testing.T) {
	db := snapDB(t)
	snap := db.Snapshot()
	if n := db.ReplaceTerm(datalog.C("x"), datalog.C("q")); n != 2 {
		t.Fatalf("ReplaceTerm changed %d tuples, want 2", n)
	}
	if !snap.Relation("R").Contains([]datalog.Term{datalog.C("x"), datalog.C("y")}) {
		t.Fatal("snapshot lost its original tuple after writer ReplaceTerm")
	}
	if snap.Relation("R").Contains([]datalog.Term{datalog.C("q"), datalog.C("y")}) {
		t.Fatal("snapshot sees the writer's rewrite")
	}
	if !db.Relation("R").Contains([]datalog.Term{datalog.C("q"), datalog.C("y")}) {
		t.Fatal("writer lost its rewrite")
	}
}

func TestSnapshotIsolatesFromDelete(t *testing.T) {
	db := snapDB(t)
	snap := db.Snapshot()
	if !db.Relation("R").Delete([]datalog.Term{datalog.C("x"), datalog.C("y")}) {
		t.Fatal("delete failed")
	}
	if snap.Relation("R").Len() != 2 {
		t.Fatalf("snapshot len = %d after writer delete, want 2", snap.Relation("R").Len())
	}
}

func TestSnapshotRejectsMutation(t *testing.T) {
	db := snapDB(t)
	snap := db.Snapshot()
	if _, err := snap.Insert("R", datalog.C("a"), datalog.C("b")); err == nil {
		t.Fatal("insert into frozen snapshot succeeded")
	}
	if _, err := snap.CreateRelation("S", "a"); err == nil {
		t.Fatal("relation creation in frozen snapshot succeeded")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("ReplaceTerm on frozen snapshot did not panic")
			}
		}()
		snap.ReplaceTerm(datalog.C("x"), datalog.C("q"))
	}()
}

func TestSnapshotInternerIsForked(t *testing.T) {
	db := snapDB(t)
	snap := db.Snapshot()
	// Writer interning after the snapshot must not touch the
	// snapshot's interner.
	before := snap.Interner().Len()
	db.MustInsert("R", datalog.C("fresh"), datalog.C("fresh2"))
	if snap.Interner().Len() != before {
		t.Fatal("snapshot interner grew with writer interning")
	}
	if !snap.Interner().DescendsFrom(db.Interner()) {
		t.Fatal("snapshot interner does not descend from the writer's")
	}
}

func TestSnapshotReadsAndClones(t *testing.T) {
	db := snapDB(t)
	snap := db.Snapshot()
	db.MustInsert("R", datalog.C("w"), datalog.C("v"))

	// Reads on the snapshot work: match, contains, query plans.
	found := 0
	all := CompileQueryPlan(snap, []datalog.Atom{datalog.A("R", datalog.V("a"), datalog.V("b"))})
	all.Run(snap, datalog.NewSubst(), func(datalog.Subst) bool {
		found++
		return true
	})
	if found != 2 {
		t.Fatalf("snapshot matched %d tuples, want 2", found)
	}
	plan := CompileQueryPlan(snap, []datalog.Atom{datalog.A("R", datalog.C("x"), datalog.V("b"))})
	n := 0
	plan.Execute(snap, plan.NewRegs(), func([]int32) bool {
		n++
		return true
	})
	if n != 2 {
		t.Fatalf("plan over snapshot found %d rows, want 2", n)
	}

	// A detached clone of a snapshot is mutable again.
	c := snap.CloneDetached()
	if c.Frozen() {
		t.Fatal("clone of a snapshot is frozen")
	}
	c.MustInsert("R", datalog.C("m"), datalog.C("n"))
	if snap.Relation("R").Len() != 2 {
		t.Fatal("mutating a clone leaked into the snapshot")
	}
}

func TestSnapshotOfSnapshot(t *testing.T) {
	db := snapDB(t)
	snap := db.Snapshot()
	snap2 := snap.Snapshot()
	if snap2.Relation("R").Len() != 2 {
		t.Fatal("snapshot of snapshot lost data")
	}
}

func TestPlanRetarget(t *testing.T) {
	db := snapDB(t)
	plan := CompilePlan(db, []datalog.Atom{datalog.A("R", datalog.V("a"), datalog.V("b"))})
	det := db.CloneDetached()
	rp := plan.Retarget(det.Interner())
	n := 0
	rp.Execute(det, rp.NewRegs(), func([]int32) bool {
		n++
		return true
	})
	if n != 2 {
		t.Fatalf("retargeted plan found %d rows, want 2", n)
	}
	// Retarget onto an unrelated interner must panic.
	other := NewInstance()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Retarget onto unrelated interner did not panic")
			}
		}()
		plan.Retarget(other.Interner())
	}()
}
