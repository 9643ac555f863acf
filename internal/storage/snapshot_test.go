package storage

import (
	"fmt"
	"sync"
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

// TestSnapshotReadsDuringInPlaceAppends is the race test for shared
// row and posting storage: the writer takes snapshots at several
// lengths, then keeps inserting while one reader per snapshot
// re-reads it. The inserts append into posting lists with spare
// capacity, add new keys at both positions and grow the slot table
// twice, all past the lengths the snapshots captured. A MergeBatch
// phase follows while the same readers keep reading: one call
// cold-fills a new relation S from batches that stage every S row ten
// times (so the merge reserves, then rebuilds S's slot table and
// re-fits its row headers) and appends new R rows, and after a
// snapshot of S, more batches append to S while a reader re-reads
// that snapshot too. Run it under -race.
func TestSnapshotReadsDuringInPlaceAppends(t *testing.T) {
	db := NewInstance()
	live, err := db.CreateRelation("R", "k", "v")
	if err != nil {
		t.Fatal(err)
	}
	// Row i is (k(i%10), v(i/10)) for i < 400, then (x(i), y(i)): rows
	// past 100 reuse the ten k keys (lists of 10 entries, capacity 16),
	// add v keys, and finally add keys at both positions. Every term is
	// interned up front so readers can probe rows the writer has not
	// inserted yet.
	in := db.Interner()
	var rows [][]int32
	for i := 0; i < 400; i++ {
		rows = append(rows, []int32{in.ID(datalog.C(fmt.Sprintf("k%d", i%10))), in.ID(datalog.C(fmt.Sprintf("v%d", i/10)))})
	}
	for i := 400; i < 520; i++ {
		rows = append(rows, []int32{in.ID(datalog.C(fmt.Sprintf("x%d", i))), in.ID(datalog.C(fmt.Sprintf("y%d", i)))})
	}
	insert := func(rows [][]int32) {
		for _, row := range rows {
			if isNew, err := live.InsertRow(row); err != nil || !isNew {
				t.Fatalf("insert %v: new=%v err=%v", row, isNew, err)
			}
		}
	}

	// frozen is one snapshot of relation pred with what it held when
	// it was taken: the first held of rows, and the k3 matches.
	type frozen struct {
		inst    *Instance
		pred    string
		rows    [][]int32
		held    int
		plan    *Plan
		matches []int32 // v ids of the k3 rows, in posting-list order
		sorted  [][]datalog.Term
	}
	freeze := func(pred string, rows [][]int32) frozen {
		snap := db.Snapshot()
		rel := db.Relation(pred)
		f := frozen{inst: snap, pred: pred, rows: rows, held: rel.Len(), sorted: rel.SortedTuples()}
		k3 := datalog.A(pred, datalog.C("k3"), datalog.V("v"))
		f.plan = CompileQueryPlan(snap, []datalog.Atom{k3})
		for _, row := range rows[:f.held] {
			if row[0] == in.ID(datalog.C("k3")) {
				f.matches = append(f.matches, row[1])
			}
		}
		return f
	}
	var snaps []frozen
	for _, held := range []int{40, 75, 100} {
		insert(rows[live.Len():held])
		snaps = append(snaps, freeze("R", rows))
	}
	if got := len(live.slots); got != 256 {
		t.Fatalf("slot table has %d slots before the appends, want 256 (the appends must grow it twice)", got)
	}

	check := func(f frozen) error {
		rel := f.inst.Relation(f.pred)
		if rel.Len() != f.held {
			return fmt.Errorf("Len = %d, want %d", rel.Len(), f.held)
		}
		for i, row := range f.rows {
			if got := rel.ContainsRow(row); got != (i < f.held) {
				return fmt.Errorf("ContainsRow(row %d) = %v", i, got)
			}
		}
		var matches []int32
		v := f.plan.Slot(datalog.V("v"))
		f.plan.Execute(f.inst, f.plan.NewRegs(), func(regs []int32) bool {
			matches = append(matches, regs[v])
			return true
		})
		if fmt.Sprint(matches) != fmt.Sprint(f.matches) {
			return fmt.Errorf("plan on %s matched %v, want %v", f.pred, matches, f.matches)
		}
		if got := rel.SortedTuples(); fmt.Sprint(got) != fmt.Sprint(f.sorted) {
			return fmt.Errorf("SortedTuples = %v, want %v", got, f.sorted)
		}
		return nil
	}

	// readWhile runs one reader per snapshot, re-reading it until write
	// has returned and once more afterwards.
	readWhile := func(snaps []frozen, write func()) {
		var ready, readers sync.WaitGroup
		done := make(chan struct{})
		for _, f := range snaps {
			ready.Add(1)
			readers.Add(1)
			go func(f frozen) {
				defer readers.Done()
				first := true
				for {
					err := check(f)
					if first {
						ready.Done()
						first = false
					}
					if err != nil {
						t.Errorf("snapshot of %s at %d rows: %v", f.pred, f.held, err)
						return
					}
					select {
					case <-done:
						if err := check(f); err != nil {
							t.Errorf("snapshot of %s at %d rows after the writes: %v", f.pred, f.held, err)
						}
						return
					default:
					}
				}
			}(f)
		}
		ready.Wait()
		write()
		close(done)
		readers.Wait()
	}

	readWhile(snaps, func() { insert(rows[live.Len():500]) })
	if got := len(live.slots); got != 1024 {
		t.Fatalf("slot table has %d slots after the appends, want 1024", got)
	}

	// S row i is (k(i%10), s(i)); rows[:60] cold-fill S, the rest
	// append to it.
	var sRows [][]int32
	for i := 0; i < 260; i++ {
		sRows = append(sRows, []int32{in.ID(datalog.C(fmt.Sprintf("k%d", i%10))), in.ID(datalog.C(fmt.Sprintf("s%d", i)))})
	}
	// stage stages ten copies of each of rows for pred over three
	// batches, the first copies in order into the first batch, and
	// extra for R after them.
	stage := func(rows [][]int32, pred string, extra [][]int32) []*Batch {
		bs := []*Batch{{}, {}, {}}
		for c := 0; c < 10; c++ {
			for i, row := range rows {
				bs[min(c, 1+(c+i)%2)].Add(pred, row)
			}
			if c == 0 {
				for _, row := range extra {
					bs[0].Add("R", row)
				}
			}
		}
		return bs
	}
	merge := func(bs []*Batch, want int) {
		if added, err := db.MergeBatch(bs...); err != nil || added != want {
			t.Fatalf("MergeBatch added %d, err %v; want %d", added, err, want)
		}
	}
	readWhile(snaps, func() { merge(stage(sRows[:60], "S", rows[500:]), 80) })
	srel := db.Relation("S")
	if got, want := len(srel.slots), slotsFor(60); got != want || cap(srel.rows) > 2*60+16 {
		t.Fatalf("S after its cold fill: %d slots (want %d), row capacity %d", got, want, cap(srel.rows))
	}
	if fmt.Sprint(srel.Rows()) != fmt.Sprint(sRows[:60]) || live.Len() != len(rows) {
		t.Fatalf("merge stored S %v and %d R rows, want %v and %d", srel.Rows(), live.Len(), sRows[:60], len(rows))
	}
	readWhile(append(snaps, freeze("S", sRows)), func() {
		merge(stage(sRows[60:140], "S", nil), 80)
		merge(stage(sRows[140:], "S", nil), 120)
	})
	if got := len(srel.slots); got != slotsFor(len(sRows)) {
		t.Fatalf("S has %d slots after the appends, want %d", got, slotsFor(len(sRows)))
	}
}

// BenchmarkSnapshotThenInsert prices the first write after a snapshot:
// each op snapshots the instance, then inserts one new row into a
// two-column relation of n rows over n/100 × 100 keys, the shape of
// the guideline relation RightTherm (800 × 100 at n = 80000).
func BenchmarkSnapshotThenInsert(b *testing.B) {
	for _, n := range []int{2000, 80000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			db := NewInstance()
			rel, err := db.CreateRelation("RightTherm", "a", "b")
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < n; i++ {
				if _, err := rel.Insert([]datalog.Term{datalog.C(fmt.Sprintf("a%d", i/100)), datalog.C(fmt.Sprintf("b%d", i%100))}); err != nil {
					b.Fatal(err)
				}
			}
			row := []datalog.Term{datalog.C(""), datalog.C("b0")}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				db.Snapshot()
				row[0] = datalog.C(fmt.Sprintf("new%d", i))
				if isNew, err := rel.Insert(row); err != nil || !isNew {
					b.Fatalf("insert %v: new=%v err=%v", row, isNew, err)
				}
			}
		})
	}
}
