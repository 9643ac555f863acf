package storage

import (
	"fmt"
	"math/rand"
	"testing"

	dl "repro/internal/datalog"
)

// joinDB builds a two-relation instance for shard/batch tests.
func joinDB(t *testing.T, seed int64, rows int) *Instance {
	t.Helper()
	db := NewInstance()
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < rows; i++ {
		db.MustInsert("R", dl.C(fmt.Sprintf("a%d", rng.Intn(8))), dl.C(fmt.Sprintf("b%d", rng.Intn(8))))
		db.MustInsert("S", dl.C(fmt.Sprintf("b%d", rng.Intn(8))), dl.C(fmt.Sprintf("c%d", rng.Intn(8))))
	}
	return db
}

// TestExecuteShardPartitionsExecute pins the sharding contract: the
// concatenation of shards 0..n-1 must reproduce Execute's matches in
// Execute's order, for any shard count.
func TestExecuteShardPartitionsExecute(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		db := joinDB(t, seed, 30)
		body := []dl.Atom{
			dl.A("R", dl.V("x"), dl.V("y")),
			dl.A("S", dl.V("y"), dl.V("z")),
		}
		plan := CompilePlan(db, body)
		collect := func(run func(fn func([]int32) bool)) [][]int32 {
			var out [][]int32
			run(func(regs []int32) bool {
				out = append(out, append([]int32(nil), regs...))
				return true
			})
			return out
		}
		want := collect(func(fn func([]int32) bool) {
			plan.Execute(db, plan.NewRegs(), fn)
		})
		for _, nshards := range []int{1, 2, 3, 7, 64} {
			var got [][]int32
			for s := 0; s < nshards; s++ {
				got = append(got, collect(func(fn func([]int32) bool) {
					plan.ExecuteShard(db, plan.NewRegs(), s, nshards, fn)
				})...)
			}
			if len(got) != len(want) {
				t.Fatalf("seed %d nshards %d: %d sharded matches, want %d", seed, nshards, len(got), len(want))
			}
			for i := range want {
				for j := range want[i] {
					if got[i][j] != want[i][j] {
						t.Fatalf("seed %d nshards %d: match %d = %v, want %v", seed, nshards, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestExecuteShardGroundBody covers the zero-slot edge: a fully
// ground body has exactly one match, owned by shard 0.
func TestExecuteShardGroundBody(t *testing.T) {
	db := NewInstance()
	db.MustInsert("R", dl.C("a"), dl.C("b"))
	plan := CompilePlan(db, []dl.Atom{dl.A("R", dl.C("a"), dl.C("b"))})
	total := 0
	for s := 0; s < 4; s++ {
		plan.ExecuteShard(db, plan.NewRegs(), s, 4, func([]int32) bool {
			total++
			return true
		})
	}
	if total != 1 {
		t.Fatalf("ground body matched %d times across shards, want 1", total)
	}
}

// TestMergeBatchMatchesSequentialInserts pins the single-writer merge
// to row-at-a-time insertion: same dedup, same final relation, and
// onNew fires exactly for the genuinely new rows, in batch order.
func TestMergeBatchMatchesSequentialInserts(t *testing.T) {
	db := NewInstance()
	in := db.Interner()
	a, b, c := in.ID(dl.C("a")), in.ID(dl.C("b")), in.ID(dl.C("c"))
	if _, err := db.CreateRelation("R", "x", "y"); err != nil {
		t.Fatal(err)
	}
	db.MustInsert("R", dl.C("a"), dl.C("b")) // pre-existing row

	var batch Batch
	staged := [][]int32{{a, b}, {a, c}, {b, c}, {a, c}, {c, c}}
	preds := []string{"R", "R", "R", "R", "T"}
	for i, row := range staged {
		batch.Add(preds[i], row)
	}
	if batch.Len() != len(staged) {
		t.Fatalf("batch len = %d, want %d", batch.Len(), len(staged))
	}

	seq := db.Clone()
	var wantNew [][2]string
	for i, row := range staged {
		isNew, err := seq.InsertRow(preds[i], row)
		if err != nil {
			t.Fatal(err)
		}
		if isNew {
			wantNew = append(wantNew, [2]string{preds[i], fmt.Sprint(row)})
		}
	}

	var gotNew [][2]string
	added, err := db.MergeBatch(&batch, func(pred string, stored []int32) {
		gotNew = append(gotNew, [2]string{pred, fmt.Sprint(stored)})
	})
	if err != nil {
		t.Fatal(err)
	}
	if added != len(wantNew) {
		t.Fatalf("MergeBatch added %d, want %d", added, len(wantNew))
	}
	if fmt.Sprint(gotNew) != fmt.Sprint(wantNew) {
		t.Fatalf("onNew sequence %v, want %v", gotNew, wantNew)
	}
	if !db.Equal(seq) {
		t.Fatalf("merged instance differs from sequential inserts:\n%s\nvs\n%s", db, seq)
	}
	// Insertion order must match too (merge order = batch order).
	for _, name := range seq.RelationNames() {
		sr, mr := seq.Relation(name), db.Relation(name)
		if sr.Len() != mr.Len() {
			t.Fatalf("relation %s: %d vs %d rows", name, mr.Len(), sr.Len())
		}
		for i, row := range sr.Rows() {
			for j := range row {
				if mr.Row(i)[j] != row[j] {
					t.Fatalf("relation %s row %d: %v vs %v", name, i, mr.Row(i), row)
				}
			}
		}
	}

	// Reset empties the batch for reuse.
	batch.Reset()
	if batch.Len() != 0 {
		t.Fatalf("reset batch len = %d", batch.Len())
	}
}

// TestInsertBatchFrozen verifies batch merges respect the snapshot
// freeze.
func TestInsertBatchFrozen(t *testing.T) {
	db := NewInstance()
	db.MustInsert("R", dl.C("a"), dl.C("b"))
	snap := db.Snapshot()
	var batch Batch
	batch.Add("R", []int32{0, 1})
	if _, err := snap.MergeBatch(&batch, nil); err == nil {
		t.Fatal("MergeBatch into frozen snapshot succeeded")
	}
}

// TestRandomBatchesMatchSequentialInserts stages random interleavings
// of rows for relations of arity 2, 1 and 0, with duplicates within
// and across batches, and checks every merge against row-at-a-time
// InsertRow on a twin instance: same new-row count, same onNew
// sequence, and the same rows in the same insertion order.
func TestRandomBatchesMatchSequentialInserts(t *testing.T) {
	rels := []struct {
		name  string
		arity int
	}{{"R", 2}, {"T", 1}, {"Z", 0}}
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		db, seq := NewInstance(), NewInstance()
		ids := make([]int32, 4)
		for i := range ids {
			ids[i] = db.Interner().ID(dl.C(fmt.Sprintf("c%d", i)))
			seq.Interner().ID(dl.C(fmt.Sprintf("c%d", i)))
		}
		var batch Batch
		for round := 0; round < 3; round++ {
			batch.Reset()
			type staged struct {
				pred string
				row  []int32
			}
			var rows []staged
			for i := rng.Intn(40); i > 0; i-- {
				rel := rels[rng.Intn(len(rels))]
				row := make([]int32, rel.arity)
				for j := range row {
					row[j] = ids[rng.Intn(len(ids))]
				}
				batch.Add(rel.name, row)
				rows = append(rows, staged{rel.name, row})
			}
			if batch.Len() != len(rows) {
				t.Fatalf("seed %d: batch len %d, staged %d", seed, batch.Len(), len(rows))
			}
			var want []string
			for _, s := range rows {
				isNew, err := seq.InsertRow(s.pred, s.row)
				if err != nil {
					t.Fatal(err)
				}
				if isNew {
					want = append(want, fmt.Sprint(s.pred, s.row))
				}
			}
			var got []string
			added, err := db.MergeBatch(&batch, func(pred string, stored []int32) {
				got = append(got, fmt.Sprint(pred, stored))
			})
			if err != nil {
				t.Fatal(err)
			}
			if added != len(want) || fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("seed %d round %d: merge added %d %v, sequential inserts %v", seed, round, added, got, want)
			}
		}
		for _, rel := range rels {
			a, b := db.Relation(rel.name), seq.Relation(rel.name)
			if (a == nil) != (b == nil) {
				t.Fatalf("seed %d: relation %s exists on one side only", seed, rel.name)
			}
			if a != nil && fmt.Sprint(a.Rows()) != fmt.Sprint(b.Rows()) {
				t.Fatalf("seed %d: %s rows %v, sequential %v", seed, rel.name, a.Rows(), b.Rows())
			}
		}
	}
}

// TestMergeBatchArityMismatch: a row staged with the wrong arity for
// an existing relation fails the merge instead of being stored.
func TestMergeBatchArityMismatch(t *testing.T) {
	db := NewInstance()
	db.MustInsert("R", dl.C("a"), dl.C("b"))
	var batch Batch
	batch.Add("R", []int32{0, 1})
	batch.Add("R", []int32{0})
	if _, err := db.MergeBatch(&batch, nil); err == nil {
		t.Fatal("merging a row of the wrong arity succeeded")
	}
	if got := db.Relation("R").Len(); got != 1 {
		t.Fatalf("R has %d rows after the failed merge, want 1", got)
	}
}
