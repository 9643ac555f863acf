package storage

import (
	"fmt"
	"math/rand"
	"sort"
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
// Execute's order, for any shard count. It pins the PivotPlan round
// runner on the same join too: full units run in order reproduce
// Execute; after rows are appended, the delta units over the windows
// [from, to) enumerate one match sequence at every width, and as a
// set those matches are exactly the full matches whose projection onto
// some pivot atom is a window row.
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

		pp := CompilePivotPlan(db, body)
		widths := []int{1, 2, 3, 7}
		roundMatches := func(width int, full bool, from, to map[string]int) [][]int32 {
			var out [][]int32
			for _, u := range pp.Units(nil, width, full, from, to) {
				out = append(out, collect(func(fn func([]int32) bool) {
					pp.Run(db, u, pp.Full().NewRegs(), fn)
				})...)
			}
			return out
		}
		for _, width := range widths {
			if got := roundMatches(width, true, nil, nil); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("seed %d width %d: full units %v, want %v", seed, width, got, want)
			}
		}

		from := db.Lens()
		grow := joinDB(t, seed+100, 6)
		for _, name := range []string{"R", "S"} {
			for _, tup := range grow.Relation(name).Tuples() {
				db.MustInsert(name, tup...)
			}
		}
		to := db.Lens()
		delta := roundMatches(1, false, from, to)
		for _, width := range widths[1:] {
			if got := roundMatches(width, false, from, to); fmt.Sprint(got) != fmt.Sprint(delta) {
				t.Fatalf("seed %d width %d: delta units %v, width 1 %v", seed, width, got, delta)
			}
		}
		inWindow := map[string]bool{}
		for _, name := range []string{"R", "S"} {
			for _, row := range db.Relation(name).Rows()[from[name]:to[name]] {
				inWindow[fmt.Sprint(name, row)] = true
			}
		}
		wantDelta := map[string]bool{}
		for _, m := range collect(func(fn func([]int32) bool) { plan.Execute(db, plan.NewRegs(), fn) }) {
			for _, a := range body {
				proj := plan.CompileProj(a)
				row := make([]int32, proj.Len())
				proj.Project(m, row)
				if inWindow[fmt.Sprint(a.Pred, row)] {
					wantDelta[fmt.Sprint(m)] = true
				}
			}
		}
		gotDelta := map[string]bool{}
		for _, m := range delta {
			gotDelta[fmt.Sprint(m)] = true
		}
		if len(wantDelta) == 0 || fmt.Sprint(gotDelta) != fmt.Sprint(wantDelta) {
			t.Fatalf("seed %d: delta matches %v, want the full matches touching a window row %v", seed, gotDelta, wantDelta)
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
// the window past a pre-merge Lens holds exactly the genuinely new
// rows, in batch order.
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

	lens := db.Lens()
	added, err := db.MergeBatch(&batch)
	if err != nil {
		t.Fatal(err)
	}
	if added != len(wantNew) {
		t.Fatalf("MergeBatch added %d, want %d", added, len(wantNew))
	}
	var gotNew [][2]string
	for _, name := range db.RelationNames() {
		for _, row := range db.Relation(name).Rows()[lens[name]:] {
			gotNew = append(gotNew, [2]string{name, fmt.Sprint(row)})
		}
	}
	if fmt.Sprint(gotNew) != fmt.Sprint(wantNew) {
		t.Fatalf("new rows %v, want %v", gotNew, wantNew)
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
}

// TestInsertBatchFrozen verifies batch merges respect the snapshot
// freeze.
func TestInsertBatchFrozen(t *testing.T) {
	db := NewInstance()
	db.MustInsert("R", dl.C("a"), dl.C("b"))
	snap := db.Snapshot()
	var batch Batch
	batch.Add("R", []int32{0, 1})
	if _, err := snap.MergeBatch(&batch); err == nil {
		t.Fatal("MergeBatch into frozen snapshot succeeded")
	}
}

// TestRandomBatchesMatchSequentialInserts stages random interleavings
// of rows for relations of arity 2, 1 and 0, with duplicates within
// and across batches, splits each round's rows over several batches
// merged in one call, and checks every merge against row-at-a-time
// InsertRow on a twin instance: same new-row count, the same new rows
// past each side's pre-merge Lens, and the same rows in the same
// insertion order. Every other seed's first round stages at least ten
// copies of each row it adds, so the cold fill reserves for far more
// rows than arrive; after every merge each relation's slot table must
// have the twin's size and its row capacity must stay within
// 2·len+16, which only holds if the merge gives the surplus back.
func TestRandomBatchesMatchSequentialInserts(t *testing.T) {
	rels := []struct {
		name  string
		arity int
	}{{"R", 2}, {"T", 1}, {"Z", 0}}
	newRows := func(inst *Instance, lens map[string]int) []string {
		var out []string
		for _, name := range inst.RelationNames() {
			for _, row := range inst.Relation(name).Rows()[lens[name]:] {
				out = append(out, fmt.Sprint(name, row))
			}
		}
		return out
	}
	type staged struct {
		pred string
		row  []int32
	}
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		db, seq := NewInstance(), NewInstance()
		ids := make([]int32, 4)
		for i := range ids {
			ids[i] = db.Interner().ID(dl.C(fmt.Sprintf("c%d", i)))
			seq.Interner().ID(dl.C(fmt.Sprintf("c%d", i)))
		}
		randRow := func() staged {
			rel := rels[rng.Intn(len(rels))]
			row := make([]int32, rel.arity)
			for j := range row {
				row[j] = ids[rng.Intn(len(ids))]
			}
			return staged{rel.name, row}
		}
		for round := 0; round < 3; round++ {
			var rows []staged
			if round == 0 && seed%2 == 1 {
				// A few distinct rows, each staged 10 to 200 times in
				// random order: at least ten staged rows per new row.
				distinct := map[string]bool{}
				for i := 1 + rng.Intn(4); i > 0; i-- {
					s := randRow()
					if distinct[fmt.Sprint(s)] {
						continue
					}
					distinct[fmt.Sprint(s)] = true
					for c := 10 + rng.Intn(191); c > 0; c-- {
						rows = append(rows, s)
					}
				}
				rng.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
			} else {
				for i := rng.Intn(40); i > 0; i-- {
					rows = append(rows, randRow())
				}
			}
			// Split the round over 1 to 4 batches at random cut points;
			// a batch may be empty.
			batches := make([]*Batch, 1+rng.Intn(4))
			for i := range batches {
				batches[i] = &Batch{}
			}
			cuts := make([]int, len(batches)-1)
			for i := range cuts {
				cuts[i] = rng.Intn(len(rows) + 1)
			}
			sort.Ints(cuts)
			for i, s := range rows {
				bi := sort.SearchInts(cuts, i+1)
				batches[bi].Add(s.pred, s.row)
			}
			seqLens := seq.Lens()
			for _, s := range rows {
				if _, err := seq.InsertRow(s.pred, s.row); err != nil {
					t.Fatal(err)
				}
			}
			want := newRows(seq, seqLens)
			lens := db.Lens()
			added, err := db.MergeBatch(batches...)
			if err != nil {
				t.Fatal(err)
			}
			if got := newRows(db, lens); added != len(want) || fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("seed %d round %d: merge added %d %v, sequential inserts %v", seed, round, added, got, want)
			}
			for _, name := range seq.RelationNames() {
				a, b := db.Relation(name), seq.Relation(name)
				if len(a.slots) != len(b.slots) {
					t.Fatalf("seed %d round %d: %s has %d slots for %d rows, sequential inserts %d", seed, round, name, len(a.slots), a.Len(), len(b.slots))
				}
				if cap(a.rows) > 2*a.Len()+16 {
					t.Fatalf("seed %d round %d: %s row capacity %d for %d rows", seed, round, name, cap(a.rows), a.Len())
				}
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
	if _, err := db.MergeBatch(&batch); err == nil {
		t.Fatal("merging a row of the wrong arity succeeded")
	}
	if got := db.Relation("R").Len(); got != 1 {
		t.Fatalf("R has %d rows after the failed merge, want 1", got)
	}
}
