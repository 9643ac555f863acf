package eval

import (
	"context"
	"testing"
	"testing/quick"

	dl "repro/internal/datalog"
	"repro/internal/storage"
)

// evalAt runs the closure program at one parallelism degree.
func evalAt(t *testing.T, p *Program, db *storage.Instance, parallelism int) *storage.Instance {
	t.Helper()
	strata, err := p.Stratify()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	out := db.CloneDetached()
	st := NewState(strata, out)
	st.SetParallelism(parallelism)
	if err := st.Init(context.Background()); err != nil {
		t.Fatal(err)
	}
	return out
}

func closureProgram() *Program {
	p := NewProgram()
	p.Add(NewRule("base", dl.A("Reach", dl.V("x"), dl.V("y")), dl.A("Edge", dl.V("x"), dl.V("y"))))
	p.Add(NewRule("step", dl.A("Reach", dl.V("x"), dl.V("z")),
		dl.A("Reach", dl.V("x"), dl.V("y")), dl.A("Edge", dl.V("y"), dl.V("z"))))
	return p
}

// TestQuickParallelInitMatchesSequential pins the round loop at p=4
// (sharded full passes, chunked delta passes, deterministic batch
// merges) to the same loop at p=1 (one shard per unit, no worker
// goroutines) on random graphs — the fixpoints must hold exactly the
// same tuples. naiveEval is the independent reference.
func TestQuickParallelInitMatchesSequential(t *testing.T) {
	f := func(gv graphValue) bool {
		p := closureProgram()
		p.Add(NewRule("n1", dl.A("Node", dl.V("x")), dl.A("Edge", dl.V("x"), dl.V("y"))))
		p.Add(NewRule("n2", dl.A("Node", dl.V("y")), dl.A("Edge", dl.V("x"), dl.V("y"))))
		p.Add(NewRule("sink", dl.A("Sink", dl.V("x")), dl.A("Node", dl.V("x"))).
			WithNegated(dl.A("Edge", dl.V("x"), dl.V("x"))))
		seq := evalAt(t, p, gv.DB, 1)
		par := evalAt(t, p, gv.DB, 4)
		return par.Equal(seq)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestQuickParallelExtendMatchesSequential pins the incremental path
// across widths: a state extended delta-by-delta at p=4 must land on
// the same fixpoint as the state at p=1.
func TestQuickParallelExtendMatchesSequential(t *testing.T) {
	f := func(base, delta graphValue) bool {
		p := closureProgram()
		strata, err := p.Stratify()
		if err != nil {
			return false
		}
		states := make([]*State, 2)
		for i, deg := range []int{1, 4} {
			st := NewState(strata, base.DB.CloneDetached())
			st.SetParallelism(deg)
			if err := st.Init(context.Background()); err != nil {
				return false
			}
			states[i] = st
		}
		var facts []Fact
		in := states[0].Instance().Interner()
		for _, row := range delta.DB.Relation("Edge").Rows() {
			// Both states are detached clones of one base, so ids line
			// up only for terms the base interner already knew; re-map
			// through terms to be safe.
			terms := delta.DB.Interner().Terms(row, nil)
			facts = append(facts, Fact{Pred: "Edge", Row: in.IDs(terms, nil)})
		}
		var facts4 []Fact
		in4 := states[1].Instance().Interner()
		for _, row := range delta.DB.Relation("Edge").Rows() {
			terms := delta.DB.Interner().Terms(row, nil)
			facts4 = append(facts4, Fact{Pred: "Edge", Row: in4.IDs(terms, nil)})
		}
		if _, err := states[0].Extend(context.Background(), facts); err != nil {
			return false
		}
		if _, err := states[1].Extend(context.Background(), facts4); err != nil {
			return false
		}
		return states[0].Instance().Equal(states[1].Instance())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestParallelCancellation is the per-worker-unit cancellation
// regression: an already-cancelled context must fail Init at every
// parallelism degree, before any derivation work runs to completion.
func TestParallelCancellation(t *testing.T) {
	db := storage.NewInstance()
	for i := 0; i < 8; i++ {
		db.MustInsert("Edge", dl.C(string(rune('a'+i))), dl.C(string(rune('a'+(i+1)%8))))
	}
	for _, deg := range []int{1, 4} {
		p := closureProgram()
		strata, err := p.Stratify()
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		st := NewState(strata, db.CloneDetached())
		st.SetParallelism(deg)
		if err := st.Init(ctx); err == nil {
			t.Fatalf("p=%d: Init with cancelled context succeeded", deg)
		}
		// The state recovers with a live context.
		st2 := NewState(strata, db.CloneDetached())
		st2.SetParallelism(deg)
		if err := st2.Init(context.Background()); err != nil {
			t.Fatalf("p=%d: %v", deg, err)
		}
		ctx2, cancel2 := context.WithCancel(context.Background())
		cancel2()
		if _, err := st2.Extend(ctx2, []Fact{{Pred: "Edge", Row: st2.Instance().Relation("Edge").Row(0)}}); err == nil {
			t.Fatalf("p=%d: Extend with cancelled context succeeded", deg)
		}
	}
}
