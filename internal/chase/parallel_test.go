package chase

import (
	"context"
	"testing"
	"testing/quick"

	dl "repro/internal/datalog"
	"repro/internal/storage"
)

// egdNCProgram extends the navigation program with an EGD (one value
// per parent after rollup) and an NC (no parent may aggregate the
// forbidden value), so the parallel sweep covers every dependency
// kind.
func egdNCProgram() *dl.Program {
	prog := navProgram()
	prog.AddEGD(dl.NewEGD("onev", dl.V("x"), dl.V("y"),
		[]dl.Atom{dl.A("R1", dl.V("p"), dl.V("x")), dl.A("R1", dl.V("p"), dl.V("y"))}))
	prog.AddNC(dl.NewNC("nof", dl.Pos(dl.A("R1", dl.V("p"), dl.C("f")))))
	return prog
}

// identicalResults requires byte-level equality of two chase results:
// same relations, same rows in the same insertion order (terms
// included, so null labels match), same counters and violations.
func identicalResults(a, b *Result) bool {
	if a.Rounds != b.Rounds || a.Fired != b.Fired || a.Merged != b.Merged ||
		a.NullsCreated != b.NullsCreated || a.Saturated != b.Saturated ||
		len(a.Violations) != len(b.Violations) {
		return false
	}
	for i := range a.Violations {
		if a.Violations[i] != b.Violations[i] {
			return false
		}
	}
	an, bn := a.Instance.RelationNames(), b.Instance.RelationNames()
	if len(an) != len(bn) {
		return false
	}
	for i := range an {
		if an[i] != bn[i] {
			return false
		}
		ar, br := a.Instance.Relation(an[i]), b.Instance.Relation(bn[i])
		if ar.Len() != br.Len() {
			return false
		}
		for j, tup := range ar.Tuples() {
			btup := br.Tuples()[j]
			for k := range tup {
				if tup[k] != btup[k] {
					return false
				}
			}
		}
	}
	return true
}

// TestQuickParallelChaseIdentical pins the chase at p=4 (four shards
// of trigger discovery, EGD pair collection and NC checks) to the
// chase at p=1 (one shard each, no worker goroutines), byte for byte:
// discovery shards merge in enumeration order and every application
// stays single-writer, so not just the fixpoint but insertion order,
// null labels, counters and violation lists must be identical.
// naiveChase is the independent reference.
func TestQuickParallelChaseIdentical(t *testing.T) {
	f := func(w chainWorld) bool {
		seq, err := Run(context.Background(), egdNCProgram(), w.DB, Options{Parallelism: 1})
		if err != nil {
			return false
		}
		par, err := Run(context.Background(), egdNCProgram(), w.DB, Options{Parallelism: 4})
		if err != nil {
			return false
		}
		return identicalResults(seq, par)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestQuickParallelExtendIdentical pins the incremental path: states
// absorbing the same delta at p=1 and p=4 stay byte-identical.
func TestQuickParallelExtendIdentical(t *testing.T) {
	f := func(base, delta chainWorld) bool {
		states := make([]*State, 2)
		for i, deg := range []int{1, 4} {
			st, err := NewState(egdNCProgram(), base.DB, Options{Parallelism: deg})
			if err != nil {
				return false
			}
			if err := st.Chase(context.Background()); err != nil {
				return false
			}
			states[i] = st
		}
		atoms := delta.DB.Diff(storage.NewInstance())
		for _, st := range states {
			if _, err := st.Extend(context.Background(), atoms); err != nil {
				return false
			}
		}
		return identicalResults(states[0].Result(), states[1].Result())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 75}); err != nil {
		t.Error(err)
	}
}

// TestParallelChaseCancellation is the per-worker-unit cancellation
// regression for the chase: an already-cancelled context fails Chase
// at every parallelism degree.
func TestParallelChaseCancellation(t *testing.T) {
	db := storage.NewInstance()
	db.MustInsert("R0", dl.C("c0"), dl.C("v"))
	db.MustInsert("Up", dl.C("p0"), dl.C("c0"))
	for _, deg := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := Run(ctx, egdNCProgram(), db, Options{Parallelism: deg}); err == nil {
			t.Fatalf("p=%d: chase with cancelled context succeeded", deg)
		}
		if _, err := Run(context.Background(), egdNCProgram(), db, Options{Parallelism: deg}); err != nil {
			t.Fatalf("p=%d: %v", deg, err)
		}
	}
}
