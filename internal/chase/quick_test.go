package chase

import (
	"context"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	dl "repro/internal/datalog"
	"repro/internal/storage"
)

// chainWorld generates a random two-level rollup world: base facts
// R0(member, value) plus rollup pairs Up(parent, child), with an
// upward rule and a downward existential rule — the paper's two
// navigation patterns over random data.
type chainWorld struct {
	DB *storage.Instance
}

func (chainWorld) Generate(r *rand.Rand, _ int) reflect.Value {
	db := storage.NewInstance()
	children := []string{"c0", "c1", "c2", "c3"}
	parents := []string{"p0", "p1"}
	for _, c := range children {
		p := parents[r.Intn(len(parents))]
		db.MustInsert("Up", dl.C(p), dl.C(c))
	}
	n := 1 + r.Intn(12)
	for i := 0; i < n; i++ {
		c := children[r.Intn(len(children))]
		db.MustInsert("R0", dl.C(c), dl.C(val(i)))
	}
	m := 1 + r.Intn(6)
	for i := 0; i < m; i++ {
		p := parents[r.Intn(len(parents))]
		db.MustInsert("S1", dl.C(p), dl.C(val(100+i)))
	}
	return reflect.ValueOf(chainWorld{DB: db})
}

func val(i int) string { return string(rune('a' + i%26)) }

func navProgram() *dl.Program {
	prog := dl.NewProgram()
	prog.AddTGD(dl.NewTGD("up",
		[]dl.Atom{dl.A("R1", dl.V("p"), dl.V("x"))},
		[]dl.Atom{dl.A("R0", dl.V("c"), dl.V("x")), dl.A("Up", dl.V("p"), dl.V("c"))}))
	prog.AddTGD(dl.NewTGD("down",
		[]dl.Atom{dl.A("S0", dl.V("c"), dl.V("x"), dl.V("z"))},
		[]dl.Atom{dl.A("S1", dl.V("p"), dl.V("x")), dl.A("Up", dl.V("p"), dl.V("c"))}))
	return prog
}

func TestQuickChaseMonotone(t *testing.T) {
	// The chased instance contains every input atom.
	f := func(w chainWorld) bool {
		res, err := Run(context.Background(), navProgram(), w.DB, Options{})
		if err != nil || !res.Saturated {
			return false
		}
		return len(w.DB.Diff(res.Instance)) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuickChaseIdempotent(t *testing.T) {
	// Chasing a saturated instance fires nothing new.
	f := func(w chainWorld) bool {
		first, err := Run(context.Background(), navProgram(), w.DB, Options{})
		if err != nil || !first.Saturated {
			return false
		}
		second, err := Run(context.Background(), navProgram(), first.Instance, Options{})
		if err != nil || !second.Saturated {
			return false
		}
		return second.Fired == 0 && second.Instance.Equal(first.Instance)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuickChaseDeterministic(t *testing.T) {
	// Same input, same result (instances and counters).
	f := func(w chainWorld) bool {
		a, err := Run(context.Background(), navProgram(), w.DB, Options{})
		if err != nil {
			return false
		}
		b, err := Run(context.Background(), navProgram(), w.DB, Options{})
		if err != nil {
			return false
		}
		return a.Instance.Equal(b.Instance) && a.Fired == b.Fired && a.NullsCreated == b.NullsCreated
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuickUpwardDerivesExactJoin(t *testing.T) {
	// R1 must equal the join of R0 and Up computed independently.
	f := func(w chainWorld) bool {
		res, err := Run(context.Background(), navProgram(), w.DB, Options{})
		if err != nil || !res.Saturated {
			return false
		}
		want := map[string]bool{}
		for _, r0 := range w.DB.Relation("R0").Tuples() {
			for _, up := range w.DB.Relation("Up").Tuples() {
				if up[1] == r0[0] {
					want[dl.A("R1", up[0], r0[1]).Key()] = true
				}
			}
		}
		r1 := res.Instance.Relation("R1")
		if r1 == nil {
			return len(want) == 0
		}
		if r1.Len() != len(want) {
			return false
		}
		for _, tup := range r1.Tuples() {
			if !want[dl.A("R1", tup[0], tup[1]).Key()] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
