package chase

import (
	"context"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"

	dl "repro/internal/datalog"
	"repro/internal/storage"
)

// splitWorld generates a random base instance plus a delta batch of
// the same atom shapes, for pinning the incremental chase to the
// one-shot chase on base+delta.
type splitWorld struct {
	Base  *storage.Instance
	Delta []dl.Atom
}

func (splitWorld) Generate(r *rand.Rand, _ int) reflect.Value {
	children := []string{"c0", "c1", "c2", "c3"}
	parents := []string{"p0", "p1"}
	randAtom := func() dl.Atom {
		switch r.Intn(4) {
		case 0:
			return dl.A("R0", dl.C(children[r.Intn(len(children))]), dl.C(val(r.Intn(12))))
		case 1:
			return dl.A("S1", dl.C(parents[r.Intn(len(parents))]), dl.C(val(100+r.Intn(6))))
		case 2:
			// Val anchors S0's invented nulls via the key EGD of
			// egdProgram; a narrow value domain provokes both merges
			// and hard constant/constant conflicts.
			return dl.A("Val", dl.C(children[r.Intn(len(children))]), dl.C(val(100+r.Intn(6))), dl.C(val(200+r.Intn(2))))
		default:
			return dl.A("Up", dl.C(parents[r.Intn(len(parents))]), dl.C(children[r.Intn(len(children))]))
		}
	}
	db := storage.NewInstance()
	// Every child rolls up somewhere, then random extra facts.
	for _, c := range children {
		db.MustInsert("Up", dl.C(parents[r.Intn(len(parents))]), dl.C(c))
	}
	for i := 1 + r.Intn(10); i > 0; i-- {
		a := randAtom()
		db.MustInsert(a.Pred, a.Args...)
	}
	var delta []dl.Atom
	for i := 1 + r.Intn(10); i > 0; i-- {
		delta = append(delta, randAtom())
	}
	return reflect.ValueOf(splitWorld{Base: db, Delta: delta})
}

// fullProgram is existential-free: incremental and scratch results
// must be exactly equal.
func fullProgram() *dl.Program {
	prog := dl.NewProgram()
	prog.AddTGD(dl.NewTGD("up",
		[]dl.Atom{dl.A("R1", dl.V("p"), dl.V("x"))},
		[]dl.Atom{dl.A("R0", dl.V("c"), dl.V("x")), dl.A("Up", dl.V("p"), dl.V("c"))}))
	prog.AddTGD(dl.NewTGD("match",
		[]dl.Atom{dl.A("R2", dl.V("p"), dl.V("x"))},
		[]dl.Atom{dl.A("R1", dl.V("p"), dl.V("x")), dl.A("S1", dl.V("p"), dl.V("x"))}))
	return prog
}

// scratchOn builds base+delta from scratch and chases it one-shot.
func scratchOn(t *testing.T, prog *dl.Program, w splitWorld, opts Options) *Result {
	t.Helper()
	combined := w.Base.Clone()
	for _, a := range w.Delta {
		if _, err := combined.InsertAtom(a); err != nil {
			t.Fatal(err)
		}
	}
	res, err := Run(context.Background(), prog, combined, opts)
	if err != nil || !res.Saturated {
		t.Fatalf("scratch chase failed: %v (saturated=%v)", err, res != nil && res.Saturated)
	}
	return res
}

// incrementalOn chases the base, then extends with the delta split
// into batches (exercising repeated Apply).
func incrementalOn(t *testing.T, prog *dl.Program, w splitWorld, opts Options, batches int) *State {
	t.Helper()
	st, err := NewState(prog, w.Base, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Chase(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !st.Result().Saturated {
		t.Fatal("base chase did not saturate")
	}
	per := (len(w.Delta) + batches - 1) / batches
	if per == 0 {
		per = 1
	}
	for i := 0; i < len(w.Delta); i += per {
		end := i + per
		if end > len(w.Delta) {
			end = len(w.Delta)
		}
		info, err := st.Extend(context.Background(), w.Delta[i:end])
		if err != nil {
			t.Fatal(err)
		}
		if !info.Saturated {
			t.Fatal("extend did not saturate")
		}
	}
	return st
}

func TestQuickIncrementalMatchesScratchFull(t *testing.T) {
	// Existential-free program: the incremental instance must equal
	// the scratch instance exactly.
	f := func(w splitWorld) bool {
		scratch := scratchOn(t, fullProgram(), w, Options{})
		st := incrementalOn(t, fullProgram(), w, Options{}, 2)
		return st.Instance().Equal(scratch.Instance)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// maskedTuples renders a relation's tuples with nulls masked, sorted —
// the canonical form for comparing chase results up to null renaming.
func maskedTuples(rel *storage.Relation) []string {
	if rel == nil {
		return nil
	}
	out := make([]string, 0, rel.Len())
	for _, tup := range rel.Tuples() {
		parts := make([]string, len(tup))
		for i, term := range tup {
			if term.IsNull() {
				parts[i] = "?"
			} else {
				parts[i] = term.String()
			}
		}
		out = append(out, strings.Join(parts, ","))
	}
	sort.Strings(out)
	return out
}

func sameMasked(a, b *storage.Instance) bool {
	names := map[string]bool{}
	for _, n := range a.RelationNames() {
		names[n] = true
	}
	for _, n := range b.RelationNames() {
		names[n] = true
	}
	for n := range names {
		am, bm := maskedTuples(a.Relation(n)), maskedTuples(b.Relation(n))
		if len(am) != len(bm) {
			return false
		}
		for i := range am {
			if am[i] != bm[i] {
				return false
			}
		}
	}
	return true
}

func TestQuickIncrementalMatchesScratchExistential(t *testing.T) {
	// With existential rules the null labels differ between the two
	// paths (firing order differs), but the instances must agree up to
	// null renaming: same null-masked tuple multisets everywhere.
	f := func(w splitWorld) bool {
		scratch := scratchOn(t, navProgram(), w, Options{})
		st := incrementalOn(t, navProgram(), w, Options{}, 3)
		return sameMasked(st.Instance(), scratch.Instance)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// egdProgram anchors S0's invented null to the Val constant via an
// EGD: a delta Val fact merges a null created while chasing the base,
// exercising the EGD-merge fallback (full re-match round, rebuilt
// row storage) in the incremental path. Two Val facts
// with different constants for one (c, x) produce hard conflicts.
func egdProgram() *dl.Program {
	prog := navProgram()
	prog.AddEGD(dl.NewEGD("anchor",
		dl.V("z"), dl.V("v"),
		[]dl.Atom{
			dl.A("S0", dl.V("c"), dl.V("x"), dl.V("z")),
			dl.A("Val", dl.V("c"), dl.V("x"), dl.V("v")),
		}))
	return prog
}

func violationSet(vs []Violation) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = v.String()
	}
	sort.Strings(out)
	return out
}

func TestQuickIncrementalMatchesScratchEGDs(t *testing.T) {
	f := func(w splitWorld) bool {
		scratch := scratchOn(t, egdProgram(), w, Options{})
		st := incrementalOn(t, egdProgram(), w, Options{}, 2)
		if !sameMasked(st.Instance(), scratch.Instance) {
			return false
		}
		a, b := violationSet(st.Result().Violations), violationSet(scratch.Violations)
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestRunCancellation(t *testing.T) {
	w := splitWorld{}.Generate(rand.New(rand.NewSource(1)), 0).Interface().(splitWorld)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, navProgram(), w.Base, Options{}); err == nil {
		t.Fatal("want cancellation error, got nil")
	}
}

func TestExtendCancellation(t *testing.T) {
	w := splitWorld{}.Generate(rand.New(rand.NewSource(2)), 0).Interface().(splitWorld)
	st, err := NewState(navProgram(), w.Base, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Chase(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := st.Extend(ctx, w.Delta); err == nil {
		t.Fatal("want cancellation error, got nil")
	}
}

// countdownCtx reports cancellation from its (left+1)-th Err call on.
type countdownCtx struct {
	context.Context
	left atomic.Int64
}

func (c *countdownCtx) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestChaseResumesAfterCancellation cancels a Chase at each of its
// cancellation checks in turn, then extends the state with an
// unrelated fact under a live context: the result must match the
// reference over base ∪ delta. Out(a) is only derived in the full round
// after the round-3 EGD merge rewrites B(a, ⊥) into B(a, c), a row below
// the delta frontier, so a cancelled full round must leave the next
// call to re-match in full.
func TestChaseResumesAfterCancellation(t *testing.T) {
	prog := dl.NewProgram()
	prog.AddTGD(dl.NewTGD("k", []dl.Atom{dl.A("K", dl.V("x"), dl.C("c"))}, []dl.Atom{dl.A("K1", dl.V("x"))}))
	prog.AddTGD(dl.NewTGD("k1", []dl.Atom{dl.A("K1", dl.V("x"))}, []dl.Atom{dl.A("K0", dl.V("x"))}))
	prog.AddTGD(dl.NewTGD("b", []dl.Atom{dl.A("B", dl.V("x"), dl.V("z"))}, []dl.Atom{dl.A("A", dl.V("x"))}))
	prog.AddTGD(dl.NewTGD("k0", []dl.Atom{dl.A("K0", dl.V("x"))}, []dl.Atom{dl.A("A", dl.V("x"))}))
	prog.AddTGD(dl.NewTGD("out", []dl.Atom{dl.A("Out", dl.V("x"))},
		[]dl.Atom{dl.A("B", dl.V("x"), dl.V("y")), dl.A("D", dl.V("y"))}))
	prog.AddEGD(dl.NewEGD("key", dl.V("z"), dl.V("v"), []dl.Atom{
		dl.A("B", dl.V("x"), dl.V("z")),
		dl.A("K", dl.V("x"), dl.V("v")),
	}))
	base := storage.NewInstance()
	base.MustInsert("A", dl.C("a"))
	base.MustInsert("D", dl.C("c"))
	delta := []dl.Atom{dl.A("Z", dl.C("q"))}
	combined := base.Clone()
	combined.MustInsert("Z", dl.C("q"))
	want := naiveChase(prog, combined)

	for _, p := range []int{1, 2} {
		cutAfterMerge := false
		for n := int64(0); ; n++ {
			st, err := NewState(prog, base, Options{Parallelism: p})
			if err != nil {
				t.Fatal(err)
			}
			ctx := &countdownCtx{Context: context.Background()}
			ctx.left.Store(n)
			if err := st.Chase(ctx); err == nil {
				break
			}
			if st.Result().Merged > 0 && st.Instance().Relation("Out") == nil {
				cutAfterMerge = true
			}
			if _, err := st.Extend(context.Background(), delta); err != nil {
				t.Fatalf("p=%d, cancelled at check %d: Extend: %v", p, n, err)
			}
			if d := diffNaive(st.Result(), want); d != "" {
				t.Fatalf("p=%d, cancelled at check %d: Extend differs from the reference: %s", p, n, d)
			}
		}
		if !cutAfterMerge {
			t.Errorf("p=%d: no cancellation fell between the merge and Out(a)", p)
		}
	}
}

func TestStateResultCounters(t *testing.T) {
	// Counters accumulate across Extend calls and match one-shot
	// totals for an existential-free program.
	w := splitWorld{}.Generate(rand.New(rand.NewSource(3)), 0).Interface().(splitWorld)
	scratch := scratchOn(t, fullProgram(), w, Options{})
	st := incrementalOn(t, fullProgram(), w, Options{}, 2)
	if st.Result().Fired != scratch.Fired {
		t.Errorf("cumulative Fired = %d, scratch = %d", st.Result().Fired, scratch.Fired)
	}
}
