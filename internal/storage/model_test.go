package storage

import (
	"fmt"
	"math/rand"
	"testing"

	dl "repro/internal/datalog"
)

// relModel is the reference a Relation is checked against: its tuples
// in first-insertion order, kept as plain term slices.
type relModel [][]dl.Term

func sameTuple(a, b []dl.Term) bool {
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

func (m relModel) index(tup []dl.Term) int {
	for i, have := range m {
		if sameTuple(have, tup) {
			return i
		}
	}
	return -1
}

func (m relModel) insert(tup []dl.Term) (relModel, bool) {
	if m.index(tup) >= 0 {
		return m, false
	}
	return append(m, dl.CloneTerms(tup)), true
}

func (m relModel) clone() relModel {
	out := make(relModel, len(m))
	for i, tup := range m {
		out[i] = dl.CloneTerms(tup)
	}
	return out
}

// modelResolve follows repl from t to its final term; a chain that
// runs into a cycle ends at the cycle's Term.Compare-least member.
func modelResolve(repl map[dl.Term]dl.Term, t dl.Term) dl.Term {
	var path []dl.Term
	for cur := t; ; {
		next, ok := repl[cur]
		if !ok || next == cur {
			return cur
		}
		for i, seen := range path {
			if seen == cur {
				least := cur
				for _, c := range path[i:] {
					if c.Compare(least) < 0 {
						least = c
					}
				}
				return least
			}
		}
		path = append(path, cur)
		cur = next
	}
}

// view is an earlier state that must never change: a frozen snapshot,
// with the model it was taken at.
type view struct {
	what string
	rel  *Relation
	want relModel
}

// writer is a relation the test mutates — the live one or a clone —
// with the model it must match.
type writer struct {
	what  string
	rel   *Relation
	model relModel
}

// checkRel compares r with the model: Tuples (order included), Len,
// Contains and ContainsRow on every member, and Contains on a tuple
// outside the model.
func checkRel(r *Relation, want relModel, alphabet []dl.Term) error {
	got := r.Tuples()
	if len(got) != len(want) || r.Len() != len(want) {
		return fmt.Errorf("len: Tuples %d, Len %d, model %d", len(got), r.Len(), len(want))
	}
	for i := range want {
		if !sameTuple(got[i], want[i]) {
			return fmt.Errorf("tuple %d: got %v, model %v", i, got[i], want[i])
		}
		if !r.Contains(want[i]) {
			return fmt.Errorf("Contains(%v) false for a model tuple", want[i])
		}
		ids := make([]int32, len(want[i]))
		for j, term := range want[i] {
			id, ok := r.Interner().Lookup(term)
			if !ok {
				return fmt.Errorf("model term %v not interned", term)
			}
			ids[j] = id
		}
		if !r.ContainsRow(ids) {
			return fmt.Errorf("ContainsRow false for model tuple %v", want[i])
		}
	}
	for _, a := range alphabet {
		for _, b := range alphabet {
			probe := []dl.Term{a, b}
			if want.index(probe) < 0 && r.Contains(probe) {
				return fmt.Errorf("Contains(%v) true for a tuple outside the model", probe)
			}
		}
	}
	return nil
}

// TestModelRelationOps drives random sequences of every mutation —
// Insert, InsertRow, MergeBatch, ReplaceTerms (with chains and
// cycles), Delete — interleaved with Clone and Snapshot. Each mutation
// hits a randomly chosen writable relation: the live one or a clone of
// the live relation, of another clone or of an earlier snapshot. After
// each step every writable relation is checked against its own
// plain tuple-list model and every snapshot against the model it was
// taken at, so a clone or writer appending into storage another
// relation reads or appends into shows up as a changed view.
func TestModelRelationOps(t *testing.T) {
	alphabet := []dl.Term{dl.C("a"), dl.C("b"), dl.C("c"), dl.C("d"), dl.N("n0"), dl.N("n1"), dl.N("n2")}
	for seed := int64(0); seed < 100; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pick := func() dl.Term { return alphabet[rng.Intn(len(alphabet))] }
		tuple := func() []dl.Term { return []dl.Term{pick(), pick()} }

		db := NewInstance()
		rel, err := db.CreateRelation("R", "x", "y")
		if err != nil {
			t.Fatal(err)
		}
		live := &writer{what: "live", rel: rel}
		writers := []*writer{live}
		var views []view
		for step := 0; step < 60; step++ {
			w := writers[rng.Intn(len(writers))]
			var op string
			switch k := rng.Intn(9); k {
			case 0, 1:
				tup := tuple()
				op = fmt.Sprintf("%s.Insert%v", w.what, tup)
				isNew, err := w.rel.Insert(tup)
				var want bool
				w.model, want = w.model.insert(tup)
				if err != nil || isNew != want {
					t.Fatalf("seed %d step %d %s: new=%v err=%v, model new=%v", seed, step, op, isNew, err, want)
				}
			case 2:
				tup := tuple()
				op = fmt.Sprintf("%s.InsertRow%v", w.what, tup)
				isNew, err := w.rel.InsertRow(w.rel.Interner().IDs(tup, nil))
				var want bool
				w.model, want = w.model.insert(tup)
				if err != nil || isNew != want {
					t.Fatalf("seed %d step %d %s: new=%v err=%v, model new=%v", seed, step, op, isNew, err, want)
				}
			case 3:
				var batch Batch
				wantAdded, n := 0, rng.Intn(5)+1
				for i := 0; i < n; i++ {
					tup := tuple()
					batch.Add("R", w.rel.Interner().IDs(tup, nil))
					var isNew bool
					if w.model, isNew = w.model.insert(tup); isNew {
						wantAdded++
					}
				}
				op = fmt.Sprintf("%s.MergeBatch(%d rows)", w.what, n)
				// An instance holding only the writer, so clones merge
				// through MergeBatch too.
				inst := &Instance{relations: map[string]*Relation{"R": w.rel}, order: []string{"R"}, in: w.rel.in}
				if added, err := inst.MergeBatch(&batch); err != nil || added != wantAdded {
					t.Fatalf("seed %d step %d %s: added=%d err=%v, model added=%d", seed, step, op, added, err, wantAdded)
				}
			case 4, 5:
				// Random edges over the alphabet produce chains and,
				// often, cycles; a term outside the alphabet exercises
				// targets the interner has not seen yet.
				repl := map[dl.Term]dl.Term{}
				for i := rng.Intn(3); i >= 0; i-- {
					to := pick()
					if rng.Intn(4) == 0 {
						to = dl.C(fmt.Sprintf("fresh%d", step))
					}
					repl[pick()] = to
				}
				op = fmt.Sprintf("%s.ReplaceTerms%v", w.what, repl)
				wantChanged := 0
				var next relModel
				for _, tup := range w.model {
					out := make([]dl.Term, len(tup))
					for i, term := range tup {
						out[i] = modelResolve(repl, term)
					}
					if !sameTuple(out, tup) {
						wantChanged++
					}
					next, _ = next.insert(out)
				}
				w.model = next
				if changed := w.rel.ReplaceTerms(repl); changed != wantChanged {
					t.Fatalf("seed %d step %d %s: changed=%d, model changed=%d", seed, step, op, changed, wantChanged)
				}
			case 6:
				tup := tuple()
				if len(w.model) > 0 && rng.Intn(3) > 0 {
					tup = dl.CloneTerms(w.model[rng.Intn(len(w.model))])
				}
				op = fmt.Sprintf("%s.Delete%v", w.what, tup)
				want := w.model.index(tup)
				if want >= 0 {
					w.model = append(w.model[:want:want], w.model[want+1:]...)
				}
				if got := w.rel.Delete(tup); got != (want >= 0) {
					t.Fatalf("seed %d step %d %s: deleted=%v, model had it=%v", seed, step, op, got, want >= 0)
				}
			case 7:
				// Clone a writer or an earlier snapshot. A snapshot's
				// clone gets its own interner fork, as
				// Instance.CloneDetached does, so writing to it never
				// interns into the frozen snapshot's interner.
				what := fmt.Sprintf("clone@%d", step)
				src, model, from := w.rel, w.model, w.what
				if i := rng.Intn(len(views) + 1); i < len(views) {
					src, model, from = views[i].rel, views[i].want, views[i].what
				}
				op = fmt.Sprintf("%s = Clone(%s)", what, from)
				c := src.Clone()
				if src.Frozen() {
					c.in = c.in.Fork()
				}
				writers = append(writers, &writer{what: what, rel: c, model: model.clone()})
			case 8:
				op = fmt.Sprintf("Snapshot(%s)", w.what)
				snap := db.Snapshot().Relation("R")
				if w != live {
					snap = w.rel.snapshot(w.rel.in.Fork())
				}
				views = append(views, view{what: fmt.Sprintf("snapshot@%d of %s", step, w.what), rel: snap, want: w.model.clone()})
			}
			for _, w := range writers {
				if err := checkRel(w.rel, w.model, alphabet); err != nil {
					t.Fatalf("seed %d step %d after %s: %s: %v", seed, step, op, w.what, err)
				}
			}
			for _, v := range views {
				if err := checkRel(v.rel, v.want, alphabet); err != nil {
					t.Fatalf("seed %d step %d after %s: %s changed: %v", seed, step, op, v.what, err)
				}
			}
		}
	}
}

func TestTuplesAreCallerOwned(t *testing.T) {
	// Tuples and SortedTuples hand out decoded copies: writing to them
	// must not reach the stored rows.
	r := measurementsRel(t)
	orig := dl.CloneTerms(r.Tuples()[0])
	r.Tuples()[0][0] = dl.C("mutated")
	r.SortedTuples()[0][1] = dl.C("mutated")
	if got := r.Tuples()[0]; !sameTuple(got, orig) {
		t.Fatalf("first tuple = %v after writing to a Tuples result, want %v", got, orig)
	}
	if !r.Contains(orig) || r.Contains([]dl.Term{dl.C("mutated"), orig[1], orig[2]}) {
		t.Fatal("writing to a Tuples result changed membership")
	}
	for _, tup := range r.SortedTuples() {
		for _, term := range tup {
			if term == dl.C("mutated") {
				t.Fatalf("SortedTuples sees a write to an earlier result: %v", tup)
			}
		}
	}
}
