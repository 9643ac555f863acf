package storage

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	dl "repro/internal/datalog"
)

// tuplesValue generates a batch of random ground tuples of fixed
// arity over a small alphabet, so duplicates and index collisions are
// common.
type tuplesValue struct {
	Tuples [][]dl.Term
}

func (tuplesValue) Generate(r *rand.Rand, _ int) reflect.Value {
	names := []string{"a", "b", "c", "d"}
	n := 1 + r.Intn(20)
	out := make([][]dl.Term, n)
	for i := range out {
		tup := make([]dl.Term, 3)
		for j := range tup {
			if r.Intn(6) == 0 {
				tup[j] = dl.N(names[r.Intn(len(names))])
			} else {
				tup[j] = dl.C(names[r.Intn(len(names))])
			}
		}
		out[i] = tup
	}
	return reflect.ValueOf(tuplesValue{Tuples: out})
}

func TestQuickInsertContains(t *testing.T) {
	f := func(tv tuplesValue) bool {
		rel := NewRelation(Schema{Name: "R", Attrs: []string{"x", "y", "z"}})
		for _, tup := range tv.Tuples {
			if _, err := rel.Insert(tup); err != nil {
				return false
			}
		}
		for _, tup := range tv.Tuples {
			if !rel.Contains(tup) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuickInsertDedupCount(t *testing.T) {
	f := func(tv tuplesValue) bool {
		rel := NewRelation(Schema{Name: "R", Attrs: []string{"x", "y", "z"}})
		distinct := map[string]bool{}
		for _, tup := range tv.Tuples {
			added, err := rel.Insert(tup)
			if err != nil {
				return false
			}
			k := dl.Atom{Pred: "R", Args: tup}.Key()
			if added == distinct[k] {
				return false // added iff not seen before
			}
			distinct[k] = true
		}
		return rel.Len() == len(distinct)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuickDeleteRemoves(t *testing.T) {
	f := func(tv tuplesValue, pick uint8) bool {
		rel := NewRelation(Schema{Name: "R", Attrs: []string{"x", "y", "z"}})
		for _, tup := range tv.Tuples {
			if _, err := rel.Insert(tup); err != nil {
				return false
			}
		}
		victim := tv.Tuples[int(pick)%len(tv.Tuples)]
		before := rel.Len()
		if !rel.Delete(victim) {
			return false
		}
		return !rel.Contains(victim) && rel.Len() == before-1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuickMatchAtomAgreesWithScan(t *testing.T) {
	// An indexed single-atom plan must return exactly the tuples a
	// brute force scan+Match finds.
	f := func(tv tuplesValue, pv uint8) bool {
		db := NewInstance()
		for _, tup := range tv.Tuples {
			if _, err := db.Insert("R", tup...); err != nil {
				return false
			}
		}
		// Random pattern: mix of constants from the alphabet and vars.
		r := rand.New(rand.NewSource(int64(pv)))
		names := []string{"a", "b", "c", "d"}
		args := make([]dl.Term, 3)
		for i := range args {
			if r.Intn(2) == 0 {
				args[i] = dl.V([]string{"u", "v", "w"}[i])
			} else {
				args[i] = dl.C(names[r.Intn(len(names))])
			}
		}
		pattern := dl.Atom{Pred: "R", Args: args}

		indexed := map[string]int{}
		CompileQueryPlan(db, []dl.Atom{pattern}).Run(db, dl.NewSubst(), func(s dl.Subst) bool {
			indexed[s.ApplyAtom(pattern).Key()]++
			return true
		})
		scanned := map[string]int{}
		for _, tup := range db.Relation("R").Tuples() {
			fact := dl.Atom{Pred: "R", Args: tup}
			if s, ok := dl.Match(pattern, fact, dl.NewSubst()); ok {
				scanned[s.ApplyAtom(pattern).Key()]++
			}
		}
		if len(indexed) != len(scanned) {
			return false
		}
		for k, v := range scanned {
			if indexed[k] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuickCloneEquality(t *testing.T) {
	f := func(tv tuplesValue) bool {
		db := NewInstance()
		for _, tup := range tv.Tuples {
			if _, err := db.Insert("R", tup...); err != nil {
				return false
			}
		}
		clone := db.Clone()
		if !db.Equal(clone) {
			return false
		}
		// Mutating the clone must not affect the original.
		clone.MustInsert("R", dl.C("fresh"), dl.C("fresh"), dl.C("fresh"))
		return !db.ContainsAtom(dl.A("R", dl.C("fresh"), dl.C("fresh"), dl.C("fresh")))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuickReplaceTermEliminatesOld(t *testing.T) {
	f := func(tv tuplesValue) bool {
		db := NewInstance()
		for _, tup := range tv.Tuples {
			if _, err := db.Insert("R", tup...); err != nil {
				return false
			}
		}
		old := dl.N("a")
		db.ReplaceTerm(old, dl.C("merged"))
		for _, tup := range db.Relation("R").Tuples() {
			for _, term := range tup {
				if term == old {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuickReplaceTermsMatchesSequential(t *testing.T) {
	// One batched ReplaceTerms (single rebuild) must produce the same
	// instance as applying the merges one at a time, chains included.
	f := func(tv tuplesValue) bool {
		batched := NewInstance()
		sequential := NewInstance()
		for _, tup := range tv.Tuples {
			if _, err := batched.Insert("R", tup...); err != nil {
				return false
			}
			if _, err := sequential.Insert("R", tup...); err != nil {
				return false
			}
		}
		// A merge cascade with a chain: n(a)->n(b)->C(m), plus an
		// independent merge n(c)->C(k).
		repl := map[dl.Term]dl.Term{
			dl.N("a"): dl.N("b"),
			dl.N("b"): dl.C("m"),
			dl.N("c"): dl.C("k"),
		}
		batched.ReplaceTerms(repl)
		// Sequential application in chain order.
		sequential.ReplaceTerm(dl.N("a"), dl.N("b"))
		sequential.ReplaceTerm(dl.N("b"), dl.C("m"))
		sequential.ReplaceTerm(dl.N("c"), dl.C("k"))
		return batched.Equal(sequential)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestReplaceTermsCycleMergesToLeast(t *testing.T) {
	// A cyclic replacement request is a merge class: every member maps
	// to the cycle's least term, not a parity-dependent rotation.
	db := NewInstance()
	db.MustInsert("R", dl.N("a"), dl.N("b"), dl.N("c"))
	db.ReplaceTerms(map[dl.Term]dl.Term{
		dl.N("a"): dl.N("b"),
		dl.N("b"): dl.N("a"),
		dl.N("c"): dl.N("a"), // chain into the cycle
	})
	want := []dl.Term{dl.N("a"), dl.N("a"), dl.N("a")}
	if !db.Relation("R").Contains(want) || db.Relation("R").Len() != 1 {
		t.Errorf("cycle merge produced %v, want single row %v", db.Relation("R").Tuples(), want)
	}
}

func TestQuickRowAPIAgreesWithTermAPI(t *testing.T) {
	// InsertRow/ContainsRow over interned ids must agree with the
	// Term-level Insert/Contains views.
	f := func(tv tuplesValue) bool {
		db := NewInstance()
		in := db.Interner()
		if _, err := db.CreateRelation("R", "x", "y", "z"); err != nil {
			return false
		}
		for _, tup := range tv.Tuples {
			row := in.IDs(tup, nil)
			wasPresent := db.Relation("R").Contains(tup)
			isNew, err := db.InsertRow("R", row)
			if err != nil {
				return false
			}
			if isNew == wasPresent {
				return false // new iff absent before
			}
			if !db.ContainsRow("R", row) || !db.Relation("R").Contains(tup) {
				return false
			}
		}
		// Every stored row round-trips through the interner.
		rel := db.Relation("R")
		for i, row := range rel.Rows() {
			terms := in.Terms(row, nil)
			tup := rel.Tuples()[i]
			for j := range terms {
				if terms[j] != tup[j] {
					return false
				}
			}
		}
		return rel.Len() <= len(tv.Tuples)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuickMergeSuperset(t *testing.T) {
	f := func(av, bv tuplesValue) bool {
		a, b := NewInstance(), NewInstance()
		for _, tup := range av.Tuples {
			if _, err := a.Insert("R", tup...); err != nil {
				return false
			}
		}
		for _, tup := range bv.Tuples {
			if _, err := b.Insert("R", tup...); err != nil {
				return false
			}
		}
		if err := Merge(a, b); err != nil {
			return false
		}
		// a now contains everything from b.
		return len(b.Diff(a)) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
