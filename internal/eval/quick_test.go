package eval

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	dl "repro/internal/datalog"
	"repro/internal/storage"
)

// graphValue generates a random edge relation for closure programs.
type graphValue struct {
	DB *storage.Instance
}

func (graphValue) Generate(r *rand.Rand, _ int) reflect.Value {
	db := storage.NewInstance()
	nodes := 2 + r.Intn(6)
	edges := 1 + r.Intn(12)
	for i := 0; i < edges; i++ {
		a := fmt.Sprintf("n%d", r.Intn(nodes))
		b := fmt.Sprintf("n%d", r.Intn(nodes))
		db.MustInsert("Edge", dl.C(a), dl.C(b))
	}
	return reflect.ValueOf(graphValue{DB: db})
}

// naiveMatch is the reference matcher: a nested loop over every tuple
// of each body atom's relation, in source order, extending s with
// datalog.Match — no indexes, no compiled plans. fn returning false
// stops the enumeration; naiveMatch reports whether it completed.
// Tuples are decoded up front, so fn may insert into db.
func naiveMatch(db *storage.Instance, body []dl.Atom, s dl.Subst, fn func(dl.Subst) bool) bool {
	if len(body) == 0 {
		return fn(s)
	}
	rel := db.Relation(body[0].Pred)
	if rel == nil {
		return true
	}
	for _, tup := range rel.Tuples() {
		if ext, ok := dl.Match(body[0], dl.Atom{Pred: body[0].Pred, Args: tup}, s); ok {
			if !naiveMatch(db, body[1:], ext, fn) {
				return false
			}
		}
	}
	return true
}

// naiveEval is a reference implementation: apply every rule against
// the full instance until nothing changes (no delta optimization).
// Used to cross-check the semi-naive engine.
func naiveEval(p *Program, db *storage.Instance) (*storage.Instance, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	strata, err := p.Stratify()
	if err != nil {
		return nil, err
	}
	out := db.Clone()
	for _, rules := range strata {
		for {
			changed := false
			for _, r := range rules {
				var derr error
				naiveMatch(out, r.Body, dl.NewSubst(), func(s dl.Subst) bool {
					ok, err := ruleFilters(r, s, out)
					if err != nil {
						derr = err
						return false
					}
					if !ok {
						return true
					}
					isNew, err := out.InsertAtom(s.ApplyAtom(r.Head))
					if err != nil {
						derr = err
						return false
					}
					if isNew {
						changed = true
					}
					return true
				})
				if derr != nil {
					return nil, derr
				}
			}
			if !changed {
				break
			}
		}
	}
	return out, nil
}

func TestQuickSemiNaiveMatchesNaive(t *testing.T) {
	f := func(gv graphValue) bool {
		p := NewProgram()
		p.Add(NewRule("base", dl.A("Reach", dl.V("x"), dl.V("y")), dl.A("Edge", dl.V("x"), dl.V("y"))))
		p.Add(NewRule("step", dl.A("Reach", dl.V("x"), dl.V("z")),
			dl.A("Reach", dl.V("x"), dl.V("y")), dl.A("Edge", dl.V("y"), dl.V("z"))))
		fast, err := Eval(context.Background(), p, gv.DB)
		if err != nil {
			return false
		}
		slow, err := naiveEval(p, gv.DB)
		if err != nil {
			return false
		}
		return fast.Equal(slow)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuickSemiNaiveMatchesNaiveWithNegation(t *testing.T) {
	f := func(gv graphValue) bool {
		p := NewProgram()
		p.Add(NewRule("base", dl.A("Reach", dl.V("x"), dl.V("y")), dl.A("Edge", dl.V("x"), dl.V("y"))))
		p.Add(NewRule("step", dl.A("Reach", dl.V("x"), dl.V("z")),
			dl.A("Reach", dl.V("x"), dl.V("y")), dl.A("Edge", dl.V("y"), dl.V("z"))))
		p.Add(NewRule("n1", dl.A("Node", dl.V("x")), dl.A("Edge", dl.V("x"), dl.V("y"))))
		p.Add(NewRule("n2", dl.A("Node", dl.V("y")), dl.A("Edge", dl.V("x"), dl.V("y"))))
		p.Add(NewRule("sink", dl.A("Sink", dl.V("x")), dl.A("Node", dl.V("x"))).
			WithNegated(dl.A("Edge", dl.V("x"), dl.V("x"))))
		fast, err := Eval(context.Background(), p, gv.DB)
		if err != nil {
			return false
		}
		slow, err := naiveEval(p, gv.DB)
		if err != nil {
			return false
		}
		return fast.Equal(slow)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuickEvalQueryMatchesLegacyMatcher(t *testing.T) {
	// The compiled-plan EvalQuery must return exactly the answer set
	// the naive nested-loop matcher enumerates.
	f := func(gv graphValue) bool {
		q := dl.NewQuery(dl.A("Q", dl.V("x"), dl.V("z")),
			dl.A("Edge", dl.V("x"), dl.V("y")), dl.A("Edge", dl.V("y"), dl.V("z"))).
			WithNegated(dl.A("Edge", dl.V("x"), dl.V("x")))
		fast, err := EvalQuery(q, gv.DB)
		if err != nil {
			return false
		}
		slow := dl.NewAnswerSet()
		naiveMatch(gv.DB, q.Body, dl.NewSubst(), func(s dl.Subst) bool {
			for _, n := range q.Negated {
				if gv.DB.ContainsAtom(s.ApplyAtom(n)) {
					return true
				}
			}
			terms := make([]dl.Term, len(q.Head.Args))
			for i, v := range q.Head.Args {
				terms[i] = s.Apply(v)
			}
			slow.Add(dl.Answer{Terms: terms})
			return true
		})
		return fast.Equal(slow)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuickClosureContainsEdges(t *testing.T) {
	// Reach ⊇ Edge and Reach is transitively closed.
	f := func(gv graphValue) bool {
		p := NewProgram()
		p.Add(NewRule("base", dl.A("Reach", dl.V("x"), dl.V("y")), dl.A("Edge", dl.V("x"), dl.V("y"))))
		p.Add(NewRule("step", dl.A("Reach", dl.V("x"), dl.V("z")),
			dl.A("Reach", dl.V("x"), dl.V("y")), dl.A("Edge", dl.V("y"), dl.V("z"))))
		out, err := Eval(context.Background(), p, gv.DB)
		if err != nil {
			return false
		}
		reach := out.Relation("Reach")
		for _, e := range gv.DB.Relation("Edge").Tuples() {
			if !reach.Contains(e) {
				return false
			}
		}
		// Closure: Reach ∘ Edge ⊆ Reach.
		for _, rt := range reach.Tuples() {
			for _, e := range gv.DB.Relation("Edge").Tuples() {
				if rt[1] == e[0] && !reach.Contains([]dl.Term{rt[0], e[1]}) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
