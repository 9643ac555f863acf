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

// naiveStrata is the oracle's own stratification, independent of
// Program.Stratify: it iterates stratum numbers to a fixpoint, where a
// head predicate's stratum is at least that of every positive body
// predicate and strictly greater than that of every negated one, and
// fails when the numbers outgrow the predicate count (recursion
// through negation).
func naiveStrata(p *Program) ([][]*Rule, error) {
	stratum := map[string]int{}
	idb := map[string]bool{}
	for _, r := range p.Rules {
		idb[r.Head.Pred] = true
	}
	// n*|rules| iterations suffice for a stratifiable program, one
	// more pass detects cycles.
	limit := len(p.Rules)*len(idb) + len(p.Rules) + 1
	for i := 0; i < limit; i++ {
		changed := false
		for _, r := range p.Rules {
			h := stratum[r.Head.Pred]
			for _, b := range r.Body {
				if idb[b.Pred] && stratum[b.Pred] > h {
					h = stratum[b.Pred]
				}
			}
			for _, n := range r.Negated {
				if idb[n.Pred] && stratum[n.Pred]+1 > h {
					h = stratum[n.Pred] + 1
				}
			}
			if h > len(idb) {
				return nil, fmt.Errorf("recursion through negation involving %s", r.Head.Pred)
			}
			if h != stratum[r.Head.Pred] {
				stratum[r.Head.Pred] = h
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	top := 0
	for _, s := range stratum {
		top = max(top, s)
	}
	out := make([][]*Rule, top+1)
	for _, r := range p.Rules {
		s := stratum[r.Head.Pred]
		out[s] = append(out[s], r)
	}
	return out, nil
}

// ruleFilters checks the rule's negated atoms (closed world) and
// comparisons under a complete body match.
func ruleFilters(r *Rule, s dl.Subst, db *storage.Instance) (bool, error) {
	for _, n := range r.Negated {
		if db.ContainsAtom(s.ApplyAtom(n)) {
			return false, nil
		}
	}
	for _, c := range r.Conds {
		ok, err := c.Eval(s)
		if err != nil {
			return false, fmt.Errorf("eval: rule %s: %w", r.ID, err)
		}
		if !ok {
			return false, nil
		}
	}
	return true, nil
}

// naiveEval is a reference implementation: apply every rule against
// the full instance until nothing changes (no delta optimization),
// stratum by stratum of naiveStrata. Used to cross-check the
// semi-naive engine.
func naiveEval(p *Program, db *storage.Instance) (*storage.Instance, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	strata, err := naiveStrata(p)
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

// randProgram draws a random stratifiable program over the EDB
// predicates E/2 and M/1, plus a base instance and a delta batch.
// Derived predicates sit on levels: a positive body atom reads E, M
// or any derived predicate up to its head's level (below it in a
// predicate's first rule), which yields self and mutual recursion
// within a level and diamonds across levels; a
// negated atom reads only E, M or a lower level, so negation never
// stays inside a component. Heads project body variables, so rules
// stage duplicate rows, and the rules are shuffled, so source order is
// not dependency order. hasNeg reports whether any rule negates.
func randProgram(rng *rand.Rand) (p *Program, base *storage.Instance, delta []dl.Atom, hasNeg bool) {
	consts := []string{"a", "b", "c", "d"}
	vars := []dl.Term{dl.V("x"), dl.V("y"), dl.V("z")}
	edbAtom := func() dl.Atom {
		if rng.Intn(2) == 0 {
			return dl.A("M", dl.C(consts[rng.Intn(len(consts))]))
		}
		return dl.A("E", dl.C(consts[rng.Intn(len(consts))]), dl.C(consts[rng.Intn(len(consts))]))
	}
	type pred struct {
		name         string
		arity, level int
	}
	preds := []pred{{"E", 2, -1}, {"M", 1, -1}}
	for i := 2 + rng.Intn(5); i > 0; i-- {
		preds = append(preds, pred{fmt.Sprintf("P%d", len(preds)-2), 1 + rng.Intn(2), rng.Intn(3)})
	}
	withNeg := rng.Intn(2) == 0
	// pick returns a predicate on a level accepted by ok.
	pick := func(ok func(level int) bool) pred {
		for {
			if q := preds[rng.Intn(len(preds))]; ok(q.level) {
				return q
			}
		}
	}
	// atomOver fills q's arguments from vars, with an occasional
	// constant; bound, when non-empty, restricts variables to it.
	atomOver := func(q pred, bound []dl.Term) dl.Atom {
		args := make([]dl.Term, q.arity)
		for i := range args {
			switch {
			case rng.Intn(10) == 0:
				args[i] = dl.C(consts[rng.Intn(len(consts))])
			case bound == nil:
				args[i] = vars[rng.Intn(len(vars))]
			case len(bound) == 0:
				args[i] = dl.C(consts[rng.Intn(len(consts))])
			default:
				args[i] = bound[rng.Intn(len(bound))]
			}
		}
		return dl.A(q.name, args...)
	}
	p = NewProgram()
	for _, h := range preds[2:] {
		// The first rule reads only lower levels, a base case that
		// keeps recursive predicates from staying empty; later rules
		// lead with an atom of the head's own level.
		for k, n := 0, 1+rng.Intn(3); k < n; k++ {
			var body []dl.Atom
			for j, m := 0, 1+rng.Intn(3); j < m; j++ {
				lead := k > 0 && j == 0
				q := pick(func(l int) bool {
					if lead {
						return l == h.level
					}
					return l < h.level || k > 0 && l == h.level
				})
				body = append(body, atomOver(q, nil))
			}
			bound := dl.VarsOfAtoms(body)
			if bound == nil {
				bound = []dl.Term{}
			}
			r := NewRule(fmt.Sprintf("r%d", len(p.Rules)), atomOver(h, bound), body...)
			if withNeg && rng.Intn(3) == 0 {
				r.WithNegated(atomOver(pick(func(l int) bool { return l < h.level }), bound))
				hasNeg = true
			}
			if len(bound) >= 2 && rng.Intn(5) == 0 {
				r.WithCond(dl.OpNe, bound[0], bound[1])
			}
			p.Add(r)
		}
	}
	rng.Shuffle(len(p.Rules), func(i, j int) { p.Rules[i], p.Rules[j] = p.Rules[j], p.Rules[i] })

	base = storage.NewInstance()
	for i := 4 + rng.Intn(16); i > 0; i-- {
		a := edbAtom()
		base.MustInsert(a.Pred, a.Args...)
	}
	for i := 1 + rng.Intn(6); i > 0; i-- {
		delta = append(delta, edbAtom())
	}
	return p, base, delta, hasNeg
}

// checkStrata verifies that strata is a component stratification of p:
// every rule exactly once and in source order within its stratum,
// every body predicate derived no later than the rule's stratum and
// every negated one strictly earlier, and the head predicates of each
// stratum mutually reachable, so no stratum merges two components.
func checkStrata(p *Program, strata [][]*Rule) error {
	stratumOf := map[string]int{}
	pos := map[*Rule]int{}
	for i, r := range p.Rules {
		pos[r] = i
	}
	n := 0
	for si, rules := range strata {
		for i, r := range rules {
			if i > 0 && pos[rules[i-1]] > pos[r] {
				return fmt.Errorf("stratum %d: rule %s before %s, against source order", si, rules[i-1].ID, r.ID)
			}
			stratumOf[r.Head.Pred] = si
			n++
		}
	}
	if n != len(p.Rules) {
		return fmt.Errorf("%d rules in strata, program has %d", n, len(p.Rules))
	}
	reads := map[string]map[string]bool{}
	for si, rules := range strata {
		for _, r := range rules {
			if stratumOf[r.Head.Pred] != si {
				return fmt.Errorf("%s derived in strata %d and %d", r.Head.Pred, stratumOf[r.Head.Pred], si)
			}
			if reads[r.Head.Pred] == nil {
				reads[r.Head.Pred] = map[string]bool{}
			}
			for _, a := range r.Body {
				if s, ok := stratumOf[a.Pred]; ok && s > si {
					return fmt.Errorf("rule %s in stratum %d reads %s from stratum %d", r.ID, si, a.Pred, s)
				}
				reads[r.Head.Pred][a.Pred] = true
			}
			for _, a := range r.Negated {
				if s, ok := stratumOf[a.Pred]; ok && s >= si {
					return fmt.Errorf("rule %s in stratum %d negates %s from stratum %d", r.ID, si, a.Pred, s)
				}
				reads[r.Head.Pred][a.Pred] = true
			}
		}
	}
	// Transitive closure of reads, then mutual reachability per stratum.
	for changed := true; changed; {
		changed = false
		for _, rs := range reads {
			for q := range rs {
				for q2 := range reads[q] {
					if !rs[q2] {
						rs[q2] = true
						changed = true
					}
				}
			}
		}
	}
	for si, rules := range strata {
		for _, a := range rules {
			for _, b := range rules {
				if a.Head.Pred != b.Head.Pred && !reads[a.Head.Pred][b.Head.Pred] {
					return fmt.Errorf("stratum %d: %s does not reach %s", si, a.Head.Pred, b.Head.Pred)
				}
			}
		}
	}
	return nil
}

// TestRandomProgramsMatchOracle evaluates seeded random programs (see
// randProgram) and checks that Stratify returns a component
// stratification, that Init at parallelism 1 and 4 reaches the
// oracle's fixpoint, and, for negation-free programs, that Init on the
// base followed by Extend with the delta reaches the oracle's fixpoint
// over base ∪ delta.
func TestRandomProgramsMatchOracle(t *testing.T) {
	ctx := context.Background()
	for seed := int64(0); seed < 400; seed++ {
		p, base, delta, hasNeg := randProgram(rand.New(rand.NewSource(seed)))
		strata, err := p.Stratify()
		if err != nil {
			t.Fatalf("seed %d: Stratify: %v", seed, err)
		}
		if err := checkStrata(p, strata); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		want, err := naiveEval(p, base)
		if err != nil {
			t.Fatalf("seed %d: oracle: %v", seed, err)
		}
		for _, deg := range []int{1, 4} {
			if got := evalAt(t, p, base, deg); !got.Equal(want) {
				t.Fatalf("seed %d p=%d: Init differs from the oracle:\n%s\nvs\n%s", seed, deg, got, want)
			}
		}
		if hasNeg {
			continue
		}
		combined := base.Clone()
		for _, a := range delta {
			combined.MustInsert(a.Pred, a.Args...)
		}
		want, err = naiveEval(p, combined)
		if err != nil {
			t.Fatalf("seed %d: oracle: %v", seed, err)
		}
		for _, deg := range []int{1, 4} {
			st := NewState(strata, base.CloneDetached())
			st.SetParallelism(deg)
			if err := st.Init(ctx); err != nil {
				t.Fatalf("seed %d p=%d: Init: %v", seed, deg, err)
			}
			facts := make([]Fact, len(delta))
			for i, a := range delta {
				facts[i] = Fact{Pred: a.Pred, Row: st.Instance().Interner().IDs(a.Args, nil)}
			}
			if _, err := st.Extend(ctx, facts); err != nil {
				t.Fatalf("seed %d p=%d: Extend: %v", seed, deg, err)
			}
			if got := st.Instance(); !got.Equal(want) {
				t.Fatalf("seed %d p=%d: Init+Extend differs from the oracle over base ∪ delta:\n%s\nvs\n%s", seed, deg, got, want)
			}
		}
	}
}
