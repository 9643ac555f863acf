package qa

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	dl "repro/internal/datalog"
	"repro/internal/rewrite"
	"repro/internal/storage"
)

// worldValue generates a random two-level navigation world with an
// upward rule and a downward existential rule, mirroring the paper's
// two rule patterns, plus a random query from a fixed battery.
type worldValue struct {
	DB    *storage.Instance
	Query *dl.Query
}

func (worldValue) Generate(r *rand.Rand, _ int) reflect.Value {
	db := storage.NewInstance()
	children := []string{"c0", "c1", "c2"}
	parents := []string{"p0", "p1"}
	for _, c := range children {
		db.MustInsert("Up", dl.C(parents[r.Intn(len(parents))]), dl.C(c))
	}
	for i := 0; i < 1+r.Intn(8); i++ {
		db.MustInsert("R0", dl.C(children[r.Intn(len(children))]), dl.C(fmt.Sprintf("v%d", r.Intn(4))))
	}
	for i := 0; i < 1+r.Intn(4); i++ {
		db.MustInsert("S1", dl.C(parents[r.Intn(len(parents))]), dl.C(fmt.Sprintf("w%d", r.Intn(3))))
	}
	queries := []*dl.Query{
		dl.NewQuery(dl.A("Q", dl.V("p"), dl.V("x")), dl.A("R1", dl.V("p"), dl.V("x"))),
		dl.NewQuery(dl.A("Q", dl.V("x")), dl.A("R1", dl.C("p0"), dl.V("x"))),
		dl.NewQuery(dl.A("Q", dl.V("c")), dl.A("S0", dl.V("c"), dl.C("w0"), dl.V("z"))),
		dl.NewQuery(dl.A("Q", dl.V("z")), dl.A("S0", dl.V("c"), dl.V("x"), dl.V("z"))),
		dl.NewQuery(dl.A("Q"), dl.A("R1", dl.V("p"), dl.V("x")), dl.A("S0", dl.V("c"), dl.V("y"), dl.V("z"))),
		dl.NewQuery(dl.A("Q", dl.V("x"), dl.V("c")),
			dl.A("R1", dl.V("p"), dl.V("x")), dl.A("Up", dl.V("p"), dl.V("c"))),
	}
	return reflect.ValueOf(worldValue{DB: db, Query: queries[r.Intn(len(queries))]})
}

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

func TestQuickDetQAMatchesChaseOracle(t *testing.T) {
	// The central correctness property of Section IV: the
	// deterministic top-down algorithm computes exactly the certain
	// answers the chase yields, on random worlds and queries.
	prog := navProgram()
	f := func(w worldValue) bool {
		oracle, err := CertainAnswersViaChase(context.Background(), prog, w.DB, w.Query, ChaseOptions{})
		if err != nil {
			return false
		}
		det, err := Answer(context.Background(), prog, w.DB, w.Query, Options{})
		if err != nil {
			return false
		}
		return det.Equal(oracle)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuickDetQAReadOnly(t *testing.T) {
	prog := navProgram()
	f := func(w worldValue) bool {
		before := w.DB.TotalTuples()
		if _, err := Answer(context.Background(), prog, w.DB, w.Query, Options{}); err != nil {
			return false
		}
		return w.DB.TotalTuples() == before
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuickMemoInvariance(t *testing.T) {
	prog := navProgram()
	f := func(w worldValue) bool {
		with, err := Answer(context.Background(), prog, w.DB, w.Query, Options{})
		if err != nil {
			return false
		}
		without, err := Answer(context.Background(), prog, w.DB, w.Query, Options{DisableMemo: true})
		if err != nil {
			return false
		}
		return with.Equal(without)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuickMoreDepthNeverLosesAnswers(t *testing.T) {
	// Answers are monotone in the depth budget.
	prog := navProgram()
	f := func(w worldValue) bool {
		shallow, err := Answer(context.Background(), prog, w.DB, w.Query, Options{MaxDepth: 1})
		if err != nil {
			return false
		}
		deep, err := Answer(context.Background(), prog, w.DB, w.Query, Options{MaxDepth: 6})
		if err != nil {
			return false
		}
		for _, a := range shallow.All() {
			if !deep.Contains(a) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// stratLevels is the number of predicate levels of stratWorld's
// programs; level 0 is read by rules and produced by none.
const stratLevels = 3

// stratWorld is a random level-stratified TGD program with instance
// and query. Every rule reads atoms of one level and writes one or two
// head atoms a level up, so the chase terminates; the head atoms of a
// rule with existential variables share one, which makes multi-atom
// pieces.
type stratWorld struct {
	Prog  *dl.Program
	DB    *storage.Instance
	Query *dl.Query
}

func genStratWorld(r *rand.Rand) stratWorld {
	consts := []string{"a", "b", "c"}
	pred := func(level, k int) string { return fmt.Sprintf("L%d_%d", level, k) }
	arity := map[string]int{}
	for l := 0; l < stratLevels; l++ {
		for k := 0; k < 2; k++ {
			arity[pred(l, k)] = 1 + r.Intn(3)
		}
	}
	// atom draws a random atom of the level over vars, with a
	// constant at about one position in eight.
	atom := func(level int, vars []string) dl.Atom {
		a := dl.Atom{Pred: pred(level, r.Intn(2))}
		for i := 0; i < arity[a.Pred]; i++ {
			if len(vars) == 0 || r.Intn(8) == 0 {
				a.Args = append(a.Args, dl.C(consts[r.Intn(len(consts))]))
			} else {
				a.Args = append(a.Args, dl.V(vars[r.Intn(len(vars))]))
			}
		}
		return a
	}
	w := stratWorld{Prog: dl.NewProgram(), DB: storage.NewInstance()}
	for i := 0; i < 2+r.Intn(3); i++ {
		level := r.Intn(stratLevels - 1)
		var body []dl.Atom
		for j := 0; j < 1+r.Intn(2); j++ {
			body = append(body, atom(level, []string{"x", "y", "w"}[:1+r.Intn(3)]))
		}
		var vars []string
		for _, v := range dl.VarsOfAtoms(body) {
			vars = append(vars, v.Name)
		}
		nex := r.Intn(3)
		ex := []string{"z1", "z2"}[:nex]
		var head []dl.Atom
		for j := 0; j < 1+r.Intn(2); j++ {
			head = append(head, atom(level+1, slices.Concat(vars, ex)))
		}
		if nex > 0 {
			z := dl.V(ex[r.Intn(nex)])
			for _, h := range head {
				h.Args[r.Intn(len(h.Args))] = z
			}
		}
		w.Prog.AddTGD(dl.NewTGD(fmt.Sprintf("t%d", i), head, body))
	}
	for i := 0; i < 3+r.Intn(8); i++ {
		a := atom(r.Intn(stratLevels), nil)
		w.DB.MustInsert(a.Pred, a.Args...)
	}
	var body []dl.Atom
	for j := 0; j < 1+r.Intn(3); j++ {
		body = append(body, atom(r.Intn(stratLevels), []string{"u", "v", "s"}))
	}
	vars := dl.VarsOfAtoms(body)
	var ans []dl.Term
	for _, v := range vars {
		if r.Intn(2) == 0 {
			ans = append(ans, v)
		}
	}
	w.Query = dl.NewQuery(dl.Atom{Pred: "Q", Args: ans}, body...)
	if len(vars) > 0 && r.Intn(3) == 0 {
		rhs := dl.C(consts[r.Intn(len(consts))])
		if r.Intn(2) == 0 {
			rhs = vars[r.Intn(len(vars))]
		}
		w.Query.WithCond(dl.OpNe, vars[r.Intn(len(vars))], rhs)
	}
	return w
}

// TestRandomStratifiedProgramsAgree checks DeterministicWSQAns and
// the FO rewriter against the chase oracle on random level-stratified
// programs with multi-atom heads (non-recursive, so FO-rewritable).
func TestRandomStratifiedProgramsAgree(t *testing.T) {
	// A goal at level l takes at most 1 + 2·(its level-(l-1) body
	// goals' applications) TGD applications, and the depth budget is
	// shared by the query's (at most 3) atoms.
	perGoal := 0
	for l := 1; l < stratLevels; l++ {
		perGoal = 1 + 2*perGoal
	}
	opts := Options{MaxDepth: 3 * perGoal}
	ctx := context.Background()
	nonEmpty, multiHead := 0, 0
	for seed := int64(0); seed < 1000; seed++ {
		w := genStratWorld(rand.New(rand.NewSource(seed)))
		oracle, err := CertainAnswersViaChase(ctx, w.Prog, w.DB, w.Query, ChaseOptions{})
		if err != nil {
			t.Fatalf("seed %d: chase: %v", seed, err)
		}
		det, err := Answer(ctx, w.Prog, w.DB, w.Query, opts)
		if err != nil {
			t.Fatalf("seed %d: detqa: %v", seed, err)
		}
		rw, err := rewrite.Answer(ctx, w.Prog, w.DB, w.Query, rewrite.Options{})
		if err != nil {
			t.Fatalf("seed %d: rewrite: %v", seed, err)
		}
		if !det.Equal(oracle) || !rw.Equal(oracle) {
			t.Errorf("seed %d: query %s over\n%v\nDetQA %v; rewrite %v; chase %v", seed, w.Query, w.Prog, det, rw, oracle)
		}
		if oracle.Len() > 0 {
			nonEmpty++
		}
		for _, tgd := range w.Prog.TGDs {
			if len(tgd.Head) == 2 && len(tgd.ExistentialVars()) > 0 {
				multiHead++
				break
			}
		}
	}
	// Guard the generator: a change to it must not make the check
	// vacuous.
	if nonEmpty < 150 || multiHead < 300 {
		t.Errorf("%d of 1000 queries have certain answers and %d programs a two-atom existential head; want at least 150 and 300", nonEmpty, multiHead)
	}
}
