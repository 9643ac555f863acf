package storage

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	dl "repro/internal/datalog"
)

func planTestInstance(t *testing.T) *Instance {
	t.Helper()
	db := NewInstance()
	db.MustInsert("Up", dl.C("p0"), dl.C("c0"))
	db.MustInsert("Up", dl.C("p0"), dl.C("c1"))
	db.MustInsert("Up", dl.C("p1"), dl.C("c2"))
	db.MustInsert("R0", dl.C("c0"), dl.C("a"))
	db.MustInsert("R0", dl.C("c1"), dl.C("b"))
	db.MustInsert("R0", dl.C("c2"), dl.C("a"))
	db.MustInsert("R0", dl.C("c2"), dl.N("n0"))
	return db
}

// collectRun gathers the answers Plan.Run produces for the given
// projection variables, as sorted strings.
func collectRun(p *Plan, db *Instance, init dl.Subst, vars []dl.Term) []string {
	var out []string
	p.Run(db, init, func(s dl.Subst) bool {
		out = append(out, substKey(s, vars))
		return true
	})
	sort.Strings(out)
	return out
}

// substKey renders the terms s binds vars to as one string, kind
// included, so two answers compare equal exactly when their terms do.
func substKey(s dl.Subst, vars []dl.Term) string {
	var b strings.Builder
	for _, v := range vars {
		t := s.Apply(v)
		b.WriteByte(byte('0' + t.Kind))
		b.WriteString(t.Name)
		b.WriteByte('|')
	}
	return b.String()
}

// naiveMatch is the reference matcher compiled plans are checked
// against: a nested loop over every tuple of each body atom's
// relation, in source order, extending s with datalog.Match. No
// indexes, no reordering, no interned rows.
func naiveMatch(db *Instance, body []dl.Atom, s dl.Subst, fn func(dl.Subst)) {
	if len(body) == 0 {
		fn(s)
		return
	}
	rel := db.Relation(body[0].Pred)
	if rel == nil {
		return
	}
	for _, tup := range rel.Tuples() {
		if ext, ok := dl.Match(body[0], dl.Atom{Pred: body[0].Pred, Args: tup}, s); ok {
			naiveMatch(db, body[1:], ext, fn)
		}
	}
}

// collectNaive gathers the same answers via the naive oracle.
func collectNaive(db *Instance, body []dl.Atom, init dl.Subst, vars []dl.Term) []string {
	var out []string
	naiveMatch(db, body, init, func(s dl.Subst) {
		out = append(out, substKey(s, vars))
	})
	sort.Strings(out)
	return out
}

func TestPlanJoinMatchesLegacy(t *testing.T) {
	db := planTestInstance(t)
	body := []dl.Atom{
		dl.A("R0", dl.V("c"), dl.V("x")),
		dl.A("Up", dl.V("p"), dl.V("c")),
	}
	vars := dl.VarsOfAtoms(body)
	p := CompilePlan(db, body)
	got := collectRun(p, db, dl.NewSubst(), vars)
	want := collectNaive(db, body, dl.NewSubst(), vars)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("plan answers %v\noracle answers %v", got, want)
	}
	if len(got) == 0 {
		t.Fatal("expected some matches")
	}
}

func TestPlanRepeatedVariable(t *testing.T) {
	db := NewInstance()
	db.MustInsert("E", dl.C("a"), dl.C("a"))
	db.MustInsert("E", dl.C("a"), dl.C("b"))
	body := []dl.Atom{dl.A("E", dl.V("x"), dl.V("x"))}
	p := CompilePlan(db, body)
	got := collectRun(p, db, dl.NewSubst(), []dl.Term{dl.V("x")})
	if len(got) != 1 {
		t.Errorf("self-join: %d matches, want 1", len(got))
	}
}

func TestPlanConstantFilter(t *testing.T) {
	db := planTestInstance(t)
	body := []dl.Atom{dl.A("R0", dl.V("c"), dl.C("a"))}
	p := CompilePlan(db, body)
	got := collectRun(p, db, dl.NewSubst(), []dl.Term{dl.V("c")})
	if len(got) != 2 {
		t.Errorf("constant filter: %d matches, want 2 (c0, c2)", len(got))
	}
	// A constant the instance has never seen matches nothing.
	p2 := CompilePlan(db, []dl.Atom{dl.A("R0", dl.V("c"), dl.C("zzz"))})
	if got := collectRun(p2, db, dl.NewSubst(), []dl.Term{dl.V("c")}); len(got) != 0 {
		t.Errorf("unknown constant matched %d rows", len(got))
	}
}

func TestPlanMissingRelation(t *testing.T) {
	db := planTestInstance(t)
	body := []dl.Atom{dl.A("Nope", dl.V("x"))}
	p := CompilePlan(db, body)
	if got := collectRun(p, db, dl.NewSubst(), []dl.Term{dl.V("x")}); len(got) != 0 {
		t.Errorf("missing relation matched %d rows", len(got))
	}
	// Arity mismatch likewise matches nothing, like the naive oracle.
	p2 := CompilePlan(db, []dl.Atom{dl.A("R0", dl.V("x"))})
	if got := collectRun(p2, db, dl.NewSubst(), []dl.Term{dl.V("x")}); len(got) != 0 {
		t.Errorf("arity mismatch matched %d rows", len(got))
	}
}

func TestPlanBoundSeeding(t *testing.T) {
	db := planTestInstance(t)
	body := []dl.Atom{
		dl.A("Up", dl.V("p"), dl.V("c")),
		dl.A("R0", dl.V("c"), dl.V("x")),
	}
	vars := dl.VarsOfAtoms(body)
	init := dl.NewSubst()
	init.Bind("p", dl.C("p0"))
	// Compile with p declared bound; seeded via Run's init.
	p := CompilePlan(db, body, dl.V("p"))
	got := collectRun(p, db, init, vars)
	want := collectNaive(db, body, init, vars)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("seeded plan %v\noracle %v", got, want)
	}
	// Seeding a slot the plan did not declare bound must still filter.
	p2 := CompilePlan(db, body)
	got2 := collectRun(p2, db, init, vars)
	if !reflect.DeepEqual(got2, want) {
		t.Errorf("undeclared seed %v\noracle %v", got2, want)
	}
}

func TestPlanExecuteRawRegisters(t *testing.T) {
	db := planTestInstance(t)
	body := []dl.Atom{
		dl.A("Up", dl.V("p"), dl.V("c")),
		dl.A("R0", dl.V("c"), dl.V("x")),
	}
	p := CompilePlan(db, body)
	regs := p.NewRegs()
	n := 0
	p.Execute(db, regs, func(rs []int32) bool {
		for _, v := range p.vars {
			if rs[p.Slot(v)] == dl.NoID {
				t.Errorf("slot of %v unbound in complete match", v)
			}
		}
		n++
		return true
	})
	if n == 0 {
		t.Fatal("no raw matches")
	}
	// Registers must be fully reset after enumeration.
	for i, r := range regs {
		if r != dl.NoID {
			t.Errorf("register %d not reset: %d", i, r)
		}
	}
}

func TestPlanSmallerRelationTieBreak(t *testing.T) {
	db := NewInstance()
	for i := 0; i < 50; i++ {
		db.MustInsert("Big", dl.C(fmt.Sprintf("b%d", i)), dl.C("k"))
	}
	db.MustInsert("Small", dl.C("s0"), dl.C("k"))
	// Both atoms have zero ground args: the plan must start with Small.
	body := []dl.Atom{
		dl.A("Big", dl.V("b"), dl.V("k")),
		dl.A("Small", dl.V("s"), dl.V("k")),
	}
	p := CompilePlan(db, body)
	if p.atoms[0].pred != "Small" {
		t.Errorf("plan order %s: want Small first (smaller relation tie-break)", p)
	}
}

func TestCompileQueryPlanLeavesInstanceUnmodified(t *testing.T) {
	db := planTestInstance(t)
	before := db.Interner().Len()
	body := []dl.Atom{
		dl.A("R0", dl.V("c"), dl.C("never-seen-const")),
		dl.A("Up", dl.V("p"), dl.V("c")),
	}
	p := CompileQueryPlan(db, body)
	if got := collectRun(p, db, dl.NewSubst(), dl.VarsOfAtoms(body)); len(got) != 0 {
		t.Errorf("unknown constant matched %d rows", len(got))
	}
	// Seeding an unknown term through Run must not intern either.
	init := dl.NewSubst()
	init.Bind("p", dl.C("also-never-seen"))
	if got := collectRun(p, db, init, dl.VarsOfAtoms(body)); len(got) != 0 {
		t.Errorf("unknown seed matched %d rows", len(got))
	}
	p.CompileFilter([]dl.Atom{dl.A("R0", dl.V("c"), dl.C("third-unseen"))}, nil)
	if after := db.Interner().Len(); after != before {
		t.Errorf("read-only compile/run grew interner: %d -> %d", before, after)
	}
	// Known constants still match identically to the naive oracle.
	body2 := []dl.Atom{dl.A("R0", dl.V("c"), dl.C("a"))}
	p2 := CompileQueryPlan(db, body2)
	got := collectRun(p2, db, dl.NewSubst(), []dl.Term{dl.V("c")})
	want := collectNaive(db, body2, dl.NewSubst(), []dl.Term{dl.V("c")})
	if !reflect.DeepEqual(got, want) {
		t.Errorf("query plan %v, oracle %v", got, want)
	}
}

func TestCloneDetachedIsolatesInterner(t *testing.T) {
	db := planTestInstance(t)
	before := db.Interner().Len()
	clone := db.CloneDetached()
	if !db.Equal(clone) {
		t.Fatal("detached clone must hold the same tuples")
	}
	clone.MustInsert("R0", dl.C("brand-new"), dl.N("fresh-null"))
	if db.Interner().Len() != before {
		t.Errorf("clone insert grew parent interner: %d -> %d", before, db.Interner().Len())
	}
	if db.ContainsAtom(dl.A("R0", dl.C("brand-new"), dl.N("fresh-null"))) {
		t.Error("clone insert leaked into parent")
	}
	// Ids assigned before the fork stay aligned: parent rows are
	// readable through the clone's interner.
	for i, row := range clone.Relation("Up").Rows() {
		tup := clone.Relation("Up").Tuples()[i]
		for j, id := range row {
			if clone.Interner().TermOf(id) != tup[j] {
				t.Fatalf("row/term mismatch after detach at %d/%d", i, j)
			}
		}
	}
}

// ---- property test: compiled plans ≡ naive oracle ----

// conjValue generates a random instance plus a random 1–3 atom
// conjunction over it, with shared variables and constants.
type conjValue struct {
	DB   *Instance
	Body []dl.Atom
	Init dl.Subst
}

func (conjValue) Generate(r *rand.Rand, _ int) reflect.Value {
	db := NewInstance()
	consts := []string{"a", "b", "c", "d"}
	preds := []struct {
		name  string
		arity int
	}{{"P", 2}, {"Q", 2}, {"R", 3}}
	for _, pr := range preds {
		n := r.Intn(12)
		for i := 0; i < n; i++ {
			tup := make([]dl.Term, pr.arity)
			for j := range tup {
				if r.Intn(8) == 0 {
					tup[j] = dl.N(consts[r.Intn(len(consts))])
				} else {
					tup[j] = dl.C(consts[r.Intn(len(consts))])
				}
			}
			db.MustInsert(pr.name, tup...)
		}
	}
	varNames := []string{"x", "y", "z", "w"}
	nb := 1 + r.Intn(3)
	body := make([]dl.Atom, nb)
	for i := range body {
		pr := preds[r.Intn(len(preds))]
		args := make([]dl.Term, pr.arity)
		for j := range args {
			if r.Intn(3) == 0 {
				args[j] = dl.C(consts[r.Intn(len(consts))])
			} else {
				args[j] = dl.V(varNames[r.Intn(len(varNames))])
			}
		}
		body[i] = dl.A(pr.name, args...)
	}
	init := dl.NewSubst()
	if r.Intn(2) == 0 {
		init.Bind(varNames[r.Intn(len(varNames))], dl.C(consts[r.Intn(len(consts))]))
	}
	return reflect.ValueOf(conjValue{DB: db, Body: body, Init: init})
}

func TestQuickPlanMatchesLegacyMatcher(t *testing.T) {
	f := func(cv conjValue) bool {
		vars := dl.VarsOfAtoms(cv.Body)
		p := CompilePlan(cv.DB, cv.Body)
		got := collectRun(p, cv.DB, cv.Init, vars)
		want := collectNaive(cv.DB, cv.Body, cv.Init, vars)
		return reflect.DeepEqual(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func TestCostOrderingPrefersSelectiveConstant(t *testing.T) {
	// "Needle" has a constant hitting a 1-row bucket; "Hay" scans 60
	// rows. The cost model must probe the needle first even though Hay
	// appears first in source order.
	db := NewInstance()
	for i := 0; i < 60; i++ {
		db.MustInsert("Hay", dl.C(fmt.Sprintf("h%d", i)), dl.C("x"))
	}
	db.MustInsert("Needle", dl.C("x"), dl.C("hit"))
	for i := 0; i < 20; i++ {
		db.MustInsert("Needle", dl.C(fmt.Sprintf("n%d", i)), dl.C("miss"))
	}
	body := []dl.Atom{
		dl.A("Hay", dl.V("h"), dl.V("k")),
		dl.A("Needle", dl.V("k"), dl.C("hit")),
	}
	p := CompilePlan(db, body)
	if p.atoms[0].pred != "Needle" {
		t.Errorf("plan order %s: want Needle first (1-row constant bucket)", p)
	}
	vars := dl.VarsOfAtoms(body)
	if got, want := collectRun(p, db, dl.NewSubst(), vars), collectNaive(db, body, dl.NewSubst(), vars); !reflect.DeepEqual(got, want) {
		t.Errorf("cost answers %v, oracle answers %v", got, want)
	}
}

func TestQuickPlanMatchesLegacyOnClones(t *testing.T) {
	// Plans compiled against one instance must stay valid on clones
	// (shared interner) even after the clone grows new terms.
	f := func(cv conjValue) bool {
		p := CompilePlan(cv.DB, cv.Body)
		clone := cv.DB.Clone()
		clone.MustInsert("P", dl.C("fresh1"), dl.C("fresh2"))
		vars := dl.VarsOfAtoms(cv.Body)
		got := collectRun(p, clone, cv.Init, vars)
		want := collectNaive(clone, cv.Body, cv.Init, vars)
		return reflect.DeepEqual(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
