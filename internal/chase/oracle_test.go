package chase

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	dl "repro/internal/datalog"
	"repro/internal/sticky"
	"repro/internal/storage"
)

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

// naiveResult is what the reference chase reports.
type naiveResult struct {
	inst      *storage.Instance
	saturated bool
	// conflict reports an EGD equating two distinct constants.
	conflict bool
	// ncs holds the IDs of the NCs whose positive body matches.
	ncs map[string]bool
}

// naiveMaxRounds bounds the reference chase; the generated programs
// are weakly acyclic, so it is never reached.
const naiveMaxRounds = 1000

// naiveChase is the reference chase, independent of the compiled
// engine: each round applies every TGD trigger found by naiveMatch
// whose head has no extension into the instance (restricted firing,
// fresh nulls for existential variables), then enforces the EGDs one
// equality at a time, rebuilding the instance with the merged null
// substituted, until no EGD requires a merge. A constant/constant
// equality is recorded as a conflict and left alone. Rounds repeat
// until one changes nothing; then every NC body is matched.
func naiveChase(prog *dl.Program, db *storage.Instance) naiveResult {
	out := naiveResult{inst: db.Clone(), ncs: map[string]bool{}}
	nulls := 0
	for round := 0; round < naiveMaxRounds && !out.saturated; round++ {
		changed := false
		for _, tgd := range prog.TGDs {
			naiveMatch(out.inst, tgd.Body, dl.NewSubst(), func(s dl.Subst) bool {
				if !naiveMatch(out.inst, tgd.Head, s, func(dl.Subst) bool { return false }) {
					return true // head already satisfied
				}
				ext := s.Clone()
				for _, z := range tgd.ExistentialVars() {
					ext.Bind(z.Name, dl.N(fmt.Sprintf("o%d", nulls)))
					nulls++
				}
				for _, h := range tgd.Head {
					if _, err := out.inst.InsertAtom(ext.ApplyAtom(h)); err != nil {
						panic(err)
					}
				}
				changed = true
				return true
			})
		}
		for {
			from, to, ok := out.nextMerge(prog.EGDs)
			if !ok {
				break
			}
			out.inst = substitute(out.inst, from, to)
			changed = true
		}
		out.saturated = !changed
	}
	for _, nc := range prog.NCs {
		if !naiveMatch(out.inst, nc.PositiveBody(), dl.NewSubst(), func(dl.Subst) bool { return false }) {
			out.ncs[nc.ID] = true
		}
	}
	return out
}

// nextMerge finds the first EGD match equating a null with another
// term and returns the null and its replacement, recording every
// constant/constant equality passed on the way as a conflict.
func (r *naiveResult) nextMerge(egds []*dl.EGD) (from, to dl.Term, ok bool) {
	for _, egd := range egds {
		naiveMatch(r.inst, egd.Body, dl.NewSubst(), func(s dl.Subst) bool {
			l, rt := s.Apply(egd.Left), s.Apply(egd.Right)
			switch {
			case l == rt:
				return true
			case l.IsConst() && rt.IsConst():
				r.conflict = true
				return true
			case l.IsNull():
				from, to = l, rt
			default:
				from, to = rt, l
			}
			ok = true
			return false
		})
		if ok {
			return from, to, true
		}
	}
	return dl.Term{}, dl.Term{}, false
}

// substitute returns a copy of db with every occurrence of from
// replaced by to.
func substitute(db *storage.Instance, from, to dl.Term) *storage.Instance {
	out := storage.NewInstance()
	for _, name := range db.RelationNames() {
		for _, tup := range db.Relation(name).Tuples() {
			for i, t := range tup {
				if t == from {
					tup[i] = to
				}
			}
			out.MustInsert(name, tup...)
		}
	}
	return out
}

// nullFree renders the instance's null-free facts, sorted: the part of
// a chase result every order of trigger application agrees on, since
// any two results map homomorphically into each other with constants
// fixed.
func nullFree(db *storage.Instance) []string {
	var out []string
	for _, name := range db.RelationNames() {
		for _, tup := range db.Relation(name).Tuples() {
			if a := dl.A(name, tup...); !a.HasNull() {
				out = append(out, a.String())
			}
		}
	}
	sort.Strings(out)
	return out
}

// diffNaive reports how an engine result differs from the reference
// chase, or "" when it matches: when either side saw an EGD conflict
// only that both did, and otherwise the null-free facts, Saturated and
// the set of violation (Kind, ID) pairs.
func diffNaive(res *Result, want naiveResult) string {
	conflict := false
	ncs := map[string]bool{}
	for _, v := range res.Violations {
		switch v.Kind {
		case EGDConflict:
			conflict = true
		case NCViolation:
			ncs[v.ID] = true
		default:
			return fmt.Sprintf("unexpected violation kind %v", v)
		}
	}
	if conflict || want.conflict {
		if conflict != want.conflict {
			return fmt.Sprintf("EGD conflict: engine %v, reference %v", conflict, want.conflict)
		}
		return ""
	}
	if res.Saturated != want.saturated {
		return fmt.Sprintf("Saturated: engine %v, reference %v", res.Saturated, want.saturated)
	}
	if got, exp := fmt.Sprint(ncs), fmt.Sprint(want.ncs); got != exp {
		return fmt.Sprintf("violated NCs: engine %s, reference %s", got, exp)
	}
	if got, exp := nullFree(res.Instance), nullFree(want.inst); strings.Join(got, " ") != strings.Join(exp, " ") {
		return fmt.Sprintf("null-free facts:\nengine    %v\nreference %v", got, exp)
	}
	return ""
}

// randChaseProgram draws a random program with a base instance and a
// delta batch. Relations sit on levels: E/2 and M/1 on level 0 hold
// the data, derived relations P0.. sit on levels 1 to 3, and every
// TGD's head relations sit on a level above all of its body relations,
// so the dependency graph has no cycle and the program is weakly
// acyclic by construction. Head arguments are body variables,
// existential variables (shared across a two-atom head) or constants.
// EGDs read at least one derived relation, where invented nulls live,
// so they merge nulls into constants or nulls, or clash two constants;
// NCs are positive and carry no comparisons.
func randChaseProgram(rng *rand.Rand) (prog *dl.Program, base *storage.Instance, delta []dl.Atom) {
	consts := []string{"a", "b", "c"}
	vars := []dl.Term{dl.V("x"), dl.V("y"), dl.V("w")}
	type pred struct {
		name         string
		arity, level int
	}
	preds := []pred{{"E", 2, 0}, {"M", 1, 0}}
	for i := 2 + rng.Intn(4); i > 0; i-- {
		preds = append(preds, pred{fmt.Sprintf("P%d", len(preds)-2), 1 + rng.Intn(3), 1 + rng.Intn(3)})
	}
	// pick returns a random predicate accepted by ok; every call
	// accepts at least one.
	pick := func(ok func(q pred) bool) pred {
		var cands []pred
		for _, q := range preds {
			if ok(q) {
				cands = append(cands, q)
			}
		}
		return cands[rng.Intn(len(cands))]
	}
	// atomOver fills q's arguments from terms, with an occasional
	// constant.
	atomOver := func(q pred, terms []dl.Term) dl.Atom {
		args := make([]dl.Term, q.arity)
		for i := range args {
			if len(terms) == 0 || rng.Intn(8) == 0 {
				args[i] = dl.C(consts[rng.Intn(len(consts))])
			} else {
				args[i] = terms[rng.Intn(len(terms))]
			}
		}
		return dl.A(q.name, args...)
	}
	edbAtom := func() dl.Atom {
		return atomOver(pick(func(q pred) bool { return q.level == 0 }), nil)
	}

	prog = dl.NewProgram()
	for _, h := range preds[2:] {
		for k := 1 + rng.Intn(2); k > 0; k-- {
			var body []dl.Atom
			top := 0
			for j := 1 + rng.Intn(2); j > 0; j-- {
				q := pick(func(q pred) bool { return q.level < h.level })
				top = max(top, q.level)
				body = append(body, atomOver(q, vars))
			}
			// Head terms: the body's variables plus up to two
			// existential ones.
			terms := dl.VarsOfAtoms(body)
			for z := rng.Intn(3); z > 0; z-- {
				terms = append(terms, dl.V(fmt.Sprintf("z%d", z)))
			}
			head := []dl.Atom{atomOver(h, terms)}
			if rng.Intn(3) == 0 {
				head = append(head, atomOver(pick(func(q pred) bool { return q.level > top }), terms))
			}
			prog.AddTGD(dl.NewTGD(fmt.Sprintf("t%d", len(prog.TGDs)), head, body))
		}
	}
	for i := 1 + rng.Intn(2); i > 0; i-- {
		body := []dl.Atom{atomOver(pick(func(q pred) bool { return q.level > 0 }), vars)}
		if rng.Intn(3) == 0 {
			body = append(body, atomOver(pick(func(pred) bool { return true }), vars))
		}
		vs := dl.VarsOfAtoms(body)
		if len(vs) < 2 {
			continue
		}
		rng.Shuffle(len(vs), func(i, j int) { vs[i], vs[j] = vs[j], vs[i] })
		prog.AddEGD(dl.NewEGD(fmt.Sprintf("e%d", len(prog.EGDs)), vs[0], vs[1], body))
	}
	for i := rng.Intn(3); i > 0; i-- {
		var body []dl.Literal
		for j := 1 + rng.Intn(2); j > 0; j-- {
			body = append(body, dl.Pos(atomOver(pick(func(pred) bool { return true }), vars)))
		}
		prog.AddNC(dl.NewNC(fmt.Sprintf("n%d", len(prog.NCs)), body...))
	}

	base = storage.NewInstance()
	for i := 3 + rng.Intn(8); i > 0; i-- {
		a := edbAtom()
		base.MustInsert(a.Pred, a.Args...)
	}
	for i := 1 + rng.Intn(5); i > 0; i-- {
		delta = append(delta, edbAtom())
	}
	return prog, base, delta
}

// chaseAtWidths chases prog at widths 1, 2 and 4 and checks each
// result against naiveChase: Run over the base against the reference
// over the base, and NewState+Chase over the base followed by Extend
// with the delta in two batches against the reference over
// base ∪ delta. It returns the results in width order and the
// reference over base ∪ delta.
func chaseAtWidths(t *testing.T, seed int64, prog *dl.Program, base *storage.Instance, delta []dl.Atom) (runs, extended []*Result, wantAll naiveResult) {
	t.Helper()
	ctx := context.Background()
	combined := base.Clone()
	for _, a := range delta {
		combined.MustInsert(a.Pred, a.Args...)
	}
	want, wantAll := naiveChase(prog, base), naiveChase(prog, combined)
	if !want.saturated || !wantAll.saturated {
		t.Fatalf("seed %d: reference chase did not saturate:\n%s", seed, prog)
	}
	for _, p := range []int{1, 2, 4} {
		opts := Options{Parallelism: p}
		res, err := Run(ctx, prog, base, opts)
		if err != nil {
			t.Fatalf("seed %d p=%d: Run: %v", seed, p, err)
		}
		if d := diffNaive(res, want); d != "" {
			t.Fatalf("seed %d p=%d: Run differs from the reference: %s\nprogram:\n%s\nbase:\n%s", seed, p, d, prog, base)
		}
		st, err := NewState(prog, base, opts)
		if err != nil {
			t.Fatalf("seed %d p=%d: NewState: %v", seed, p, err)
		}
		if err := st.Chase(ctx); err != nil {
			t.Fatalf("seed %d p=%d: Chase: %v", seed, p, err)
		}
		half := len(delta) / 2
		for _, batch := range [][]dl.Atom{delta[:half], delta[half:]} {
			if _, err := st.Extend(ctx, batch); err != nil {
				t.Fatalf("seed %d p=%d: Extend: %v", seed, p, err)
			}
		}
		if d := diffNaive(st.Result(), wantAll); d != "" {
			t.Fatalf("seed %d p=%d: Chase+Extend differs from the reference over base ∪ delta: %s\nprogram:\n%s\nbase:\n%s\ndelta: %s",
				seed, p, d, prog, base, dl.AtomsString(delta))
		}
		runs, extended = append(runs, res), append(extended, st.Result())
	}
	return runs, extended, wantAll
}

// TestRandomProgramsMatchNaiveChase chases seeded random programs (see
// randChaseProgram), which internal/sticky must classify as weakly
// acyclic and weakly sticky, through chaseAtWidths.
func TestRandomProgramsMatchNaiveChase(t *testing.T) {
	const programs = 300
	var conflicts, merges int
	for seed := int64(0); seed < programs; seed++ {
		prog, base, delta := randChaseProgram(rand.New(rand.NewSource(seed)))
		if rep := sticky.Classify(prog); !rep.WeaklyAcyclic || !rep.WeaklySticky {
			t.Fatalf("seed %d: generated program is not weakly acyclic and weakly sticky (%s):\n%s", seed, rep, prog)
		}
		_, extended, wantAll := chaseAtWidths(t, seed, prog, base, delta)
		if wantAll.conflict {
			conflicts++
		} else if extended[0].Merged > 0 {
			merges++
		}
	}
	t.Logf("%d programs: %d with an EGD conflict, %d merging nulls without one", programs, conflicts, merges)
}

// randRecursiveChaseProgram draws a recursive program over a
// hierarchy: a Parent forest of 5 to 40 members (member i rolls up to
// a random earlier member or is a root), a quarter of whose edges are
// held back as the delta; Anc ← Parent, closed either by
// Anc(x, z) ← Anc(x, y), Anc(y, z) or by Anc(x, z) ← Anc(x, y),
// Parent(y, z); and the existential Tag(x, w) ← Anc(x, y). Each with
// probability one half, it adds a two-atom existential head reading
// Tag, and an EGD equating a member's tag with its parent's; with the
// EGD, a few members carry a constant tag in the base, so merges reach
// constants and two constants can clash. hasEGD reports the EGD.
func randRecursiveChaseProgram(rng *rand.Rand) (prog *dl.Program, base *storage.Instance, delta []dl.Atom, hasEGD bool) {
	x, y, z, w, v := dl.V("x"), dl.V("y"), dl.V("z"), dl.V("w"), dl.V("v")
	prog = dl.NewProgram()
	prog.AddTGD(dl.NewTGD("anc", []dl.Atom{dl.A("Anc", x, y)}, []dl.Atom{dl.A("Parent", x, y)}))
	step := dl.A("Parent", y, z)
	if rng.Intn(2) == 0 {
		step = dl.A("Anc", y, z)
	}
	prog.AddTGD(dl.NewTGD("step", []dl.Atom{dl.A("Anc", x, z)}, []dl.Atom{dl.A("Anc", x, y), step}))
	prog.AddTGD(dl.NewTGD("tag", []dl.Atom{dl.A("Tag", x, w)}, []dl.Atom{dl.A("Anc", x, y)}))
	if rng.Intn(2) == 0 {
		prog.AddTGD(dl.NewTGD("mark", []dl.Atom{dl.A("Mark", w, v), dl.A("Seen", v)}, []dl.Atom{dl.A("Tag", x, w)}))
	}
	hasEGD = rng.Intn(2) == 0
	if hasEGD {
		prog.AddEGD(dl.NewEGD("same", w, v, []dl.Atom{dl.A("Tag", x, w), dl.A("Parent", x, y), dl.A("Tag", y, v)}))
	}

	member := func(i int) dl.Term { return dl.C(fmt.Sprintf("m%d", i)) }
	base = storage.NewInstance()
	n := 5 + rng.Intn(36)
	for i := 1; i < n; i++ {
		if rng.Intn(8) == 0 {
			continue // a root
		}
		edge := dl.A("Parent", member(i), member(rng.Intn(i)))
		if rng.Intn(4) == 0 {
			delta = append(delta, edge)
		} else {
			base.MustInsert(edge.Pred, edge.Args...)
		}
	}
	if hasEGD {
		for k := rng.Intn(3); k > 0; k-- {
			base.MustInsert("Tag", member(rng.Intn(n)), dl.C(fmt.Sprintf("g%d", rng.Intn(2))))
		}
	}
	return prog, base, delta, hasEGD
}

// TestRandomRecursiveProgramsMatchNaiveChase chases seeded recursive
// programs (see randRecursiveChaseProgram), which internal/sticky must
// classify as weakly sticky, through chaseAtWidths. Recursion is where
// a trigger is enumerated again most often: a closure row found by one
// rule in a round is a delta row of the next. Without the EGD, every
// result must hold exactly one Tag row per member with a parent.
func TestRandomRecursiveProgramsMatchNaiveChase(t *testing.T) {
	const programs = 300
	var merges int
	for seed := int64(0); seed < programs; seed++ {
		prog, base, delta, hasEGD := randRecursiveChaseProgram(rand.New(rand.NewSource(seed)))
		if rep := sticky.Classify(prog); !rep.WeaklySticky {
			t.Fatalf("seed %d: generated program is not weakly sticky (%s):\n%s", seed, rep, prog)
		}
		runs, extended, _ := chaseAtWidths(t, seed, prog, base, delta)
		if hasEGD {
			if extended[0].Merged > 0 {
				merges++
			}
			continue
		}
		for i, res := range append(runs, extended...) {
			children, tags := map[dl.Term]bool{}, map[dl.Term]int{}
			for _, tup := range res.Instance.Relation("Parent").Tuples() {
				children[tup[0]] = true
			}
			if rel := res.Instance.Relation("Tag"); rel != nil {
				for _, tup := range rel.Tuples() {
					tags[tup[0]]++
				}
			}
			for m, k := range tags {
				if k != 1 || !children[m] {
					t.Fatalf("seed %d result %d: member %s has %d Tag rows (has a parent: %v)", seed, i, m, k, children[m])
				}
			}
			if len(tags) != len(children) {
				t.Fatalf("seed %d result %d: %d members tagged, %d have a parent", seed, i, len(tags), len(children))
			}
		}
	}
	t.Logf("%d programs: %d with the EGD merging nulls", programs, merges)
}
