package chase

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/datalog"
	"repro/internal/par"
	"repro/internal/storage"
)

// CompiledProgram is the immutable compiled form of a Datalog± program
// over one instance's interner: the program's constants interned, each
// TGD's head projections, each NC's closed-world filter and the
// program's predicate arities. Compile it once (for example against a
// prepared base instance) and share it freely: states built from it
// only read it, so any number of sessions — including sessions on
// different goroutines — can chase from one CompiledProgram, each over
// its own instance clone. Join plans are costed against the data they
// run over, so each State compiles its own (see NewState).
type CompiledProgram struct {
	in   *datalog.Interner
	tgds []*tgdPlan
	egds []*datalog.EGD
	ncs  []*ncPlan
	// arity maps every predicate of the program to the arity all its
	// atoms share (Validate checks that they agree).
	arity map[string]int
}

// tgdPlan is the immutable compiled form of one TGD. Its slots are
// those of every plan compiled over the TGD's body or head, since
// CompilePlan assigns slots by first occurrence in the conjunction,
// whatever atom order the statistics pick.
type tgdPlan struct {
	tgd      *datalog.TGD
	headSeed [][2]int // (head-plan slot, body-plan slot) per frontier var
	heads    []headAtomProj
	ex       []datalog.Term // existential vars in head-occurrence order
	maxAr    int            // widest head atom
}

// ncPlan is the immutable compiled form of one negative constraint.
type ncPlan struct {
	nc     *datalog.NC
	filter storage.Filter
}

// Compile validates the program (an empty one is fine) and compiles it
// against db's interner. It rejects a program whose atoms disagree
// with the arity of one of db's relations. The caller must own db
// (compilation interns the program's constants) and must not intern
// further terms into db's interner from another goroutine while the
// compiled program is shared. States run over db, its clones, or
// detached clones (forked interners).
func Compile(prog *datalog.Program, db *storage.Instance) (*CompiledProgram, error) {
	if err := prog.Validate(); err != nil && !errors.Is(err, datalog.ErrEmptyProgram) {
		return nil, err
	}
	cp := &CompiledProgram{in: db.Interner(), arity: map[string]int{}}
	for _, pi := range prog.Predicates() {
		if rel := db.Relation(pi.Name); rel != nil && rel.Schema().Arity() != pi.Arity {
			return nil, fmt.Errorf("chase: predicate %s used with arity %d, but relation %s has arity %d",
				pi.Name, pi.Arity, pi.Name, rel.Schema().Arity())
		}
		cp.arity[pi.Name] = pi.Arity
	}
	for _, tgd := range prog.TGDs {
		cp.tgds = append(cp.tgds, compileTGDPlan(tgd, db))
	}
	for _, egd := range prog.EGDs {
		// Compiling interns the body's constants into db's interner, as
		// for every dependency, so that the persisted term table does
		// not depend on which session first reads them.
		storage.CompilePlan(db, egd.Body)
		cp.egds = append(cp.egds, egd)
	}
	for _, nc := range prog.NCs {
		plan := storage.CompilePlan(db, nc.PositiveBody())
		cp.ncs = append(cp.ncs, &ncPlan{nc: nc, filter: plan.CompileFilter(nc.NegativeBody(), nc.Conds)})
	}
	return cp, nil
}

// BodyPreds returns the set of predicates read by any TGD, EGD or NC
// body — the relations whose cardinality drift makes the compiled
// plans' cost-based atom order stale. The session layer unions this
// with the eval rules' body predicates to scope its drift tracking.
func (cp *CompiledProgram) BodyPreds() map[string]bool {
	out := map[string]bool{}
	for _, tp := range cp.tgds {
		for _, a := range tp.tgd.Body {
			out[a.Pred] = true
		}
	}
	for _, egd := range cp.egds {
		for _, a := range egd.Body {
			out[a.Pred] = true
		}
	}
	for _, np := range cp.ncs {
		for _, a := range np.nc.PositiveBody() {
			out[a.Pred] = true
		}
	}
	return out
}

func compileTGDPlan(tgd *datalog.TGD, db *storage.Instance) *tgdPlan {
	in := db.Interner()
	tp := &tgdPlan{tgd: tgd, ex: tgd.ExistentialVars()}
	body := storage.CompilePlan(db, tgd.Body)
	head := storage.CompilePlan(db, tgd.Head, tgd.FrontierVars()...)
	for _, v := range tgd.FrontierVars() {
		tp.headSeed = append(tp.headSeed, [2]int{head.Slot(v), body.Slot(v)})
	}
	exIdx := map[string]int{}
	for i, z := range tp.ex {
		exIdx[z.Name] = i
	}
	for _, h := range tgd.Head {
		hp := headAtomProj{pred: h.Pred, items: make([]headItem, len(h.Args))}
		for i, t := range h.Args {
			switch {
			case !t.IsVar():
				hp.items[i] = headItem{kind: hConst, id: in.ID(t)}
			case body.Slot(t) >= 0:
				hp.items[i] = headItem{kind: hSlot, slot: body.Slot(t)}
			default:
				hp.items[i] = headItem{kind: hEx, ex: exIdx[t.Name]}
			}
		}
		tp.heads = append(tp.heads, hp)
		if len(h.Args) > tp.maxAr {
			tp.maxAr = len(h.Args)
		}
	}
	return tp
}

// State is a resumable chase: it owns a saturated (or saturating)
// instance and extends the fixpoint incrementally. The initial Chase
// call runs a full round, subsequent rounds — and every round of an
// Extend call — match semi-naively: a TGD body is only re-evaluated
// against homomorphisms that use at least one tuple inserted since the
// last round (the delta frontier), replacing the full-plan re-matching
// of the one-shot chase. A trigger can still be enumerated more than
// once: through two pivots of one delta round, in a later round, or in
// the full round after an EGD merge or a bound abort. Head
// satisfaction, the restricted chase's firing condition, is the one
// check that keeps it from firing again: once a trigger has been
// processed its head holds (it fired and inserted the head rows, or
// it was skipped because they were there), and rows are only removed
// by EGD merges, after which a full round re-checks every trigger.
//
// A State is single-writer: Chase and Extend must not be called
// concurrently. Concurrent readers use Instance().Snapshot() between
// calls (the session layer in internal/engine wraps exactly that
// discipline).
type State struct {
	cp   *CompiledProgram
	inst *storage.Instance
	// pool bounds the workers that fan trigger discovery and EGD/NC
	// body matching out per round (Options.Parallelism). Only the
	// read-only match phases run on workers; firing, EGD merges and
	// every insertion stay on the caller goroutine, so the chase
	// result is identical at every pool width.
	pool par.Pool

	fresh *datalog.Counter
	res   *Result

	tgds []*tgdState
	egds []*storage.Plan // one per CompiledProgram EGD
	ncs  []*storage.Plan // one per CompiledProgram NC, its positive body

	// watermark[pred] counts rows already processed as "old" by delta
	// matching: every homomorphism entirely below the watermarks has
	// been enumerated. full forces the next round to re-match complete
	// bodies (initial run, after EGD merges rebuild row storage, after
	// a bound abort) and stays set until such a round completes; a
	// full round reads no watermark.
	watermark map[string]int
	full      bool

	// seenViol holds every violation reported, so a conflict or NC
	// match found again in a later pass, round or call is not repeated.
	seenViol map[Violation]bool

	maxRounds, maxAtoms int
}

// tgdState is the mutable per-state part of one TGD: its body and head
// plans, compiled against the state's instance, plus reusable register
// banks.
type tgdState struct {
	tp       *tgdPlan
	body     *storage.PivotPlan
	head     *storage.Plan
	headRegs []int32
	exIDs    []int32
	rowBuf   []int32
}

// NewState validates and compiles the program and returns a resumable
// chase state over a detached clone of db (the input instance is never
// modified). Call Chase to saturate, then Extend to grow the fixpoint
// with delta facts.
func NewState(prog *datalog.Program, db *storage.Instance, opts Options) (*State, error) {
	owned := db.CloneDetached()
	cp, err := Compile(prog, owned)
	if err != nil {
		return nil, err
	}
	return cp.NewState(owned, opts), nil
}

// NewState builds a chase state over inst, which the state takes
// ownership of: the caller must not mutate inst afterwards (reading
// through Instance() or Snapshot is fine). It compiles the state's
// TGD, EGD and NC join plans against inst, so their atom order is
// costed against the data the state chases. inst's interner must be
// the compile interner or a fork of it — a detached clone of the
// compile instance satisfies this — because the head projections and
// NC filters carry the compile interner's ids; NewState panics
// otherwise.
func (cp *CompiledProgram) NewState(inst *storage.Instance, opts Options) *State {
	if !inst.Interner().DescendsFrom(cp.in) {
		panic("chase: NewState over an instance whose interner does not descend from the compile interner")
	}
	if opts.MaxRounds <= 0 {
		opts.MaxRounds = DefaultMaxRounds
	}
	if opts.MaxAtoms <= 0 {
		opts.MaxAtoms = DefaultMaxAtoms
	}
	st := &State{
		cp:        cp,
		inst:      inst,
		pool:      par.New(opts.Parallelism),
		fresh:     freshCounter(inst),
		res:       &Result{Instance: inst},
		watermark: map[string]int{},
		full:      true,
		seenViol:  map[Violation]bool{},
		maxRounds: opts.MaxRounds,
		maxAtoms:  opts.MaxAtoms,
	}
	st.tgds = make([]*tgdState, len(cp.tgds))
	for i, tp := range cp.tgds {
		st.tgds[i] = &tgdState{tp: tp, exIDs: make([]int32, len(tp.ex)), rowBuf: make([]int32, tp.maxAr)}
	}
	st.egds = make([]*storage.Plan, len(cp.egds))
	st.ncs = make([]*storage.Plan, len(cp.ncs))
	st.Replan()
	return st
}

// Instance returns the state's live instance. Callers must not mutate
// it; take a Snapshot for concurrent reads.
func (st *State) Instance() *storage.Instance { return st.inst }

// Result returns the cumulative chase result backed by the live
// instance. Counters (Rounds, Fired, ...) accumulate across Chase and
// Extend calls; Saturated reflects the most recent call.
func (st *State) Result() *Result { return st.res }

// Replan compiles every TGD/EGD/NC plan against the state's live
// instance, refreshing the cost-based atom order from its current
// statistics (an incrementally grown session can drift arbitrarily far
// from the data its plans were costed against). NewState runs it once;
// the session layer runs it again on drift. Slot assignment depends
// only on the body's source order, so the compiled head projections,
// filters and register banks all remain valid. Single-writer, like
// Chase and Extend; must not run concurrently with either.
func (st *State) Replan() {
	for _, ts := range st.tgds {
		tgd := ts.tp.tgd
		ts.body = storage.CompilePivotPlan(st.inst, tgd.Body)
		ts.head = storage.CompilePlan(st.inst, tgd.Head, tgd.FrontierVars()...)
		ts.headRegs = ts.head.NewRegs()
	}
	for i, egd := range st.cp.egds {
		st.egds[i] = storage.CompilePlan(st.inst, egd.Body)
	}
	for i, np := range st.cp.ncs {
		st.ncs[i] = storage.CompilePlan(st.inst, np.nc.PositiveBody())
	}
}

// Chase runs the chase to fixpoint from the current frontier. The
// error is non-nil for context cancellation, for a TGD head row that
// does not fit its relation (an instance merged after Compile can hold
// a relation whose arity clashes with the program) and for an NC
// comparison that cannot be evaluated; bound-exceeded runs leave
// Result().Saturated false with a nil error, matching Run.
func (st *State) Chase(ctx context.Context) error {
	st.res.Saturated = false
	atomBound := false

	for round := 0; round < st.maxRounds; round++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		// st.full stays set until the round completes: a full round
		// cut short by an error is redone in full by the next call, as
		// the watermark does not describe what it matched (a delta
		// round cut short is redone from the unchanged watermark).
		full := st.full
		// Rows at or beyond roundStart were inserted during this round
		// and form the next round's delta frontier.
		roundStart := st.inst.Lens()

		progress := false
		for _, ts := range st.tgds {
			applied, err := st.applyTGD(ctx, ts, full, roundStart)
			if err != nil {
				return err
			}
			if applied < 0 {
				atomBound = true
				break
			}
			if applied > 0 {
				progress = true
			}
		}
		merged := 0
		if !atomBound && len(st.egds) > 0 {
			var hard []Violation
			var err error
			merged, hard, err = st.applyEGDs(ctx)
			if merged > 0 {
				// Merges rewrite row storage in place (indices shift),
				// so delta bookkeeping is stale: fall back to one full
				// round, also when a later EGD pass was cancelled.
				progress = true
				st.full = true
			}
			if err != nil {
				return err
			}
			st.addViolations(hard)
		}
		st.res.Rounds++

		// A bound abort leaves this round's delta windows partially
		// processed: like a merge, it forces a full re-match round in
		// case the caller resumes, so nothing is silently skipped.
		st.full = merged > 0 || atomBound
		if !st.full {
			// Everything present at round start has now been matched
			// (fully or via the delta frontier).
			st.watermark = roundStart
		}

		if atomBound {
			return nil // Saturated stays false
		}
		if !progress {
			st.res.Saturated = true
			break
		}
	}

	return st.checkNCs(ctx)
}

// ExtendInfo reports what one Extend call did.
type ExtendInfo struct {
	// Inserted counts delta facts that were new to the instance.
	Inserted int
	// Fired counts TGD applications during this call.
	Fired int
	// Merged counts EGD-induced term merges during this call (callers
	// that mirror the instance incrementally must rebuild when > 0,
	// since merges rewrite existing tuples).
	Merged int
	// Saturated reports whether this call reached a fixpoint.
	Saturated bool
}

// Extend inserts the delta facts and chases to a new fixpoint,
// re-matching only against the delta frontier. Facts must be ground;
// unknown predicates create relations. The whole batch is checked
// before any fact is inserted, so a rejected batch leaves the state as
// it was. It returns per-call statistics.
func (st *State) Extend(ctx context.Context, delta []datalog.Atom) (*ExtendInfo, error) {
	if err := st.checkDelta(delta); err != nil {
		return nil, err
	}
	fired0, merged0 := st.res.Fired, st.res.Merged
	info := &ExtendInfo{}
	for _, a := range delta {
		isNew, err := st.inst.InsertAtom(a)
		if err != nil {
			return nil, fmt.Errorf("chase: extend: %w", err)
		}
		if isNew {
			info.Inserted++
		}
	}
	if err := st.Chase(ctx); err != nil {
		return nil, err
	}
	info.Fired = st.res.Fired - fired0
	info.Merged = st.res.Merged - merged0
	info.Saturated = st.res.Saturated
	return info, nil
}

// checkDelta rejects a batch Extend could insert only in part: every
// atom must be ground, and its arity must agree with the instance's
// relation, with the program's atoms over its predicate, and with the
// batch's earlier atoms over it.
func (st *State) checkDelta(delta []datalog.Atom) error {
	var fresh map[string]int // arities of predicates new to the instance and the program
	for _, a := range delta {
		if !a.IsGround() {
			return fmt.Errorf("chase: extend: atom %s is not ground", a)
		}
		n := len(a.Args)
		rel := st.inst.Relation(a.Pred)
		ar, inProg := st.cp.arity[a.Pred]
		switch {
		case rel != nil && rel.Schema().Arity() != n:
			return fmt.Errorf("chase: extend: atom %s: relation %s has arity %d", a, a.Pred, rel.Schema().Arity())
		case inProg && ar != n:
			return fmt.Errorf("chase: extend: atom %s: the program uses %s with arity %d", a, a.Pred, ar)
		case rel == nil && !inProg:
			if prev, ok := fresh[a.Pred]; ok && prev != n {
				return fmt.Errorf("chase: extend: atom %s: the batch also holds %s with arity %d", a, a.Pred, prev)
			}
			if fresh == nil {
				fresh = map[string]int{}
			}
			fresh[a.Pred] = n
		}
	}
	return nil
}

// applyTGD enumerates this round's triggers of one TGD — full-plan in
// a full round, delta-frontier-driven otherwise — and fires each whose
// head is not satisfied. It returns the number of applications, or -1
// when MaxAtoms was exceeded. Phase 1 (discovery) is sharded across
// the pool against the frozen round view and merged in unit order, so
// the trigger list, and therefore everything downstream (insertion
// order, null labels), does not depend on the pool width; phase 2
// (firing) always runs on the caller goroutine.
func (st *State) applyTGD(ctx context.Context, ts *tgdState, full bool, roundStart map[string]int) (int, error) {
	// Phase 1: enumerate triggers, snapshotting register banks.
	// (Insertion happens afterwards so the enumeration never observes
	// its own derivations mid-round.)
	units, err := st.discover(ctx, ts, full, roundStart)
	if err != nil {
		return 0, err
	}

	// Phase 2: fire, in unit order. A trigger enumerated twice is
	// skipped the second time by headSatisfied.
	in := st.inst.Interner()
	applied := 0
	for _, triggers := range units {
		for _, tr := range triggers {
			if st.headSatisfied(ts, tr) {
				continue
			}
			for i := range ts.tp.ex {
				nu := st.fresh.FreshNull()
				st.res.NullsCreated++
				ts.exIDs[i] = in.ID(nu)
			}
			inserted := 0
			for _, hp := range ts.tp.heads {
				row := ts.rowBuf[:len(hp.items)]
				for i, it := range hp.items {
					switch it.kind {
					case hConst:
						row[i] = it.id
					case hSlot:
						row[i] = tr[it.slot]
					default:
						row[i] = ts.exIDs[it.ex]
					}
				}
				isNew, err := st.inst.InsertRow(hp.pred, row)
				if err != nil {
					return 0, fmt.Errorf("chase: tgd %s: %w", ts.tp.tgd.ID, err)
				}
				if isNew {
					inserted++
				}
			}
			if inserted > 0 {
				applied++
				st.res.Fired++
			}
			if st.inst.TotalTuples() > st.maxAtoms {
				return -1, nil
			}
		}
	}
	return applied, nil
}

// discover fans one TGD's trigger discovery out across the pool: the
// body's round units (full shards, or chunks of each pivot's window
// [watermark, roundStart)) run on workers that only read the frozen
// round view and record each match's register snapshot. It returns the
// snapshots per unit, in unit order, so the trigger order does not
// depend on the pool width.
func (st *State) discover(ctx context.Context, ts *tgdState, full bool, roundStart map[string]int) ([][][]int32, error) {
	units := ts.body.Units(nil, st.pool.Width(), full, st.watermark, roundStart)
	if len(units) == 0 {
		return nil, nil
	}
	return par.Map(ctx, st.pool, len(units), func(t int) ([][]int32, error) {
		var arena datalog.Int32Arena
		var local [][]int32
		ts.body.Run(st.inst, units[t], ts.body.Full().NewRegs(), func(regs []int32) bool {
			local = append(local, arena.Copy(regs))
			return true
		})
		return local, nil
	})
}

// headSatisfied reports whether the head conjunction already has a
// homomorphism extending the trigger bindings (existential variables
// free) — the restricted-chase firing condition.
func (st *State) headSatisfied(ts *tgdState, trigger []int32) bool {
	ts.head.ResetRegs(ts.headRegs)
	for _, p := range ts.tp.headSeed {
		ts.headRegs[p[0]] = trigger[p[1]]
	}
	found := false
	ts.head.Execute(st.inst, ts.headRegs, func([]int32) bool {
		found = true
		return false
	})
	return found
}

// applyEGDs enforces the EGDs to a local fixpoint. Null/term merges are
// applied to the instance; constant/constant conflicts are returned as
// hard violations (the chase does not fail outright: quality assessment
// wants to see every violation).
//
// Each pass collects every required merge from every EGD, canonicalizes
// them with a union-find (preferring constants, then smaller null
// labels, as representatives), and applies the whole cascade with one
// batched ReplaceTerms — one index rebuild per relation per pass
// instead of one per merge. Passes repeat until no merge is found,
// since rewritten tuples can expose new EGD matches.
//
// Each pass shards the EGD body matching across the pool's workers,
// which collect raw (left, right) term pairs; the union-find fold then
// consumes the pairs in (EGD, shard, match) order — each plan's own
// enumeration order — so merges, representatives and hard violations
// are identical at every width.
func (st *State) applyEGDs(ctx context.Context) (int, []Violation, error) {
	totalMerged := 0
	var hard []Violation
	for {
		parent := map[datalog.Term]datalog.Term{}
		var find func(datalog.Term) datalog.Term
		find = func(t datalog.Term) datalog.Term {
			p, ok := parent[t]
			if !ok || p == t {
				return t
			}
			root := find(p)
			parent[t] = root // path compression
			return root
		}
		anyMerge := false
		// fold processes one required equality l = r for egd.
		fold := func(egd *datalog.EGD, l, r datalog.Term) {
			a, b := find(l), find(r)
			if a == b {
				return
			}
			if a.IsConst() && b.IsConst() {
				// addViolations drops a conflict already reported.
				hard = append(hard, Violation{
					Kind:   EGDConflict,
					ID:     egd.ID,
					Detail: fmt.Sprintf("requires %s = %s", a, b),
				})
				return
			}
			// Merge the null into the other term; prefer keeping
			// constants, and for null/null pairs keep the smaller
			// label for determinism.
			keep, drop := a, b
			if b.IsConst() || (a.IsNull() && b.IsNull() && b.Name < a.Name) {
				keep, drop = b, a
			}
			parent[drop] = keep
			anyMerge = true
		}
		if err := st.collectEGDPairs(ctx, fold); err != nil {
			return totalMerged, hard, err
		}
		if !anyMerge {
			return totalMerged, hard, nil
		}
		repl := make(map[datalog.Term]datalog.Term, len(parent))
		for t := range parent {
			if root := find(t); root != t {
				repl[t] = root
			}
		}
		st.inst.ReplaceTerms(repl)
		st.res.Merged += len(repl)
		totalMerged += len(repl)
	}
}

// egdPair is one required equality found by an EGD body match.
type egdPair struct {
	l, r datalog.Term
}

// collectEGDPairs shards every EGD's body matching across the pool
// and feeds the collected pairs to fold in (EGD, shard, match) order.
func (st *State) collectEGDPairs(ctx context.Context, fold func(*datalog.EGD, datalog.Term, datalog.Term)) error {
	w := st.pool.Width()
	type egdUnit struct {
		egd, shard int
	}
	units := make([]egdUnit, 0, len(st.egds)*w)
	for i := range st.egds {
		for s := 0; s < w; s++ {
			units = append(units, egdUnit{egd: i, shard: s})
		}
	}
	pairs, err := par.Map(ctx, st.pool, len(units), func(t int) ([]egdPair, error) {
		u := &units[t]
		egd, plan := st.cp.egds[u.egd], st.egds[u.egd]
		regs := plan.NewRegs()
		var local []egdPair
		plan.ExecuteShard(st.inst, regs, u.shard, w, func(regs []int32) bool {
			local = append(local, egdPair{
				l: plan.TermAt(regs, egd.Left),
				r: plan.TermAt(regs, egd.Right),
			})
			return true
		})
		return local, nil
	})
	if err != nil {
		return err
	}
	for t, local := range pairs {
		egd := st.cp.egds[units[t].egd]
		for _, p := range local {
			fold(egd, p.l, p.r)
		}
	}
	return nil
}

// checkNCs evaluates negative constraints over the current instance,
// appending violations not yet reported. Negated atoms and comparisons
// are checked by each NC's filter, under closed-world assumption. NC
// bodies are matched in shards across the pool (read-only) and the
// found violations merged in (NC, shard, match) order, so the report
// order does not depend on the pool width.
func (st *State) checkNCs(ctx context.Context) error {
	w := st.pool.Width()
	type ncUnit struct {
		nc, shard int
	}
	units := make([]ncUnit, 0, len(st.ncs)*w)
	for i := range st.ncs {
		for s := 0; s < w; s++ {
			units = append(units, ncUnit{nc: i, shard: s})
		}
	}
	if len(units) == 0 {
		return nil
	}
	found, err := par.Map(ctx, st.pool, len(units), func(t int) ([]Violation, error) {
		u := &units[t]
		np, plan := st.cp.ncs[u.nc], st.ncs[u.nc]
		nc := np.nc
		regs := plan.NewRegs()
		buf := make([]int32, np.filter.Width())
		var local []Violation
		var ferr error
		plan.ExecuteShard(st.inst, regs, u.shard, w, func(regs []int32) bool {
			ok, err := np.filter.Pass(st.inst, regs, buf)
			if err != nil {
				ferr = fmt.Errorf("chase: nc %s: %w", nc.ID, err)
				return false
			}
			if ok {
				s := plan.SubstAt(regs, datalog.NewSubst())
				detail := datalog.AtomsString(s.ApplyAtoms(nc.PositiveBody()))
				local = append(local, Violation{Kind: NCViolation, ID: nc.ID, Detail: detail})
			}
			return true
		})
		return local, ferr
	})
	if err != nil {
		return err
	}
	for _, local := range found {
		st.addViolations(local)
	}
	return nil
}

// addViolations appends violations not seen before (the same EGD
// conflict or NC match can be rediscovered across rounds and calls).
func (st *State) addViolations(vs []Violation) {
	for _, v := range vs {
		if !st.seenViol[v] {
			st.seenViol[v] = true
			st.res.Violations = append(st.res.Violations, v)
		}
	}
}
