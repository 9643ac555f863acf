package chase

import (
	"context"
	"fmt"

	"repro/internal/datalog"
	"repro/internal/par"
	"repro/internal/storage"
)

// CompiledProgram is the immutable compiled form of a Datalog± program:
// every TGD body, TGD head, EGD body and NC body lowered onto join
// plans against one instance's interner. Compile it once (for example
// against a prepared base instance) and share it freely: states built
// from it only read it, so any number of sessions — including sessions
// on different goroutines — can chase from one CompiledProgram, each
// over its own instance clone.
type CompiledProgram struct {
	in   *datalog.Interner
	tgds []*tgdPlan
	egds []*egdPlan
	ncs  []*ncPlan
}

// tgdPlan is the immutable compiled form of one TGD.
type tgdPlan struct {
	tgd  *datalog.TGD
	body *storage.Plan
	// delta[i] re-matches the full body with body[i]'s variables
	// pre-bound from a delta row; pivot[i] seeds those bindings. All
	// delta plans share the body plan's register space (CompilePlan
	// assigns slots by first occurrence, independent of the bound-
	// variable declaration).
	delta []*storage.Plan
	pivot []storage.Proj
	// head decides restricted-chase head satisfaction: frontier
	// variables seeded from trigger registers, existential variables
	// left free.
	head     *storage.Plan
	headSeed [][2]int // (head-plan slot, body-plan slot) per frontier var
	heads    []headAtomProj
	ex       []datalog.Term // existential vars in head-occurrence order
	maxAr    int            // widest head atom
}

// egdPlan is the immutable compiled form of one EGD.
type egdPlan struct {
	egd  *datalog.EGD
	plan *storage.Plan
}

// ncPlan is the immutable compiled form of one negative constraint.
type ncPlan struct {
	nc    *datalog.NC
	plan  *storage.Plan
	negs  []storage.Proj
	maxAr int
}

// Compile lowers the program onto join plans against db's interner.
// The caller must own db (compilation interns the program's constants)
// and must not intern further terms into db's interner from another
// goroutine while the compiled program is shared. States execute the
// plans against db, its clones, or detached clones (forked interners).
func Compile(prog *datalog.Program, db *storage.Instance) (*CompiledProgram, error) {
	if err := validateRules(prog); err != nil {
		return nil, err
	}
	cp := &CompiledProgram{in: db.Interner()}
	for _, tgd := range prog.TGDs {
		cp.tgds = append(cp.tgds, compileTGDPlan(tgd, db))
	}
	for _, egd := range prog.EGDs {
		cp.egds = append(cp.egds, &egdPlan{egd: egd, plan: storage.CompilePlan(db, egd.Body)})
	}
	for _, nc := range prog.NCs {
		pos := nc.PositiveBody()
		np := &ncPlan{nc: nc, plan: storage.CompilePlan(db, pos)}
		for _, na := range nc.NegativeBody() {
			p := np.plan.CompileProj(na)
			if p.Len() > np.maxAr {
				np.maxAr = p.Len()
			}
			np.negs = append(np.negs, p)
		}
		cp.ncs = append(cp.ncs, np)
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
	for _, ep := range cp.egds {
		for _, a := range ep.egd.Body {
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
	tp := &tgdPlan{
		tgd:  tgd,
		body: storage.CompilePlan(db, tgd.Body),
		head: storage.CompilePlan(db, tgd.Head, tgd.FrontierVars()...),
		ex:   tgd.ExistentialVars(),
	}
	for _, v := range tgd.FrontierVars() {
		tp.headSeed = append(tp.headSeed, [2]int{tp.head.Slot(v), tp.body.Slot(v)})
	}
	tp.delta = make([]*storage.Plan, len(tgd.Body))
	tp.pivot = make([]storage.Proj, len(tgd.Body))
	for i, a := range tgd.Body {
		tp.delta[i] = storage.CompilePlan(db, tgd.Body, a.Vars()...)
		tp.pivot[i] = tp.body.CompileProj(a)
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
			case tp.body.Slot(t) >= 0:
				hp.items[i] = headItem{kind: hSlot, slot: tp.body.Slot(t)}
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
// of the one-shot chase. The trigger memo dedups triggers reached
// through several pivots or rounds; head satisfaction, the restricted
// chase's firing condition, is what keeps a trigger re-enumerated
// after the memo is reset (by an EGD merge or a bound abort) from
// firing again.
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
	egds []*egdState
	ncs  []*ncState

	// watermark[pred] counts rows already processed as "old" by delta
	// matching: every homomorphism entirely below the watermarks has
	// been enumerated. full forces the next round to re-match complete
	// bodies (initial run, and after EGD merges rebuild row storage).
	watermark map[string]int
	full      bool

	reportedEGD map[string]bool
	seenViol    map[Violation]bool

	maxRounds, maxAtoms int
}

// tgdState is the mutable per-state scratch of one TGD: plans
// retargeted onto the state's interner plus reusable register banks
// and the trigger memo.
type tgdState struct {
	tp    *tgdPlan
	body  *storage.Plan
	delta []*storage.Plan
	head  *storage.Plan
	// fired memoizes triggers already enumerated (hashed register
	// snapshots), so a trigger is checked for firing once until an
	// EGD merge or a bound abort resets the memo.
	fired    triggerMemo
	headRegs []int32
	exIDs    []int32
	rowBuf   []int32
	triggers [][]int32
}

type egdState struct {
	ep   *egdPlan
	plan *storage.Plan
}

type ncState struct {
	np   *ncPlan
	plan *storage.Plan
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
// through Instance() or Snapshot is fine). inst's interner must be the
// compile interner or a fork of it — a detached clone of the compile
// instance satisfies this.
func (cp *CompiledProgram) NewState(inst *storage.Instance, opts Options) *State {
	if opts.MaxRounds <= 0 {
		opts.MaxRounds = DefaultMaxRounds
	}
	if opts.MaxAtoms <= 0 {
		opts.MaxAtoms = DefaultMaxAtoms
	}
	st := &State{
		cp:          cp,
		inst:        inst,
		pool:        par.New(opts.Parallelism),
		fresh:       freshCounter(inst),
		res:         &Result{Instance: inst},
		watermark:   map[string]int{},
		full:        true,
		reportedEGD: map[string]bool{},
		seenViol:    map[Violation]bool{},
		maxRounds:   opts.MaxRounds,
		maxAtoms:    opts.MaxAtoms,
	}
	in := inst.Interner()
	for _, tp := range cp.tgds {
		ts := &tgdState{
			tp:    tp,
			body:  tp.body.Retarget(in),
			head:  tp.head.Retarget(in),
			delta: make([]*storage.Plan, len(tp.delta)),
			fired: newTriggerMemo(),
		}
		for i, dp := range tp.delta {
			ts.delta[i] = dp.Retarget(in)
		}
		ts.headRegs = ts.head.NewRegs()
		ts.exIDs = make([]int32, len(tp.ex))
		ts.rowBuf = make([]int32, tp.maxAr)
		st.tgds = append(st.tgds, ts)
	}
	for _, ep := range cp.egds {
		st.egds = append(st.egds, &egdState{ep: ep, plan: ep.plan.Retarget(in)})
	}
	for _, np := range cp.ncs {
		st.ncs = append(st.ncs, &ncState{np: np, plan: np.plan.Retarget(in)})
	}
	return st
}

// Instance returns the state's live instance. Callers must not mutate
// it; take a Snapshot for concurrent reads.
func (st *State) Instance() *storage.Instance { return st.inst }

// Result returns the cumulative chase result backed by the live
// instance. Counters (Rounds, Fired, ...) accumulate across Chase and
// Extend calls; Saturated reflects the most recent call.
func (st *State) Result() *Result { return st.res }

// Replan recompiles every TGD/EGD/NC plan against the state's live
// instance, refreshing the cost-based atom order from its current
// statistics (the compile-time plans were costed against the prepared
// base, which an incrementally grown session can drift arbitrarily far
// from). Slot assignment depends only on the body's source order, so
// the compiled projections, register banks and — critically — the
// trigger memos (hashed register snapshots keyed by slot layout) all
// remain valid; each fired trigger stays fired. Single-writer, like
// Chase and Extend; must not run concurrently with either.
func (st *State) Replan() {
	for _, ts := range st.tgds {
		tgd := ts.tp.tgd
		ts.body = storage.CompilePlan(st.inst, tgd.Body)
		ts.head = storage.CompilePlan(st.inst, tgd.Head, tgd.FrontierVars()...)
		for i, a := range tgd.Body {
			ts.delta[i] = storage.CompilePlan(st.inst, tgd.Body, a.Vars()...)
		}
	}
	for _, es := range st.egds {
		es.plan = storage.CompilePlan(st.inst, es.ep.egd.Body)
	}
	for _, ns := range st.ncs {
		ns.plan = storage.CompilePlan(st.inst, ns.np.nc.PositiveBody())
	}
}

// Chase runs the chase to fixpoint from the current frontier. The
// error is non-nil only for context cancellation; bound-exceeded runs
// leave Result().Saturated false with a nil error, matching Run.
func (st *State) Chase(ctx context.Context) error {
	st.res.Saturated = false
	atomBound := false

	for round := 0; round < st.maxRounds; round++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		full := st.full
		st.full = false
		// Rows at or beyond roundStart were inserted during this round
		// and form the next round's delta frontier.
		roundStart := st.relationLens()

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
		if !atomBound && len(st.egds) > 0 {
			merged, hard, err := st.applyEGDs(ctx)
			if err != nil {
				return err
			}
			if merged > 0 {
				progress = true
				// Merges rewrite row storage in place (indices shift),
				// so delta bookkeeping and memoized trigger bindings
				// are both stale: fall back to one full round.
				st.full = true
				for _, ts := range st.tgds {
					ts.fired = newTriggerMemo()
				}
			}
			st.addViolations(hard)
		}
		st.res.Rounds++

		if st.full {
			// The next full round re-enumerates everything; watermarks
			// restart from zero.
			for pred := range st.watermark {
				st.watermark[pred] = 0
			}
		} else {
			// Everything present at round start has now been matched
			// (fully or via the delta frontier).
			for pred, n := range roundStart {
				st.watermark[pred] = n
			}
		}

		if atomBound {
			// A bound abort leaves this round's delta windows partially
			// processed and enumerated-but-unfired triggers memoized:
			// force a full re-match round with fresh memos in case the
			// caller resumes, so nothing is silently skipped.
			st.full = true
			for _, ts := range st.tgds {
				ts.fired = newTriggerMemo()
			}
			for pred := range st.watermark {
				st.watermark[pred] = 0
			}
			return nil // Saturated stays false
		}
		if !progress {
			st.res.Saturated = true
			break
		}
	}

	return st.checkNCs(ctx)
}

// relationLens snapshots every relation's current length.
func (st *State) relationLens() map[string]int {
	lens := make(map[string]int, len(st.inst.RelationNames()))
	for _, name := range st.inst.RelationNames() {
		lens[name] = st.inst.Relation(name).Len()
	}
	return lens
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
// unknown predicates create relations. It returns per-call statistics.
func (st *State) Extend(ctx context.Context, delta []datalog.Atom) (*ExtendInfo, error) {
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

// applyTGD enumerates this round's triggers of one TGD — full-plan in
// a full round, delta-frontier-driven otherwise — and fires them. It
// returns the number of applications, or -1 when MaxAtoms was
// exceeded. Phase 1 (discovery) is sharded across the pool against
// the frozen round view and merged in shard order, so the trigger
// list, and therefore everything downstream (insertion order, null
// labels), does not depend on the pool width; phase 2 (firing) always
// runs on the caller goroutine.
func (st *State) applyTGD(ctx context.Context, ts *tgdState, full bool, roundStart map[string]int) (int, error) {
	// Phase 1: enumerate new triggers, snapshotting register banks.
	// (Insertion happens afterwards so the enumeration never observes
	// its own derivations mid-round.)
	ts.triggers = ts.triggers[:0]
	if err := st.discover(ctx, ts, full, roundStart); err != nil {
		return 0, err
	}

	// Phase 2: fire.
	in := st.inst.Interner()
	applied := 0
	for _, tr := range ts.triggers {
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
				// Head rows are ground by construction; an error here
				// indicates an arity clash, which Validate should have
				// caught — surface it loudly.
				panic("chase: insert failed: " + err.Error())
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
	return applied, nil
}

// tgdUnit is one discovery work unit of a TGD: a shard of the full
// body plan (pivot < 0) or a chunk of one pivot's delta window. Units
// are ordered (pivot, chunk/shard); the merge walks them in that
// order, which is the plans' own enumeration order at every width.
type tgdUnit struct {
	pivot  int
	shard  int
	nshard int
	lo, hi int
}

// discover fans one TGD's trigger discovery out across the pool.
// Workers only read (plan execution over the frozen round view) and
// record raw register snapshots per unit; the caller deduplicates
// through the shared trigger memo in unit order afterwards, so the
// resulting trigger list does not depend on the pool width.
func (st *State) discover(ctx context.Context, ts *tgdState, full bool, roundStart map[string]int) error {
	w := st.pool.Width()
	var units []tgdUnit
	if full {
		for s := 0; s < w; s++ {
			units = append(units, tgdUnit{pivot: -1, shard: s, nshard: w})
		}
	} else {
		for i := range ts.delta {
			proj := &ts.tp.pivot[i]
			rel := st.inst.Relation(proj.Pred)
			if rel == nil {
				continue
			}
			lo, hi := st.watermark[proj.Pred], roundStart[proj.Pred]
			if lo >= hi {
				continue
			}
			for _, c := range par.Chunks(hi-lo, w) {
				units = append(units, tgdUnit{pivot: i, lo: lo + c[0], hi: lo + c[1]})
			}
		}
	}
	if len(units) == 0 {
		return nil
	}
	snaps, err := par.Map(ctx, st.pool, len(units), func(t int) ([][]int32, error) {
		u := &units[t]
		var arena datalog.Int32Arena
		var local [][]int32
		collect := func(regs []int32) bool {
			local = append(local, arena.Copy(regs))
			return true
		}
		regs := ts.body.NewRegs()
		if u.pivot < 0 {
			// Full rounds start with a fresh memo (the initial round,
			// and EGD merges/bound aborts reset it), so there is
			// nothing to probe — stage every match.
			ts.body.ExecuteShard(st.inst, regs, u.shard, u.nshard, collect)
		} else {
			// Delta rounds probe the quiescent memo read-only so
			// triggers memoized in earlier rounds are not re-staged
			// through other pivots; add still dedups authoritatively
			// at merge.
			collectNew := func(regs []int32) bool {
				if ts.fired.has(regs) {
					return true
				}
				return collect(regs)
			}
			proj := &ts.tp.pivot[u.pivot]
			rows := st.inst.Relation(proj.Pred).Rows()
			for _, row := range rows[u.lo:u.hi] {
				ts.body.ResetRegs(regs)
				if !proj.Bind(row, regs) {
					continue
				}
				ts.delta[u.pivot].Execute(st.inst, regs, collectNew)
			}
		}
		return local, nil
	})
	if err != nil {
		return err
	}
	for _, local := range snaps {
		for _, s := range local {
			if snap, isNew := ts.fired.add(s); isNew {
				ts.triggers = append(ts.triggers, snap)
			}
		}
	}
	return nil
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
				key := egd.ID + "§" + a.Name + "§" + b.Name
				if !st.reportedEGD[key] {
					st.reportedEGD[key] = true
					hard = append(hard, Violation{
						Kind:   EGDConflict,
						ID:     egd.ID,
						Detail: fmt.Sprintf("requires %s = %s", a, b),
					})
				}
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
		es    *egdState
		shard int
	}
	units := make([]egdUnit, 0, len(st.egds)*w)
	for _, es := range st.egds {
		for s := 0; s < w; s++ {
			units = append(units, egdUnit{es: es, shard: s})
		}
	}
	pairs, err := par.Map(ctx, st.pool, len(units), func(t int) ([]egdPair, error) {
		u := &units[t]
		es := u.es
		regs := es.plan.NewRegs()
		var local []egdPair
		es.plan.ExecuteShard(st.inst, regs, u.shard, w, func(regs []int32) bool {
			local = append(local, egdPair{
				l: es.plan.TermAt(regs, es.ep.egd.Left),
				r: es.plan.TermAt(regs, es.ep.egd.Right),
			})
			return true
		})
		return local, nil
	})
	if err != nil {
		return err
	}
	for t, local := range pairs {
		egd := units[t].es.ep.egd
		for _, p := range local {
			fold(egd, p.l, p.r)
		}
	}
	return nil
}

// checkNCs evaluates negative constraints over the current instance,
// appending violations not yet reported. Negated atoms are checked
// under closed-world assumption. NC bodies are matched in shards
// across the pool (read-only) and the found violations merged in (NC,
// shard, match) order, so the report order does not depend on the
// pool width.
func (st *State) checkNCs(ctx context.Context) error {
	// matchNC evaluates one complete body match of ns, returning the
	// violation when the NC fires (negated atoms absent, conditions
	// hold). buf is projection scratch of at least ns.np.maxAr.
	matchNC := func(ns *ncState, regs []int32, buf []int32) (Violation, bool) {
		nc := ns.np.nc
		for i := range ns.np.negs {
			n := &ns.np.negs[i]
			nb := buf[:n.Len()]
			n.Project(regs, nb)
			if st.inst.ContainsRow(n.Pred, nb) {
				return Violation{}, false // negated atom present: body not satisfied
			}
		}
		for _, c := range nc.Conds {
			// Safety is validated up front, so EvalTerms cannot see
			// unbound variables here.
			ok, err := c.EvalTerms(ns.plan.TermAt(regs, c.L), ns.plan.TermAt(regs, c.R))
			if err != nil || !ok {
				return Violation{}, false
			}
		}
		s := ns.plan.SubstAt(regs, datalog.NewSubst())
		detail := datalog.AtomsString(s.ApplyAtoms(nc.PositiveBody()))
		return Violation{Kind: NCViolation, ID: nc.ID, Detail: detail}, true
	}

	w := st.pool.Width()
	type ncUnit struct {
		ns    *ncState
		shard int
	}
	units := make([]ncUnit, 0, len(st.ncs)*w)
	for _, ns := range st.ncs {
		for s := 0; s < w; s++ {
			units = append(units, ncUnit{ns: ns, shard: s})
		}
	}
	if len(units) == 0 {
		return nil
	}
	found, err := par.Map(ctx, st.pool, len(units), func(t int) ([]Violation, error) {
		u := &units[t]
		ns := u.ns
		regs := ns.plan.NewRegs()
		buf := make([]int32, ns.np.maxAr)
		var local []Violation
		ns.plan.ExecuteShard(st.inst, regs, u.shard, w, func(regs []int32) bool {
			if v, ok := matchNC(ns, regs, buf); ok {
				local = append(local, v)
			}
			return true
		})
		return local, nil
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
