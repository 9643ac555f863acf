// Package eval implements bottom-up evaluation of plain Datalog
// programs (TGDs without existential variables) with stratified
// negation and built-in comparisons, using semi-naive iteration over
// storage instances.
//
// The quality framework of the paper (Section V) defines contextual
// predicates, quality predicates P_i and quality versions S^q through
// plain Datalog rules over the chased ontology — this package is the
// engine that computes them. It also evaluates the unions of
// conjunctive queries produced by the FO rewriting of Section IV.
package eval

import (
	"context"
	"fmt"

	"repro/internal/datalog"
	"repro/internal/par"
	"repro/internal/qerr"
	"repro/internal/storage"
)

// Rule is a plain Datalog rule with one head atom, a positive body,
// optional safe negated atoms (stratified), and optional built-in
// comparisons:
//
//	Head ← B1, ..., Bn, not N1, ..., not Nk, c1, ..., cm
type Rule struct {
	ID      string
	Head    datalog.Atom
	Body    []datalog.Atom
	Negated []datalog.Atom
	Conds   []datalog.Comparison
}

// NewRule builds a positive rule.
func NewRule(id string, head datalog.Atom, body ...datalog.Atom) *Rule {
	return &Rule{ID: id, Head: head, Body: body}
}

// WithNegated appends a negated atom and returns the rule.
func (r *Rule) WithNegated(a datalog.Atom) *Rule {
	r.Negated = append(r.Negated, a)
	return r
}

// WithCond appends a comparison and returns the rule.
func (r *Rule) WithCond(op datalog.CompOp, l, rt datalog.Term) *Rule {
	r.Conds = append(r.Conds, datalog.Comparison{Op: op, L: l, R: rt})
	return r
}

// Validate checks safety: every head variable, negated-atom variable
// and comparison variable must occur in the positive body.
func (r *Rule) Validate() error {
	if len(r.Body) == 0 {
		return fmt.Errorf("eval: %w", &qerr.UnsafeRuleError{Rule: r.ID, Reason: "empty body"})
	}
	bodyVars := map[datalog.Term]bool{}
	for _, v := range datalog.VarsOfAtoms(r.Body) {
		bodyVars[v] = true
	}
	for _, v := range r.Head.Vars() {
		if !bodyVars[v] {
			return fmt.Errorf("eval: %w", &qerr.UnsafeRuleError{
				Rule: r.ID, Var: v.Name,
				Reason: "head variable not bound in body (existential rules belong to the chase, not eval)",
			})
		}
	}
	for _, n := range r.Negated {
		for _, v := range n.Vars() {
			if !bodyVars[v] {
				return fmt.Errorf("eval: %w", &qerr.UnsafeRuleError{
					Rule: r.ID, Var: v.Name, Reason: "negated variable not bound by a positive atom",
				})
			}
		}
	}
	for _, c := range r.Conds {
		for _, t := range []datalog.Term{c.L, c.R} {
			if t.IsVar() && !bodyVars[t] {
				return fmt.Errorf("eval: %w", &qerr.UnsafeRuleError{
					Rule: r.ID, Var: t.Name, Reason: "condition variable not bound by a positive atom",
				})
			}
		}
	}
	return nil
}

// String renders the rule.
func (r *Rule) String() string {
	q := datalog.Query{Head: r.Head, Body: r.Body, Negated: r.Negated, Conds: r.Conds}
	return q.String()
}

// Program is a set of plain Datalog rules.
type Program struct {
	Rules []*Rule
}

// NewProgram returns an empty program.
func NewProgram() *Program { return &Program{} }

// Add appends rules.
func (p *Program) Add(rules ...*Rule) { p.Rules = append(p.Rules, rules...) }

// Validate validates every rule.
func (p *Program) Validate() error {
	for _, r := range p.Rules {
		if err := r.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// Stratify partitions the rules into strata, one per strongly
// connected component of the predicate dependency graph, in dependency
// order: every stratum comes after the strata deriving the predicates
// its rules read, positively or under negation. The graph's nodes are
// head predicates, with an edge from a rule's head to every head
// predicate its body reads. Components are found with Tarjan's
// algorithm, visiting predicates in order of first appearance as a
// head, and rules keep source order within a stratum, so the result is
// deterministic. It returns an error when the program has recursion
// through negation: a negated atom over a predicate of its own
// component.
func (p *Program) Stratify() ([][]*Rule, error) {
	node := map[string]int{}
	for _, r := range p.Rules {
		if _, ok := node[r.Head.Pred]; !ok {
			node[r.Head.Pred] = len(node)
		}
	}
	deps := make([][]int, len(node))
	for _, r := range p.Rules {
		h := node[r.Head.Pred]
		for _, atoms := range [][]datalog.Atom{r.Body, r.Negated} {
			for _, a := range atoms {
				if d, ok := node[a.Pred]; ok {
					deps[h] = append(deps[h], d)
				}
			}
		}
	}

	// Tarjan's algorithm emits a component only after every component
	// it reaches, so emission order is dependency order.
	comp := make([]int, len(node)) // node -> component, in emission order
	index := make([]int, len(node))
	low := make([]int, len(node))
	onStack := make([]bool, len(node))
	var stack []int
	next, ncomp := 1, 0 // index 0 marks an unvisited node
	var visit func(v int)
	visit = func(v int) {
		index[v], low[v] = next, next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range deps[v] {
			if index[w] == 0 {
				visit(w)
				low[v] = min(low[v], low[w])
			} else if onStack[w] {
				low[v] = min(low[v], index[w])
			}
		}
		if low[v] != index[v] {
			return
		}
		for {
			w := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			onStack[w] = false
			comp[w] = ncomp
			if w == v {
				break
			}
		}
		ncomp++
	}
	for v := range deps {
		if index[v] == 0 {
			visit(v)
		}
	}

	out := make([][]*Rule, ncomp)
	for _, r := range p.Rules {
		c := comp[node[r.Head.Pred]]
		for _, n := range r.Negated {
			if d, ok := node[n.Pred]; ok && comp[d] == c {
				return nil, fmt.Errorf("eval: recursion through negation involving %s", r.Head.Pred)
			}
		}
		out[c] = append(out[c], r)
	}
	return out, nil
}

// Eval computes the program's least fixpoint over a copy of db and
// returns the resulting instance (EDB plus derived IDB atoms). The
// input instance is not modified. ctx is checked once per rule pass
// of every semi-naive round (per worker unit under parallelism), so a
// serving process can time-bound a runaway evaluation with bounded
// cancellation latency.
//
// Evaluation runs on compiled join plans over interned rows (see
// storage.CompilePlan): every rule body is compiled once per stratum,
// matches bind a flat register bank instead of cloning substitution
// maps, and derived facts are projected and inserted as []int32 rows
// without materializing atoms or string keys.
func Eval(ctx context.Context, p *Program, db *storage.Instance) (*storage.Instance, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	strata, err := p.Stratify()
	if err != nil {
		return nil, err
	}
	out := db.CloneDetached()
	st := NewState(strata, out)
	if err := st.Init(ctx); err != nil {
		return nil, err
	}
	return out, nil
}

// Fact is a derived or delta tuple in interned form (row ids belong to
// the owning instance's interner).
type Fact struct {
	Pred string
	Row  []int32
}

// compiledRule is a rule lowered onto one register space: the base
// plan and every delta plan share slot assignments (CompilePlan
// assigns slots by first occurrence in the body, independent of the
// bound-variable declaration), so a single set of head/negation
// projections serves all of them.
type compiledRule struct {
	r    *Rule
	plan *storage.Plan // full body, nothing pre-bound
	head storage.Proj
	negs []storage.Proj
	// deltaPlans[i] re-evaluates the full body with body[i]'s
	// variables pre-bound from a delta fact; nil when body[i] cannot
	// receive delta facts (cold evaluation: non-IDB atoms of the
	// stratum; incremental state: every atom gets a plan).
	deltaPlans []*storage.Plan
	pivotProj  []storage.Proj // body[i] as a projection, for seeding registers
	pivots     int            // number of body atoms with delta plans
	regs       []int32        // reusable register bank
	buf        []int32        // reusable projection buffer
}

// compileRule lowers one rule. idb names the predicates that can grow
// during the stratum's own fixpoint; allDelta additionally compiles a
// delta plan for every body atom, which incremental evaluation needs
// because delta facts can arrive for any predicate, EDB included.
func compileRule(r *Rule, db *storage.Instance, idb map[string]bool, allDelta bool) *compiledRule {
	cr := &compiledRule{
		r:    r,
		plan: storage.CompilePlan(db, r.Body),
	}
	cr.head = cr.plan.CompileProj(r.Head)
	for _, n := range r.Negated {
		cr.negs = append(cr.negs, cr.plan.CompileProj(n))
	}
	cr.deltaPlans = make([]*storage.Plan, len(r.Body))
	cr.pivotProj = make([]storage.Proj, len(r.Body))
	for i, a := range r.Body {
		if !allDelta && !idb[a.Pred] {
			continue
		}
		cr.pivots++
		cr.deltaPlans[i] = storage.CompilePlan(db, r.Body, a.Vars()...)
		cr.pivotProj[i] = cr.plan.CompileProj(a)
	}
	cr.regs = cr.plan.NewRegs()
	maxAr := len(r.Head.Args)
	for _, n := range r.Negated {
		if len(n.Args) > maxAr {
			maxAr = len(n.Args)
		}
	}
	cr.buf = make([]int32, maxAr)
	return cr
}

// filters checks the rule's negated atoms (closed world) and
// comparisons against the register bank. buf is projection scratch of
// at least len(cr.buf); parallel workers pass their own so one rule
// can be filtered from many goroutines.
func (cr *compiledRule) filters(db *storage.Instance, regs []int32, buf []int32) (bool, error) {
	for i := range cr.negs {
		n := &cr.negs[i]
		nb := buf[:n.Len()]
		n.Project(regs, nb)
		if db.ContainsRow(n.Pred, nb) {
			return false, nil
		}
	}
	for _, c := range cr.r.Conds {
		ok, err := c.EvalTerms(cr.plan.TermAt(regs, c.L), cr.plan.TermAt(regs, c.R))
		if err != nil {
			return false, fmt.Errorf("eval: rule %s: %w", cr.r.ID, err)
		}
		if !ok {
			return false, nil
		}
	}
	return true, nil
}

// derive applies filters and, on success, inserts the head row,
// appending newly derived facts to *out when out is non-nil.
func (cr *compiledRule) derive(db *storage.Instance, regs []int32, out *[]Fact) error {
	ok, err := cr.filters(db, regs, cr.buf)
	if err != nil || !ok {
		return err
	}
	buf := cr.buf[:cr.head.Len()]
	cr.head.Project(regs, buf)
	isNew, err := db.InsertRow(cr.head.Pred, buf)
	if err != nil {
		return err
	}
	if isNew && out != nil {
		row := make([]int32, len(buf))
		copy(row, buf)
		*out = append(*out, Fact{Pred: cr.head.Pred, Row: row})
	}
	return nil
}

// State is a resumable stratified evaluation: it owns an instance
// holding the EDB plus every derived fact, with each stratum's rules
// compiled once. Init computes the full least fixpoint; Extend grows
// it incrementally from a batch of delta facts, re-matching rule
// bodies only against the delta — sound for negation-free programs
// (Incremental reports whether Extend is available; programs with
// negation are non-monotone under insertions and need re-evaluation).
//
// A State is single-writer: Init and Extend must not be called
// concurrently. Concurrent readers use Instance().Snapshot().
//
// A State may still evaluate in parallel internally (SetParallelism):
// each semi-naive round fans its rule passes out across a bounded
// worker pool, every worker matching against the frozen round view
// and staging derived rows into a private storage.Batch, and the
// single writer merges the batches in deterministic unit order (rule
// index, then shard/chunk index, then emission order) before the next
// round. Parallelism 1 runs the exact sequential code path; higher
// degrees produce the same fixpoint (set-identical instances), with
// insertion order deterministic for a fixed degree.
type State struct {
	strata [][]*Rule
	inst   *storage.Instance
	comp   [][]*compiledRule
	// recursive[i] reports whether a rule of stratum i reads, in its
	// positive body, a predicate the stratum derives.
	recursive []bool
	pool      par.Pool
	hasNeg    bool
	inited    bool
}

// NewState builds an evaluation state over inst, which the state takes
// ownership of (derived facts are inserted in place; callers wanting
// an untouched input pass a clone). The strata come from
// Program.Stratify; rules are assumed validated.
func NewState(strata [][]*Rule, inst *storage.Instance) *State {
	st := &State{strata: strata, inst: inst, pool: par.New(0)}
	for _, rules := range strata {
		for _, r := range rules {
			if len(r.Negated) > 0 {
				st.hasNeg = true
			}
		}
	}
	return st
}

// SetParallelism bounds the state's worker pool: n <= 0 resolves to
// runtime.GOMAXPROCS(0) (the default), 1 selects the exact sequential
// code path, n > 1 fans rule passes out across up to n workers. Call
// it before Init; the degree is fixed for the state's lifetime.
func (st *State) SetParallelism(n int) { st.pool = par.New(n) }

// Instance returns the state's live instance (EDB + derived facts).
// Callers must not mutate it; take a Snapshot for concurrent reads.
func (st *State) Instance() *storage.Instance { return st.inst }

// Incremental reports whether Extend is available: true for
// negation-free programs, whose fixpoints grow monotonically under
// insertions.
func (st *State) Incremental() bool { return !st.hasNeg }

// Reset rebinds the state to a fresh instance for re-evaluation,
// keeping the compiled rule plans (valid because plans bind to the
// interner, which inst must share with the previous instance — the
// session layer re-evaluates over clones of one chased instance).
// Call Init afterwards.
func (st *State) Reset(inst *storage.Instance) {
	if st.inst.Interner() != inst.Interner() {
		panic("eval: State.Reset onto an instance with a different interner")
	}
	st.inst = inst
	st.inited = false
}

// Replan recompiles every rule's join plans against the state's live
// instance, refreshing the cost-based atom order from its current
// statistics — the session layer calls this when relation
// cardinalities have drifted far from what the original plans were
// costed against. Slot assignment depends only on the body's source
// order (first occurrence), never on atom order, so the existing
// projections, register banks and pivot compilations all remain valid;
// only the plans themselves are replaced. No-op before the first Init
// compiles. Single-writer, like Init and Extend.
func (st *State) Replan() {
	if st.comp == nil {
		return
	}
	for _, comp := range st.comp {
		for _, cr := range comp {
			cr.plan = storage.CompilePlan(st.inst, cr.r.Body)
			for i, a := range cr.r.Body {
				if cr.deltaPlans[i] != nil {
					cr.deltaPlans[i] = storage.CompilePlan(st.inst, cr.r.Body, a.Vars()...)
				}
			}
		}
	}
}

// Init computes the least fixpoint stratum by stratum. A stratum whose
// rules read none of its own head predicates takes exactly one pass;
// a recursive stratum iterates semi-naively to its fixpoint. ctx is
// checked once per rule pass (per worker unit when the pool is
// parallel). Rule plans are compiled on the first Init and reused by
// later Reset+Init cycles.
func (st *State) Init(ctx context.Context) error {
	if st.comp == nil {
		st.comp = make([][]*compiledRule, len(st.strata))
		st.recursive = make([]bool, len(st.strata))
		for si, rules := range st.strata {
			idb := map[string]bool{}
			for _, r := range rules {
				idb[r.Head.Pred] = true
			}
			comp := make([]*compiledRule, len(rules))
			for i, r := range rules {
				// With negation, Extend is rejected, so only the
				// stratum's own IDB pivots are needed; negation-free
				// programs additionally compile a delta plan per body
				// atom (Extend pivots on any atom, EDB included).
				comp[i] = compileRule(r, st.inst, idb, !st.hasNeg)
				for _, a := range r.Body {
					if idb[a.Pred] {
						st.recursive[si] = true
					}
				}
			}
			st.comp[si] = comp
		}
	}
	for si, comp := range st.comp {
		if err := ctx.Err(); err != nil {
			return err
		}
		if !st.recursive[si] {
			// No rule reads what the stratum derives, so one full
			// pass reaches its fixpoint and no delta is collected.
			if err := st.fullRound(ctx, comp, nil); err != nil {
				return err
			}
			continue
		}

		// Recursive strata: a full pass, then semi-naive rounds in
		// which a rule re-fires only with at least one body atom
		// matching the previous round's delta, pivoting on the
		// stratum's own IDB predicates.
		var delta []Fact
		if err := st.fullRound(ctx, comp, &delta); err != nil {
			return err
		}
		deltaByPred := map[string][][]int32{}
		for len(delta) > 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
			for pred := range deltaByPred {
				deltaByPred[pred] = deltaByPred[pred][:0]
			}
			for _, f := range delta {
				deltaByPred[f.Pred] = append(deltaByPred[f.Pred], f.Row)
			}
			var next []Fact
			if err := st.deltaRound(ctx, comp, deltaByPred, &next); err != nil {
				return err
			}
			delta = next
		}
	}
	st.inited = true
	return nil
}

// fullRound runs every rule's full body once: sequentially rule by
// rule, or sharded across the worker pool with a deterministic batch
// merge. Newly derived facts are appended to *out when out is non-nil.
func (st *State) fullRound(ctx context.Context, comp []*compiledRule, out *[]Fact) error {
	if !st.pool.Sequential() {
		return st.fullRoundPar(ctx, comp, out)
	}
	for _, cr := range comp {
		if err := ctx.Err(); err != nil {
			return err
		}
		var derr error
		cr.plan.ResetRegs(cr.regs)
		cr.plan.Execute(st.inst, cr.regs, func(regs []int32) bool {
			derr = cr.derive(st.inst, regs, out)
			return derr == nil
		})
		if derr != nil {
			return derr
		}
	}
	return nil
}

// deltaRound runs one semi-naive delta round over every rule:
// sequentially via deltaPass, or — with a parallel pool — as delta-row
// chunks fanned across workers staging into private batches.
func (st *State) deltaRound(ctx context.Context, comp []*compiledRule, deltaByPred map[string][][]int32, next *[]Fact) error {
	if st.pool.Sequential() {
		for _, cr := range comp {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := deltaPass(cr, st.inst, deltaByPred, next); err != nil {
				return err
			}
		}
		return nil
	}
	units := make([]evalUnit, 0, len(comp))
	for _, cr := range comp {
		for i := range cr.r.Body {
			if cr.deltaPlans[i] == nil {
				continue
			}
			rows := deltaByPred[cr.pivotProj[i].Pred]
			for _, c := range par.Chunks(len(rows), st.pool.Width()) {
				units = append(units, evalUnit{cr: cr, pivot: i, lo: c[0], hi: c[1]})
			}
		}
	}
	return st.runUnits(ctx, units, deltaByPred, next)
}

// evalUnit is one parallel work unit of a round: a shard of a rule's
// full-body plan (pivot < 0) or a chunk of one pivot's delta rows.
// Units are built in (rule index, pivot, chunk/shard) order, which
// fixes the batch merge order.
type evalUnit struct {
	cr     *compiledRule
	pivot  int // -1: full pass
	shard  int // full pass: shard index
	nshard int // full pass: shard count
	lo, hi int // delta pass: row range within the pivot's delta
}

// fullRoundPar shards every rule's full-body pass across the pool.
func (st *State) fullRoundPar(ctx context.Context, comp []*compiledRule, out *[]Fact) error {
	w := st.pool.Width()
	units := make([]evalUnit, 0, len(comp)*w)
	for _, cr := range comp {
		for s := 0; s < w; s++ {
			units = append(units, evalUnit{cr: cr, pivot: -1, shard: s, nshard: w})
		}
	}
	return st.runUnits(ctx, units, nil, out)
}

// runUnits executes the units on the worker pool — every worker
// matching against the round's frozen instance view and staging head
// rows into the unit's private batch — then merges all batches in
// unit order on the calling goroutine, appending each genuinely new
// fact to *out when out is non-nil. Cancellation is checked once per
// unit (par.Map), bounding latency by a single work unit rather than
// a whole round.
func (st *State) runUnits(ctx context.Context, units []evalUnit, deltaByPred map[string][][]int32, out *[]Fact) error {
	if len(units) == 0 {
		return nil
	}
	batches, err := par.Map(ctx, st.pool, len(units), func(t int) (*storage.Batch, error) {
		u := &units[t]
		cr := u.cr
		regs := cr.plan.NewRegs()
		buf := make([]int32, len(cr.buf))
		b := &storage.Batch{}
		var serr error
		stage := func(regs []int32) bool {
			ok, err := cr.filters(st.inst, regs, buf)
			if err != nil {
				serr = err
				return false
			}
			if ok {
				hb := buf[:cr.head.Len()]
				cr.head.Project(regs, hb)
				b.Add(cr.head.Pred, hb)
			}
			return true
		}
		if u.pivot < 0 {
			cr.plan.ExecuteShard(st.inst, regs, u.shard, u.nshard, stage)
			return b, serr
		}
		proj := &cr.pivotProj[u.pivot]
		dp := cr.deltaPlans[u.pivot]
		for _, row := range deltaByPred[proj.Pred][u.lo:u.hi] {
			cr.plan.ResetRegs(regs)
			if !proj.Bind(row, regs) {
				continue
			}
			if !dp.Execute(st.inst, regs, stage) {
				break // aborted on a filter error
			}
		}
		return b, serr
	})
	if err != nil {
		return err
	}
	var onNew func(pred string, row []int32)
	if out != nil {
		onNew = func(pred string, row []int32) {
			*out = append(*out, Fact{Pred: pred, Row: row})
		}
	}
	for _, b := range batches {
		if _, err := st.inst.MergeBatch(b, onNew); err != nil {
			return err
		}
	}
	return nil
}

// Extend inserts the delta facts (rows in the instance's interner) and
// grows the fixpoint incrementally: every stratum, in order, re-fires
// its rules seeded by the incoming delta plus everything derived by
// earlier strata during this call. It returns all newly derived facts
// (not including the input delta) and requires a negation-free
// program (see Incremental) and a prior Init.
func (st *State) Extend(ctx context.Context, delta []Fact) ([]Fact, error) {
	if !st.inited {
		return nil, fmt.Errorf("eval: Extend before Init")
	}
	if st.hasNeg {
		return nil, fmt.Errorf("eval: Extend on a program with negation (non-monotone); re-evaluate instead")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// all accumulates every fact visible as a pivot: the input delta
	// plus everything derived during this call.
	all := make([]Fact, 0, len(delta))
	for _, f := range delta {
		isNew, err := st.inst.InsertRow(f.Pred, f.Row)
		if err != nil {
			return nil, fmt.Errorf("eval: extend: %w", err)
		}
		if isNew {
			all = append(all, f)
		}
	}
	inserted := len(all)
	// byPred indexes all by predicate as it grows, each fact once. A
	// stratum's first round pivots on every row indexed so far (its
	// rules have seen none of them); each later round pivots on the
	// rows past the stratum's per-predicate cursors, which are what
	// its previous round derived.
	byPred := map[string][][]int32{}
	indexed := 0
	round := map[string][][]int32{}
	for si, comp := range st.comp {
		if len(comp) == 0 {
			continue
		}
		used := make(map[string]int, len(byPred))
		for {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			for _, f := range all[indexed:] {
				byPred[f.Pred] = append(byPred[f.Pred], f.Row)
			}
			indexed = len(all)
			clear(round)
			for pred, rows := range byPred {
				if n := used[pred]; n < len(rows) {
					round[pred] = rows[n:]
					used[pred] = len(rows)
				}
			}
			if len(round) == 0 {
				break
			}
			if err := st.deltaRound(ctx, comp, round, &all); err != nil {
				return nil, err
			}
			if !st.recursive[si] {
				break // no rule of the stratum reads what it derived
			}
		}
	}
	return all[inserted:], nil
}

// deltaPass re-fires one rule seeded by every delta fact at every
// pivot position that has a delta plan.
func deltaPass(cr *compiledRule, db *storage.Instance, deltaByPred map[string][][]int32, next *[]Fact) error {
	// A rule with ≥2 pivot atoms can reach the same homomorphism
	// through several pivots; dedup complete matches by their packed
	// register image.
	var seen map[string]bool
	if cr.pivots > 1 {
		seen = map[string]bool{}
	}
	var key []byte
	for i := range cr.r.Body {
		plan := cr.deltaPlans[i]
		if plan == nil {
			continue
		}
		proj := &cr.pivotProj[i]
		for _, row := range deltaByPred[proj.Pred] {
			cr.plan.ResetRegs(cr.regs)
			if !proj.Bind(row, cr.regs) {
				continue
			}
			var derr error
			plan.Execute(db, cr.regs, func(regs []int32) bool {
				if seen != nil {
					key = packRegs(key[:0], regs)
					if seen[string(key)] {
						return true
					}
					seen[string(key)] = true
				}
				derr = cr.derive(db, regs, next)
				return derr == nil
			})
			if derr != nil {
				return derr
			}
		}
	}
	return nil
}

// packRegs appends the register bank's raw bytes to dst, producing a
// compact dedup key.
func packRegs(dst []byte, regs []int32) []byte {
	for _, r := range regs {
		dst = append(dst, byte(r), byte(r>>8), byte(r>>16), byte(r>>24))
	}
	return dst
}

// EvalQuery evaluates a conjunctive query (with optional negation and
// comparisons, both under closed-world assumption) directly over an
// instance, returning all answers including those containing labeled
// nulls. Certain-answer filtering is the caller's concern (see qa).
// The body is compiled to a join plan; the instance is not modified.
func EvalQuery(q *datalog.Query, db *storage.Instance) (*datalog.AnswerSet, error) {
	answers := datalog.NewAnswerSet()
	err := EvalQueryFunc(q, db, func(ans datalog.Answer) bool {
		answers.Add(ans)
		return true
	})
	if err != nil {
		return nil, err
	}
	return answers, nil
}

// QueryPlanner supplies compiled read-only plans for query bodies —
// the seam a plan cache plugs into (*storage.PlanCache implements it).
// Implementations must return plans equivalent to
// storage.CompileQueryPlan(db, body).
type QueryPlanner interface {
	QueryPlan(db *storage.Instance, body []datalog.Atom) *storage.Plan
}

// EvalQueryFunc is the streaming form of EvalQuery: each distinct
// answer is passed to yield as it is produced by the join plan,
// without materializing an answer set. Returning false from yield
// stops the evaluation early. Answers are deduplicated (a seen-set of
// answer keys is kept, but never the answers themselves), so yield
// observes each answer exactly once.
func EvalQueryFunc(q *datalog.Query, db *storage.Instance, yield func(datalog.Answer) bool) error {
	return EvalQueryFuncPlanned(q, db, nil, yield)
}

// EvalQueryFuncPlanned is EvalQueryFunc with plan supply delegated to
// planner; a nil planner compiles fresh per call.
func EvalQueryFuncPlanned(q *datalog.Query, db *storage.Instance, planner QueryPlanner, yield func(datalog.Answer) bool) error {
	if err := q.Validate(); err != nil {
		return err
	}
	var plan *storage.Plan
	if planner != nil {
		plan = planner.QueryPlan(db, q.Body)
	} else {
		plan = storage.CompileQueryPlan(db, q.Body)
	}
	negs := make([]storage.Proj, len(q.Negated))
	for i, n := range q.Negated {
		negs[i] = plan.CompileProbe(n)
	}
	maxAr := 0
	for _, n := range negs {
		if n.Len() > maxAr {
			maxAr = n.Len()
		}
	}
	buf := make([]int32, maxAr)
	seen := map[string]bool{}
	ansVars := q.Head.Args
	var derr error
	plan.Execute(db, plan.NewRegs(), func(regs []int32) bool {
		for i := range negs {
			n := &negs[i]
			nb := buf[:n.Len()]
			n.Project(regs, nb)
			if db.ContainsRow(n.Pred, nb) {
				return true
			}
		}
		for _, c := range q.Conds {
			ok, err := c.EvalTerms(plan.TermAt(regs, c.L), plan.TermAt(regs, c.R))
			if err != nil {
				derr = err
				return false
			}
			if !ok {
				return true
			}
		}
		terms := make([]datalog.Term, len(ansVars))
		for i, v := range ansVars {
			terms[i] = plan.TermAt(regs, v)
		}
		ans := datalog.Answer{Terms: terms}
		if key := ans.Key(); !seen[key] {
			seen[key] = true
			return yield(ans)
		}
		return true
	})
	return derr
}

// EvalUCQ evaluates a union of conjunctive queries, unioning the
// answer sets. All queries must share the head arity. ctx is checked
// between disjuncts.
func EvalUCQ(ctx context.Context, qs []*datalog.Query, db *storage.Instance) (*datalog.AnswerSet, error) {
	answers := datalog.NewAnswerSet()
	for _, q := range qs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		as, err := EvalQuery(q, db)
		if err != nil {
			return nil, err
		}
		for _, a := range as.All() {
			answers.Add(a)
		}
	}
	return answers, nil
}
