package storage

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/datalog"
)

// Plan is a compiled join plan for a positive conjunction: the atom
// order, the variable-to-register-slot assignment and the per-argument
// actions are all computed once at compile time, so executing the plan
// performs no map operations, no substitution cloning and no per-level
// slice allocation — candidate rows are filtered by integer
// comparisons against a flat []int32 register bank, with backtracking
// implemented as slot resets (an undo trail whose entries are known
// statically per atom).
//
// A plan is compiled against an instance (whose interner supplies the
// ids for the plan's constants and whose relation statistics order the
// atoms) and may be executed against that instance or any instance
// sharing its interner — in particular every Clone, which is how the
// chase and eval engines reuse one plan across rounds. Compiled plans
// are the one way the system matches a conjunction.
type Plan struct {
	in *datalog.Interner
	// vars assigns register slots: slot i holds the binding of vars[i]
	// (datalog.NoID when unbound).
	vars  []datalog.Term
	slots map[string]int // variable name -> slot
	atoms []planAtom     // in execution order
	// intern records the constructor: CompilePlan interns constants,
	// CompileQueryPlan resolves unseen ones to the never-matching
	// sentinel. Filters compiled against the plan follow the same mode.
	intern bool
}

// planArg is one argument position of a plan atom.
type planArg struct {
	isConst bool
	id      int32 // interned constant id (isConst)
	slot    int   // register slot (!isConst)
}

// planAtom is one body atom, reordered and compiled.
type planAtom struct {
	pred  string
	arity int
	args  []planArg
	// groundPos lists argument positions known to be ground when this
	// atom executes (constants, or variables bound by earlier atoms or
	// declared bound at compile time); the executor probes the smallest
	// index bucket among them.
	groundPos []int
	// allGround marks an atom whose every position is ground at compile
	// time: it binds nothing, so executing it is a pure membership test
	// and the executor probes the relation's dedup slot table in O(1)
	// instead of scanning a posting list. (Declared-bound slots the
	// caller leaves unseeded fall back to the scan path at run time.)
	allGround bool
	// est is the planner's candidate-row estimate for this atom at the
	// point it was chosen (see atomCost), kept for EXPLAIN output.
	est float64
}

// unknownID is the compile-time id of a constant the interner has
// never seen in read-only (non-interning) mode. It is negative and
// distinct from datalog.NoID, so it can never equal a stored row
// value: atoms carrying it simply match nothing, which is exactly the
// semantics of a constant absent from the instance.
const unknownID int32 = -2

// CompilePlan compiles a join plan for the conjunction over db's
// interner. bound declares variables the caller will pre-bind in the
// registers before execution (e.g. the frontier variables of a TGD
// head check, or the pivot variables of a semi-naive delta pass);
// declaring them lets the planner order atoms as if they were
// constants. Atom order is greedy and cost-based: each step picks the
// remaining atom with the smallest estimated candidate count under the
// bindings accumulated so far, reading the relations' live statistics
// (row counts, per-position distinct counts and max-bucket sizes — see
// atomCost).
//
// CompilePlan interns the conjunction's constants, so ids stay stable
// while the instance grows — the right mode for the chase and eval
// engines, which compile against instances they own (see
// CloneDetached) and then insert into them. For evaluation over a
// fixed instance the caller does not own, use CompileQueryPlan, which
// leaves the interner untouched.
func CompilePlan(db *Instance, body []datalog.Atom, bound ...datalog.Term) *Plan {
	return compilePlan(db, body, bound, true)
}

// CompileQueryPlan compiles a read-only join plan: constants the
// instance has never seen become a never-matching sentinel instead of
// being interned, so compiling and executing the plan leaves the
// instance — including its interner — completely unmodified. Correct
// for fixed instances; do not use it when facts will be inserted
// between compilation and execution.
func CompileQueryPlan(db *Instance, body []datalog.Atom, bound ...datalog.Term) *Plan {
	return compilePlan(db, body, bound, false)
}

func compilePlan(db *Instance, body []datalog.Atom, bound []datalog.Term, intern bool) *Plan {
	p := &Plan{
		in:     db.in,
		slots:  map[string]int{},
		intern: intern,
	}
	for _, a := range body {
		for _, t := range a.Args {
			if t.IsVar() {
				if _, ok := p.slots[t.Name]; !ok {
					p.slots[t.Name] = len(p.vars)
					p.vars = append(p.vars, t)
				}
			}
		}
	}

	boundSlots := make([]bool, len(p.vars))
	for _, v := range bound {
		if s, ok := p.slots[v.Name]; ok {
			boundSlots[s] = true
		}
	}

	// Greedy ordering simulation: each step picks the cheapest remaining
	// atom under the slots bound so far. The ordering is fully
	// deterministic (strict comparisons, remaining kept in source
	// order), which the parallel engines' byte-identity depends on.
	remaining := make([]datalog.Atom, len(body))
	copy(remaining, body)
	for len(remaining) > 0 {
		best := 0
		bestCost, bestGround := math.Inf(1), -1
		for i, a := range remaining {
			cost := p.atomCost(db, a, boundSlots)
			// Ties (common on empty prepare-time instances, where every
			// cost is 0) fall back to most-ground-first, then source
			// order.
			ground := p.groundCount(a, boundSlots)
			if cost < bestCost || (cost == bestCost && ground > bestGround) {
				best, bestCost, bestGround = i, cost, ground
			}
		}
		chosen := remaining[best]
		est := p.atomCost(db, chosen, boundSlots)
		remaining = append(remaining[:best], remaining[best+1:]...)

		pa := planAtom{pred: chosen.Pred, arity: len(chosen.Args), est: est}
		pa.args = make([]planArg, len(chosen.Args))
		for pos, t := range chosen.Args {
			if t.IsVar() {
				slot := p.slots[t.Name]
				pa.args[pos] = planArg{slot: slot}
				if boundSlots[slot] {
					pa.groundPos = append(pa.groundPos, pos)
				}
				boundSlots[slot] = true
			} else {
				pa.args[pos] = planArg{isConst: true, id: p.constID(t, intern)}
				pa.groundPos = append(pa.groundPos, pos)
			}
		}
		pa.allGround = len(pa.groundPos) == pa.arity
		p.atoms = append(p.atoms, pa)
	}
	return p
}

// constID resolves a ground term to an id at compile time: interning
// in engine mode, the never-matching sentinel for unseen terms in
// read-only mode.
func (p *Plan) constID(t datalog.Term, intern bool) int32 {
	if intern {
		return p.in.ID(t)
	}
	if id, ok := p.in.Lookup(t); ok {
		return id
	}
	return unknownID
}

// groundCount counts arguments of a that are ground under boundSlots:
// constants plus variables already bound.
func (p *Plan) groundCount(a datalog.Atom, boundSlots []bool) int {
	n := 0
	for _, t := range a.Args {
		if !t.IsVar() || boundSlots[p.slots[t.Name]] {
			n++
		}
	}
	return n
}

// atomCost estimates how many candidate rows executing atom a would
// touch under the given bound slots, from the relation's live
// statistics. The executor probes the smallest index bucket among the
// atom's ground positions, so the estimate is the cheapest
// per-position bucket estimate, scaled by the selectivity of the other
// ground positions (each filters the candidates by roughly est/rows):
//
//   - a compile-time constant costs its exact posting-list length
//     (constant pushdown: the planner sees precisely what the index
//     probe will scan, and an absent constant prunes to zero);
//   - a bound variable's value is unknown at plan time, so its bucket
//     is estimated as the geometric mean of the average bucket
//     (rows/distinct) and the largest bucket — a cheap skew guard: a
//     position dominated by one hot value is not priced at its
//     misleadingly low average;
//   - an atom with no ground positions costs a full scan (rows).
//
// A missing relation, arity mismatch or empty relation costs 0 —
// matching nothing is the cheapest possible atom and pruning early is
// exactly right. An atom ground at every position costs at most 1: the
// executor resolves it as a row-hash membership probe, not a scan.
func (p *Plan) atomCost(db *Instance, a datalog.Atom, boundSlots []bool) float64 {
	rel := db.relations[a.Pred]
	if rel == nil || rel.schema.Arity() != len(a.Args) {
		return 0
	}
	rows := float64(rel.Len())
	if rows == 0 {
		return 0
	}
	best, sel := rows, 1.0
	ground := 0
	for pos, t := range a.Args {
		var est float64
		if !t.IsVar() {
			id, ok := p.in.Lookup(t)
			if !ok {
				return 0 // constant the instance has never seen: no match
			}
			est = float64(rel.BucketLen(pos, id))
			if est == 0 {
				return 0
			}
		} else if boundSlots[p.slots[t.Name]] {
			avg := rows / float64(rel.DistinctAt(pos))
			est = math.Sqrt(avg * float64(rel.MaxBucketAt(pos)))
			if est > rows {
				est = rows
			}
		} else {
			continue
		}
		ground++
		if est < best {
			best, est = est, best // previous best becomes a filter
		}
		sel *= est / rows
	}
	cost := best * sel
	// A fully-ground atom executes as an O(1) row-hash membership probe
	// (see probeGround), not a posting-list scan: cap its cost at one
	// row so the planner front-loads these fail-fast checks.
	if ground == len(a.Args) && cost > 1 {
		cost = 1
	}
	return cost
}

// Slot returns the register slot of variable v, or -1 when v does not
// occur in the plan's conjunction.
func (p *Plan) Slot(v datalog.Term) int {
	if s, ok := p.slots[v.Name]; ok {
		return s
	}
	return -1
}

// NewRegs returns a fresh register bank with every slot unbound.
func (p *Plan) NewRegs() []int32 {
	regs := make([]int32, len(p.vars))
	for i := range regs {
		regs[i] = datalog.NoID
	}
	return regs
}

// ResetRegs marks every slot unbound, for register-bank reuse.
func (p *Plan) ResetRegs(regs []int32) {
	for i := range regs {
		regs[i] = datalog.NoID
	}
}

// Execute enumerates all homomorphisms of the conjunction into db,
// extending the bindings already present in regs (slots holding
// datalog.NoID are free). fn is invoked once per complete match with
// the filled register bank; it must not retain regs, which is reused.
// fn returning false stops enumeration; Execute reports whether
// enumeration ran to completion. On return, regs holds exactly its
// initial bindings again.
//
// db must share the plan's interner (true for the compile instance and
// all its clones); Execute panics otherwise, since raw register values
// would be meaningless. Run is the Subst-based entry point.
//
// Execute only reads db: any number of goroutines may execute plans
// (each with its own register bank) against one instance concurrently,
// provided nothing mutates the instance or interns new terms for the
// duration — the discipline the parallel chase/eval rounds follow by
// staging all insertions into per-worker Batches and merging them
// after the workers join.
func (p *Plan) Execute(db *Instance, regs []int32, fn func(regs []int32) bool) bool {
	if db.in != p.in {
		panic("storage: Plan.Execute on instance with foreign interner")
	}
	return p.exec(db, 0, regs, fn)
}

// ExecuteShard enumerates the subset of Execute's matches whose
// first-atom candidate row falls in the shard-th of nshards contiguous
// slices of the first atom's candidate list. Shards partition the
// match set: concatenating the matches of shards 0..nshards-1 yields
// exactly Execute's matches in Execute's order, which is how parallel
// engines split one plan across workers while keeping a deterministic
// merge order. Like Execute it only reads db; each worker passes its
// own register bank.
func (p *Plan) ExecuteShard(db *Instance, regs []int32, shard, nshards int, fn func(regs []int32) bool) bool {
	if db.in != p.in {
		panic("storage: Plan.ExecuteShard on instance with foreign interner")
	}
	if nshards <= 1 {
		return p.exec(db, 0, regs, fn)
	}
	if len(p.atoms) == 0 {
		// A zero-atom plan has exactly one (empty) match; shard 0 owns it.
		if shard == 0 {
			return fn(regs)
		}
		return true
	}
	pa := &p.atoms[0]
	rel := db.relations[pa.pred]
	if rel == nil || rel.schema.Arity() != pa.arity {
		return true
	}
	bucket, haveBucket := p.candidates(rel, pa, regs)
	n := len(rel.rows)
	if haveBucket {
		n = len(bucket)
	}
	lo, hi := shard*n/nshards, (shard+1)*n/nshards
	for i := lo; i < hi; i++ {
		idx := i
		if haveBucket {
			idx = int(bucket[i])
		}
		if !p.tryRow(db, pa, 0, rel.rows[idx], regs, fn) {
			return false
		}
	}
	return true
}

// probeGround resolves a fully-ground atom as an O(1) membership test
// against the relation's dedup slot table: rows are deduplicated on
// insert, so the probe row matches at most once and the continuation
// is identical to scanning a posting list — just without touching it.
// This is the run-time half of constant pushdown, and it is what makes
// semi-naive delta pivots cheap: a delta plan's residual atoms are
// often fully bound by the pivot row, turning each of potentially
// millions of pivot executions into a hash lookup. ok=false means some
// declared-bound slot was left unseeded, so the atom is not actually
// ground and the caller must take the scan path.
func (p *Plan) probeGround(rel *Relation, pa *planAtom, regs []int32) (member, ok bool) {
	var buf [8]int32
	row := buf[:0]
	if pa.arity > len(buf) {
		row = make([]int32, 0, pa.arity)
	}
	for pos := range pa.args {
		a := &pa.args[pos]
		id := a.id
		if !a.isConst {
			id = regs[a.slot]
			if id == datalog.NoID {
				return false, false
			}
		}
		row = append(row, id)
	}
	_, member = rel.lookupRow(row)
	return member, true
}

// candidates returns the candidate row list for atom pa under regs:
// the smallest index bucket among pa's ground positions (positions
// beyond the compile-time groundPos may also be ground — callers can
// seed extra slots — and are checked per row either way), or
// haveBucket=false meaning every row must be scanned. It is the one
// shared implementation behind exec's per-level probe and
// ExecuteShard's partition, so a shard always slices exactly the list
// exec would walk — the invariant the parallel engines' determinism
// rests on.
func (p *Plan) candidates(rel *Relation, pa *planAtom, regs []int32) (bucket []int32, haveBucket bool) {
	for _, pos := range pa.groundPos {
		a := pa.args[pos]
		id := a.id
		if !a.isConst {
			id = regs[a.slot]
			if id == datalog.NoID {
				continue // declared bound but not seeded: treat as free
			}
		}
		b := rel.indexes[pos][id]
		if !haveBucket || len(b) < len(bucket) {
			bucket, haveBucket = b, true
		}
		if len(bucket) == 0 {
			break // empty bucket: nothing can match
		}
	}
	return bucket, haveBucket
}

func (p *Plan) exec(db *Instance, ai int, regs []int32, fn func([]int32) bool) bool {
	if ai == len(p.atoms) {
		return fn(regs)
	}
	pa := &p.atoms[ai]
	rel := db.relations[pa.pred]
	if rel == nil || rel.schema.Arity() != pa.arity {
		return true // no facts can match; enumeration is (vacuously) complete
	}
	if pa.allGround {
		if member, ok := p.probeGround(rel, pa, regs); ok {
			if !member {
				return true
			}
			return p.exec(db, ai+1, regs, fn)
		}
	}
	bucket, haveBucket := p.candidates(rel, pa, regs)
	if haveBucket {
		for _, idx := range bucket {
			if !p.tryRow(db, pa, ai, rel.rows[idx], regs, fn) {
				return false
			}
		}
		return true
	}
	for idx := range rel.rows {
		if !p.tryRow(db, pa, ai, rel.rows[idx], regs, fn) {
			return false
		}
	}
	return true
}

// tryRow matches one candidate row against the atom's arguments,
// binding free slots, and recurses into the rest of the plan. Slots
// bound here are reset before returning (static undo trail).
func (p *Plan) tryRow(db *Instance, pa *planAtom, ai int, row []int32, regs []int32, fn func([]int32) bool) bool {
	var trail [16]int
	bound := trail[:0]
	if len(pa.args) > len(trail) {
		bound = make([]int, 0, len(pa.args))
	}
	ok := true
	for pos := range pa.args {
		a := &pa.args[pos]
		if a.isConst {
			if row[pos] != a.id {
				ok = false
				break
			}
			continue
		}
		if v := regs[a.slot]; v != datalog.NoID {
			if row[pos] != v {
				ok = false
				break
			}
			continue
		}
		regs[a.slot] = row[pos]
		bound = append(bound, a.slot)
	}
	complete := true
	if ok {
		complete = p.exec(db, ai+1, regs, fn)
	}
	for _, s := range bound {
		regs[s] = datalog.NoID
	}
	return complete
}

// Run enumerates the conjunction's homomorphisms extending the initial
// substitution, invoking fn with a Subst per match — the Subst-based
// adapter over Execute for callers that work with terms (top-down QA,
// derivation explanations, tests). fn returning false stops
// enumeration; Run reports whether enumeration ran to completion.
//
// Preconditions: db shares the plan's interner (Execute panics
// otherwise), and init binds plan variables only to ground terms —
// variable renamings are outside the register representation, so Run
// panics on them.
func (p *Plan) Run(db *Instance, init datalog.Subst, fn func(datalog.Subst) bool) bool {
	regs := p.NewRegs()
	for i, v := range p.vars {
		t := init.Apply(v)
		if t == v {
			continue // unbound
		}
		if !t.IsGround() {
			panic(fmt.Sprintf("storage: Plan.Run seed %s -> %s is not ground", v, t))
		}
		if id, ok := p.in.Lookup(t); ok {
			regs[i] = id
		} else {
			// A term no row can hold: the variable occurs in some body
			// atom, so no homomorphism exists. Seeding the sentinel
			// makes every candidate row fail without interning the
			// term.
			regs[i] = unknownID
		}
	}
	return p.Execute(db, regs, func(rs []int32) bool {
		return fn(p.SubstAt(rs, init))
	})
}

// SubstAt materializes the register bank as a substitution extending
// base (base itself is not modified).
func (p *Plan) SubstAt(regs []int32, base datalog.Subst) datalog.Subst {
	out := base.Clone()
	for i, v := range p.vars {
		if regs[i] != datalog.NoID {
			out.Bind(v.Name, p.in.TermOf(regs[i]))
		}
	}
	return out
}

// TermAt resolves the plan term t under the register bank: constants
// and nulls resolve to themselves, bound plan variables to their
// register value, anything else to t itself.
func (p *Plan) TermAt(regs []int32, t datalog.Term) datalog.Term {
	if !t.IsVar() {
		return t
	}
	if s, ok := p.slots[t.Name]; ok && regs[s] != datalog.NoID {
		return p.in.TermOf(regs[s])
	}
	return t
}

// Proj is a compiled projection from a plan's register bank onto the
// argument row of one atom: each item is either an interned constant
// or a register slot. Evaluation engines use projections to build
// derived rows, probe negated atoms and seed delta pivots without
// materializing atoms or substitutions.
type Proj struct {
	Pred  string
	items []planArg
}

// CompileProj compiles atom a against the plan's register space,
// interning a's constants (engine mode: the projected rows will be
// inserted, so ids must be real). Every variable of a must occur in
// the plan's conjunction (rule safety guarantees this for heads and
// negated atoms); CompileProj panics otherwise.
func (p *Plan) CompileProj(a datalog.Atom) Proj {
	return p.compileProj(a, true)
}

func (p *Plan) compileProj(a datalog.Atom, intern bool) Proj {
	items := make([]planArg, len(a.Args))
	for i, t := range a.Args {
		if t.IsVar() {
			s := p.Slot(t)
			if s < 0 {
				panic(fmt.Sprintf("storage: projection variable %s not in plan", t))
			}
			items[i] = planArg{slot: s}
		} else {
			items[i] = planArg{isConst: true, id: p.constID(t, intern)}
		}
	}
	return Proj{Pred: a.Pred, items: items}
}

// Len returns the projected row arity.
func (pr *Proj) Len() int { return len(pr.items) }

// Project fills dst (len == Len()) with the atom's row under regs.
func (pr *Proj) Project(regs []int32, dst []int32) {
	for i, it := range pr.items {
		if it.isConst {
			dst[i] = it.id
		} else {
			dst[i] = regs[it.slot]
		}
	}
}

// Bind seeds regs from a concrete row of the projected atom, the
// reverse of Project: constants are checked against the row, variable
// slots are bound (or checked when already bound, which also handles
// repeated variables). It reports false when the row cannot match.
func (pr *Proj) Bind(row []int32, regs []int32) bool {
	for i, it := range pr.items {
		if it.isConst {
			if row[i] != it.id {
				return false
			}
			continue
		}
		if v := regs[it.slot]; v != datalog.NoID && v != row[i] {
			return false
		}
		regs[it.slot] = row[i]
	}
	return true
}

// Filter is the closed-world part of a rule, query or constraint body
// that its join plan does not match: negated atoms, probed as rows, and
// built-in comparisons, checked per complete match. Compile it once
// with Plan.CompileFilter; Pass only reads its arguments, so one Filter
// may be shared by concurrent workers, each with its own scratch.
type Filter struct {
	negs  []Proj
	conds []filterCond
	width int // widest negated atom
}

// filterCond is one comparison with both sides resolved at compile
// time.
type filterCond struct {
	c    datalog.Comparison
	l, r filterSide
}

// filterSide is one side of a comparison: register slot, or the term
// itself when slot < 0 (a constant, or a variable the plan does not
// bind, which EvalTerms reports as unbound).
type filterSide struct {
	slot int
	t    datalog.Term
}

// CompileFilter compiles negated atoms and comparisons against the
// plan's register space. Negated atoms intern their constants under
// CompilePlan and take the never-matching sentinel for unseen ones
// under CompileQueryPlan, so a query filter leaves the instance
// unmodified. Every variable of a negated atom must occur in the
// plan's conjunction (rule safety guarantees this); CompileFilter
// panics otherwise.
func (p *Plan) CompileFilter(negated []datalog.Atom, conds []datalog.Comparison) Filter {
	f := Filter{negs: make([]Proj, len(negated)), conds: make([]filterCond, len(conds))}
	for i, a := range negated {
		f.negs[i] = p.compileProj(a, p.intern)
		f.width = max(f.width, len(a.Args))
	}
	side := func(t datalog.Term) filterSide {
		if t.IsVar() {
			return filterSide{slot: p.Slot(t), t: t}
		}
		return filterSide{slot: -1, t: t}
	}
	for i, c := range conds {
		f.conds[i] = filterCond{c: c, l: side(c.L), r: side(c.R)}
	}
	return f
}

// Width returns the scratch length Pass needs: the widest negated
// atom's arity.
func (f *Filter) Width() int { return f.width }

// Pass reports whether a complete match in regs passes the filter: no
// negated atom's row is in db (closed world) and every comparison
// holds. scratch must hold at least Width() ids. The error is a
// comparison that cannot be evaluated (an unbound side).
func (f *Filter) Pass(db *Instance, regs, scratch []int32) (bool, error) {
	for i := range f.negs {
		n := &f.negs[i]
		row := scratch[:n.Len()]
		n.Project(regs, row)
		if db.ContainsRow(n.Pred, row) {
			return false, nil
		}
	}
	for i := range f.conds {
		c := &f.conds[i]
		ok, err := c.c.EvalTerms(c.l.term(db.in, regs), c.r.term(db.in, regs))
		if err != nil || !ok {
			return false, err
		}
	}
	return true, nil
}

// term resolves the side under regs.
func (s filterSide) term(in *datalog.Interner, regs []int32) datalog.Term {
	if s.slot >= 0 && regs[s.slot] != datalog.NoID {
		return in.TermOf(regs[s.slot])
	}
	return s.t
}

// String renders the plan's atom order and slot assignment, for tests
// and EXPLAIN-style debugging.
func (p *Plan) String() string {
	var b strings.Builder
	b.WriteString("plan[")
	for i := range p.atoms {
		if i > 0 {
			b.WriteString(" ⋈ ")
		}
		p.writeAtom(&b, &p.atoms[i])
	}
	b.WriteByte(']')
	return b.String()
}

// writeAtom renders one compiled atom as Pred(r0,c,...).
func (p *Plan) writeAtom(b *strings.Builder, pa *planAtom) {
	b.WriteString(pa.pred)
	b.WriteByte('(')
	for j, a := range pa.args {
		if j > 0 {
			b.WriteByte(',')
		}
		if a.isConst {
			if a.id == unknownID {
				b.WriteString("⊥")
			} else {
				b.WriteString(p.in.TermOf(a.id).String())
			}
		} else {
			fmt.Fprintf(b, "r%d", a.slot)
		}
	}
	b.WriteByte(')')
}

// Explain renders the full EXPLAIN view: one line per atom in chosen
// execution order, with the planner's candidate estimate at the point
// the atom was picked and the index positions the executor will probe.
// mdq -explain and mdserve's ?explain=1 surface this text.
func (p *Plan) Explain() string {
	var b strings.Builder
	fmt.Fprintf(&b, "plan: %d atom(s), %d slot(s)\n", len(p.atoms), len(p.vars))
	for i := range p.atoms {
		pa := &p.atoms[i]
		fmt.Fprintf(&b, "  %d. ", i+1)
		p.writeAtom(&b, pa)
		fmt.Fprintf(&b, "  est≈%.1f rows", pa.est)
		if len(pa.groundPos) > 0 {
			fmt.Fprintf(&b, "  probe@%v", pa.groundPos)
		} else {
			b.WriteString("  scan")
		}
		b.WriteByte('\n')
	}
	return b.String()
}
