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

// Fact is a derived or delta tuple in interned form (row ids belong to
// the owning instance's interner).
type Fact struct {
	Pred string
	Row  []int32
}

// compiledRule is a rule lowered onto one register space: the body's
// pivot plan (full plan and every delta plan), and the head projection
// and the filter of negated atoms and comparisons compiled against its
// full plan.
type compiledRule struct {
	r      *Rule
	body   *storage.PivotPlan
	head   storage.Proj
	filter storage.Filter
	maxAr  int // widest head or negated atom: projection scratch size
}

func compileRule(r *Rule, db *storage.Instance) *compiledRule {
	cr := &compiledRule{r: r, body: storage.CompilePivotPlan(db, r.Body)}
	cr.head = cr.body.Full().CompileProj(r.Head)
	cr.filter = cr.body.Full().CompileFilter(r.Negated, r.Conds)
	cr.maxAr = max(len(r.Head.Args), cr.filter.Width())
	return cr
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
// each round fans its rule passes out across a bounded worker pool,
// every worker matching against the frozen round view and staging
// derived rows into a private storage.Batch, and the single writer
// merges the batches in deterministic unit order (rule index, then
// shard/chunk index, then emission order) before the next round.
// Every width runs this same code — width 1 with one shard per unit
// and no worker goroutines — and produces the same fixpoint
// (set-identical instances), with insertion order deterministic for a
// fixed width.
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
// runtime.GOMAXPROCS(0) (the default), 1 runs every rule pass on the
// caller goroutine, n > 1 fans rule passes out across up to n workers.
// Call it before Init; the width is fixed for the state's lifetime.
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
// projections and register banks all remain valid; only the plans
// themselves are replaced (storage.PivotPlan.Replan). No-op before the
// first Init compiles. Single-writer, like Init and Extend.
func (st *State) Replan() {
	for _, comp := range st.comp {
		for _, cr := range comp {
			cr.body.Replan(st.inst)
		}
	}
}

// Init computes the least fixpoint stratum by stratum. A stratum whose
// rules read none of its own head predicates takes exactly one pass;
// a recursive stratum iterates semi-naively to its fixpoint. ctx is
// checked once per work unit. Rule plans are compiled on the first
// Init and reused by later Reset+Init cycles.
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
				comp[i] = compileRule(r, st.inst)
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
		if err := st.fixpoint(ctx, comp, st.recursive[si], nil); err != nil {
			return err
		}
	}
	st.inited = true
	return nil
}

// fixpoint runs one stratum's rules to their fixpoint. A nil from
// starts with a full round of every rule; otherwise the first round
// pivots on the windows past from, the rows appended since that Lens.
// Every later round pivots on the rows the round before it appended,
// until a round has no work; a non-recursive stratum stops after its
// first round, since none of its rules reads what it derives.
//
// A round fans the rules' units (storage.PivotPlan.Units, in rule
// order) out on the pool: every worker matches against the round's
// frozen instance view, filters, and stages head rows into the unit's
// private batch, and one MergeBatch call on the calling goroutine
// merges the round's batches in unit order. Cancellation is checked
// once per unit (par.Map), bounding latency by a single work unit
// rather than a whole round.
func (st *State) fixpoint(ctx context.Context, comp []*compiledRule, recursive bool, from map[string]int) error {
	w := st.pool.Width()
	var units []storage.Unit
	var owner []*compiledRule // owner[t] is the rule of units[t]
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		full := from == nil
		// A non-recursive full round reads no window and leaves none
		// to a next round, so it takes no snapshot.
		var to map[string]int
		if !full || recursive {
			to = st.inst.Lens()
		}
		units, owner = units[:0], owner[:0]
		for _, cr := range comp {
			units = cr.body.Units(units, w, full, from, to)
			for len(owner) < len(units) {
				owner = append(owner, cr)
			}
		}
		if len(units) == 0 {
			return nil
		}
		batches, err := par.Map(ctx, st.pool, len(units), func(t int) (*storage.Batch, error) {
			cr := owner[t]
			buf := make([]int32, cr.maxAr)
			b := &storage.Batch{}
			var serr error
			cr.body.Run(st.inst, units[t], cr.body.Full().NewRegs(), func(regs []int32) bool {
				ok, err := cr.filter.Pass(st.inst, regs, buf)
				if err != nil {
					serr = fmt.Errorf("eval: rule %s: %w", cr.r.ID, err)
					return false
				}
				if ok {
					hb := buf[:cr.head.Len()]
					cr.head.Project(regs, hb)
					b.Add(cr.head.Pred, hb)
				}
				return true
			})
			return b, serr
		})
		if err != nil {
			return err
		}
		if _, err := st.inst.MergeBatch(batches...); err != nil {
			return err
		}
		if !recursive {
			return nil
		}
		from = to
	}
}

// Extend inserts the delta facts (rows in the instance's interner) and
// grows the fixpoint incrementally: every stratum, in order, re-fires
// its rules pivoting on the rows appended during this call — the new
// delta facts plus everything earlier strata derived. It returns the
// newly derived facts (not including the input delta), grouped by
// relation in creation order, and requires a negation-free program
// (see Incremental) and a prior Init.
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
	start := st.inst.Lens()
	for _, f := range delta {
		if _, err := st.inst.InsertRow(f.Pred, f.Row); err != nil {
			return nil, fmt.Errorf("eval: extend: %w", err)
		}
	}
	derivedFrom := st.inst.Lens()
	for si, comp := range st.comp {
		if err := st.fixpoint(ctx, comp, st.recursive[si], start); err != nil {
			return nil, err
		}
	}
	var derived []Fact
	for _, name := range st.inst.RelationNames() {
		for _, row := range st.inst.Relation(name).Rows()[derivedFrom[name]:] {
			derived = append(derived, Fact{Pred: name, Row: row})
		}
	}
	return derived, nil
}

// EvalQuery evaluates a conjunctive query (with optional negation and
// comparisons, both under closed-world assumption) directly over an
// instance, returning all answers including those containing labeled
// nulls. Certain-answer filtering is the caller's concern (see qa).
// The body is compiled to a join plan; the instance is not modified.
func EvalQuery(q *datalog.Query, db *storage.Instance) (*datalog.AnswerSet, error) {
	answers := datalog.NewAnswerSet()
	err := EvalQueryFunc(q, db, nil, func(ans datalog.Answer) bool {
		answers.Add(ans)
		return true
	})
	if err != nil {
		return nil, err
	}
	return answers, nil
}

// EvalQueryFunc is the streaming form of EvalQuery: each distinct
// answer is passed to yield as it is produced by the join plan,
// without materializing an answer set. Returning false from yield
// stops the evaluation early. Answers are deduplicated (a seen-set of
// answer keys is kept, but never the answers themselves), so yield
// observes each answer exactly once. The join plan comes from pc
// (storage.PlanCache.QueryPlan); a nil pc compiles one per call.
func EvalQueryFunc(q *datalog.Query, db *storage.Instance, pc *storage.PlanCache, yield func(datalog.Answer) bool) error {
	if err := q.Validate(); err != nil {
		return err
	}
	plan := pc.QueryPlan(db, q.Body)
	filter := plan.CompileFilter(q.Negated, q.Conds)
	buf := make([]int32, filter.Width())
	seen := map[string]bool{}
	ansVars := q.Head.Args
	var derr error
	plan.Execute(db, plan.NewRegs(), func(regs []int32) bool {
		ok, err := filter.Pass(db, regs, buf)
		if err != nil {
			derr = err
			return false
		}
		if !ok {
			return true
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
