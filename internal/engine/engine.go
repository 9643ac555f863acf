// Package engine provides prepared assessment sessions: the
// amortization layer between the paper's one-shot pipeline (compile
// the ontology, merge the sources, chase, evaluate — per request) and
// a serving process that assesses a stream of data against one fixed
// MD ontology.
//
// Prepare compiles everything request-independent exactly once — the
// chase program's TGD/EGD/NC join plans and the stratified evaluation
// program — into an immutable Prepared artifact that any number of
// goroutines can share. Prepared.NewSession then owns one saturated
// instance and serves the two halves of the serving loop:
//
//   - Session.Apply(ctx, delta) extends the existing fixpoint with a
//     batch of new facts, semi-naive: the chase re-matches only
//     against the delta frontier (chase.State.Extend) and the derived
//     quality layer grows incrementally (eval.State.Extend) instead
//     of being recomputed from scratch;
//   - Session.Snapshot() hands concurrent readers a frozen
//     copy-on-write view of the full contextual instance, consistent
//     as of the last Apply, while the single writer keeps applying
//     deltas.
//
// The quality package's Context.Assess is a thin wrapper over a
// one-shot session; cmd/mdq and the benchmarks build on the same
// layer.
package engine

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/chase"
	"repro/internal/datalog"
	"repro/internal/eval"
	"repro/internal/par"
	"repro/internal/qerr"
	"repro/internal/storage"
)

// Spec names everything a prepared pipeline needs.
type Spec struct {
	// Program is the Datalog± ontology program the chase enforces.
	Program *datalog.Program
	// Base is the static extensional context: the compiled ontology's
	// dimension predicates and categorical data, plus any external
	// sources. Prepare takes ownership: the caller must neither mutate
	// it nor intern new terms into it afterwards (sessions clone it).
	Base *storage.Instance
	// Rules is the derived layer evaluated over the chased instance —
	// contextual mappings, quality predicates and quality versions.
	// May be nil.
	Rules *eval.Program
	// ChaseOptions configures every session's chase.
	ChaseOptions chase.Options
	// Parallelism bounds the worker pool every session's chase and
	// eval rounds fan out across: 0 resolves to runtime.GOMAXPROCS(0)
	// (the default), n >= 1 bounds workers at n; 1 starts no worker
	// goroutines. Every width runs the same engine code. A non-zero
	// value overrides ChaseOptions.Parallelism.
	Parallelism int
}

// Prepared is the immutable compiled form of a Spec. It is safe to
// share across goroutines: sessions only read it.
//
// Prepared owns the parallel execution pool's lifecycle: the
// requested degree is resolved once at Prepare time and every session
// opened from this Prepared inherits the same bounded worker pool
// configuration for its chase and eval rounds (the pool is a width,
// not live goroutines — workers exist only for the duration of a
// round's fan-out, so there is nothing to shut down).
type Prepared struct {
	cp     *chase.CompiledProgram
	base   *storage.Instance
	rules  *eval.Program
	strata [][]*eval.Rule
	opts   chase.Options
	pool   par.Pool
	// planPreds is the set of predicates read by any compiled plan
	// (TGD/EGD/NC bodies plus rule bodies) — the relations whose
	// cardinality drift a session watches to decide when to re-plan.
	planPreds map[string]bool
	// ruleArity maps every predicate the rules use to its arity, so
	// Apply rejects a batch the derived layer could take only in part
	// before the chase inserts any of it.
	ruleArity map[string]int
}

// Prepare validates and compiles the spec once. The returned Prepared
// must not observe further mutation of spec.Program, spec.Base or
// spec.Rules.
func Prepare(spec Spec) (*Prepared, error) {
	base := spec.Base
	if base == nil {
		base = storage.NewInstance()
	}
	cp, err := chase.Compile(spec.Program, base)
	if err != nil {
		return nil, fmt.Errorf("engine: compile chase program: %w", err)
	}
	width := spec.Parallelism
	if width == 0 {
		width = spec.ChaseOptions.Parallelism
	}
	p := &Prepared{cp: cp, base: base, rules: spec.Rules, opts: spec.ChaseOptions, pool: par.New(width)}
	// Sessions share one resolved pool width across their chase and
	// eval halves; the chase state builds its pool from the option.
	p.opts.Parallelism = p.pool.Width()
	if spec.Rules != nil && len(spec.Rules.Rules) > 0 {
		if err := spec.Rules.Validate(); err != nil {
			return nil, err
		}
		p.ruleArity = map[string]int{}
		for _, r := range spec.Rules.Rules {
			for _, atoms := range [][]datalog.Atom{{r.Head}, r.Body, r.Negated} {
				for _, a := range atoms {
					if n, ok := p.ruleArity[a.Pred]; ok && n != len(a.Args) {
						return nil, fmt.Errorf("engine: rule %s: predicate %s used with arity %d and %d", r.ID, a.Pred, n, len(a.Args))
					}
					p.ruleArity[a.Pred] = len(a.Args)
				}
			}
		}
		p.strata, err = spec.Rules.Stratify()
		if err != nil {
			return nil, err
		}
	}
	p.planPreds = cp.BodyPreds()
	for _, rules := range p.strata {
		for _, r := range rules {
			for _, a := range r.Body {
				p.planPreds[a.Pred] = true
			}
		}
	}
	return p, nil
}

// Base returns the prepared static context (read-only).
func (p *Prepared) Base() *storage.Instance { return p.base }

// NewSession builds a session over the base plus the instance under
// assessment, chased to saturation and with the derived layer
// evaluated — the cold path every later Apply amortizes. Cancellation
// of ctx is checked once per chase/eval work unit.
func (p *Prepared) NewSession(ctx context.Context, d *storage.Instance) (*Session, error) {
	// The merge target is a detached clone: neither the shared base
	// nor the caller's instance is ever touched, so one Prepared can
	// serve many sessions (and repeated one-shot assessments) without
	// cross-contamination.
	inst := p.base.CloneDetached()
	if d != nil {
		if err := storage.Merge(inst, d); err != nil {
			return nil, err
		}
	}
	// Merge checks the instance against the base and chase.Compile the
	// base against the program; the rules' predicates are checked here,
	// as Apply checks a batch's.
	for _, name := range inst.RelationNames() {
		if n, ok := p.ruleArity[name]; ok && n != inst.Relation(name).Schema().Arity() {
			return nil, fmt.Errorf("engine: new session: relation %s has arity %d, but the rules use %s with arity %d", name, inst.Relation(name).Schema().Arity(), name, n)
		}
	}
	cs := p.cp.NewState(inst, p.opts)
	if err := cs.Chase(ctx); err != nil {
		return nil, err
	}
	if !cs.Result().Saturated {
		return nil, fmt.Errorf("engine: %w", &qerr.BoundExceededError{
			Op:     "ontology chase",
			Rounds: cs.Result().Rounds,
			Atoms:  inst.TotalTuples(),
		})
	}
	return p.open(ctx, cs)
}

// open wraps a saturated chase state in a session: it evaluates the
// derived layer over the chased instance and records the statistics
// the plans were costed against. NewSession and RestoreSession differ
// only in how they obtain the chase state.
func (p *Prepared) open(ctx context.Context, cs *chase.State) (*Session, error) {
	s := &Session{prep: p, chase: cs}
	if err := s.rebuildEval(ctx); err != nil {
		return nil, err
	}
	s.recordPlanLens()
	return s, nil
}

// Session owns a saturated instance and its derived layer. One writer
// goroutine calls Apply; any number of readers consume Snapshot views.
type Session struct {
	mu    sync.Mutex
	prep  *Prepared
	chase *chase.State
	// eval holds the derived layer over a clone of the chased
	// instance (sharing its interner — the session is the only
	// writer); nil when the spec has no rules.
	eval *eval.State
	// planLens records each plan-referenced relation's cardinality at
	// the last (re)planning point; needReplan is latched when Apply
	// observes ≥2× drift from it, and serviced at the START of the next
	// Apply — re-planning is amortized off the ack critical path, never
	// added to the apply that detected the drift.
	planLens   map[string]int
	needReplan bool
}

// rebuildEval recomputes the derived layer from the chased instance,
// reusing the compiled rule plans after the first build (rebuild
// clones share the session interner, so plans stay valid).
func (s *Session) rebuildEval(ctx context.Context) error {
	if len(s.prep.strata) == 0 {
		s.eval = nil
		return nil
	}
	inst := s.chase.Instance().Clone()
	if s.eval == nil {
		s.eval = eval.NewState(s.prep.strata, inst)
		s.eval.SetParallelism(s.prep.pool.Width())
	} else {
		s.eval.Reset(inst)
	}
	return s.eval.Init(ctx)
}

// ApplyResult reports what one Apply call did.
type ApplyResult struct {
	// Inserted counts delta facts that were new to the instance.
	Inserted int
	// ChaseRows counts rows added to the chased instance (delta facts
	// plus TGD derivations). When Merged > 0 the count is approximate:
	// EGD merges collapse rewritten tuples, so per-relation growth is
	// clamped at zero.
	ChaseRows int
	// Derived counts facts added to the derived layer.
	Derived int
	// Fired and Merged count TGD applications and EGD merges.
	Fired, Merged int
	// Rebuilt reports that the derived layer was recomputed from
	// scratch instead of extended (EGD merges rewrote tuples, or the
	// rule program has negation).
	Rebuilt bool
	// Replanned reports that this Apply serviced a pending re-plan:
	// drift latched by an earlier Apply caused the chase and eval plans
	// to be re-costed against current statistics before this batch ran.
	Replanned bool
	// Violations is the session's cumulative violation list.
	Violations []chase.Violation
}

// Apply extends the session's fixpoint with a batch of ground facts:
// an incremental chase from the delta frontier, then an incremental
// (or, when incrementality is unsound, rebuilt) derived layer. It is
// the only mutating entry point; readers holding earlier snapshots are
// unaffected (copy-on-write). A batch holding a non-ground atom, or an
// atom whose arity disagrees with the chase program, the rules, the
// chased instance or an earlier atom of the batch, is rejected whole.
//
// ctx is checked once, before the batch touches the session: a
// cancelled Apply leaves the session as it was. Once the batch is
// inserted, the chase and the derived layer run to completion whatever
// ctx does, since stopping them would leave the batch half applied;
// the chase bounds (chase.Options MaxRounds and MaxAtoms) still stop a
// runaway batch.
//
// A batch the bounds stop is left half applied (in the chased
// instance, not the derived layer) with nothing to roll it back, so a
// caller that must not serve it discards the session; so would an
// error of the chase or eval after insertion, which the checks above
// and rule validation leave nothing to fail on. A rejected or
// cancelled batch leaves the session as it was.
func (s *Session) Apply(ctx context.Context, delta []datalog.Atom) (*ApplyResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()

	// The chase checks the batch against its own program and instance
	// (chase.State.Extend); the rules' predicates, among them those
	// only the rules derive, are checked here.
	for _, a := range delta {
		if n, ok := s.prep.ruleArity[a.Pred]; ok && n != len(a.Args) {
			return nil, fmt.Errorf("engine: apply: atom %s: the rules use %s with arity %d", a, a.Pred, n)
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ctx = context.WithoutCancel(ctx)

	replanned := false
	if s.needReplan {
		s.chase.Replan()
		if s.eval != nil {
			s.eval.Replan()
		}
		s.needReplan = false
		s.recordPlanLens()
		replanned = true
	}

	ci := s.chase.Instance()
	lens := ci.Lens()

	info, err := s.chase.Extend(ctx, delta)
	if err != nil {
		return nil, err
	}
	if !info.Saturated {
		return nil, fmt.Errorf("engine: %w", &qerr.BoundExceededError{
			Op:     "incremental chase",
			Rounds: s.chase.Result().Rounds,
			Atoms:  ci.TotalTuples(),
		})
	}
	res := &ApplyResult{
		Inserted:   info.Inserted,
		Fired:      info.Fired,
		Merged:     info.Merged,
		Replanned:  replanned,
		Violations: s.chase.Result().Violations,
	}
	for _, name := range ci.RelationNames() {
		if d := ci.Relation(name).Len() - lens[name]; d > 0 {
			res.ChaseRows += d
		}
	}
	if s.eval == nil {
		s.noteDrift()
		return res, nil
	}

	// EGD merges rewrite existing tuples, which an insert-only delta
	// cannot mirror; negation makes the derived layer non-monotone.
	// Both fall back to recomputing the derived layer (still on top of
	// the incrementally-chased instance).
	if info.Merged > 0 || !s.eval.Incremental() {
		res.Rebuilt = true
		if err := s.rebuildEval(ctx); err != nil {
			return nil, err
		}
		s.noteDrift()
		return res, nil
	}

	// No merges: the chased instance grew append-only, so the rows
	// beyond the pre-Apply lengths are exactly the chase-side delta.
	var facts []eval.Fact
	for _, name := range ci.RelationNames() {
		rows := ci.Relation(name).Rows()
		for _, row := range rows[lens[name]:] {
			facts = append(facts, eval.Fact{Pred: name, Row: row})
		}
	}
	derived, err := s.eval.Extend(ctx, facts)
	if err != nil {
		return nil, err
	}
	res.Derived = len(derived)
	s.noteDrift()
	return res, nil
}

// planInstance is the instance drift is measured against: the eval
// instance when a derived layer exists (it holds the chased facts plus
// the derived predicates the rule plans read), the chased instance
// otherwise.
func (s *Session) planInstance() *storage.Instance {
	if s.eval != nil {
		return s.eval.Instance()
	}
	return s.chase.Instance()
}

// recordPlanLens snapshots every plan-referenced relation's current
// cardinality — the statistics the active plans were costed against.
func (s *Session) recordPlanLens() {
	inst := s.planInstance()
	if s.planLens == nil {
		s.planLens = make(map[string]int, len(s.prep.planPreds))
	}
	for name := range s.prep.planPreds {
		n := 0
		if rel := inst.Relation(name); rel != nil {
			n = rel.Len()
		}
		s.planLens[name] = n
	}
}

// noteDrift latches needReplan when any plan-referenced relation has
// grown or shrunk ≥2× since the plans were last costed. It runs on the
// apply path but only compares a handful of integers; the re-plan
// itself is deferred to the start of the next Apply.
func (s *Session) noteDrift() {
	if s.needReplan {
		return
	}
	inst := s.planInstance()
	for name := range s.prep.planPreds {
		cur := 0
		if rel := inst.Relation(name); rel != nil {
			cur = rel.Len()
		}
		if driftExceeded(s.planLens[name], cur) {
			s.needReplan = true
			return
		}
	}
}

// driftFloor is the smallest cardinality that can register as drift:
// below it a misordered join is too cheap to matter, and the floor
// keeps small fixtures from re-planning nondeterministically.
const driftFloor = 64

// driftExceeded reports a ≥2× cardinality change in either direction
// past the floor.
func driftExceeded(old, cur int) bool {
	lo, hi := old, cur
	if lo > hi {
		lo, hi = hi, lo
	}
	return hi >= driftFloor && hi >= 2*lo
}

// Snapshot returns a frozen, consistent view of the full contextual
// instance (chased facts plus the derived layer) as of the last Apply.
// Snapshots are cheap (copy-on-write) and safe to read from any number
// of goroutines while the writer keeps applying deltas.
func (s *Session) Snapshot() *storage.Instance {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.eval != nil {
		return s.eval.Instance().Snapshot()
	}
	return s.chase.Instance().Snapshot()
}

// Violations returns the session's cumulative constraint violations.
func (s *Session) Violations() []chase.Violation {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]chase.Violation, len(s.chase.Result().Violations))
	copy(out, s.chase.Result().Violations)
	return out
}

// State returns a frozen snapshot paired with the cumulative violation
// list it corresponds to, taken under one lock acquisition — the
// version-recording path needs the two to describe the same instant,
// which separate Snapshot and Violations calls cannot guarantee under
// a concurrent writer.
func (s *Session) State() (*storage.Instance, []chase.Violation) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var inst *storage.Instance
	if s.eval != nil {
		inst = s.eval.Instance().Snapshot()
	} else {
		inst = s.chase.Instance().Snapshot()
	}
	out := make([]chase.Violation, len(s.chase.Result().Violations))
	copy(out, s.chase.Result().Violations)
	return inst, out
}

// ChaseResult returns the cumulative chase statistics. The contained
// instance is the live one — use Snapshot for concurrent reads.
func (s *Session) ChaseResult() *chase.Result {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.chase.Result()
}
