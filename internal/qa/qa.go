// Package qa implements conjunctive query answering over Datalog± MD
// ontologies (Section IV of the paper):
//
//   - DeterministicWSQAns — the paper's deterministic top-down
//     backtracking search for accepting resolution proof schemas,
//     answering Boolean and open conjunctive queries, with sound
//     piece-unification against existential head variables and
//     memoization of ground subgoals;
//   - chase-based certain-answer computation, the executable
//     counterpart of the non-deterministic WeaklyStickyQAns the paper
//     builds on, used as the reference oracle in tests and benchmarks.
//
// Both engines compute certain answers: answers that hold in every
// model, i.e. contain no labeled nulls.
package qa

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/chase"
	"repro/internal/datalog"
	"repro/internal/eval"
	"repro/internal/qerr"
	"repro/internal/storage"
)

// Options configures DeterministicWSQAns.
type Options struct {
	// MaxDepth bounds the number of TGD applications along any branch
	// of the resolution proof schema. 0 derives a default from the
	// program and query size, which suffices for the level-bounded
	// dimensional navigation of MD ontologies; recursive programs
	// (e.g. transitive rollups over deep hierarchies) may need more.
	MaxDepth int
	// DisableMemo turns off memoization of ground subgoals (for the
	// ablation benchmark).
	DisableMemo bool
}

func (o Options) maxDepth(prog *datalog.Program, q *datalog.Query) int {
	if o.MaxDepth > 0 {
		return o.MaxDepth
	}
	return 3*len(prog.TGDs) + len(q.Body) + 4
}

// Answer runs DeterministicWSQAns on an open (or Boolean) conjunctive
// query, returning its certain answers. The extensional instance is
// not modified. Queries with negated atoms are rejected: certain
// answers under negation are outside the paper's language. ctx cancels
// the top-down search between proof steps.
func Answer(ctx context.Context, prog *datalog.Program, db *storage.Instance, q *datalog.Query, opts Options) (*datalog.AnswerSet, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if len(q.Negated) > 0 {
		return nil, fmt.Errorf("qa: query %s has negated atoms; certain-answer engines accept positive CQs only", q.Head.Pred)
	}
	r := &resolver{
		ctx:      ctx,
		byHead:   prog.TGDsByHeadPred(),
		db:       db,
		fresh:    datalog.NewCounter("κ"),
		ansVars:  q.Head.Args,
		conds:    q.Conds,
		memoFail: map[string]int{},
		memoOK:   map[string]bool{},
		useMemo:  !opts.DisableMemo,
	}
	answers := datalog.NewAnswerSet()
	boolean := q.IsBoolean()
	r.resolve(q.Body, datalog.NewSubst(), opts.maxDepth(prog, q), func(s datalog.Subst) bool {
		if r.emit(answers, s) && boolean {
			return false // one proof suffices for a BCQ
		}
		return true
	})
	if r.ctxErr != nil {
		return nil, r.ctxErr
	}
	return answers, nil
}

// AnswerBool runs DeterministicWSQAns on a Boolean conjunctive query.
func AnswerBool(ctx context.Context, prog *datalog.Program, db *storage.Instance, q *datalog.Query, opts Options) (bool, error) {
	if !q.IsBoolean() {
		return false, fmt.Errorf("qa: query %s has answer variables; use Answer", q.Head.Pred)
	}
	as, err := Answer(ctx, prog, db, q, opts)
	if err != nil {
		return false, err
	}
	return as.Len() > 0, nil
}

// resolver carries the state of the top-down search.
type resolver struct {
	ctx      context.Context
	ctxErr   error // set when ctx cancellation stopped the search
	steps    int   // resolve calls since the last cancellation check
	byHead   map[string][]*datalog.TGD
	db       *storage.Instance
	fresh    *datalog.Counter
	ansVars  []datalog.Term
	conds    []datalog.Comparison
	memoFail map[string]int // ground goal key -> max depth at which provability failed
	memoOK   map[string]bool
	useMemo  bool
}

// resolve processes the goal list left to right; goals are always kept
// fully substituted, and s accumulates the global substitution for
// answer extraction. onSuccess is invoked per completed proof and
// returns false to stop the search. resolve reports whether the search
// ran to exhaustion (false = stopped early by onSuccess).
func (r *resolver) resolve(goals []datalog.Atom, s datalog.Subst, depth int, onSuccess func(datalog.Subst) bool) bool {
	// Cancellation is sticky: once observed, every frame unwinds
	// immediately (a false return anywhere below is otherwise
	// ambiguous between "stopped early" and "goal unprovable").
	if r.ctxErr != nil {
		return false
	}
	// Check cancellation every few thousand proof steps: often enough
	// to time-bound a runaway search, rarely enough to stay off the
	// hot path.
	if r.steps++; r.steps&0xfff == 0 {
		if err := r.ctx.Err(); err != nil {
			r.ctxErr = err
			return false
		}
	}
	if len(goals) == 0 {
		return onSuccess(s)
	}
	g := goals[0]
	rest := goals[1:]

	// Ground goals have no variable interaction with their siblings:
	// prove them in isolation (memoizable), then move on.
	if g.IsGround() {
		proven := r.proveGround(g, depth)
		if r.ctxErr != nil {
			return false
		}
		if !proven {
			return true
		}
		return r.resolve(rest, s, depth, onSuccess)
	}

	exhausted := true

	// Option 1: match the goal against an extensional fact.
	storage.CompileQueryPlan(r.db, []datalog.Atom{g}).Run(r.db, datalog.NewSubst(), func(theta datalog.Subst) bool {
		if !r.resolve(theta.ApplyAtoms(rest), s.Compose(theta), depth, onSuccess) {
			exhausted = false
			return false
		}
		return true
	})
	if !exhausted {
		return false
	}

	// Option 2: resolve the goal through a TGD whose head can produce
	// it; consumes one unit of depth.
	if depth > 0 {
		for _, tgd := range r.byHead[g.Pred] {
			if !r.applyRule(g, rest, s, tgd, depth-1, onSuccess) {
				return false
			}
		}
	}
	return true
}

// proveGround decides provability of a single ground atom, with
// memoization: a ground atom proven once stays proven; a failure is
// valid for all depth budgets up to the one it was established with.
func (r *resolver) proveGround(g datalog.Atom, depth int) bool {
	if r.db.ContainsAtom(g) {
		return true
	}
	key := ""
	if r.useMemo {
		key = g.Key()
		if r.memoOK[key] {
			return true
		}
		if d, failed := r.memoFail[key]; failed && depth <= d {
			return false
		}
	}
	proven := false
	if depth > 0 {
		for _, tgd := range r.byHead[g.Pred] {
			if !r.applyRule(g, nil, datalog.NewSubst(), tgd, depth-1, func(datalog.Subst) bool {
				proven = true
				return false
			}) {
				break // stopped early: proof found
			}
		}
	}
	// A cancelled search proves nothing: skip memoization so the
	// aborted attempt is not misremembered as a definitive failure.
	if r.useMemo && r.ctxErr == nil {
		if proven {
			r.memoOK[key] = true
		} else if old, ok := r.memoFail[key]; !ok || depth > old {
			r.memoFail[key] = depth
		}
	}
	return proven
}

// applyRule resolves goal g via one TGD, through each of its piece
// unifiers (datalog.Pieces), protecting the answer and condition
// variables from capture by invented values. It reports whether the
// search ran to exhaustion.
func (r *resolver) applyRule(g datalog.Atom, rest []datalog.Atom, s datalog.Subst, tgd *datalog.TGD, depth int, onSuccess func(datalog.Subst) bool) bool {
	protect := make([]datalog.Term, 0, len(r.ansVars)+2*len(r.conds))
	for _, av := range r.ansVars {
		protect = append(protect, s.Apply(av))
	}
	for _, c := range r.conds {
		protect = append(protect, s.Apply(c.L), s.Apply(c.R))
	}
	ren := datalog.RenameApart(tgd, r.fresh)
	return datalog.Pieces(g, rest, ren, protect, func(sigma datalog.Subst, resolvent []datalog.Atom) bool {
		return r.resolve(resolvent, s.Compose(sigma), depth, onSuccess)
	})
}

// emit evaluates the query conditions and extracts one answer; it
// reports whether the proof produced a (new or duplicate) certain
// answer.
func (r *resolver) emit(answers *datalog.AnswerSet, s datalog.Subst) bool {
	for _, c := range r.conds {
		ok, err := c.Eval(s)
		if err != nil || !ok {
			return false
		}
	}
	terms := make([]datalog.Term, len(r.ansVars))
	for i, v := range r.ansVars {
		t := s.Apply(v)
		if !t.IsGround() || t.IsNull() {
			// Not a certain answer.
			return false
		}
		terms[i] = t
	}
	answers.Add(datalog.Answer{Terms: terms})
	return true
}

// ChaseOptions configures the chase-based oracle.
type ChaseOptions struct {
	Chase chase.Options
	// AllowViolations evaluates the query even when constraints are
	// violated (data quality workflows inspect violations separately).
	AllowViolations bool
}

// CertainAnswersViaChase computes certain answers by chasing the
// program to saturation and evaluating the query over the result,
// discarding answers that contain labeled nulls. A ≠ is certain only
// between two constants (an invented null may equal any value in some
// model), so a match whose ≠ reads a null is discarded too. It is the
// executable counterpart of the non-deterministic WeaklyStickyQAns and
// the oracle that DeterministicWSQAns is validated against.
func CertainAnswersViaChase(ctx context.Context, prog *datalog.Program, db *storage.Instance, q *datalog.Query, opts ChaseOptions) (*datalog.AnswerSet, error) {
	if len(q.Negated) > 0 {
		return nil, fmt.Errorf("qa: query %s has negated atoms; certain-answer engines accept positive CQs only", q.Head.Pred)
	}
	res, err := chase.Run(ctx, prog, db, opts.Chase)
	if err != nil {
		return nil, err
	}
	if !res.Saturated {
		return nil, fmt.Errorf("qa: %w", &qerr.BoundExceededError{
			Op:     "chase",
			Rounds: res.Rounds,
			Atoms:  res.Instance.TotalTuples(),
		})
	}
	if !res.Consistent() && !opts.AllowViolations {
		return nil, fmt.Errorf("qa: %w", &qerr.InconsistentError{Violations: res.Violations})
	}
	// Evaluate with the ≠ variables appended to the head, so the null
	// check covers them, then project back to the answer variables.
	ext := *q
	ext.Head.Args = slices.Clone(q.Head.Args)
	for _, c := range q.Conds {
		if c.Op == datalog.OpNe {
			for _, t := range []datalog.Term{c.L, c.R} {
				if t.IsVar() {
					ext.Head.Args = append(ext.Head.Args, t)
				}
			}
		}
	}
	answers := datalog.NewAnswerSet()
	err = eval.EvalQueryFunc(&ext, res.Instance, nil, func(ans datalog.Answer) bool {
		if !ans.HasNull() {
			answers.Add(datalog.Answer{Terms: ans.Terms[:len(q.Head.Args)]})
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	return answers, nil
}
