package mdqa

import (
	"context"

	"repro/internal/engine"
	"repro/internal/quality"
)

// ApplyResult reports what one Session.Apply call did: facts
// inserted, chase rows derived, derived-layer growth, TGD firings and
// EGD merges, and whether the derived layer had to be rebuilt.
type ApplyResult = engine.ApplyResult

// Prepared is the compiled, immutable form of a quality context:
// everything that does not depend on the instance under assessment,
// compiled exactly once. Any number of goroutines can open sessions
// from one Prepared.
type Prepared struct {
	p *quality.Prepared
	c *Context
	// versionPred and vorder are the context's version metadata,
	// shared read-only by every session, snapshot and assessment.
	versionPred map[string]string
	vorder      []string
}

// Context returns the context this compilation came from.
func (p *Prepared) Context() *Context { return p.c }

// NewSession opens an assessment session: the instance under
// assessment is merged into a private clone of the static context,
// chased to saturation and evaluated — the cold path every later
// Apply amortizes. The caller's instance is never mutated.
// Cancellation of ctx is checked once per chase/eval work unit, so
// latency stays bounded even inside large rounds.
func (p *Prepared) NewSession(ctx context.Context, d *Instance) (*Session, error) {
	s, err := p.p.NewSession(ctx, d)
	if err != nil {
		return nil, err
	}
	return p.session(s), nil
}

// session wraps a quality session opened or restored from p.
func (p *Prepared) session(s *quality.Session) *Session {
	return &Session{s: s, versionPred: p.versionPred, vorder: p.vorder}
}

// Session is a live assessment: a saturated contextual instance that
// grows incrementally via Apply while readers take consistent
// snapshots. One goroutine applies deltas; any number of goroutines
// read snapshots and assessments concurrently.
type Session struct {
	s           *quality.Session
	versionPred map[string]string // the Prepared's, shared read-only
	vorder      []string
}

// Apply extends the assessment with a batch of new ground facts —
// measurements, dimension members, rollups — chasing and re-evaluating
// incrementally from the delta frontier (semi-naive: only the delta is
// re-matched). Readers holding earlier snapshots are unaffected. A
// rejected batch, or an Apply whose ctx is already cancelled, leaves
// the session as it was; once a batch is under way it runs to
// completion whatever ctx does (the chase bounds still stop a runaway
// batch).
func (s *Session) Apply(ctx context.Context, delta []Atom) (*ApplyResult, error) {
	return s.s.Apply(ctx, delta)
}

// Snapshot returns a frozen, consistent view of the contextual
// instance as of the last Apply, for streaming reads. Snapshots are
// cheap (copy-on-write) and safe to consume from any number of
// goroutines while the writer keeps applying deltas.
//
// Snapshot is equivalent to View() with no options; use View to read
// a historical version (At, AsOf) instead of the latest state.
func (s *Session) Snapshot() *Snapshot {
	snap, _ := s.View() // the latest view cannot fail
	return snap
}

// Violations returns the session's cumulative constraint violations.
func (s *Session) Violations() []Violation { return s.s.Violations() }

// ChaseRounds returns the cumulative number of chase rounds the
// session has run: the initial saturation plus every incremental
// Apply. Monitoring surfaces (the mdserve /metrics endpoint) report it
// as the session's chase cost.
func (s *Session) ChaseRounds() int { return s.s.ChaseRounds() }

// Assess materializes the session's state as the Figure 2 assessment
// outcome: quality versions, departure measures and accumulated
// violations over a consistent snapshot — the latest state by
// default, or a historical version under At / AsOf (the same options
// View takes; measures then come from the scores recorded when that
// version was produced). Under WithStrictConsistency it fails with
// ErrInconsistent when the chase found violations.
func (s *Session) Assess(ctx context.Context, opts ...ViewOption) (*Assessment, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	o, err := s.resolve(opts)
	if err != nil {
		return nil, err
	}
	var a *quality.Assessment
	var v Version
	if o.hasAt {
		a, v, err = s.s.AssessmentAt(o.at)
	} else {
		// The version metadata comes from the same lock acquisition as
		// the assessment, so an Apply in between cannot pair them up
		// across versions.
		a, v, err = s.s.Assessment()
	}
	if err != nil {
		return nil, err
	}
	return newAssessment(a, v, s.versionPred, s.vorder), nil
}
