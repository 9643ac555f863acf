package mdqa

import (
	"context"

	"repro/internal/core"
	"repro/internal/quality"
)

// VersionName is the default naming convention for quality versions:
// the paper's S^q rendered as "<name>_q".
func VersionName(rel string) string { return quality.VersionName(rel) }

// Option configures a quality Context at construction time. Options
// are applied in order; each appends to or overrides part of the
// context's configuration. Because configuration happens only inside
// NewContext, two contexts can never share or leak option state.
type Option func(*quality.Config)

// WithChaseBound bounds the number of chase rounds per assessment.
// Exceeding it surfaces as ErrBoundExceeded. 0 restores the default.
func WithChaseBound(rounds int) Option {
	return func(cfg *quality.Config) { cfg.Chase.MaxRounds = rounds }
}

// WithAtomBound aborts assessment when the contextual instance
// exceeds n tuples, guarding against non-terminating ontologies.
// Exceeding it surfaces as ErrBoundExceeded. 0 restores the default.
func WithAtomBound(n int) Option {
	return func(cfg *quality.Config) { cfg.Chase.MaxAtoms = n }
}

// WithReferentialNCs compiles referential negative constraints for
// every categorical attribute, so dangling category references are
// reported as violations.
func WithReferentialNCs() Option {
	return func(cfg *quality.Config) { cfg.Compile.ReferentialNCs = true }
}

// WithTransitiveRollups compiles rollup predicates between
// non-adjacent category pairs, letting rules navigate several
// hierarchy levels in one atom.
func WithTransitiveRollups() Option {
	return func(cfg *quality.Config) { cfg.Compile.TransitiveRollups = true }
}

// WithMapping registers a rule mapping original-schema predicates into
// contextual predicates (the paper's footprint step).
func WithMapping(rules ...*Rule) Option {
	return func(cfg *quality.Config) { cfg.Mappings = append(cfg.Mappings, rules...) }
}

// WithQualityRule registers a rule defining a contextual or quality
// predicate P_i.
func WithQualityRule(rules ...*Rule) Option {
	return func(cfg *quality.Config) { cfg.QualityRules = append(cfg.QualityRules, rules...) }
}

// WithQualityVersion declares the quality version of an original
// relation: versionPred is the predicate the rules define (use
// VersionName(rel) by convention).
func WithQualityVersion(rel, versionPred string, rules ...*Rule) Option {
	return func(cfg *quality.Config) {
		cfg.Versions = append(cfg.Versions, quality.VersionSpec{
			Original: rel,
			Pred:     versionPred,
			Rules:    rules,
		})
	}
}

// WithExternalSource merges a pre-materialized external data source
// E_i into the static context. Merge semantics are set-union: every
// tuple of db is copied into the context's compiled base at prepare
// time, creating relations as needed (attribute names come from db
// only when the relation is new; an arity conflict with an existing
// relation fails Prepare). The instance is deep-copied at NewContext,
// so mutating db afterwards never changes the context — the same
// no-aliasing guarantee every other option has.
//
// For sources that change over time, bind a live connector with
// WithSource instead: external-source tuples baked in here are fixed
// for the context's lifetime.
func WithExternalSource(db *Instance) Option {
	return func(cfg *quality.Config) { cfg.Externals = append(cfg.Externals, db) }
}

// WithStrictConsistency makes Assess fail with ErrInconsistent when
// the chase finds constraint violations, instead of reporting them on
// the Assessment.
func WithStrictConsistency() Option {
	return func(cfg *quality.Config) { cfg.StrictConsistency = true }
}

// WithParallelism bounds the worker pool that assessments — cold
// Assess, session NewSession and Apply — fan their chase and eval
// rounds out across. n = 0 (the default) resolves to
// runtime.GOMAXPROCS(0); n >= 1 bounds concurrent workers at n, and
// n = 1 starts no worker goroutines.
//
// Parallelism never changes what is computed: the chase result
// (instance, null labels, violations, counters) is identical at every
// degree, and the derived quality layer holds exactly the same tuples
// (only low-level insertion order inside a relation may differ
// between degrees, which is why Snapshot streams sort their tuples). One assessment parallelizes internally; the
// single-writer/many-readers session contract is unchanged.
func WithParallelism(n int) Option {
	return func(cfg *quality.Config) { cfg.Parallelism = n }
}

// Context is an immutable quality-assessment context (the paper's
// Figure 2): an MD ontology plus contextual mappings, quality
// predicates, quality-version definitions and external sources. Build
// one with NewContext; share it freely across goroutines.
type Context struct {
	q *quality.Context
}

// NewContext builds and validates a quality context around the MD
// ontology. Every rule is safety-checked up front (ErrUnsafeRule),
// and duplicate or ill-formed version definitions are rejected. The
// one check left to Prepare needs the compiled ontology: a rule whose
// head a TGD, EGD or NC reads fails there with ErrUnsafeRule.
func NewContext(o *Ontology, opts ...Option) (*Context, error) {
	var cfg quality.Config
	for _, opt := range opts {
		opt(&cfg)
	}
	return newContext(o, cfg)
}

// newContext wraps an internal config into the facade type.
func newContext(o *core.Ontology, cfg quality.Config) (*Context, error) {
	q, err := quality.NewContext(o, cfg)
	if err != nil {
		return nil, err
	}
	return &Context{q: q}, nil
}

// Ontology returns the MD ontology the context is built around.
func (c *Context) Ontology() *Ontology { return c.q.Ontology() }

// VersionPred returns the version predicate defined for an original
// relation, or "" when none is.
func (c *Context) VersionPred(rel string) string { return c.q.VersionPred(rel) }

// Versioned lists the original relations with defined quality
// versions, in declaration order.
func (c *Context) Versioned() []string { return c.q.Versioned() }

// DeclaredPreds maps every predicate the context can speak about to
// the arity its atoms use (-1 where two uses disagree): ontology
// relations, rule and constraint predicates, dimension
// membership/rollup predicates, every predicate a mapping, quality or
// version rule mentions, and the version predicates. A query over any
// of these is well-formed even when the relation holds no tuples yet,
// and input facts over them must have that arity — serving layers use
// the map to tell "empty" from ErrUnknownRelation and to reject
// malformed input.
func (c *Context) DeclaredPreds() map[string]int { return c.q.DeclaredPreds() }

// Prepare compiles the context once — the ontology's Datalog± program,
// its chase join plans, the merged static context and the stratified
// derived-layer program — caching the result for the context's
// lifetime. Any number of goroutines can open sessions from the
// returned Prepared. The chase runs before the mappings, quality rules
// and version rules, so a rule whose head a dependency of the compiled
// ontology reads (positively or under negation) would feed the chase
// nothing: Prepare rejects it with an *UnsafeRuleError naming the rule
// and the dependency.
func (c *Context) Prepare(ctx context.Context) (*Prepared, error) {
	p, err := c.q.Prepare(ctx)
	if err != nil {
		return nil, err
	}
	vorder := c.q.Versioned()
	vp := make(map[string]string, len(vorder))
	for _, rel := range vorder {
		vp[rel] = c.q.VersionPred(rel)
	}
	return &Prepared{p: p, c: c, versionPred: vp, vorder: vorder}, nil
}

// Assess runs the full Figure 2 pipeline on the instance under
// assessment: compile (cached), merge, chase, evaluate, measure.
// Assess is a one-shot session — long-lived callers use
// Prepare/NewSession and Apply deltas instead of re-assessing from
// scratch. Cancellation of ctx is checked once per chase/eval work
// unit.
func (c *Context) Assess(ctx context.Context, d *Instance) (*Assessment, error) {
	p, err := c.Prepare(ctx)
	if err != nil {
		return nil, err
	}
	s, err := p.NewSession(ctx, d)
	if err != nil {
		return nil, err
	}
	return s.Assess(ctx)
}

// Measure quantifies how much an original relation departs from its
// quality version: |D|, |D^q| and their intersection, with
// CleanFraction and Distance derived from them.
type Measure = quality.Measure

// Assessment is the materialized outcome of mapping an instance
// through the context: quality versions under the original attribute
// names, departure measures, and the violations found while chasing.
// For streaming access to the same state, use Session.Snapshot.
type Assessment struct {
	a    *quality.Assessment
	snap *Snapshot
}

// Snapshot returns the frozen contextual state behind the assessment,
// for streaming reads (quality-version tuples, clean query answers).
// It is the same view Session.View would return for the version the
// assessment was taken at — View is the general surface when you hold
// the session rather than an assessment.
func (a *Assessment) Snapshot() *Snapshot { return a.snap }

// Versions returns the computed quality version of each original
// relation with a defined version, keyed by the original name. Each is
// a frozen relation under the original attribute names, with its rows
// in sorted order; Insert and Delete on it fail.
func (a *Assessment) Versions() map[string]*Relation { return a.a.Versions }

// Version returns the computed quality version of one original
// relation, or ErrUnknownRelation when no version is defined for it.
// The relation is frozen and its rows are sorted, as in Versions.
func (a *Assessment) Version(rel string) (*Relation, error) {
	if v, ok := a.a.Versions[rel]; ok {
		return v, nil
	}
	return nil, &UnknownRelationError{Relation: rel}
}

// Measures quantifies the departure of each original relation from
// its quality version, keyed by the original name.
func (a *Assessment) Measures() map[string]Measure { return a.a.Measures }

// Violations lists the dimensional-constraint violations found while
// chasing the ontology.
func (a *Assessment) Violations() []Violation { return a.a.Violations }

// Consistent reports whether the chase found no violations.
func (a *Assessment) Consistent() bool { return len(a.a.Violations) == 0 }

// Contextual returns the full frozen contextual instance: chased
// ontology data, the mapped original instance, external sources,
// quality predicates and quality versions.
func (a *Assessment) Contextual() *Instance { return a.a.Contextual }

// RewriteClean rewrites a query over the original schema into the
// query Q^q over quality versions (the paper's problem (b)).
func (a *Assessment) RewriteClean(q *Query) *Query { return a.a.RewriteClean(q) }

// CleanAnswer answers a query over the original schema with quality
// semantics: rewritten over the quality versions, evaluated on the
// contextual instance, keeping only certain answers (no labeled
// nulls). For large answer sets prefer Snapshot().CleanAnswers, which
// streams instead of materializing.
func (a *Assessment) CleanAnswer(q *Query) (*AnswerSet, error) { return a.a.CleanAnswer(q) }

// newAssessment pairs a quality assessment of version v with its
// streaming view.
func newAssessment(a *quality.Assessment, v Version, versionPred map[string]string, vorder []string) *Assessment {
	return &Assessment{
		a: a,
		snap: &Snapshot{
			inst:        a.Contextual,
			versionPred: versionPred,
			vorder:      vorder,
			ver:         v,
		},
	}
}
