// Package quality implements the paper's contextual data quality
// framework (Section V, Figure 2): an instance D under assessment is
// mapped into a context C hosting the multidimensional ontology M,
// contextual predicates, quality predicates P_i and definitions of
// quality versions S^q of the original relations. Clean query
// answering rewrites a query over the original schema into one over
// the quality versions and answers it over the context — triggering
// dimensional navigation through the ontology's rules.
//
// Contexts are immutable: NewContext validates a Config once and the
// resulting Context can be shared freely. All potentially expensive
// entry points (Prepare, Assess, NewSession, Apply) take a leading
// context.Context; the repro/mdqa package is the public facade over
// this one.
package quality

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/chase"
	"repro/internal/core"
	"repro/internal/datalog"
	"repro/internal/engine"
	"repro/internal/eval"
	"repro/internal/history"
	"repro/internal/hm"
	"repro/internal/obs"
	"repro/internal/qerr"
	"repro/internal/source"
	"repro/internal/storage"
)

// VersionName is the default naming convention for quality versions:
// the paper's S^q rendered as "<name>_q".
func VersionName(rel string) string { return rel + "_q" }

// VersionSpec declares the quality version of one original relation:
// Pred is the predicate the Rules define (use VersionName(Original) by
// convention).
type VersionSpec struct {
	Original string
	Pred     string
	Rules    []*eval.Rule
}

// Config collects everything a quality context is built from. The
// zero value is a context with no mappings, rules or versions over
// default compile and chase options.
type Config struct {
	// Compile sets the ontology compilation options.
	Compile core.CompileOptions
	// Chase sets the chase options used during assessment.
	Chase chase.Options
	// Mappings define contextual predicates from the original schema
	// (the paper's "footprint" step: Measurement_c is a contextual
	// copy — or expansion — of Measurements).
	Mappings []*eval.Rule
	// QualityRules define contextual/quality predicates P_i, e.g.
	// TakenByNurse and TakenWithTherm in Example 7.
	QualityRules []*eval.Rule
	// Versions declare the quality versions of original relations.
	Versions []VersionSpec
	// Externals are additional data sources E_i merged into the
	// context. Set-union semantics: every tuple of every external is
	// merged into the static contextual instance at prepare time
	// (attribute names come from the external only when the relation is
	// new; arity conflicts fail Prepare). NewContext deep-copies each
	// instance, so mutating an external after construction never
	// changes the context.
	Externals []*storage.Instance
	// Sources bind live external sources (package source): connectors
	// fetched when a session opens and re-polled by Session.Refresh,
	// with per-binding TTL caching and singleflight dedup shared by
	// every session of the context. Unlike Externals, source tuples are
	// not baked into the compiled base — each session resolves them at
	// open time, so two sessions opened across a source change may see
	// different extensions.
	Sources []source.Binding
	// StrictConsistency makes Assess fail with qerr.ErrInconsistent
	// when the chase finds constraint violations, instead of
	// reporting them on the Assessment.
	StrictConsistency bool
	// HistoryDepth bounds how many version snapshots each session
	// retains in memory for as-of reads: 0 selects
	// history.DefaultDepth, a negative value disables version history
	// entirely (Session.At and friends then fail).
	HistoryDepth int
	// HistoryBytes caps the estimated memory of the retained version
	// snapshots per session (0 = no byte bound). The newest version is
	// always retained.
	HistoryBytes int64
	// Parallelism bounds the worker pool assessments fan chase and
	// eval rounds out across: 0 resolves to runtime.GOMAXPROCS(0)
	// (the default), n >= 1 bounds workers at n; 1 starts no worker
	// goroutines. The result does not depend on it.
	Parallelism int
}

// Context assembles the quality-assessment context of Figure 2. It is
// immutable after NewContext; a single cached compilation (Prepare) is
// shared by every Assess call and session.
type Context struct {
	ontology *core.Ontology
	cfg      Config
	versions map[string]*versionDef
	vorder   []string
	// resolver caches the live source bindings for every session of
	// the context (nil when the context declares none).
	resolver *source.Resolver

	// prepareOnce guards prepared, the cached compiled form of the
	// context: the context never mutates, so one compilation serves
	// its whole lifetime.
	prepareOnce sync.Once
	prepared    *Prepared
	prepareErr  error
}

type versionDef struct {
	pred  string
	rules []*eval.Rule
}

// NewContext builds and validates a context around the MD ontology.
// Every mapping, quality rule and version rule is safety-checked up
// front (qerr.ErrUnsafeRule), and duplicate or empty version
// definitions are rejected; only the check that needs the compiled
// program, checkRuleHeads, waits for Prepare. The Config's slices are
// copied: callers may reuse or extend a Config to build further
// contexts without aliasing (two contexts built from one ontology
// never share option state).
func NewContext(o *core.Ontology, cfg Config) (*Context, error) {
	if o == nil {
		return nil, fmt.Errorf("quality: nil ontology")
	}
	c := &Context{
		ontology: o,
		versions: map[string]*versionDef{},
	}
	c.cfg = Config{
		Compile:           cfg.Compile,
		Chase:             cfg.Chase,
		Mappings:          append([]*eval.Rule(nil), cfg.Mappings...),
		QualityRules:      append([]*eval.Rule(nil), cfg.QualityRules...),
		Sources:           append([]source.Binding(nil), cfg.Sources...),
		StrictConsistency: cfg.StrictConsistency,
		HistoryDepth:      cfg.HistoryDepth,
		HistoryBytes:      cfg.HistoryBytes,
		Parallelism:       cfg.Parallelism,
	}
	// Externals are deep-copied, not just re-sliced: a caller mutating
	// an instance after NewContext must not reach into the context (the
	// same no-aliasing guarantee the rule slices already have).
	for _, ext := range cfg.Externals {
		if ext == nil {
			return nil, fmt.Errorf("quality: nil external source")
		}
		c.cfg.Externals = append(c.cfg.Externals, ext.CloneDetached())
	}
	names := map[string]bool{}
	rels := map[string]string{}
	for _, b := range c.cfg.Sources {
		if b.Name == "" || b.Src == nil {
			return nil, fmt.Errorf("quality: source binding needs a name and a source")
		}
		if names[b.Name] {
			return nil, fmt.Errorf("quality: source %s bound twice", b.Name)
		}
		names[b.Name] = true
		rel := b.Src.Schema().Relation
		if rel == "" {
			return nil, fmt.Errorf("quality: source %s declares no relation", b.Name)
		}
		if prev, dup := rels[rel]; dup {
			// One relation per source keeps refresh diffs and durable
			// source state attributable to a single binding.
			return nil, fmt.Errorf("quality: sources %s and %s both feed relation %s", prev, b.Name, rel)
		}
		rels[rel] = b.Name
	}
	if len(c.cfg.Sources) > 0 {
		c.resolver = source.NewResolver(c.cfg.Sources)
	}
	for _, r := range c.cfg.Mappings {
		if err := r.Validate(); err != nil {
			return nil, err
		}
	}
	for _, r := range c.cfg.QualityRules {
		if err := r.Validate(); err != nil {
			return nil, err
		}
	}
	for _, v := range cfg.Versions {
		if _, dup := c.versions[v.Original]; dup {
			return nil, fmt.Errorf("quality: version of %s already defined", v.Original)
		}
		if len(v.Rules) == 0 {
			return nil, fmt.Errorf("quality: version of %s needs at least one rule", v.Original)
		}
		for _, r := range v.Rules {
			if err := r.Validate(); err != nil {
				return nil, err
			}
			if r.Head.Pred != v.Pred {
				return nil, fmt.Errorf("quality: rule %s defines %s, want %s", r.ID, r.Head.Pred, v.Pred)
			}
		}
		c.versions[v.Original] = &versionDef{pred: v.Pred, rules: append([]*eval.Rule(nil), v.Rules...)}
		c.vorder = append(c.vorder, v.Original)
	}
	return c, nil
}

// Ontology returns the MD ontology the context is built around.
func (c *Context) Ontology() *core.Ontology { return c.ontology }

// SourceBindings returns the context's live source bindings in
// declaration order (nil when the context declares none).
func (c *Context) SourceBindings() []source.Binding {
	return append([]source.Binding(nil), c.cfg.Sources...)
}

// SourceStats returns the per-binding resolver counters (fetches,
// errors, cache hits, stale serves), keyed by binding name. Serving
// layers pull it at metrics-scrape time. Nil when the context declares
// no sources.
func (c *Context) SourceStats() map[string]source.Stats {
	if c.resolver == nil {
		return nil
	}
	return c.resolver.Stats()
}

// SourceFetchLatency returns a copy of the histogram of every source
// fetch's duration, or nil when the context declares no sources.
func (c *Context) SourceFetchLatency() *obs.Histogram {
	if c.resolver == nil {
		return nil
	}
	return c.resolver.FetchLatency()
}

// VersionPred returns the version predicate defined for an original
// relation, or "" when none is.
func (c *Context) VersionPred(rel string) string {
	if def, ok := c.versions[rel]; ok {
		return def.pred
	}
	return ""
}

// Versioned lists the original relations with defined quality
// versions, in declaration order.
func (c *Context) Versioned() []string { return append([]string(nil), c.vorder...) }

// DeclaredPreds maps every predicate the context can speak about to
// the arity its atoms use (-1 where two uses disagree): the ontology's
// categorical relations, rule and constraint predicates, the dimension
// membership and rollup predicates, every predicate mentioned by a
// mapping, quality or version rule (heads and bodies — this is how
// input relations like the hospital example's Measurements enter the
// vocabulary), and the version predicates. A query over any of these
// is well-formed even when the relation holds no tuples yet, and input
// facts over them must have that arity; serving layers use the map to
// tell "empty" from "unknown relation" and to reject malformed input.
func (c *Context) DeclaredPreds() map[string]int {
	arity := map[string]int{}
	add := func(pred string, n int) {
		if prev, seen := arity[pred]; seen && prev != n {
			n = -1
		}
		arity[pred] = n
	}
	addAtoms := func(atoms []datalog.Atom) {
		for _, a := range atoms {
			add(a.Pred, len(a.Args))
		}
	}
	o := c.ontology
	for _, rel := range o.Relations() {
		add(rel, o.Relation(rel).Arity())
	}
	for _, t := range o.Rules() {
		addAtoms(t.Body)
		addAtoms(t.Head)
	}
	for _, e := range o.EGDs() {
		addAtoms(e.Body)
	}
	for _, n := range o.NCs() {
		for _, lit := range n.Body {
			add(lit.Atom.Pred, len(lit.Atom.Args))
		}
	}
	for _, dname := range o.Dimensions() {
		s := o.Dimension(dname).Schema()
		cats := s.Categories()
		for _, cat := range cats {
			add(hm.CategoryPredName(cat), 1)
		}
		for _, e := range s.Edges() {
			add(hm.RollupPredName(e[0], e[1]), 2)
		}
		if c.cfg.Compile.TransitiveRollups {
			for _, child := range cats {
				for _, anc := range cats {
					if child != anc && s.IsAncestor(child, anc) {
						add(hm.RollupPredName(child, anc), 2)
					}
				}
			}
		}
	}
	addRule := func(r *eval.Rule) {
		add(r.Head.Pred, len(r.Head.Args))
		addAtoms(r.Body)
		addAtoms(r.Negated)
	}
	for _, r := range c.cfg.Mappings {
		addRule(r)
	}
	for _, r := range c.cfg.QualityRules {
		addRule(r)
	}
	for _, def := range c.versions {
		for _, r := range def.rules {
			addRule(r)
		}
	}
	return arity
}

// Measure quantifies how much an original relation departs from its
// quality version, following the paper's "quality is measured in terms
// of how much D departs from its quality version".
type Measure struct {
	Original     int // |D|
	Quality      int // |D^q|
	Intersection int // |D ∩ D^q|
}

// Distance is |D △ D^q| / |D| — 0 means D is already clean, 1 means a
// fully disjoint quality version of the same size.
func (m Measure) Distance() float64 {
	if m.Original == 0 {
		return 0
	}
	sym := (m.Original - m.Intersection) + (m.Quality - m.Intersection)
	return float64(sym) / float64(m.Original)
}

// CleanFraction is |D ∩ D^q| / |D| — the share of original tuples that
// survive quality assessment.
func (m Measure) CleanFraction() float64 {
	if m.Original == 0 {
		return 1
	}
	return float64(m.Intersection) / float64(m.Original)
}

// Assessment is the outcome of mapping an instance through the
// context.
type Assessment struct {
	// Contextual is the full contextual instance: chased ontology
	// data, the mapped original instance, external sources, quality
	// predicates and quality versions. It is a frozen snapshot, safe
	// for concurrent readers.
	Contextual *storage.Instance
	// Versions holds the computed quality version of each original
	// relation with a defined version: a frozen relation under the
	// original attribute names whose rows are in sorted order. It
	// shares the Contextual snapshot's interner and rows, so Insert and
	// Delete on it fail.
	Versions map[string]*storage.Relation
	// Measures quantifies the departure of each original relation
	// from its quality version.
	Measures map[string]Measure
	// Violations carries dimensional-constraint violations found
	// while chasing the ontology.
	Violations []chase.Violation
	// versionPred maps original relation names to version predicates
	// for clean query rewriting.
	versionPred map[string]string
}

// Prepared is the compiled, immutable form of a quality context: the
// ontology compiled to Datalog±, its chase plans, the merged static
// context (dimension data plus external sources) and the stratified
// derived-layer program — everything that does not depend on the
// instance under assessment. Any number of goroutines can open
// sessions from one Prepared.
type Prepared struct {
	eng      *engine.Prepared
	strict   bool
	versions map[string]*versionDef
	vorder   []string
	// bindings and resolver carry the context's live sources; every
	// session resolves through the shared resolver so concurrent
	// sessions share fetches and the TTL cache.
	bindings []source.Binding
	resolver *source.Resolver
	// srcRels is the set of relations owned by live sources; Apply
	// keeps them out of the measure base (see Session.Apply).
	srcRels map[string]bool
	// histDepth and histBytes carry the context's history bounds into
	// every session's version ring (see Config.HistoryDepth).
	histDepth int
	histBytes int64
}

// Prepare compiles the context once, caching the result for the
// context's lifetime: repeated Assess calls and sessions all share one
// compilation.
func (c *Context) Prepare(ctx context.Context) (*Prepared, error) {
	// The ctx check stays outside the Once: a cancelled first call
	// must not poison the cache for later callers.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	c.prepareOnce.Do(func() {
		c.prepared, c.prepareErr = c.compile()
	})
	return c.prepared, c.prepareErr
}

// compile does the actual one-time compilation behind Prepare.
func (c *Context) compile() (*Prepared, error) {
	comp, err := c.ontology.Compile(c.cfg.Compile)
	if err != nil {
		return nil, err
	}
	// The compiled instance is freshly built and owned here; external
	// sources merge into it once, at prepare time, not per assessment.
	base := comp.Instance
	for _, ext := range c.cfg.Externals {
		if err := storage.Merge(base, ext); err != nil {
			return nil, err
		}
	}
	evalProg := eval.NewProgram()
	evalProg.Add(c.cfg.Mappings...)
	evalProg.Add(c.cfg.QualityRules...)
	for _, rel := range c.vorder {
		evalProg.Add(c.versions[rel].rules...)
	}
	if err := checkRuleHeads(comp.Program, evalProg.Rules); err != nil {
		return nil, err
	}
	eng, err := engine.Prepare(engine.Spec{
		Program:      comp.Program,
		Base:         base,
		Rules:        evalProg,
		ChaseOptions: c.cfg.Chase,
		Parallelism:  c.cfg.Parallelism,
	})
	if err != nil {
		return nil, err
	}
	p := &Prepared{
		eng:       eng,
		strict:    c.cfg.StrictConsistency,
		versions:  make(map[string]*versionDef, len(c.versions)),
		vorder:    append([]string(nil), c.vorder...),
		bindings:  append([]source.Binding(nil), c.cfg.Sources...),
		resolver:  c.resolver,
		srcRels:   make(map[string]bool, len(c.cfg.Sources)),
		histDepth: c.cfg.HistoryDepth,
		histBytes: c.cfg.HistoryBytes,
	}
	for _, b := range p.bindings {
		p.srcRels[b.Src.Schema().Relation] = true
	}
	for rel, def := range c.versions {
		p.versions[rel] = def
	}
	return p, nil
}

// checkRuleHeads rejects a rule whose head predicate a TGD, EGD or NC
// of the compiled program reads, positively or under negation. The
// chase runs before the mappings, quality rules and version rules, so
// it would never see the facts such a rule derives.
func checkRuleHeads(prog *datalog.Program, rules []*eval.Rule) error {
	readBy := map[string]string{} // predicate → the first dependency reading it
	read := func(kind, id string, atoms ...datalog.Atom) {
		for _, a := range atoms {
			if _, ok := readBy[a.Pred]; !ok {
				readBy[a.Pred] = kind + " " + id
			}
		}
	}
	for _, t := range prog.TGDs {
		read("TGD", t.ID, t.Body...)
	}
	for _, e := range prog.EGDs {
		read("EGD", e.ID, e.Body...)
	}
	for _, n := range prog.NCs {
		for _, l := range n.Body {
			read("NC", n.ID, l.Atom)
		}
	}
	for _, r := range rules {
		if dep, ok := readBy[r.Head.Pred]; ok {
			return fmt.Errorf("quality: %w", &qerr.UnsafeRuleError{
				Rule:   r.ID,
				Reason: fmt.Sprintf("%s reads its head %s, but the chase runs before the rules and never sees what they derive", dep, r.Head.Pred),
			})
		}
	}
	return nil
}

// NewSession opens an assessment session: the instance under
// assessment is merged into a private clone of the static context,
// chased to saturation and evaluated. Apply then extends the session
// incrementally as new data arrives; View and Assessment serve
// concurrent readers. Cancellation of ctx is checked once per chase
// round and eval stratum round.
func (p *Prepared) NewSession(ctx context.Context, d *storage.Instance) (*Session, error) {
	var snaps map[string]*source.Snapshot
	if len(p.bindings) > 0 {
		// Resolve every live source (TTL-cached, singleflighted); the
		// session remembers each snapshot so Refresh can diff against
		// exactly what it applied.
		snaps = make(map[string]*source.Snapshot, len(p.bindings))
		for _, b := range p.bindings {
			snap, err := p.resolver.Get(ctx, b.Name)
			if err != nil {
				return nil, err
			}
			snaps[b.Name] = snap
		}
	}
	eng, err := p.openEngine(ctx, d, snaps)
	if err != nil {
		return nil, err
	}
	s := &Session{prep: p, eng: eng, orig: storage.NewInstance(), src: snaps}
	if d != nil {
		// A detached copy of the instance under assessment backs the
		// departure measures; holding the caller's instance would race
		// with the caller mutating it. Source tuples stay out: they are
		// context, not the data whose quality is measured.
		s.orig = d.CloneDetached()
	}
	if p.histDepth >= 0 {
		// Version 0 is the session's initial saturated state; every
		// Apply and changed Refresh then stamps the next version.
		s.hist = history.New(p.histDepth, p.histBytes)
		s.recordVersionLocked(0)
	}
	return s, nil
}

// openEngine opens an engine session over d plus the source snapshots,
// merged in binding order: the combined instance, not d alone, seeds
// the session. It is the cold open of NewSession and of a Refresh
// that a source removal forces to rebuild.
func (p *Prepared) openEngine(ctx context.Context, d *storage.Instance, snaps map[string]*source.Snapshot) (*engine.Session, error) {
	if len(p.bindings) == 0 {
		return p.eng.NewSession(ctx, d)
	}
	combined := storage.NewInstance()
	if d != nil {
		if err := storage.Merge(combined, d); err != nil {
			return nil, err
		}
	}
	for _, b := range p.bindings {
		if snap := snaps[b.Name]; snap != nil {
			if err := storage.Merge(combined, snap.Inst); err != nil {
				return nil, err
			}
		}
	}
	return p.eng.NewSession(ctx, combined)
}

// Session is a live assessment: a saturated contextual instance that
// grows incrementally via Apply while readers take consistent
// snapshots. The single-writer/many-readers contract of
// engine.Session applies.
type Session struct {
	prep *Prepared
	eng  *engine.Session
	mu   sync.Mutex
	// orig tracks the instance under assessment (base plus every
	// applied delta atom) — it backs the departure measures and is the
	// exact state a source-removal rebuild re-seeds the engine from.
	orig *storage.Instance
	// src is the last source snapshot applied to the session, per
	// binding name; Refresh diffs the resolver's latest against it.
	src map[string]*source.Snapshot
	// priorRounds accumulates chase rounds from engine sessions
	// discarded by rebuild-on-removal, keeping ChaseRounds monotonic.
	priorRounds int
	// hist is the bounded version history behind the as-of read path
	// (nil when Config.HistoryDepth is negative). Guarded by mu.
	hist *history.Ring
}

// Apply extends the assessment with a batch of new ground facts —
// measurements, dimension members, rollups — chasing and re-evaluating
// incrementally from the delta frontier. It holds the session lock for
// the whole step, so a concurrent Assessment sees either none or all
// of the batch (never a contextual snapshot from before the delta
// paired with measures from after it), and a failed engine apply
// leaves the measure bookkeeping untouched. Cancellation follows
// engine.Session.Apply: ctx is checked before the batch touches the
// session, and a batch under way runs to completion.
func (s *Session) Apply(ctx context.Context, delta []datalog.Atom) (*engine.ApplyResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	res, err := s.eng.Apply(ctx, delta)
	if err != nil {
		return nil, err
	}
	// Every delta atom is recorded, not just the versioned relations:
	// the measures only read versioned relations either way, and a
	// source-removal rebuild needs orig to be the complete instance
	// under assessment. Source-bound relations are the one exception —
	// the live source owns their extension (the next Refresh diffs and
	// rebuilds from its snapshot), and a durable layer replaying a
	// refresh delta through Apply must not leak source tuples into the
	// measure base.
	for _, a := range delta {
		if s.prep.srcRels[a.Pred] {
			continue
		}
		if _, err := s.orig.InsertAtom(a); err != nil {
			return nil, err
		}
	}
	s.recordVersionLocked(res.Inserted)
	return res, nil
}

// recordVersionLocked stamps the session's next version: a frozen
// engine snapshot paired with the violation list it corresponds to,
// scored per versioned relation. Callers hold s.mu (or own the session
// exclusively, as NewSession does). batch counts the new facts the
// producing apply inserted.
func (s *Session) recordVersionLocked(batch int) {
	if s.hist == nil {
		return
	}
	inst, viols := s.eng.State()
	seq := s.hist.NextSeq()
	v := history.Version{
		Seq:        seq,
		WALSeq:     seq, // one WAL record per version under the durable serving layer
		Time:       time.Now().UTC(),
		Batch:      batch,
		Violations: len(viols),
		Rows:       inst.TotalTuples(),
		Scores:     s.scoresLocked(inst),
	}
	// Delta attribution: the violations beyond the previous version's
	// cumulative count are the ones this version introduced. A refresh
	// rebuild resets the engine's accounting (the list can shrink), in
	// which case attribution restarts from this version.
	if last, ok := s.hist.Last(); ok && len(viols) >= last.Violations {
		v.Introduced = append([]chase.Violation(nil), viols[last.Violations:]...)
	}
	s.hist.Record(&history.Entry{Version: v, Inst: inst, Viol: viols})
}

// scoresLocked computes the departure measure of every versioned
// relation against the given contextual snapshot — count-only (no
// materialized rename), so the per-apply recording cost stays linear
// in the version relations' sizes.
func (s *Session) scoresLocked(inst *storage.Instance) map[string]history.Score {
	if len(s.prep.vorder) == 0 {
		return nil
	}
	scores := make(map[string]history.Score, len(s.prep.vorder))
	for _, rel := range s.prep.vorder {
		orig := s.orig.Relation(rel)
		if orig == nil {
			continue
		}
		var vrel *storage.Relation
		if def := s.prep.versions[rel]; def != nil {
			vrel = inst.Relation(def.pred)
		}
		m := Measure{Original: orig.Len()}
		if vrel != nil {
			m = measure(orig, vrel)
		}
		scores[rel] = history.Score{Original: m.Original, Quality: m.Quality, Intersection: m.Intersection}
	}
	return scores
}

// History returns the metadata of every version the session knows
// about, ascending; nil when history is disabled.
func (s *Session) History() []history.Version {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.hist == nil {
		return nil
	}
	return s.hist.Versions()
}

// LatestVersion returns the newest version's metadata (false when
// history is disabled).
func (s *Session) LatestVersion() (history.Version, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.hist == nil {
		return history.Version{}, false
	}
	return s.hist.Last()
}

// OldestRetained returns the oldest version whose snapshot the session
// still holds in memory (false when history is disabled).
func (s *Session) OldestRetained() (uint64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.hist == nil {
		return 0, false
	}
	return s.hist.OldestRetained()
}

// ErrHistoryDisabled marks versioned reads on a session whose context
// disabled history retention (Config.HistoryDepth < 0).
var ErrHistoryDisabled = fmt.Errorf("quality: version history disabled")

// At returns the frozen contextual snapshot and metadata of version
// seq. Versions older than the retained ring fail with
// qerr.ErrVersionEvicted (a durable serving layer may still
// reconstruct them from disk); versions newer than the latest fail
// with a plain error naming the latest.
func (s *Session) At(seq uint64) (*storage.Instance, history.Version, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, err := s.entryAtLocked(seq)
	if err != nil {
		return nil, history.Version{}, err
	}
	return e.Inst, e.Version, nil
}

// AsOfTime resolves a wall-clock instant to the newest version at or
// before it (qerr.ErrVersionEvicted when t predates the first known
// version).
func (s *Session) AsOfTime(t time.Time) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.hist == nil {
		return 0, ErrHistoryDisabled
	}
	return s.hist.AsOf(t)
}

// Attribute reports which version introduced the given violation —
// the answer to "which applied batch broke this constraint" — by
// consulting the per-version delta-attribution records.
func (s *Session) Attribute(v chase.Violation) (history.Version, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.hist == nil {
		return history.Version{}, false
	}
	return s.hist.Attribute(v)
}

// entryAtLocked resolves one retained version entry under s.mu.
func (s *Session) entryAtLocked(seq uint64) (*history.Entry, error) {
	if s.hist == nil {
		return nil, ErrHistoryDisabled
	}
	e, ok, err := s.hist.At(seq)
	if err != nil {
		return nil, fmt.Errorf("quality: %w", err)
	}
	if !ok {
		latest, _ := s.hist.LatestSeq()
		return nil, fmt.Errorf("quality: version %d not yet applied (latest %d)", seq, latest)
	}
	return e, nil
}

// View returns the latest frozen contextual snapshot paired with its
// version metadata, under one lock acquisition (so the pairing cannot
// straddle a concurrent Apply). ok is false when history is disabled —
// the snapshot is still valid, only the metadata is absent.
func (s *Session) View() (*storage.Instance, history.Version, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.hist != nil {
		if e := s.hist.Latest(); e != nil {
			return e.Inst, e.Version, true
		}
	}
	return s.eng.Snapshot(), history.Version{}, false
}

// Violations returns the session's cumulative constraint violations.
func (s *Session) Violations() []chase.Violation {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.eng.Violations()
}

// ChaseRounds returns the cumulative number of chase rounds the
// session has run: the initial saturation plus every incremental
// extension, plus the rounds of engine sessions a Refresh rebuild
// retired. Serving layers export it as a cost metric.
func (s *Session) ChaseRounds() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.priorRounds + s.eng.ChaseResult().Rounds
}

// Assessment materializes the session's current state as the
// Figure 2 assessment outcome: quality versions, departure measures
// and accumulated violations over a consistent snapshot. Under
// Config.StrictConsistency it fails with qerr.ErrInconsistent when
// the chase found violations.
//
// With version history on, the current state is the newest recorded
// version, assembled exactly as AssessmentAt assembles older ones: its
// frozen snapshot, its violations and its recorded scores (which equal
// the live measures, since every version is recorded after the measure
// base is updated). That version's metadata comes back with it, read
// under the same lock, and ok is true. With history off, ok is false
// and the assessment comes from a fresh engine snapshot with measures
// computed live.
func (s *Session) Assessment() (a *Assessment, v history.Version, ok bool, err error) {
	// The lock pairs the snapshot with the measure bookkeeping and the
	// version metadata atomically against Apply.
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.hist != nil {
		if e := s.hist.Latest(); e != nil {
			a, err = s.assembleLocked(e.Inst, e.Viol, e.Scores)
			if err != nil {
				return nil, history.Version{}, false, err
			}
			return a, e.Version, true, nil
		}
	}
	final, violations := s.eng.State()
	a, err = s.assembleLocked(final, violations, nil)
	return a, history.Version{}, false, err
}

// AssessmentAt materializes the assessment outcome as of version seq:
// quality versions and violations from the retained snapshot, measures
// from the scores recorded when the version was produced (the measure
// base itself is not retained per version). Resolution errors mirror
// Session.At.
func (s *Session) AssessmentAt(seq uint64) (*Assessment, history.Version, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, err := s.entryAtLocked(seq)
	if err != nil {
		return nil, history.Version{}, err
	}
	a, err := s.assembleLocked(e.Inst, e.Viol, e.Scores)
	if err != nil {
		return nil, history.Version{}, err
	}
	return a, e.Version, nil
}

// assembleLocked builds the Assessment over one frozen contextual
// snapshot: each version relation is a frozen, sorted view of the
// snapshot's rows under the original attribute names, and measures are
// either computed live against the current measure base (scores ==
// nil, the history-off path) or taken from a version's recorded scores.
func (s *Session) assembleLocked(final *storage.Instance, violations []chase.Violation, scores map[string]history.Score) (*Assessment, error) {
	if s.prep.strict && len(violations) > 0 {
		return nil, fmt.Errorf("quality: %w", &qerr.InconsistentError{Violations: violations})
	}
	out := &Assessment{
		Contextual:  final,
		Versions:    map[string]*storage.Relation{},
		Measures:    map[string]Measure{},
		Violations:  violations,
		versionPred: map[string]string{},
	}
	for _, rel := range s.prep.vorder {
		def := s.prep.versions[rel]
		out.versionPred[rel] = def.pred
		vrel := final.Relation(def.pred)
		orig := s.orig.Relation(rel)
		// Expose the version under the original relation's attribute
		// names (derived relations otherwise get synthetic a0..aN).
		attrs := []string{}
		switch {
		case orig != nil && (vrel == nil || orig.Schema().Arity() == vrel.Schema().Arity()):
			attrs = orig.Schema().Attrs
		case vrel != nil:
			attrs = vrel.Schema().Attrs
		}
		schema := storage.Schema{Name: def.pred, Attrs: attrs}
		renamed := storage.NewFrozenRelation(schema)
		if vrel != nil {
			// Sorted, not insertion, order: the derived layer's
			// insertion order varies with the engine's parallelism
			// degree, and the materialized version relations are public
			// output — they must not differ across machines.
			var err error
			if renamed, err = vrel.SortedView(schema); err != nil {
				return nil, err
			}
		}
		out.Versions[rel] = renamed
		switch {
		case scores != nil:
			if sc, ok := scores[rel]; ok {
				out.Measures[rel] = Measure{Original: sc.Original, Quality: sc.Quality, Intersection: sc.Intersection}
			}
		case orig != nil:
			out.Measures[rel] = measure(orig, renamed)
		}
	}
	return out, nil
}

// Assess runs the full Figure 2 pipeline on the instance under
// assessment:
//
//  1. compile the ontology (dimension predicates + categorical data),
//  2. merge D and the external sources into the context,
//  3. chase the dimensional rules (data generation via navigation),
//  4. evaluate mappings, quality predicates and quality versions,
//  5. compute departure measures.
//
// Compilation (step 1) is cached across calls; each call merges into
// a private clone, so successive assessments never contaminate each
// other or the inputs. Assess is a one-shot session — long-lived
// callers use Prepare/NewSession directly and Apply deltas instead of
// re-assessing from scratch. Cancellation of ctx is checked once per
// chase round and eval stratum round.
func (c *Context) Assess(ctx context.Context, d *storage.Instance) (*Assessment, error) {
	p, err := c.Prepare(ctx)
	if err != nil {
		return nil, err
	}
	s, err := p.NewSession(ctx, d)
	if err != nil {
		return nil, err
	}
	a, _, _, err := s.Assessment()
	return a, err
}

// measure computes |D|, |D^q| and their positional intersection,
// decoding the version's rows into one reused buffer.
func measure(orig, version *storage.Relation) Measure {
	m := Measure{Original: orig.Len(), Quality: version.Len()}
	if orig.Schema().Arity() != version.Schema().Arity() {
		return m
	}
	in := version.Interner()
	buf := make([]datalog.Term, 0, version.Schema().Arity())
	for _, row := range version.Rows() {
		if orig.Contains(in.Terms(row, buf[:0])) {
			m.Intersection++
		}
	}
	return m
}

// RewriteClean rewrites a query over the original schema into the
// query Q^q over quality versions (the paper's problem (b)): every
// atom whose predicate has a defined quality version is renamed to the
// version predicate. Unmapped predicates are left untouched (they
// resolve against the contextual instance).
func (a *Assessment) RewriteClean(q *datalog.Query) *datalog.Query {
	return RewriteCleanQuery(q, a.versionPred)
}

// RewriteCleanQuery renames version-mapped predicates in a copy of q —
// the one shared implementation of the paper's clean rewriting, used
// by Assessment.RewriteClean and the mdqa snapshot streams.
func RewriteCleanQuery(q *datalog.Query, versionPred map[string]string) *datalog.Query {
	out := q.Clone()
	for i, atom := range out.Body {
		if vp, ok := versionPred[atom.Pred]; ok {
			out.Body[i].Pred = vp
		}
	}
	for i, atom := range out.Negated {
		if vp, ok := versionPred[atom.Pred]; ok {
			out.Negated[i].Pred = vp
		}
	}
	return out
}

// CleanAnswer answers a query over the original schema with quality
// semantics: it rewrites the query over the quality versions and
// evaluates it on the contextual instance, dropping answers that
// contain labeled nulls (certain answers).
func (a *Assessment) CleanAnswer(q *datalog.Query) (*datalog.AnswerSet, error) {
	certain := datalog.NewAnswerSet()
	err := eval.EvalQueryFunc(a.RewriteClean(q), a.Contextual, func(ans datalog.Answer) bool {
		if !ans.HasNull() {
			certain.Add(ans)
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	return certain, nil
}
