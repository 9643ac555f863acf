package mdqa

import (
	"iter"
	"sort"

	"repro/internal/eval"
	"repro/internal/quality"
	"repro/internal/storage"
)

// Snapshot is a frozen, consistent view of a contextual instance:
// chased ontology data, mapped input, quality predicates and quality
// versions as of one Apply. It is immutable and safe for any number
// of concurrent readers, and its accessors stream — relations and
// query answers are exposed as iter.Seq iterators, so consumers can
// stop early or process tuples one at a time without materializing
// whole answer sets.
type Snapshot struct {
	inst        *storage.Instance
	versionPred map[string]string
	vorder      []string
	ver         Version // metadata of the version this view reads
}

// Version returns the metadata of the session version this snapshot
// reads — sequence number, wall time, violation state, scores.
func (s *Snapshot) Version() Version { return s.ver }

// Instance returns the underlying frozen instance, for interop with
// formatting helpers (FormatRelation) and direct relation access.
func (s *Snapshot) Instance() *Instance { return s.inst }

// Relations lists the snapshot's relation names sorted
// lexicographically — a deterministic order independent of relation
// creation order (which can vary with the engine's parallelism
// degree).
func (s *Snapshot) Relations() []string {
	names := s.inst.RelationNames()
	sort.Strings(names)
	return names
}

// Versioned lists the original relations with defined quality
// versions, in declaration order.
func (s *Snapshot) Versioned() []string { return append([]string(nil), s.vorder...) }

// NumTuples returns the tuple count of one relation, or
// ErrUnknownRelation.
func (s *Snapshot) NumTuples(rel string) (int, error) {
	r := s.inst.Relation(rel)
	if r == nil {
		return 0, &UnknownRelationError{Relation: rel}
	}
	return r.Len(), nil
}

// Tuples streams the tuples of one relation sorted lexicographically
// by their terms. The order is documented and deterministic: it
// depends only on the snapshot's contents, never on derivation or
// insertion order, so output built from a stream (golden CLI files,
// reports) is stable across engine parallelism degrees. The error is
// ErrUnknownRelation when the relation does not exist in the
// snapshot. The yielded slice is reused for the next tuple: copy
// before retaining.
func (s *Snapshot) Tuples(rel string) (iter.Seq[[]Term], error) {
	r := s.inst.Relation(rel)
	if r == nil {
		return nil, &UnknownRelationError{Relation: rel}
	}
	return streamSorted(r), nil
}

// VersionTuples streams the quality version of an original relation
// (rel is the original name, e.g. "Measurements"; the stream reads
// the version predicate, e.g. "Measurements_q"), sorted
// lexicographically like Tuples. A version whose rules derived
// nothing streams zero tuples; a relation with no declared version is
// ErrUnknownRelation.
func (s *Snapshot) VersionTuples(rel string) (iter.Seq[[]Term], error) {
	pred, ok := s.versionPred[rel]
	if !ok {
		return nil, &UnknownRelationError{Relation: rel}
	}
	r := s.inst.Relation(pred)
	if r == nil {
		// The version predicate exists but derived no tuples, so the
		// relation was never created: stream nothing.
		return func(func([]Term) bool) {}, nil
	}
	return streamSorted(r), nil
}

// streamSorted yields a relation's tuples in sorted order, decoding
// each row into one reused buffer.
func streamSorted(r *storage.Relation) iter.Seq[[]Term] {
	return func(yield func([]Term) bool) {
		buf := make([]Term, 0, r.Schema().Arity())
		for _, row := range r.SortedRows() {
			if !yield(r.Interner().Terms(row, buf[:0])) {
				return
			}
		}
	}
}

// RewriteClean rewrites a query over the original schema into the
// query Q^q over quality versions (the paper's problem (b)): every
// atom whose predicate has a defined quality version is renamed to
// the version predicate.
func (s *Snapshot) RewriteClean(q *Query) *Query {
	return quality.RewriteCleanQuery(q, s.versionPred)
}

// Answers streams the answers of a conjunctive query evaluated
// directly over the snapshot (closed-world, including answers that
// contain labeled nulls). Each element pairs an answer with a nil
// error; an evaluation failure is yielded once as a final (zero,
// err) element. Answers are deduplicated and produced as the join
// plan finds them — breaking out of the loop stops the evaluation.
func (s *Snapshot) Answers(q *Query) iter.Seq2[Answer, error] {
	return streamQuery(q, s.inst, false, nil)
}

// CleanAnswers streams the clean answers of a query over the original
// schema (the paper's quality query answering): the query is
// rewritten over the quality versions, evaluated on the contextual
// snapshot, and answers containing labeled nulls are dropped (certain
// answers). Error handling follows Answers.
func (s *Snapshot) CleanAnswers(q *Query) iter.Seq2[Answer, error] {
	return streamQuery(s.RewriteClean(q), s.inst, true, nil)
}

// AnswersCached is Answers with join plans served from (and recorded
// into) pc — the fast path for ad-hoc queries asked repeatedly against
// successive snapshots of one session, such as mdserve's ?q= answers.
// A nil cache behaves exactly like Answers.
func (s *Snapshot) AnswersCached(q *Query, pc *PlanCache) iter.Seq2[Answer, error] {
	return streamQuery(q, s.inst, false, pc)
}

// CleanAnswersCached is CleanAnswers with join plans served from pc;
// see AnswersCached.
func (s *Snapshot) CleanAnswersCached(q *Query, pc *PlanCache) iter.Seq2[Answer, error] {
	return streamQuery(s.RewriteClean(q), s.inst, true, pc)
}

// Explain returns the compiled join plan for the query as EXPLAIN
// text — chosen atom order, the planner's candidate estimates and the
// index positions each step probes — without evaluating it. clean
// first rewrites the query over the quality versions, mirroring
// CleanAnswers. pc may be nil; when set, the plan comes from (and
// lands in) the cache, so an explain followed by the same query shares
// one compilation.
func (s *Snapshot) Explain(q *Query, clean bool, pc *PlanCache) (string, error) {
	if clean {
		q = s.RewriteClean(q)
	}
	if err := q.Validate(); err != nil {
		return "", err
	}
	plan := pc.QueryPlan(s.inst, q.Body)
	return plan.Explain(), nil
}

// streamQuery adapts the engine's callback-style streaming evaluation
// to an iter.Seq2, optionally dropping null-carrying answers. pc, when
// non-nil, supplies cached join plans.
func streamQuery(q *Query, db *storage.Instance, certainOnly bool, pc *PlanCache) iter.Seq2[Answer, error] {
	return func(yield func(Answer, error) bool) {
		err := eval.EvalQueryFunc(q, db, pc, func(ans Answer) bool {
			if certainOnly && ans.HasNull() {
				return true
			}
			return yield(ans, nil)
		})
		if err != nil {
			yield(Answer{}, err)
		}
	}
}
