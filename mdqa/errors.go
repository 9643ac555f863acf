package mdqa

import "repro/internal/qerr"

// The facade's error vocabulary. Every failure class pairs a sentinel
// (errors.Is) with a typed error (errors.As): the sentinel names the
// class, the type carries the structured detail.
//
//	a, err := qc.Assess(ctx, d)
//	if errors.Is(err, mdqa.ErrInconsistent) {
//	    var ie *mdqa.InconsistentError
//	    errors.As(err, &ie)
//	    for _, v := range ie.Violations { ... }
//	}
var (
	// ErrInconsistent marks assessments over instances that violate
	// the ontology's negative constraints or EGDs (only under
	// WithStrictConsistency; by default violations are reported on
	// the Assessment instead).
	ErrInconsistent = qerr.ErrInconsistent
	// ErrUnsafeRule marks mapping, quality or version rules rejected
	// by safety validation.
	ErrUnsafeRule = qerr.ErrUnsafeRule
	// ErrUnknownRelation marks references to relations absent from
	// the queried snapshot or context.
	ErrUnknownRelation = qerr.ErrUnknownRelation
	// ErrBoundExceeded marks chase runs stopped by WithChaseBound or
	// WithAtomBound before reaching a fixpoint.
	ErrBoundExceeded = qerr.ErrBoundExceeded
	// ErrSourceUnavailable marks sessions or refreshes that could not
	// fetch a live external source (and the binding did not opt into
	// stale serving via SourceAllowStale).
	ErrSourceUnavailable = qerr.ErrSourceUnavailable
	// ErrVersionEvicted marks as-of reads (View(At(...)), AsOf) of a
	// version older than everything the session retains — both the
	// in-memory ring and, for durable sessions, the on-disk replay
	// base compaction has kept.
	ErrVersionEvicted = qerr.ErrVersionEvicted
)

// InconsistentError carries the constraint violations behind an
// ErrInconsistent failure.
type InconsistentError = qerr.InconsistentError

// UnsafeRuleError identifies the rule and variable that failed safety
// validation.
type UnsafeRuleError = qerr.UnsafeRuleError

// UnknownRelationError names the missing relation.
type UnknownRelationError = qerr.UnknownRelationError

// BoundExceededError reports how far a bounded run got before it was
// cut off.
type BoundExceededError = qerr.BoundExceededError

// SourceUnavailableError names the source binding whose fetch failed,
// wrapping the connector error.
type SourceUnavailableError = qerr.SourceUnavailableError

// VersionEvictedError names the requested version and the oldest one
// still reachable behind an ErrVersionEvicted failure.
type VersionEvictedError = qerr.VersionEvictedError

// Violation records one constraint violation found while chasing the
// ontology's dependencies.
type Violation = qerr.Violation

// ViolationKind classifies violations.
type ViolationKind = qerr.ViolationKind

// Violation kinds.
const (
	// NCViolation: a negative constraint body matched.
	NCViolation = qerr.NCViolation
	// EGDConflict: an EGD required two distinct constants to be equal.
	EGDConflict = qerr.EGDConflict
)
