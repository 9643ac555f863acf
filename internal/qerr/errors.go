// Package qerr defines the structured error vocabulary shared by the
// engine layers and surfaced through the public mdqa facade. Every
// failure class pairs a sentinel (for errors.Is) with a typed error
// (for errors.As): the sentinel names the class, the type carries the
// structured detail — constraint violations, the offending rule, the
// unknown relation, the exceeded bound.
//
// The package sits below every other internal package (it imports only
// the standard library), so chase, eval, engine and quality can all
// produce these errors without import cycles, and mdqa re-exports them
// verbatim.
package qerr

import (
	"errors"
	"fmt"
	"strings"
)

// ViolationKind classifies constraint violations found while enforcing
// an ontology's dependencies.
type ViolationKind uint8

const (
	// NCViolation: a negative constraint body matched.
	NCViolation ViolationKind = iota
	// EGDConflict: an EGD required two distinct constants to be equal.
	EGDConflict
)

// String names the violation kind.
func (k ViolationKind) String() string {
	if k == EGDConflict {
		return "egd-conflict"
	}
	return "nc-violation"
}

// Violation records one constraint violation.
type Violation struct {
	Kind   ViolationKind
	ID     string // constraint ID
	Detail string
}

// String renders the violation.
func (v Violation) String() string {
	return fmt.Sprintf("%s %s: %s", v.Kind, v.ID, v.Detail)
}

// Sentinels: match with errors.Is to classify a failure; match the
// corresponding *Error type with errors.As to recover the detail.
var (
	// ErrInconsistent marks assessments over instances that violate
	// the ontology's negative constraints or EGDs.
	ErrInconsistent = errors.New("inconsistent with ontology constraints")
	// ErrUnsafeRule marks rules rejected by safety validation.
	ErrUnsafeRule = errors.New("unsafe rule")
	// ErrUnknownRelation marks references to relations that do not
	// exist in the queried instance or schema.
	ErrUnknownRelation = errors.New("unknown relation")
	// ErrBoundExceeded marks chase or evaluation runs aborted by a
	// round or atom bound before reaching a fixpoint.
	ErrBoundExceeded = errors.New("bound exceeded before fixpoint")
	// ErrSourceUnavailable marks assessments or refreshes that could
	// not fetch an external source (and had no cached snapshot they
	// were allowed to serve stale).
	ErrSourceUnavailable = errors.New("external source unavailable")
	// ErrVersionEvicted marks as-of reads of a session version that has
	// aged out of the retained history (ring-evicted in memory and, for
	// durable sessions, past the oldest snapshot the WAL can replay
	// from).
	ErrVersionEvicted = errors.New("version evicted from history")
)

// VersionEvictedError reports which version an as-of read asked for
// and the oldest version still reachable, behind an ErrVersionEvicted.
type VersionEvictedError struct {
	Version uint64 // the requested version
	Oldest  uint64 // the oldest version still reachable
}

// Error renders the requested and oldest-reachable versions.
func (e *VersionEvictedError) Error() string {
	return fmt.Sprintf("%s: version %d (oldest retained %d)",
		ErrVersionEvicted.Error(), e.Version, e.Oldest)
}

// Is matches ErrVersionEvicted.
func (e *VersionEvictedError) Is(target error) bool { return target == ErrVersionEvicted }

// SourceUnavailableError names the external source whose fetch failed
// behind an ErrSourceUnavailable, wrapping the connector's error.
type SourceUnavailableError struct {
	Source string // binding name, as given to WithSource
	Err    error  // the connector failure
}

// Error renders the source name and the underlying failure.
func (e *SourceUnavailableError) Error() string {
	var b strings.Builder
	b.WriteString(ErrSourceUnavailable.Error())
	if e.Source != "" {
		fmt.Fprintf(&b, " %s", e.Source)
	}
	if e.Err != nil {
		fmt.Fprintf(&b, ": %v", e.Err)
	}
	return b.String()
}

// Is matches ErrSourceUnavailable.
func (e *SourceUnavailableError) Is(target error) bool { return target == ErrSourceUnavailable }

// Unwrap exposes the connector failure for errors.Is/As chains.
func (e *SourceUnavailableError) Unwrap() error { return e.Err }

// InconsistentError carries the constraint violations behind an
// ErrInconsistent failure.
type InconsistentError struct {
	Violations []Violation
}

// Error renders the violation count and the first violation.
func (e *InconsistentError) Error() string {
	if len(e.Violations) == 0 {
		return ErrInconsistent.Error()
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %d violation", ErrInconsistent.Error(), len(e.Violations))
	if len(e.Violations) > 1 {
		b.WriteByte('s')
	}
	fmt.Fprintf(&b, ", first: %s", e.Violations[0])
	return b.String()
}

// Is matches ErrInconsistent.
func (e *InconsistentError) Is(target error) bool { return target == ErrInconsistent }

// UnsafeRuleError identifies the rule and variable that failed safety
// validation.
type UnsafeRuleError struct {
	Rule   string // rule or dependency ID
	Var    string // offending variable, when one exists
	Reason string
}

// Error renders the rule, variable and reason.
func (e *UnsafeRuleError) Error() string {
	var b strings.Builder
	b.WriteString(ErrUnsafeRule.Error())
	if e.Rule != "" {
		fmt.Fprintf(&b, " %s", e.Rule)
	}
	if e.Var != "" {
		fmt.Fprintf(&b, ": variable %s", e.Var)
	}
	if e.Reason != "" {
		fmt.Fprintf(&b, ": %s", e.Reason)
	}
	return b.String()
}

// Is matches ErrUnsafeRule.
func (e *UnsafeRuleError) Is(target error) bool { return target == ErrUnsafeRule }

// UnknownRelationError names the missing relation.
type UnknownRelationError struct {
	Relation string
}

// Error renders the relation name.
func (e *UnknownRelationError) Error() string {
	return fmt.Sprintf("%s %s", ErrUnknownRelation.Error(), e.Relation)
}

// Is matches ErrUnknownRelation.
func (e *UnknownRelationError) Is(target error) bool { return target == ErrUnknownRelation }

// BoundExceededError reports how far a bounded run got before it was
// cut off.
type BoundExceededError struct {
	Op     string // what was running: "chase", "incremental chase", ...
	Rounds int    // completed rounds
	Atoms  int    // instance size when the run stopped, when known
}

// Error renders the operation and, for a run that made rounds or
// atoms, the progress made; a bound with neither (the answer stream's)
// is just exceeded.
func (e *BoundExceededError) Error() string {
	var b strings.Builder
	if e.Op != "" {
		fmt.Fprintf(&b, "%s: ", e.Op)
	}
	if e.Rounds == 0 && e.Atoms == 0 {
		b.WriteString("bound exceeded")
		return b.String()
	}
	b.WriteString(ErrBoundExceeded.Error())
	fmt.Fprintf(&b, " (rounds=%d", e.Rounds)
	if e.Atoms > 0 {
		fmt.Fprintf(&b, ", atoms=%d", e.Atoms)
	}
	b.WriteByte(')')
	return b.String()
}

// Is matches ErrBoundExceeded.
func (e *BoundExceededError) Is(target error) bool { return target == ErrBoundExceeded }
