package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"

	"repro/internal/qerr"
	"repro/mdqa"
)

// StatusClientClosedRequest is the non-standard status (nginx's 499)
// reported when the client's request context was cancelled before the
// assessment finished: no real response could be delivered, and the
// failure is attributable to the client, not the engine.
const StatusClientClosedRequest = 499

// WireError is the structured error body: a stable machine-readable
// code, a human-readable message, and the typed detail carried by the
// engine's qerr errors (violations behind a 409, chase progress behind
// a 422, the missing relation behind a 400).
type WireError struct {
	Code       string          `json:"code"`
	Message    string          `json:"message"`
	Violations []WireViolation `json:"violations,omitempty"`
	Rounds     int             `json:"rounds,omitempty"`
	Atoms      int             `json:"atoms,omitempty"`
	Relation   string          `json:"relation,omitempty"`
	Source     string          `json:"source,omitempty"`
	// Version and Oldest detail a 410 version_evicted: the version the
	// as-of read asked for and the oldest one still reachable.
	Version uint64 `json:"version,omitempty"`
	Oldest  uint64 `json:"oldest,omitempty"`
}

// ErrorBody wraps a WireError as a response body.
type ErrorBody struct {
	Error WireError `json:"error"`
}

// notFoundError marks lookups of unknown contexts or sessions (404).
type notFoundError struct {
	kind string // "context" or "session"
	name string
}

func (e *notFoundError) Error() string { return fmt.Sprintf("unknown %s %q", e.kind, e.name) }

// badRequestError marks malformed request payloads (400).
type badRequestError struct{ msg string }

func (e *badRequestError) Error() string { return e.msg }

// overloadedError marks capacity limits (429): the request was fine,
// the server is full — clients should back off, not rewrite the
// request.
type overloadedError struct{ msg string }

func (e *overloadedError) Error() string { return e.msg }

// conflictError marks a client-chosen session id that already names a
// live session (409): the caller either retries with a fresh id or
// deliberately reuses the existing session.
type conflictError struct{ msg string }

func (e *conflictError) Error() string { return e.msg }

// invalidAsOfError marks an unusable ?as_of= parameter (400): not a
// version number or RFC3339 instant, a version beyond the session's
// latest, or an as-of read against a history-disabled context. Distinct
// from version_evicted (410) — that version existed and is gone;
// this one never will resolve as asked.
type invalidAsOfError struct{ msg string }

func (e *invalidAsOfError) Error() string { return e.msg }

// MapError translates an engine or handler error into its HTTP status
// and structured body, the qerr → HTTP contract of the API:
//
//	qerr.ErrInconsistent   → 409 Conflict, violations attached
//	qerr.ErrBoundExceeded  → 422 Unprocessable, chase progress attached
//	qerr.ErrUnknownRelation→ 400 Bad Request, relation named
//	qerr.ErrUnsafeRule     → 400 Bad Request
//	qerr.ErrSourceUnavailable → 502 Bad Gateway, source named
//	qerr.ErrVersionEvicted → 410 Gone, version + oldest attached
//	bad ?as_of= parameter  → 400 Bad Request (code "invalid_as_of")
//	unknown context/session→ 404 Not Found
//	taken session id       → 409 Conflict (code "session_exists")
//	malformed payloads     → 400 Bad Request
//	oversized request body → 413 Payload Too Large
//	capacity limits        → 429 Too Many Requests
//	cancelled request ctx  → 499 (client closed request)
//	anything else          → 500 Internal Server Error
func MapError(err error) (int, ErrorBody) {
	we := WireError{Message: err.Error()}
	var status int
	var nf *notFoundError
	var br *badRequestError
	var ov *overloadedError
	var cf *conflictError
	var ao *invalidAsOfError
	var ie *qerr.InconsistentError
	var be *qerr.BoundExceededError
	var ur *qerr.UnknownRelationError
	var su *qerr.SourceUnavailableError
	var ve *qerr.VersionEvictedError
	var tl *http.MaxBytesError
	switch {
	case errors.As(err, &nf):
		status, we.Code = http.StatusNotFound, "not_found"
	case errors.As(err, &ao):
		status, we.Code = http.StatusBadRequest, "invalid_as_of"
	case errors.Is(err, qerr.ErrVersionEvicted):
		// 410 Gone: the version existed, but retention (in memory, and
		// for durable sessions on disk) has moved past it.
		status, we.Code = http.StatusGone, "version_evicted"
		if errors.As(err, &ve) {
			we.Version, we.Oldest = ve.Version, ve.Oldest
		}
	case errors.Is(err, mdqa.ErrHistoryDisabled):
		status, we.Code = http.StatusBadRequest, "invalid_as_of"
	case errors.As(err, &br):
		status, we.Code = http.StatusBadRequest, "bad_request"
	case errors.As(err, &tl):
		status, we.Code = http.StatusRequestEntityTooLarge, "payload_too_large"
	case errors.As(err, &ov):
		status, we.Code = http.StatusTooManyRequests, "overloaded"
	case errors.As(err, &cf):
		status, we.Code = http.StatusConflict, "session_exists"
	case errors.Is(err, qerr.ErrInconsistent):
		status, we.Code = http.StatusConflict, "inconsistent"
		if errors.As(err, &ie) {
			we.Violations = wireViolations(ie.Violations)
		}
	case errors.Is(err, qerr.ErrBoundExceeded):
		status, we.Code = http.StatusUnprocessableEntity, "bound_exceeded"
		if errors.As(err, &be) {
			we.Rounds, we.Atoms = be.Rounds, be.Atoms
		}
	case errors.Is(err, qerr.ErrUnknownRelation):
		status, we.Code = http.StatusBadRequest, "unknown_relation"
		if errors.As(err, &ur) {
			we.Relation = ur.Relation
		}
	case errors.Is(err, qerr.ErrUnsafeRule):
		status, we.Code = http.StatusBadRequest, "unsafe_rule"
	case errors.Is(err, qerr.ErrSourceUnavailable):
		// The engine is fine; the upstream the context federates is not.
		status, we.Code = http.StatusBadGateway, "source_unavailable"
		if errors.As(err, &su) {
			we.Source = su.Source
		}
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		status, we.Code = StatusClientClosedRequest, "client_closed_request"
	default:
		status, we.Code = http.StatusInternalServerError, "internal"
	}
	return status, ErrorBody{Error: we}
}
