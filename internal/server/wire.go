package server

import (
	"fmt"
	"sort"

	"repro/internal/qerr"
	"repro/mdqa"
)

// The JSON wire vocabulary of the mdserve API. Responses are plain
// structs (field order fixed) over maps (encoding/json sorts map
// keys), so every body is byte-deterministic for a given state — the
// property the golden e2e tests pin.

// WireAtom is one ground fact on the wire. Every argument is a
// constant; labeled nulls never travel client → server.
type WireAtom struct {
	Pred string   `json:"pred"`
	Args []string `json:"args"`
}

// Atom converts the wire form to an engine atom.
func (a WireAtom) Atom() mdqa.Atom {
	args := make([]mdqa.Term, len(a.Args))
	for i, s := range a.Args {
		args[i] = mdqa.Const(s)
	}
	return mdqa.NewAtom(a.Pred, args...)
}

// WireInstance is a relational instance on the wire: relation name to
// tuple list, every term a constant.
type WireInstance map[string][][]string

// checkFact rejects a wire fact the context cannot use: an empty
// predicate name, or an argument count other than the predicate's
// arity in declared. Predicates the context does not mention pass.
func checkFact(declared map[string]int, pred string, args int) error {
	if pred == "" {
		return &badRequestError{msg: "fact with an empty predicate name"}
	}
	if want, ok := declared[pred]; ok && want >= 0 && want != args {
		return &badRequestError{msg: fmt.Sprintf("%s has %d arguments, the context uses it with %d", pred, args, want)}
	}
	return nil
}

// Instance materializes the wire instance. Relations are created on
// first insert (arity fixed by the first tuple); a later arity
// mismatch is a client error.
func (wi WireInstance) Instance() (*mdqa.Instance, error) {
	if len(wi) == 0 {
		return nil, nil
	}
	inst := mdqa.NewInstance()
	names := make([]string, 0, len(wi))
	for name := range wi {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		for _, tup := range wi[name] {
			if _, err := inst.InsertAtom(WireAtom{Pred: name, Args: tup}.Atom()); err != nil {
				return nil, &badRequestError{msg: fmt.Sprintf("instance relation %s: %v", name, err)}
			}
		}
	}
	return inst, nil
}

// WireRelation is one materialized relation: attribute names plus
// tuples in sorted order.
type WireRelation struct {
	Attrs  []string   `json:"attrs"`
	Tuples [][]string `json:"tuples"`
}

// WireMeasure is the departure measure of one relation.
type WireMeasure struct {
	Original      int     `json:"original"`
	Quality       int     `json:"quality"`
	Intersection  int     `json:"intersection"`
	CleanFraction float64 `json:"clean_fraction"`
	Distance      float64 `json:"distance"`
}

// wireMeasure renders a departure measure.
func wireMeasure(m mdqa.Measure) WireMeasure {
	return WireMeasure{m.Original, m.Quality, m.Intersection, m.CleanFraction(), m.Distance()}
}

// WireViolation is one constraint violation.
type WireViolation struct {
	Kind   string `json:"kind"`
	ID     string `json:"id"`
	Detail string `json:"detail"`
}

func wireViolations(vs []qerr.Violation) []WireViolation {
	out := make([]WireViolation, len(vs))
	for i, v := range vs {
		out[i] = WireViolation{Kind: v.Kind.String(), ID: v.ID, Detail: v.Detail}
	}
	return out
}

// AssessRequest is the body of POST .../assess. A missing or empty
// instance falls back to the context's declared input instance (the
// .mdq input relations), so `curl -X POST` with no body assesses the
// built-in data.
type AssessRequest struct {
	Instance WireInstance `json:"instance,omitempty"`
}

// SessionCreateRequest is the body of POST .../sessions: the optional
// instance under assessment (same fallback as AssessRequest) plus an
// optional client-chosen session id. Client-chosen ids exist for
// routing layers — mdrouter places a session on the backend that owns
// hash(context/id), and only a caller-supplied id makes that placement
// reproducible across router restarts. An empty id keeps the server's
// own "s1", "s2", ... numbering.
type SessionCreateRequest struct {
	ID       string       `json:"id,omitempty"`
	Instance WireInstance `json:"instance,omitempty"`
}

// AssessResponse is the materialized Figure 2 assessment outcome.
// Version is set only on ?as_of= requests — it names the session
// version the assessment describes (latest-state responses keep their
// pre-time-travel shape).
type AssessResponse struct {
	Context    string                  `json:"context"`
	Consistent bool                    `json:"consistent"`
	Violations []WireViolation         `json:"violations,omitempty"`
	Versions   map[string]WireRelation `json:"versions"`
	Measures   map[string]WireMeasure  `json:"measures"`
	Version    *uint64                 `json:"version,omitempty"`
}

// SessionResponse acknowledges a created or closed session.
type SessionResponse struct {
	ID      string `json:"id"`
	Context string `json:"context"`
	Closed  bool   `json:"closed,omitempty"`
}

// SessionInfo describes one live session.
type SessionInfo struct {
	ID          string `json:"id"`
	Context     string `json:"context"`
	Applies     int64  `json:"applies"`
	ChaseRounds int    `json:"chase_rounds"`
}

// SessionList is the body of GET .../sessions.
type SessionList struct {
	Sessions []SessionInfo `json:"sessions"`
}

// ApplyRequest is one NDJSON line of a POST .../apply stream: a batch
// of ground facts applied atomically (readers see all of it or none).
type ApplyRequest struct {
	Atoms []WireAtom `json:"atoms"`
}

// ApplyResponse is the NDJSON line answering one ApplyRequest batch.
type ApplyResponse struct {
	Inserted   int  `json:"inserted"`
	ChaseRows  int  `json:"chase_rows"`
	Derived    int  `json:"derived"`
	Fired      int  `json:"fired"`
	Merged     int  `json:"merged"`
	Rebuilt    bool `json:"rebuilt"`
	Violations int  `json:"violations"`
}

// RefreshSourceInfo reports what one source binding contributed to a
// refresh: version-token movement and tuple-level change counts.
type RefreshSourceInfo struct {
	Name       string `json:"name"`
	Relation   string `json:"relation"`
	OldVersion string `json:"old_version,omitempty"`
	Version    string `json:"version"`
	Added      int    `json:"added"`
	Removed    int    `json:"removed"`
}

// RefreshResponse is the body of POST .../sessions/{id}/refresh: what
// each bound source contributed, whether anything changed, and whether
// a removal forced a rebuild instead of an incremental apply (the
// incremental chase counters are set only on the incremental path).
type RefreshResponse struct {
	ID        string              `json:"id"`
	Context   string              `json:"context"`
	Changed   bool                `json:"changed"`
	Rebuilt   bool                `json:"rebuilt"`
	Sources   []RefreshSourceInfo `json:"sources"`
	Inserted  int                 `json:"inserted,omitempty"`
	ChaseRows int                 `json:"chase_rows,omitempty"`
	Derived   int                 `json:"derived,omitempty"`
}

// ExplainResponse is the body of GET .../answers?explain=1: the
// compiled join plan the query would execute (atom order, candidate
// estimates, probed index positions), instead of its rows.
type ExplainResponse struct {
	Query string `json:"query"`
	Mode  string `json:"mode"`
	Plan  string `json:"plan"`
}

// AnswerLine is the decode-side union of the three NDJSON line shapes
// a GET .../answers stream carries: answer tuples (the "answer" field
// is always present, `{"answer":[]}` for a zero-arity/boolean query's
// empty-tuple answer), the terminal count line, or a mid-stream
// error. The server encodes each shape with only its own field set.
type AnswerLine struct {
	Answer []string   `json:"answer,omitempty"`
	Count  *int       `json:"count,omitempty"`
	Error  *WireError `json:"error,omitempty"`
}

// answerTuple is the encode-side shape of one answer line: the field
// is always serialized, so a zero-arity answer is distinguishable
// from a count or error line.
type answerTuple struct {
	Answer []string `json:"answer"`
}

// WireVersion is one session version's metadata on the wire: when the
// batch landed, what it changed, and whether an as-of read of it is
// still served from memory (retained) or needs disk reconstruction.
type WireVersion struct {
	Seq        uint64          `json:"seq"`
	WALSeq     uint64          `json:"wal_seq,omitempty"`
	Time       string          `json:"time"`
	Batch      int             `json:"batch,omitempty"`
	Violations int             `json:"violations,omitempty"`
	Introduced []WireViolation `json:"introduced,omitempty"`
	Rows       int             `json:"rows,omitempty"`
	Retained   bool            `json:"retained"`
}

// VersionsResponse is the body of GET .../sessions/{id}/versions: the
// session's full version timeline, ascending.
type VersionsResponse struct {
	ID             string        `json:"id"`
	Context        string        `json:"context"`
	Latest         uint64        `json:"latest"`
	OldestRetained uint64        `json:"oldest_retained"`
	Versions       []WireVersion `json:"versions"`
}

// TrajectoryPoint is one relation's quality measure at one version.
type TrajectoryPoint struct {
	Version uint64 `json:"version"`
	Time    string `json:"time"`
	WireMeasure
}

// TrajectoryResponse is the body of GET .../trajectory?rel=: the
// score-per-version series of one versioned relation, ascending by
// version and truncated by ?as_of= when given.
type TrajectoryResponse struct {
	ID       string            `json:"id"`
	Context  string            `json:"context"`
	Relation string            `json:"relation"`
	Points   []TrajectoryPoint `json:"points"`
}

// HealthResponse is the body of GET /healthz.
type HealthResponse struct {
	Status   string   `json:"status"`
	Contexts []string `json:"contexts"`
	Sessions int      `json:"sessions"`
}

// ContextInfo describes one loaded context.
type ContextInfo struct {
	Name       string   `json:"name"`
	Versioned  []string `json:"versioned"`
	Queries    []string `json:"queries,omitempty"`
	BaseTuples int      `json:"base_tuples"`
}

// ContextList is the body of GET /v1/contexts.
type ContextList struct {
	Contexts []ContextInfo `json:"contexts"`
}

// termString renders a term for the wire: constants as their bare
// name (JSON supplies the quoting), labeled nulls with the ⊥ marker so
// clients can distinguish them from constants.
func termString(t mdqa.Term) string {
	if t.IsNull() {
		return "⊥" + t.Name
	}
	return t.Name
}

func termStrings(tup []mdqa.Term) []string {
	out := make([]string, len(tup))
	for i, t := range tup {
		out[i] = termString(t)
	}
	return out
}
