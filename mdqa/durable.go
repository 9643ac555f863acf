package mdqa

import (
	"context"

	"repro/internal/datalog"
	"repro/internal/persist"
)

// SessionState is the durable state of one session: the saturated
// contextual instance, the raw applied facts backing the departure
// measures, and the portable chase counters. The mdserve persistence
// layer encodes it into snapshot files (package internal/persist) and
// feeds it back through Prepared.RestoreSession on recovery.
type SessionState = persist.SessionState

// Interner is the dense term-id table instances share; exposed so the
// persistence layer can decode snapshots against a prepared context's
// base (see Prepared.BaseInterner).
type Interner = datalog.Interner

// ExportState returns the session's durable state as frozen
// copy-on-write snapshots: cheap, safe against concurrent readers, and
// serialized with Apply. Restoring the state (in this process or after
// a restart) yields a session whose answers, assessments, violations
// and chase counters are identical to this one's at export time.
func (s *Session) ExportState() SessionState {
	return s.s.Export()
}

// RestoreSession rebuilds a session from exported (or decoded) durable
// state without re-running the cold saturation chase: the chased
// instance is adopted as-is, the incremental chase resumes from the
// recorded counters, and only the derived layer is recomputed. The
// state must come from a session of this same prepared context —
// decoded snapshots enforce that via interner prefix verification.
func (p *Prepared) RestoreSession(ctx context.Context, st SessionState) (*Session, error) {
	s, err := p.p.RestoreSession(ctx, st)
	if err != nil {
		return nil, err
	}
	return p.session(s), nil
}

// BaseInterner exposes the prepared context's compile-time interner
// for snapshot decoding (persist.ReadSnapshot): restored rows keep the
// exact ids the compiled plans were built over.
func (p *Prepared) BaseInterner() *Interner {
	return p.p.BaseInterner()
}
