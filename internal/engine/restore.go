package engine

import (
	"context"
	"fmt"

	"repro/internal/chase"
	"repro/internal/storage"
)

// Export returns the session's durable state: a frozen copy-on-write
// snapshot of the chased instance plus the portable chase counters
// (chase.Restored). The derived quality layer is intentionally not
// exported — it is a deterministic function of the chased instance and
// is rebuilt on restore. Export is cheap (O(relations + interned
// terms)) and safe to call concurrently with readers; it serializes
// with Apply on the session lock.
func (s *Session) Export() (*storage.Instance, chase.Restored) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.chase.Instance().Snapshot(), s.chase.Export()
}

// RestoreSession rebuilds a session from a previously exported (or
// decoded) chased instance and chase counters, skipping the cold
// saturation chase entirely: the instance is taken as already chased,
// the incremental chase resumes from the recorded counters, and only
// the derived layer is recomputed. chased must carry an interner
// descending from this Prepared's base (persist materializes decoded
// snapshots that way); a frozen instance is cloned first, so exports
// can be restored in-process without copying by hand.
func (p *Prepared) RestoreSession(ctx context.Context, chased *storage.Instance, r chase.Restored) (*Session, error) {
	inst := chased
	if inst.Frozen() {
		inst = inst.Clone()
	}
	cs, err := p.cp.RestoreState(inst, p.opts, r)
	if err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	return p.open(ctx, cs)
}
