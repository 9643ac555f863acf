package quality

import (
	"context"

	"repro/internal/datalog"
	"repro/internal/engine"
	"repro/internal/source"
	"repro/internal/storage"
)

// SourceRefresh reports what one binding contributed to a Refresh.
type SourceRefresh struct {
	Name       string
	Relation   string
	OldVersion string // "" on a session that had never resolved it
	Version    string
	Added      int // tuples new in this snapshot
	Removed    int // tuples gone from this snapshot
}

// RefreshResult reports what Session.Refresh did.
type RefreshResult struct {
	// Sources lists every binding in declaration order, changed or not.
	Sources []SourceRefresh
	// Changed reports whether any source delivered a tuple-level
	// change.
	Changed bool
	// Rebuilt reports whether a source removed tuples, forcing the
	// engine session to be rebuilt from scratch instead of extended
	// incrementally (the chase is monotone — retracting a fact can
	// invalidate arbitrary derivations, so removal falls back to a full
	// re-chase over the retained applied state).
	Rebuilt bool
	// Apply is the incremental chase outcome when the refresh was
	// additions-only (nil when nothing changed or a rebuild ran).
	Apply *engine.ApplyResult
	// Delta is the batch of added atoms fed through the incremental
	// chase — what a durable serving layer appends to its WAL. Nil on a
	// rebuild (the rebuilt state is only capturable as a snapshot).
	Delta []datalog.Atom
}

// Refresh re-polls every bound source (bypassing the TTL — Refresh
// means "now") and folds the changes in:
//
//   - a source whose version is unchanged contributes nothing;
//   - additions-only changes stream through the engine's incremental
//     chase exactly like Session.Apply deltas;
//   - any removal rebuilds the engine session from the retained
//     applied state plus the new source snapshots (see
//     RefreshResult.Rebuilt).
//
// Refresh is atomic with respect to readers: it holds the session lock
// for the whole step, and a fetch failure (qerr.ErrSourceUnavailable,
// unless the binding allows stale serving) leaves the session exactly
// as it was. A session opened from a context with no sources returns
// an empty result.
func (s *Session) Refresh(ctx context.Context) (*RefreshResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	res := &RefreshResult{}
	if len(s.prep.bindings) == 0 {
		return res, nil
	}
	// Resolve every source before touching any session state, so a
	// failure partway leaves the session untouched.
	next := make(map[string]*source.Snapshot, len(s.prep.bindings))
	var added []datalog.Atom
	removal := false
	for _, b := range s.prep.bindings {
		snap, err := s.prep.resolver.Refresh(ctx, b.Name)
		if err != nil {
			return nil, err
		}
		sr := SourceRefresh{Name: b.Name, Relation: b.Src.Schema().Relation, Version: snap.Version}
		old := s.src[b.Name]
		if old != nil {
			sr.OldVersion = old.Version
		}
		if old != nil && old.Version == snap.Version {
			next[b.Name] = old
			res.Sources = append(res.Sources, sr)
			continue
		}
		oldInst := storage.NewInstance()
		if old != nil {
			oldInst = old.Inst
		}
		add := snap.Inst.Diff(oldInst)
		rem := oldInst.Diff(snap.Inst)
		sr.Added, sr.Removed = len(add), len(rem)
		if len(rem) > 0 {
			removal = true
		}
		added = append(added, add...)
		next[b.Name] = snap
		res.Sources = append(res.Sources, sr)
	}
	switch {
	case removal:
		if err := s.rebuildLocked(ctx, next); err != nil {
			return nil, err
		}
		res.Changed, res.Rebuilt = true, true
	case len(added) > 0:
		ar, err := s.eng.Apply(ctx, added)
		if err != nil {
			return nil, err
		}
		// The source tuples deliberately stay out of s.orig: they are
		// context, not the instance under assessment, so the departure
		// measures — and a later rebuild's seed — must not absorb them.
		res.Changed, res.Apply, res.Delta = true, ar, added
	}
	s.src = next
	if res.Changed {
		// A changed refresh is a version like any applied batch. The
		// durable serving layer keeps the WAL aligned: it appends
		// res.Delta for the incremental case and an empty marker batch
		// for a rebuild, so version seq == WAL seq either way.
		batch := 0
		if res.Apply != nil {
			batch = res.Apply.Inserted
		}
		s.recordVersionLocked(batch)
	}
	return res, nil
}

// rebuildLocked replaces the engine session with a fresh one seeded
// from the retained applied state (orig) plus the new source
// snapshots — the removal fallback. The retired session's chase rounds
// roll into priorRounds so ChaseRounds stays monotonic.
func (s *Session) rebuildLocked(ctx context.Context, snaps map[string]*source.Snapshot) error {
	eng, err := s.prep.openEngine(ctx, s.orig, snaps)
	if err != nil {
		return err
	}
	s.priorRounds += s.eng.ChaseResult().Rounds
	s.eng = eng
	return nil
}
