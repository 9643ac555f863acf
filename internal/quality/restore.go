package quality

import (
	"context"
	"fmt"

	"repro/internal/datalog"
	"repro/internal/history"
	"repro/internal/persist"
	"repro/internal/source"
	"repro/internal/storage"
)

// Export returns the session's durable state — the chased contextual
// instance, the raw applied facts backing the departure measures, and
// the chase counters — as frozen copy-on-write snapshots. It is the
// quality-level counterpart of engine.Session.Export, and what the
// persistence layer encodes into a snapshot file. Export serializes
// with Apply on the session lock and is cheap: O(relations + interned
// terms), independent of tuple count.
func (s *Session) Export() persist.SessionState {
	s.mu.Lock()
	defer s.mu.Unlock()
	chased, r := s.eng.Export()
	st := persist.SessionState{
		Chased: chased,
		Orig:   s.orig.Snapshot(),
		Chase:  r,
	}
	if s.hist != nil {
		// The version metadata rides along in the snapshot header
		// (metadata only, no instances), so a restored session keeps its
		// trajectory, wall times and attribution records, and resumes
		// at the version the state was exported at.
		st.History = s.hist.Versions()
		if last, ok := s.hist.Last(); ok {
			st.Seq = last.Seq
		}
	}
	if len(s.src) > 0 {
		// The last-applied source tuples ride along (one instance,
		// bindings merged in declaration order — relations are unique
		// per binding, so restore splits them back apart), with each
		// binding's version token so the first post-restore Refresh
		// revalidates instead of re-fetching blindly.
		srcInst := storage.NewInstance()
		versions := make(map[string]string, len(s.src))
		for _, b := range s.prep.bindings {
			snap := s.src[b.Name]
			if snap == nil {
				continue
			}
			if err := storage.Merge(srcInst, snap.Inst); err != nil {
				// Bindings were validated to feed distinct relations, so
				// a merge conflict is impossible; losing durable source
				// state would still be preferable to failing the export.
				continue
			}
			versions[b.Name] = snap.Version
		}
		st.Sources = srcInst.Snapshot()
		st.SourceVersions = versions
	}
	return st
}

// RestoreSession rebuilds a session from exported (or decoded) durable
// state, skipping the cold saturation chase: the chased instance is
// adopted as-is, the incremental chase resumes from the recorded
// counters, and the derived layer is recomputed (see
// engine.Prepared.RestoreSession). Frozen instances are cloned; a nil
// Orig yields an empty measure base, matching NewSession(ctx, nil).
func (p *Prepared) RestoreSession(ctx context.Context, st persist.SessionState) (*Session, error) {
	if st.Chased == nil {
		return nil, fmt.Errorf("quality: restore needs a chased instance")
	}
	eng, err := p.eng.RestoreSession(ctx, st.Chased, st.Chase)
	if err != nil {
		return nil, err
	}
	orig := st.Orig
	switch {
	case orig == nil:
		orig = storage.NewInstance()
	case orig.Frozen():
		orig = orig.Clone()
	}
	s := &Session{prep: p, eng: eng, orig: orig}
	if p.histDepth >= 0 {
		// Re-seed the version ring at the snapshot's sequence: decoded
		// metadata restores the trajectory up to st.Seq, the restored
		// state becomes the one retained snapshot, and the serving
		// layer's WAL-tail replay re-records every later version.
		s.hist = history.New(p.histDepth, p.histBytes)
		inst, viols := eng.State()
		e := &history.Entry{
			Version: history.Version{
				Seq:        st.Seq,
				WALSeq:     st.Seq,
				Violations: len(viols),
				Rows:       inst.TotalTuples(),
				Scores:     s.scoresLocked(inst),
			},
			Inst: inst,
			Viol: viols,
		}
		s.hist.Seed(st.History, e)
	}
	if len(p.bindings) > 0 {
		s.src = make(map[string]*source.Snapshot, len(p.bindings))
		for _, b := range p.bindings {
			snap, err := restoredSnapshot(st, b)
			if err != nil {
				return nil, err
			}
			if snap != nil {
				s.src[b.Name] = snap
			}
		}
	}
	return s, nil
}

// restoredSnapshot rebuilds one binding's last-applied snapshot from
// the decoded durable state, or nil when the snapshot predates the
// binding (its first Refresh then fetches cold and applies everything
// as additions — set semantics make that idempotent).
func restoredSnapshot(st persist.SessionState, b source.Binding) (*source.Snapshot, error) {
	if st.Sources == nil {
		return nil, nil
	}
	relName := b.Src.Schema().Relation
	rel := st.Sources.Relation(relName)
	if rel == nil {
		return nil, nil
	}
	inst := storage.NewInstance()
	if err := inst.CopyRelation(rel); err != nil {
		return nil, err
	}
	return &source.Snapshot{Inst: inst, Version: st.SourceVersions[b.Name]}, nil
}

// BaseInterner exposes the prepared context's compile-time interner,
// which the persistence layer decodes snapshots against (see
// persist.ReadSnapshot): restored rows must keep the exact ids the
// compiled chase and eval plans were built over.
func (p *Prepared) BaseInterner() *datalog.Interner {
	return p.eng.Base().Interner()
}
