package server

import (
	"context"
	"net/http"
	"time"

	"repro/mdqa"
)

// Source refresh: POST .../sessions/{id}/refresh re-polls the live
// sources bound to a session's context and folds tuple-level changes
// into the running assessment, and Server.RefreshLoop does the same on
// a timer for every resident session of a sourced context.

// handleRefresh serves POST /v1/contexts/{name}/sessions/{id}/refresh.
func (s *Server) handleRefresh(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	sess, err := s.lookup(r)
	if err != nil {
		s.fail(w, r.PathValue("name"), err)
		return
	}
	sess.touch()
	res, err := s.refreshSession(r.Context(), sess, true)
	if err != nil {
		s.fail(w, sess.lc.name, err)
		return
	}
	s.met.observe(sess.lc.name, "refresh", time.Since(start))
	s.enforceResident(sess)
	writeJSON(w, http.StatusOK, refreshResponse(sess, res))
}

// refreshSession runs one Session.Refresh under the session's writer
// lock and commits a change like an apply batch: an additions-only
// refresh logs its delta (replay is idempotent, and Session.Apply keeps
// source relations out of the measure base), a rebuild logs an empty
// marker and writes its forced snapshot before answering. With another
// snapshot in flight the rebuild's is skipped: a crash before the next
// one recovers pre-refresh state, and the next refresh re-fetches and
// reconverges. A failed rebuild snapshot drops the live state, like a
// failed commit (the failure rule). revive is residentLocked's: the
// background loop must not defeat MaxResident.
func (s *Server) refreshSession(ctx context.Context, sess *session, revive bool) (*mdqa.RefreshResult, error) {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	ms, err := s.residentLocked(ctx, sess, revive)
	if err != nil {
		return nil, err
	}
	res, err := ms.Refresh(ctx)
	if err != nil {
		s.met.with(sess.lc.name, func(cm *contextMetrics) { cm.refreshErrors++ })
		return nil, s.stepFailed(sess, err)
	}
	s.met.with(sess.lc.name, func(cm *contextMetrics) {
		cm.refreshesTotal++
		if res.Rebuilt {
			cm.refreshRebuilds++
		}
	})
	if !res.Changed {
		return res, nil
	}
	delta := sess.newRounds()
	s.met.with(sess.lc.name, func(cm *contextMetrics) { cm.chaseRounds += int64(delta) })
	job, err := s.commit(sess, res.Delta, res.Rebuilt)
	if err != nil {
		return nil, err
	}
	if job == nil {
		return res, nil
	}
	// Written under sess.mu: refresh is rare, and the export is
	// copy-on-write.
	err = s.writeSnapshot(sess, job)
	sess.snapshotting = false
	if err != nil && res.Rebuilt {
		return nil, s.drop(sess, err)
	}
	return res, nil
}

// refreshResponse renders a refresh outcome on the wire.
func refreshResponse(sess *session, res *mdqa.RefreshResult) RefreshResponse {
	out := RefreshResponse{
		ID:      sess.id,
		Context: sess.lc.name,
		Changed: res.Changed,
		Rebuilt: res.Rebuilt,
		Sources: []RefreshSourceInfo{},
	}
	for _, sr := range res.Sources {
		out.Sources = append(out.Sources, RefreshSourceInfo{
			Name:       sr.Name,
			Relation:   sr.Relation,
			OldVersion: sr.OldVersion,
			Version:    sr.Version,
			Added:      sr.Added,
			Removed:    sr.Removed,
		})
	}
	if res.Apply != nil {
		out.Inserted = res.Apply.Inserted
		out.ChaseRows = res.Apply.ChaseRows
		out.Derived = res.Apply.Derived
	}
	return out
}

// sourced reports whether a context has live source bindings.
func (lc *loadedContext) sourced() bool { return len(lc.qc.SourceNames()) > 0 }

// RefreshLoop re-polls the sources of every resident session of every
// sourced context once per interval, until ctx is cancelled. Evicted
// sessions are skipped (they re-resolve their sources when revived);
// fetch failures are counted and the session left as it was. Run it in
// its own goroutine next to the HTTP server.
func (s *Server) RefreshLoop(ctx context.Context, every time.Duration) {
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			s.refreshAll(ctx)
		}
	}
}

// refreshAll runs one background poll round.
func (s *Server) refreshAll(ctx context.Context) {
	s.mu.Lock()
	var targets []*session
	for _, sess := range s.sessions {
		if sess.lc.sourced() && sess.isResident.Load() {
			targets = append(targets, sess)
		}
	}
	s.mu.Unlock()
	for _, sess := range targets {
		start := time.Now()
		if _, err := s.refreshSession(ctx, sess, false); err != nil {
			continue // counted inside refreshSession; session unchanged
		}
		s.met.observe(sess.lc.name, "refresh", time.Since(start))
	}
}
