package server

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/persist"
	"repro/internal/wal"
	"repro/mdqa"
)

// openStore opens the durable store under Config.DataDir and recovers
// every persisted session: newest valid snapshot, WAL tail replay,
// registered under its original id. A data dir holding sessions for a
// context this server was not started with is an operator error
// (wrong -data-dir or missing -context) and fails startup loudly —
// silently ignoring durable sessions would be data loss.
func (s *Server) openStore(ctx context.Context) error {
	store, err := persist.OpenStore(s.cfg.DataDir, persist.Options{
		WAL: wal.Options{
			Mode:     s.cfg.Fsync,
			Interval: s.cfg.FsyncInterval,
			OnSync:   s.met.fsynced,
		},
		SnapshotEvery: s.cfg.SnapshotEvery,
		// Keep enough on-disk replay bases that the last depth versions
		// stay reconstructable — as-of reads behind the in-memory ring
		// fall through to persist.ReadSessionAt.
		RetainHistory: s.historyRetain(),
	})
	if err != nil {
		return err
	}
	s.store = store
	start := time.Now()
	ctxNames, err := store.ContextDirs()
	if err != nil {
		return err
	}
	for _, cname := range ctxNames {
		lc, ok := s.contexts[cname]
		if !ok {
			return fmt.Errorf("server: data dir %s holds sessions for unknown context %q (wrong -data-dir, or start the server with that context)", s.cfg.DataDir, cname)
		}
		sids, err := store.SessionDirs(cname)
		if err != nil {
			return err
		}
		for _, sid := range sids {
			if err := s.recoverSession(ctx, lc, sid); err != nil {
				return err
			}
		}
	}
	s.met.setRecovery(time.Since(start))
	return nil
}

// historyRetain resolves Config.HistoryDepth to the durable store's
// snapshot-retention window: 0 means the facade default.
func (s *Server) historyRetain() int {
	if s.cfg.HistoryDepth == 0 {
		return mdqa.DefaultHistoryDepth
	}
	return s.cfg.HistoryDepth
}

// wholeLog is the upper sequence under which loadSession reads a
// session's whole log and reopens it for appends.
const wholeLog = ^uint64(0)

// loadSession is the one loader of a session from disk, behind startup
// recovery, revival and as-of reconstruction: it restores the newest
// snapshot covering seq <= upTo and replays the WAL batches beyond it,
// up to upTo, through Apply. Under wholeLog it reads the whole log and
// returns it reopened for appends; under a version it is read-only,
// leaves the live session and its log untouched, and returns a nil
// log. It also returns the session's apply count at that point: the
// snapshot's plus the batches replayed.
func (s *Server) loadSession(ctx context.Context, lc *loadedContext, sid string, upTo uint64) (*persist.SessionLog, *mdqa.Session, int64, error) {
	var batches []wal.Batch
	collect := func(b wal.Batch) error {
		batches = append(batches, b)
		return nil
	}
	var (
		log  *persist.SessionLog
		meta persist.Meta
		st   persist.SessionState
		err  error
	)
	if upTo == wholeLog {
		log, meta, st, err = s.store.OpenSession(lc.name, sid, lc.prep.BaseInterner(), collect)
	} else {
		meta, st, err = s.store.ReadSessionAt(lc.name, sid, upTo, lc.prep.BaseInterner(), collect)
	}
	if err != nil {
		return nil, nil, 0, err
	}
	ms, err := lc.prep.RestoreSession(ctx, st)
	for i := 0; err == nil && i < len(batches); i++ {
		if _, err = ms.Apply(ctx, batches[i].Atoms); err != nil {
			err = fmt.Errorf("replay batch seq %d: %w", batches[i].Seq, err)
		}
	}
	if err != nil {
		if log != nil {
			log.Close()
		}
		return nil, nil, 0, err
	}
	return log, ms, int64(meta.Applies) + int64(len(batches)), nil
}

// recoverSession restores one persisted session at startup and files
// it in the registry under its original id.
func (s *Server) recoverSession(ctx context.Context, lc *loadedContext, sid string) error {
	var n uint64
	_, _ = fmt.Sscanf(sid, "s%d", &n) // n stays 0 unless sid is auto-numbered
	sess := newSession(sid, n, lc)
	if err := s.revive(ctx, sess); err != nil {
		return fmt.Errorf("server: recover session %s/%s: %w", lc.name, sid, err)
	}
	sess.touch()
	s.mu.Lock()
	s.sessions[sid] = sess
	if n > s.nextID {
		s.nextID = n
	}
	s.mu.Unlock()
	s.met.with(lc.name, func(cm *contextMetrics) {
		cm.sessionsRecovered++
		cm.sessionsOpen++
	})
	s.enforceResident(sess)
	return nil
}

// revive installs a session's whole log (loadSession) as its live
// state, behind startup recovery and revival after eviction or a
// failed commit. Called under sess.mu or before registration.
func (s *Server) revive(ctx context.Context, sess *session) error {
	log, ms, applies, err := s.loadSession(ctx, sess.lc, sess.id, wholeLog)
	if err != nil {
		return err
	}
	sess.s, sess.log, sess.applies = ms, log, applies
	sess.lastRounds = ms.ChaseRounds()
	sess.isResident.Store(true)
	s.mu.Lock()
	s.residentCount++
	s.mu.Unlock()
	return nil
}

// resident resolves a session's live engine state, reviving it from
// disk when it was evicted, and refreshes the LRU clock.
func (s *Server) resident(ctx context.Context, sess *session) (*mdqa.Session, error) {
	sess.touch()
	sess.mu.Lock()
	ms, err := s.residentLocked(ctx, sess, true)
	sess.mu.Unlock()
	if err != nil {
		return nil, err
	}
	s.enforceResident(sess)
	return ms, nil
}

// residentLocked is resident's core, for callers already holding
// sess.mu (the apply and refresh paths, which keep the lock through
// the commit). Without revive, a session whose state is on disk is
// not found: the background refresh loop must not defeat MaxResident.
func (s *Server) residentLocked(ctx context.Context, sess *session, revive bool) (*mdqa.Session, error) {
	// A snapshot of a dropped log may still be compacting its
	// directory: revive once it has landed.
	for revive && sess.s == nil && sess.snapshotting && !sess.closed {
		sess.idle.Wait()
	}
	if sess.closed || (sess.s == nil && !revive) {
		return nil, &notFoundError{kind: "session", name: sess.id}
	}
	if sess.s != nil {
		return sess.s, nil
	}
	if err := s.revive(ctx, sess); err != nil {
		return nil, fmt.Errorf("server: revive session %s: %w", sess.id, err)
	}
	s.met.with(sess.lc.name, func(cm *contextMetrics) { cm.sessionsRevived++ })
	return sess.s, nil
}

// enforceResident evicts least-recently-used sessions to disk until
// the resident count is within Config.MaxResident, never evicting
// keep (the session the current request just touched). Called only
// while holding no session lock — evicting takes the victim's.
func (s *Server) enforceResident(keep *session) {
	if s.store == nil || s.cfg.MaxResident <= 0 {
		return
	}
	skip := map[*session]bool{}
	for {
		s.mu.Lock()
		if s.residentCount <= s.cfg.MaxResident {
			s.mu.Unlock()
			return
		}
		var victim *session
		for _, cand := range s.sessions {
			if cand == keep || skip[cand] || !cand.isResident.Load() {
				continue
			}
			if victim == nil || cand.lastTouch.Load() < victim.lastTouch.Load() {
				victim = cand
			}
		}
		s.mu.Unlock()
		if victim == nil {
			return
		}
		if !s.evict(victim) {
			skip[victim] = true
		}
	}
}

// evict snapshots a session's state covering its full WAL and releases
// it. It declines (returning false) when the session is busy in a way
// that makes eviction unsafe or pointless: closed, already evicted, or
// mid-snapshot.
func (s *Server) evict(victim *session) bool {
	victim.mu.Lock()
	defer victim.mu.Unlock()
	if victim.closed || victim.s == nil || victim.log == nil || victim.snapshotting {
		return false
	}
	if err := s.writeSnapshot(victim, victim.capture(victim.log.Seq())); err != nil {
		return false
	}
	_ = s.release(victim, false)
	s.met.with(victim.lc.name, func(cm *contextMetrics) { cm.sessionsEvicted++ })
	return true
}

// commit counts and logs one change the live session took, under
// sess.mu: an apply batch, a refresh delta, or the empty marker of a
// refresh rebuild (rebuild set; removals have no WAL form, and the
// marker keeps the WAL sequence equal to the version number). Every
// change counts, so the live apply count is the one loadSession
// rebuilds from the log. It appends the change, then rotates the
// segment and captures a snapshot job when compaction is due, or for a
// rebuild, which only a snapshot carries — unless a snapshot is
// already in flight. A failed append or rotation drops the live state
// (the failure rule; see the package comment). Ephemeral sessions have
// nothing to log.
func (s *Server) commit(sess *session, change []mdqa.Atom, rebuild bool) (*snapJob, error) {
	sess.applies++
	if sess.log == nil {
		return nil, nil
	}
	t0 := time.Now()
	if _, err := sess.log.Append(change); err != nil {
		return nil, s.drop(sess, fmt.Errorf("server: wal append: %w", err))
	}
	walDur := time.Since(t0)
	s.met.with(sess.lc.name, func(cm *contextMetrics) { cm.walAppends++ })
	s.met.observe(sess.lc.name, "wal_append", walDur)
	if sess.snapshotting || !(rebuild || sess.log.NeedSnapshot()) {
		return nil, nil
	}
	covered, err := sess.log.Rotate()
	if err != nil {
		return nil, s.drop(sess, fmt.Errorf("server: rotate wal: %w", err))
	}
	sess.snapshotting = true
	return sess.capture(covered), nil
}

// stepFailed applies the failure rule to an engine step's error: a
// step stopped at a chase bound may have left part of its change in
// the live state, so a durable session drops it. Other errors leave
// the session as it was.
func (s *Server) stepFailed(sess *session, err error) error {
	if sess.log != nil && errors.Is(err, mdqa.ErrBoundExceeded) {
		return s.drop(sess, err)
	}
	return err
}

// drop is the failure rule's action: it releases a durable session's
// live state, which may differ from its log, and returns err; the next
// request revives what the disk holds. Called under sess.mu.
func (s *Server) drop(sess *session, err error) error {
	_ = s.release(sess, false)
	return err
}

// release is the one step that drops a session's live state, behind
// eviction and the failure rule (the session revives on its next
// request) and shutdown and DELETE (closed: it never does). It closes
// the log and returns the close error. Called under sess.mu.
func (s *Server) release(sess *session, closed bool) error {
	var err error
	if sess.log != nil {
		err = sess.log.Close()
		sess.log = nil
	}
	sess.closed = sess.closed || closed
	if sess.s != nil {
		sess.s = nil
		sess.isResident.Store(false)
		s.mu.Lock()
		s.residentCount--
		s.mu.Unlock()
	}
	return err
}

// snapJob is one snapshot to write: a frozen copy-on-write export, the
// sequence and apply count it covers, and the log it lands in.
type snapJob struct {
	log     *persist.SessionLog
	seq     uint64
	applies int64
	state   persist.SessionState
}

// capture freezes the live state into a job covering seq (under mu).
func (sess *session) capture(seq uint64) *snapJob {
	return &snapJob{log: sess.log, seq: seq, applies: sess.applies, state: sess.s.ExportState()}
}

// writeSnapshot is the one snapshot writer, behind compaction, refresh
// rebuilds, eviction and shutdown. It reads no mutable session field,
// so compaction calls it without sess.mu.
func (s *Server) writeSnapshot(sess *session, job *snapJob) error {
	err := job.log.WriteSnapshot(sess.meta(job.seq, job.applies), job.state)
	s.met.with(sess.lc.name, func(cm *contextMetrics) {
		if err != nil {
			cm.errorsTotal++
		} else {
			cm.snapshotsWritten++
		}
	})
	return err
}

// compact writes the compaction job an apply captured, outside sess.mu,
// so appends keep flowing into the fresh segment. A DELETE racing the
// write could see the snapshot land inside the directory its RemoveAll
// is walking, so a session observed closed afterwards has its
// directory removed again.
func (s *Server) compact(sess *session, job *snapJob) {
	if job == nil {
		return
	}
	sess.mu.Lock()
	skip := sess.closed
	sess.mu.Unlock()
	if !skip {
		_ = s.writeSnapshot(sess, job)
	}
	sess.mu.Lock()
	sess.snapshotting = false
	sess.idle.Broadcast()
	closed := sess.closed
	sess.mu.Unlock()
	if closed {
		_ = s.store.RemoveSession(sess.lc.name, sess.id)
	}
}

// Close seals every durable session for clean shutdown: a final
// snapshot covering each resident session's full WAL, then release.
// The server must no longer be accepting requests. Ephemeral servers
// close to a no-op.
func (s *Server) Close() error {
	if s.store == nil {
		return nil
	}
	s.mu.Lock()
	all := make([]*session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		all = append(all, sess)
	}
	s.mu.Unlock()
	var firstErr error
	for _, sess := range all {
		sess.mu.Lock()
		var err error
		if sess.log != nil && sess.s != nil {
			err = s.writeSnapshot(sess, sess.capture(sess.log.Seq()))
		}
		if cerr := s.release(sess, true); err == nil {
			err = cerr
		}
		sess.mu.Unlock()
		if firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
