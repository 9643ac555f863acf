package server

import (
	"context"
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
		// Keep enough on-disk replay bases to reconstruct every version
		// the in-memory rings promise metadata for — as-of reads behind
		// the ring fall through to persist.ReadSessionAt.
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
// snapshot-retention window: 0 means the facade default, negative
// means history is disabled and compaction keeps only the newest
// snapshot (the pre-history behavior).
func (s *Server) historyRetain() int {
	switch {
	case s.cfg.HistoryDepth < 0:
		return 0
	case s.cfg.HistoryDepth == 0:
		return mdqa.DefaultHistoryDepth
	default:
		return s.cfg.HistoryDepth
	}
}

// wholeLog is the upper sequence under which loadSession reads a
// session's whole log and reopens it for appends.
const wholeLog = ^uint64(0)

// loadSession is the one loader of a session from disk, behind startup
// recovery, revival after eviction and as-of reconstruction: it
// restores the newest snapshot covering seq <= upTo and replays the
// WAL batches beyond it, up to upTo, through Apply. Under wholeLog it
// reads the whole log and returns it reopened for appends; under a
// version it is read-only, leaves the live session and its log
// untouched, and returns a nil log. It also returns the snapshot's
// header and the number of batches replayed.
func (s *Server) loadSession(ctx context.Context, lc *loadedContext, sid string, upTo uint64) (*persist.SessionLog, persist.Meta, *mdqa.Session, int, error) {
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
		return nil, persist.Meta{}, nil, 0, err
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
		return nil, persist.Meta{}, nil, 0, err
	}
	return log, meta, ms, len(batches), nil
}

// recoverSession restores one persisted session at startup and files
// it in the registry under its original id.
func (s *Server) recoverSession(ctx context.Context, lc *loadedContext, sid string) error {
	log, meta, ms, replayed, err := s.loadSession(ctx, lc, sid, wholeLog)
	if err != nil {
		return fmt.Errorf("server: recover session %s/%s: %w", lc.name, sid, err)
	}
	sess := &session{
		id:         sid,
		lc:         lc,
		s:          ms,
		log:        log,
		applies:    int64(meta.Applies) + int64(replayed),
		lastRounds: ms.ChaseRounds(),
	}
	var n uint64
	if _, err := fmt.Sscanf(sid, "s%d", &n); err == nil {
		sess.seq = n
	}
	sess.isResident.Store(true)
	sess.touch()
	s.mu.Lock()
	s.sessions[sid] = sess
	s.residentCount++
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

// resident resolves a session's live engine state, reviving it from
// disk when it was evicted, and refreshes the LRU clock.
func (s *Server) resident(ctx context.Context, sess *session) (*mdqa.Session, error) {
	sess.touch()
	sess.mu.Lock()
	ms, err := s.residentLocked(ctx, sess)
	sess.mu.Unlock()
	if err != nil {
		return nil, err
	}
	s.enforceResident(sess)
	return ms, nil
}

// residentLocked is resident's core, for callers already holding
// sess.mu (the apply path, which must keep the lock through the WAL
// append).
func (s *Server) residentLocked(ctx context.Context, sess *session) (*mdqa.Session, error) {
	if sess.closed {
		return nil, &notFoundError{kind: "session", name: sess.id}
	}
	if sess.s != nil {
		return sess.s, nil
	}
	log, _, ms, _, err := s.loadSession(ctx, sess.lc, sess.id, wholeLog)
	if err != nil {
		return nil, fmt.Errorf("server: revive session %s: %w", sess.id, err)
	}
	sess.s = ms
	sess.log = log
	sess.lastRounds = ms.ChaseRounds()
	sess.isResident.Store(true)
	s.mu.Lock()
	s.residentCount++
	s.mu.Unlock()
	s.met.with(sess.lc.name, func(cm *contextMetrics) { cm.sessionsRevived++ })
	return ms, nil
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

// evict snapshots a session's state covering its full WAL, seals the
// log and drops the engine state. It declines (returning false) when
// the session is busy in a way that makes eviction unsafe or
// pointless: closed, already evicted, or mid-snapshot.
func (s *Server) evict(victim *session) bool {
	victim.mu.Lock()
	if victim.closed || victim.s == nil || victim.log == nil || victim.snapshotting {
		victim.mu.Unlock()
		return false
	}
	meta := persist.Meta{
		Context: victim.lc.name, Session: victim.id,
		Seq: victim.log.Seq(), Applies: int(victim.applies), Created: timestamp(),
	}
	if err := victim.log.WriteSnapshot(meta, victim.s.ExportState()); err != nil {
		victim.mu.Unlock()
		s.met.with(victim.lc.name, func(cm *contextMetrics) { cm.errorsTotal++ })
		return false
	}
	_ = victim.log.Close()
	victim.log = nil
	victim.s = nil
	victim.isResident.Store(false)
	victim.mu.Unlock()
	s.mu.Lock()
	s.residentCount--
	s.mu.Unlock()
	s.met.with(victim.lc.name, func(cm *contextMetrics) { cm.sessionsEvicted++ })
	return true
}

// snapJob is a pending snapshot captured atomically with the apply
// that triggered it: the sealed-WAL covered sequence and a frozen
// copy-on-write export of exactly that state. Encoding and writing
// happen outside the session lock (between NDJSON batches), so
// appends keep flowing into the fresh segment meanwhile.
type snapJob struct {
	log     *persist.SessionLog
	seq     uint64
	applies int64
	state   persist.SessionState
}

// maybeSnapshot decides, under sess.mu, whether the WAL has grown
// enough to compact: if so it rotates the segment and captures the
// job. At most one snapshot per session is in flight.
func (s *Server) maybeSnapshot(sess *session) (*snapJob, error) {
	if sess.log == nil || sess.snapshotting || !sess.log.NeedSnapshot() {
		return nil, nil
	}
	covered, err := sess.log.Rotate()
	if err != nil {
		return nil, fmt.Errorf("server: rotate wal: %w", err)
	}
	sess.snapshotting = true
	return &snapJob{
		log: sess.log, seq: covered, applies: sess.applies,
		state: sess.s.ExportState(),
	}, nil
}

// writeSnapshot performs a captured snapshot job. Called without
// sess.mu; the job's log pointer stays valid even if the session is
// closed or evicted meanwhile. A DELETE racing the write could see
// the snapshot file land inside the directory its RemoveAll is
// walking and fail to remove it — so after the write, a session
// observed closed gets its directory removed again.
func (s *Server) writeSnapshot(sess *session, job *snapJob) {
	if job == nil {
		return
	}
	sess.mu.Lock()
	skip := sess.closed
	sess.mu.Unlock()
	var err error
	if !skip {
		meta := persist.Meta{
			Context: sess.lc.name, Session: sess.id,
			Seq: job.seq, Applies: int(job.applies), Created: timestamp(),
		}
		err = job.log.WriteSnapshot(meta, job.state)
	}
	sess.mu.Lock()
	sess.snapshotting = false
	closed := sess.closed
	sess.mu.Unlock()
	if closed {
		_ = s.store.RemoveSession(sess.lc.name, sess.id)
		return
	}
	if err != nil {
		s.met.with(sess.lc.name, func(cm *contextMetrics) { cm.errorsTotal++ })
		return
	}
	s.met.with(sess.lc.name, func(cm *contextMetrics) { cm.snapshotsWritten++ })
}

// Close seals every durable session for clean shutdown: a final
// snapshot covering each resident session's full WAL, then WAL close.
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
		if sess.log != nil && sess.s != nil {
			meta := persist.Meta{
				Context: sess.lc.name, Session: sess.id,
				Seq: sess.log.Seq(), Applies: int(sess.applies), Created: timestamp(),
			}
			if err := sess.log.WriteSnapshot(meta, sess.s.ExportState()); err != nil && firstErr == nil {
				firstErr = err
			} else if err == nil {
				s.met.with(sess.lc.name, func(cm *contextMetrics) { cm.snapshotsWritten++ })
			}
		}
		if sess.log != nil {
			if err := sess.log.Close(); err != nil && firstErr == nil {
				firstErr = err
			}
			sess.log = nil
		}
		sess.closed = true
		sess.s = nil
		sess.isResident.Store(false)
		sess.mu.Unlock()
	}
	return firstErr
}
