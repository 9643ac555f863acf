package persist

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/datalog"
	"repro/internal/qerr"
	"repro/internal/wal"
)

// DefaultSnapshotEvery is how many acknowledged batches accumulate in
// the WAL before NeedSnapshot reports true, when Options.SnapshotEvery
// is zero.
const DefaultSnapshotEvery = 256

// Options configures a store.
type Options struct {
	// WAL configures segment writers (sync mode, interval, OnSync).
	WAL wal.Options
	// SnapshotEvery is the batch count between snapshots
	// (0 = DefaultSnapshotEvery).
	SnapshotEvery int
	// RetainHistory keeps as-of reads answerable for the last N
	// versions after compaction: WriteSnapshot preserves the newest
	// older snapshot covering seq <= newSeq-N as a replay base (plus
	// any sealed WAL segments it still needs) instead of deleting
	// everything older. 0 preserves the historical behavior — one
	// snapshot, no replay-based time travel past it.
	RetainHistory int
}

// Store is the on-disk root of durable sessions, laid out as
// <root>/<context>/<session>/{snap-*.snap, wal-*.log}. A Store is
// cheap and stateless; all per-session state lives in SessionLog.
type Store struct {
	root string
	opts Options
}

// OpenStore opens (creating if needed) a store root.
func OpenStore(root string, opts Options) (*Store, error) {
	if opts.SnapshotEvery <= 0 {
		opts.SnapshotEvery = DefaultSnapshotEvery
	}
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, fmt.Errorf("persist: open store: %w", err)
	}
	return &Store{root: root, opts: opts}, nil
}

// safeName guards path components built from context and session
// names.
func safeName(name string) error {
	if name == "" || name == "." || name == ".." || strings.ContainsAny(name, "/\\") {
		return fmt.Errorf("persist: unsafe path component %q", name)
	}
	return nil
}

func (s *Store) sessionDir(context, sid string) (string, error) {
	if err := safeName(context); err != nil {
		return "", err
	}
	if err := safeName(sid); err != nil {
		return "", err
	}
	return filepath.Join(s.root, context, sid), nil
}

// ContextDirs lists the context names with durable state.
func (s *Store) ContextDirs() ([]string, error) {
	return subdirs(s.root)
}

// SessionDirs lists the session ids persisted under a context.
func (s *Store) SessionDirs(context string) ([]string, error) {
	if err := safeName(context); err != nil {
		return nil, err
	}
	return subdirs(filepath.Join(s.root, context))
}

func subdirs(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var out []string
	for _, e := range entries {
		if e.IsDir() {
			out = append(out, e.Name())
		}
	}
	sort.Strings(out)
	return out, nil
}

// RemoveSession deletes a session's durable state entirely.
func (s *Store) RemoveSession(context, sid string) error {
	dir, err := s.sessionDir(context, sid)
	if err != nil {
		return err
	}
	return os.RemoveAll(dir)
}

// SnapName formats a snapshot file name for its covered sequence.
func SnapName(seq uint64) string { return fmt.Sprintf("snap-%016x.snap", seq) }

// snapSeq parses a snapshot file name, reporting whether it is one.
func snapSeq(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "snap-") || !strings.HasSuffix(name, ".snap") {
		return 0, false
	}
	var seq uint64
	if _, err := fmt.Sscanf(name, "snap-%016x.snap", &seq); err != nil {
		return 0, false
	}
	return seq, true
}

// snapshots lists a session directory's snapshot files in ascending
// covered-sequence order.
func snapshots(dir string) (paths []string, seqs []uint64, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	type snap struct {
		seq  uint64
		path string
	}
	var all []snap
	for _, e := range entries {
		if seq, ok := snapSeq(e.Name()); ok {
			all = append(all, snap{seq: seq, path: filepath.Join(dir, e.Name())})
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].seq < all[j].seq })
	for _, sn := range all {
		paths = append(paths, sn.path)
		seqs = append(seqs, sn.seq)
	}
	return paths, seqs, nil
}

// SessionLog is one session's durable log: the live WAL segment writer
// plus the snapshot bookkeeping. It is not safe for concurrent use;
// the server serializes on the session lock that also orders applies.
type SessionLog struct {
	dir       string
	opts      Options
	w         *wal.Writer
	gen       uint64 // current segment generation
	seq       uint64 // highest appended (or recovered) sequence
	sinceSnap int    // batches appended since that snapshot
}

// CreateSession initializes a fresh session directory: an initial
// snapshot of the given state (covering sequence 0, so recovery always
// has a base to replay onto) and the first WAL segment. It fails when
// the directory already exists, so it never overwrites a session's
// durable state.
func (s *Store) CreateSession(context, sid string, meta Meta, st SessionState) (_ *SessionLog, err error) {
	dir, err := s.sessionDir(context, sid)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Dir(dir), 0o755); err != nil {
		return nil, fmt.Errorf("persist: create context dir: %w", err)
	}
	if err := os.Mkdir(dir, 0o755); err != nil {
		return nil, fmt.Errorf("persist: create session dir: %w", err)
	}
	defer func() {
		if err != nil {
			// The directory is this call's own: remove it, so a failed
			// create leaves the id free and recovery never meets a
			// session without a snapshot.
			_ = os.RemoveAll(dir)
		}
	}()
	meta.Context, meta.Session, meta.Seq = context, sid, 0
	data, err := EncodeSnapshot(meta, st)
	if err != nil {
		return nil, err
	}
	if err := WriteFileAtomic(filepath.Join(dir, SnapName(0)), data); err != nil {
		return nil, fmt.Errorf("persist: write initial snapshot: %w", err)
	}
	w, err := wal.Create(filepath.Join(dir, wal.SegmentName(1)), s.opts.WAL)
	if err != nil {
		return nil, err
	}
	return &SessionLog{dir: dir, opts: s.opts, w: w, gen: 1}, nil
}

// OpenSession recovers a persisted session for appends: it reads the
// session to the end of its log (ReadSessionAt's reader, with no upper
// sequence), then opens a fresh segment for new appends. The returned
// log continues the recovered sequence numbering. The snapshot it
// starts from is the newest file; an unreadable or corrupt newest
// snapshot fails the open, with no fallback to an older one.
// WriteSnapshot deletes older files only after the new one is durably
// renamed in, so the newest file is complete unless the disk corrupted
// it, and older leftovers exist only when a crash interrupted cleanup.
//
// A final segment that ends in a torn record (an append a crash or a
// failed write cut short, never acknowledged) is truncated to the end
// of its last complete record and synced before the fresh segment is
// created: the fresh segment makes it a non-final one, where a torn
// record would read as corruption at the next open.
func (s *Store) OpenSession(context, sid string, base *datalog.Interner, replay func(wal.Batch) error) (*SessionLog, Meta, SessionState, error) {
	dir, meta, st, last, torn, err := s.readSession(context, sid, ^uint64(0), base, replay)
	if err != nil {
		return nil, Meta{}, SessionState{}, err
	}
	if torn != nil {
		if err := torn.Truncate(); err != nil {
			return nil, Meta{}, SessionState{}, err
		}
	}
	_, maxGen, err := wal.Segments(dir)
	if err != nil {
		return nil, Meta{}, SessionState{}, err
	}
	gen := maxGen + 1
	w, err := wal.Create(filepath.Join(dir, wal.SegmentName(gen)), s.opts.WAL)
	if err != nil {
		return nil, Meta{}, SessionState{}, err
	}
	l := &SessionLog{
		dir: dir, opts: s.opts, w: w, gen: gen,
		seq: last, sinceSnap: int(last - meta.Seq),
	}
	return l, meta, st, nil
}

// Seq returns the highest appended (or recovered) sequence number.
func (l *SessionLog) Seq() uint64 { return l.seq }

// Append assigns the next sequence number and logs the batch. Only
// when Append returns nil may the batch be acknowledged.
func (l *SessionLog) Append(atoms []datalog.Atom) (uint64, error) {
	seq := l.seq + 1
	if err := l.w.Append(seq, atoms); err != nil {
		return 0, err
	}
	l.seq = seq
	l.sinceSnap++
	return seq, nil
}

// NeedSnapshot reports whether enough batches have accumulated since
// the last snapshot to warrant compaction.
func (l *SessionLog) NeedSnapshot() bool {
	return l.sinceSnap >= l.opts.SnapshotEvery
}

// Rotate seals the live segment and opens the next generation,
// returning the sequence number the pending snapshot must cover.
// Appends may continue (into the new segment) while the snapshot is
// encoded and written outside the session lock.
func (l *SessionLog) Rotate() (uint64, error) {
	if err := l.w.Close(); err != nil {
		return 0, err
	}
	l.gen++
	w, err := wal.Create(filepath.Join(l.dir, wal.SegmentName(l.gen)), l.opts.WAL)
	if err != nil {
		return 0, err
	}
	l.w = w
	covered := l.seq
	l.sinceSnap = 0
	return covered, nil
}

// WriteSnapshot writes a snapshot covering meta.Seq durably, then
// compacts: with Options.RetainHistory zero every older snapshot and
// every sealed (non-current) WAL segment is deleted — all their
// batches are covered. With retention N, the newest older snapshot
// covering seq <= meta.Seq-N survives as the replay base for as-of
// reconstruction (ReadSessionAt), along with every snapshot newer than
// it and every sealed segment holding batches beyond the base. Safe to
// call without the session lock: it touches no writer state.
func (l *SessionLog) WriteSnapshot(meta Meta, st SessionState) error {
	data, err := EncodeSnapshot(meta, st)
	if err != nil {
		return err
	}
	if err := WriteFileAtomic(filepath.Join(l.dir, SnapName(meta.Seq)), data); err != nil {
		return fmt.Errorf("persist: write snapshot: %w", err)
	}
	// The retention floor: versions >= floor must stay reconstructable,
	// so the newest snapshot covering seq <= floor is the replay base.
	floor := meta.Seq
	if retain := uint64(l.opts.RetainHistory); retain > 0 {
		if retain < floor {
			floor -= retain
		} else {
			floor = 0
		}
	}
	// Cleanup is best-effort: leftovers are re-deleted after the next
	// snapshot, and recovery tolerates them (replay skips covered
	// sequences).
	paths, seqs, err := snapshots(l.dir)
	baseSeq := meta.Seq
	if err == nil {
		base := -1
		for i, seq := range seqs {
			if seq <= floor && (base < 0 || seq > seqs[base]) {
				base = i
			}
		}
		if base >= 0 {
			baseSeq = seqs[base]
		}
		for i, p := range paths {
			if i < base || (base < 0 && seqs[i] != meta.Seq) {
				os.Remove(p)
			}
		}
	}
	segs, _, err := wal.Segments(l.dir)
	if err == nil {
		cur := filepath.Join(l.dir, wal.SegmentName(l.gen))
		for _, p := range segs {
			if p == cur {
				continue
			}
			if l.opts.RetainHistory > 0 && !segmentCovered(p, baseSeq) {
				continue // still needed to replay base -> newer versions
			}
			os.Remove(p)
		}
	}
	return nil
}

// segmentCovered reports whether every batch in a sealed segment has
// Seq <= baseSeq, i.e. the segment is fully behind the replay base and
// deletable. Any read or decode doubt keeps the segment — deleting a
// needed segment silently truncates time travel, keeping a stale one
// only costs disk.
func segmentCovered(path string, baseSeq uint64) bool {
	data, err := os.ReadFile(path)
	if err != nil {
		return false
	}
	covered := true
	_, err = wal.DecodeSegment(path, data, false, func(b wal.Batch) error {
		if b.Seq > baseSeq {
			covered = false
		}
		return nil
	})
	return err == nil && covered
}

// ReadSessionAt reconstructs a session's durable state at an exact
// historical version. It is read-only — no segment is opened for
// appends and no file is touched — so it is safe alongside a live
// SessionLog on the same directory. A target older than every retained
// snapshot (compaction has dropped its replay base) yields a
// *qerr.VersionEvictedError naming the oldest reconstructable version;
// a target beyond the log yields a plain error (callers validate
// against the live session's latest version first).
func (s *Store) ReadSessionAt(context, sid string, target uint64, base *datalog.Interner, replay func(wal.Batch) error) (Meta, SessionState, error) {
	_, meta, st, last, _, err := s.readSession(context, sid, target, base, replay)
	if err != nil {
		return Meta{}, SessionState{}, err
	}
	if last != target {
		return Meta{}, SessionState{}, fmt.Errorf("persist: as-of %d: log ends at %d (snapshot %d)", target, last, meta.Seq)
	}
	return meta, st, nil
}

// readSession is the one reader of a session directory, behind
// OpenSession and ReadSessionAt. It decodes the newest snapshot
// covering seq <= upTo, checks the sequence its file name carries, and
// replays the WAL batches in (snapshot, upTo] through replay, in
// order. It returns the session directory, the snapshot's header and
// state, the last sequence replayed (the snapshot's when none was) and
// the log's torn tail, if any (wal.ReplayRange). SessionLog.Append
// numbers batches without gaps, so a log that skips a sequence fails
// the read: its batches would not describe the versions they claim.
func (s *Store) readSession(context, sid string, upTo uint64, base *datalog.Interner, replay func(wal.Batch) error) (dir string, meta Meta, st SessionState, last uint64, torn *wal.TornTail, err error) {
	fail := func(err error) (string, Meta, SessionState, uint64, *wal.TornTail, error) {
		return "", Meta{}, SessionState{}, 0, nil, err
	}
	if dir, err = s.sessionDir(context, sid); err != nil {
		return fail(err)
	}
	paths, seqs, err := snapshots(dir)
	if err != nil {
		return fail(err)
	}
	if len(paths) == 0 {
		return fail(fmt.Errorf("persist: session %s/%s has no snapshot", context, sid))
	}
	bi := -1
	for i, seq := range seqs {
		if seq <= upTo {
			bi = i // ascending order: last match is the newest base
		}
	}
	if bi < 0 {
		return fail(&qerr.VersionEvictedError{Version: upTo, Oldest: seqs[0]})
	}
	name := filepath.Base(paths[bi])
	data, err := os.ReadFile(paths[bi])
	if err != nil {
		return fail(err)
	}
	if meta, st, err = ReadSnapshot(data, base); err != nil {
		return fail(fmt.Errorf("persist: snapshot %s: %w", name, err))
	}
	if meta.Seq != seqs[bi] {
		return fail(fmt.Errorf("persist: snapshot %s covers seq %d, file name says %d", name, meta.Seq, seqs[bi]))
	}
	last = meta.Seq
	if _, torn, err = wal.ReplayRange(dir, meta.Seq, upTo, func(b wal.Batch) error {
		if b.Seq != last+1 {
			return fmt.Errorf("persist: session %s/%s: WAL skips from seq %d to %d", context, sid, last, b.Seq)
		}
		last = b.Seq
		return replay(b)
	}); err != nil {
		return fail(err)
	}
	return dir, meta, st, last, torn, nil
}

// Close seals the live segment. The log is unusable afterwards; a
// later OpenSession resumes in a fresh generation.
func (l *SessionLog) Close() error { return l.w.Close() }
