// Package history retains a bounded, versioned timeline of an
// assessment session: every applied batch (and every source refresh
// that changed anything) produces a monotonically numbered version
// carrying its WAL sequence, wall time, violation state and the
// departure score of every versioned relation. The newest N versions
// additionally retain a frozen copy-on-write snapshot of the full
// contextual instance, so as-of reads at those versions are O(1);
// older versions keep only their metadata — a durable serving layer
// reconstructs their instances by WAL replay from the nearest retained
// on-disk snapshot (see persist.ReadSessionAt).
//
// The ring is deliberately not self-locking: quality.Session owns one
// and serializes every access on its session mutex, the same lock that
// orders the applies being versioned.
package history

import (
	"time"

	"repro/internal/qerr"
	"repro/internal/storage"
)

// DefaultDepth is the number of in-memory version snapshots a ring
// retains when the owner does not choose one.
const DefaultDepth = 8

// Score is the departure measure of one versioned relation at one
// version — quality.Measure flattened into a serializable record (the
// metadata rides inside persisted snapshot headers, so it must not
// drag engine types along).
type Score struct {
	Original     int `json:"original"`     // |D|
	Quality      int `json:"quality"`      // |D^q|
	Intersection int `json:"intersection"` // |D ∩ D^q|
}

// CleanFraction is |D ∩ D^q| / |D| (1 on an empty relation).
func (s Score) CleanFraction() float64 {
	if s.Original == 0 {
		return 1
	}
	return float64(s.Intersection) / float64(s.Original)
}

// Distance is |D △ D^q| / |D| (0 on an empty relation).
func (s Score) Distance() float64 {
	if s.Original == 0 {
		return 0
	}
	sym := (s.Original - s.Intersection) + (s.Quality - s.Intersection)
	return float64(sym) / float64(s.Original)
}

// Version is the metadata of one session version. Metadata is kept for
// every version the session has ever produced (it is tiny and rides
// along in snapshot headers); only the instances behind the newest few
// are retained in memory.
type Version struct {
	// Seq is the version number: 0 for the session's initial saturated
	// state, +1 per applied batch or changed refresh. For durable
	// sessions it equals the batch's WAL sequence number.
	Seq uint64 `json:"seq"`
	// WALSeq is the WAL sequence the version corresponds to; equal to
	// Seq for durable sessions, 0 when the session has no log.
	WALSeq uint64 `json:"wal_seq,omitempty"`
	// Time is the wall-clock instant the version was produced (UTC).
	// Versions re-recorded by recovery replay carry the replay time.
	Time time.Time `json:"time"`
	// Batch counts the delta atoms of the apply that produced this
	// version (0 for the initial version and for refresh rebuilds).
	Batch int `json:"batch,omitempty"`
	// Violations is the cumulative constraint-violation count at this
	// version.
	Violations int `json:"violations,omitempty"`
	// Introduced lists the violations this version added over its
	// predecessor — the delta-attribution record. Empty when the
	// version introduced none, nil also after a refresh rebuild reset
	// the engine's violation accounting.
	Introduced []qerr.Violation `json:"introduced,omitempty"`
	// Scores maps each versioned original relation to its departure
	// measure at this version.
	Scores map[string]Score `json:"scores,omitempty"`
	// Rows is the contextual instance's total tuple count at this
	// version.
	Rows int `json:"rows,omitempty"`
}

// Entry pairs a version's metadata with its retained frozen instance
// and cumulative violation list.
type Entry struct {
	Version
	// Inst is the frozen contextual snapshot at this version.
	Inst *storage.Instance
	// Violations is the cumulative violation list at this version
	// (Version.Violations is its length).
	Viol []qerr.Violation
	// bytes is the estimated memory only this entry holds: its
	// interner fork, plus whatever of each relation its successor no
	// longer shares (see storage.Instance.ExclusiveBytes).
	bytes int64
}

// Ring is the bounded version history of one session.
type Ring struct {
	depth    int
	maxBytes int64
	metas    []Version // every known version, ascending Seq
	entries  []*Entry  // retained snapshots, ascending Seq (suffix of metas)
	bytes    int64     // sum of retained entry costs
}

// New builds a ring retaining up to depth snapshots (0 = DefaultDepth,
// minimum 1 — the latest version is always retained) within maxBytes
// of estimated snapshot memory (0 = unbounded).
func New(depth int, maxBytes int64) *Ring {
	if depth == 0 {
		depth = DefaultDepth
	}
	if depth < 1 {
		depth = 1
	}
	return &Ring{depth: depth, maxBytes: maxBytes}
}

// Record appends the next version. The entry's Version.Seq must be
// NextSeq(); metadata is kept forever, the instance joins the retained
// suffix and the oldest retained entries beyond the depth/byte bounds
// are released (the newest entry always survives).
//
// The newest snapshot shares its relations with the live instance, so
// it is priced by its interner fork alone. Once e succeeds it, the
// previous entry is re-priced by what only it holds: the slot tables
// and key maps a write copied between the two snapshots, and the rows
// and posting lists of any relation e no longer shares as a prefix.
// Storage shared along the chain is charged once, to the newest entry
// holding it, which is exactly what evicting oldest-first frees.
func (r *Ring) Record(e *Entry) {
	if n := len(r.entries); n > 0 {
		prev := r.entries[n-1]
		r.bytes -= prev.bytes
		prev.bytes = prev.Inst.ExclusiveBytes(e.Inst)
		r.bytes += prev.bytes
	}
	e.bytes = e.Inst.ExclusiveBytes(nil)
	r.metas = append(r.metas, e.Version)
	r.entries = append(r.entries, e)
	r.bytes += e.bytes
	for len(r.entries) > 1 &&
		(len(r.entries) > r.depth || (r.maxBytes > 0 && r.bytes > r.maxBytes)) {
		r.bytes -= r.entries[0].bytes
		r.entries[0] = nil
		r.entries = r.entries[1:]
	}
}

// Seed initializes a restored ring: metas is the version metadata
// decoded from the snapshot header (may be empty for pre-history
// snapshot files) and entry is the restored state, which becomes the
// single retained snapshot. When metas does not already end at
// entry.Seq a synthetic metadata record is appended, so NextSeq stays
// correct even without decoded history.
func (r *Ring) Seed(metas []Version, e *Entry) {
	r.metas = r.metas[:0]
	for _, m := range metas {
		if m.Seq > e.Seq {
			break // metadata from beyond the snapshot's coverage
		}
		r.metas = append(r.metas, m)
	}
	if n := len(r.metas); n == 0 || r.metas[n-1].Seq != e.Seq {
		r.metas = append(r.metas, e.Version)
	} else {
		// Prefer the decoded metadata (original wall time, scores) but
		// let the restored state supply what the header lacks.
		e.Version = r.metas[n-1]
	}
	e.bytes = e.Inst.ExclusiveBytes(nil)
	r.entries = append(r.entries[:0], e)
	r.bytes = e.bytes
}

// NextSeq is the sequence number the next recorded version must carry.
func (r *Ring) NextSeq() uint64 {
	if n := len(r.metas); n > 0 {
		return r.metas[n-1].Seq + 1
	}
	return 0
}

// Latest returns the newest retained entry (nil on an empty ring).
func (r *Ring) Latest() *Entry {
	if n := len(r.entries); n > 0 {
		return r.entries[n-1]
	}
	return nil
}

// Last returns the newest version's metadata (false on an empty ring).
func (r *Ring) Last() (Version, bool) {
	if n := len(r.metas); n > 0 {
		return r.metas[n-1], true
	}
	return Version{}, false
}

// LatestSeq is the newest version number (false on an empty ring).
func (r *Ring) LatestSeq() (uint64, bool) {
	if n := len(r.metas); n > 0 {
		return r.metas[n-1].Seq, true
	}
	return 0, false
}

// OldestRetained is the oldest version whose snapshot is still in
// memory (false on an empty ring).
func (r *Ring) OldestRetained() (uint64, bool) {
	if len(r.entries) > 0 {
		return r.entries[0].Seq, true
	}
	return 0, false
}

// At returns the retained entry for version seq. A seq older than the
// retained suffix (or older than the known metadata entirely) yields a
// *qerr.VersionEvictedError; a seq beyond the newest version yields
// (nil, false, nil) — the caller distinguishes "not yet applied" from
// "evicted".
func (r *Ring) At(seq uint64) (*Entry, bool, error) {
	latest, ok := r.LatestSeq()
	if !ok || seq > latest {
		return nil, false, nil
	}
	oldest, _ := r.OldestRetained()
	if seq < oldest {
		return nil, false, &qerr.VersionEvictedError{Version: seq, Oldest: oldest}
	}
	for _, e := range r.entries {
		if e.Seq == seq {
			return e, true, nil
		}
	}
	// Metadata exists between oldest and latest for every version, so
	// a gap here is unreachable; treat it as evicted defensively.
	return nil, false, &qerr.VersionEvictedError{Version: seq, Oldest: oldest}
}

// AsOf resolves a wall-clock instant to the newest version whose Time
// is not after t. An instant before the first known version yields a
// *qerr.VersionEvictedError (version 0 named); an instant at or after
// the newest version resolves to the newest.
func (r *Ring) AsOf(t time.Time) (uint64, error) {
	if len(r.metas) == 0 || t.Before(r.metas[0].Time) {
		oldest := uint64(0)
		if len(r.metas) > 0 {
			oldest = r.metas[0].Seq
		}
		return 0, &qerr.VersionEvictedError{Version: oldest, Oldest: oldest}
	}
	seq := r.metas[0].Seq
	for _, m := range r.metas[1:] {
		if m.Time.After(t) {
			break
		}
		seq = m.Seq
	}
	return seq, nil
}

// Versions returns a copy of every known version's metadata, ascending.
func (r *Ring) Versions() []Version {
	return append([]Version(nil), r.metas...)
}

// Attribute scans the delta-attribution records for the version that
// introduced the given violation (matched by kind, constraint ID and
// detail), newest first so re-introductions attribute to the latest
// occurrence.
func (r *Ring) Attribute(v qerr.Violation) (Version, bool) {
	for i := len(r.metas) - 1; i >= 0; i-- {
		for _, iv := range r.metas[i].Introduced {
			if iv == v {
				return r.metas[i], true
			}
		}
	}
	return Version{}, false
}

// RetainedBytes is the ring's current estimated snapshot memory.
func (r *Ring) RetainedBytes() int64 { return r.bytes }
