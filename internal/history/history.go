// Package history retains a bounded, versioned timeline of an
// assessment session: every applied batch (and every source refresh
// that changed anything) produces a monotonically numbered version
// carrying its WAL sequence, wall time, violation state and the
// departure score of every versioned relation. The newest MaxVersions
// versions keep that metadata, and the newest depth of them also
// retain a frozen copy-on-write snapshot of the full contextual
// instance, so as-of reads at those versions are O(1); a durable
// serving layer reconstructs older instances by WAL replay from the
// nearest retained on-disk snapshot (see persist.ReadSessionAt).
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

// MaxVersions is how many of the newest versions keep their metadata,
// and the largest depth a ring takes. Older versions drop out of
// Versions, AsOf and Attribute, and out of the snapshot headers that
// carry the metadata. It is sized so that a default durable server
// (DefaultDepth, persist.DefaultSnapshotEvery = 256) still lists every
// version an as-of read can reach on disk: compaction keeps the last
// depth versions plus up to one snapshot interval behind the replay
// base, and up to one more interval is logged before the next
// compaction, at most 8 + 2×256 versions.
const MaxVersions = 1024

// Score is the departure measure of one versioned relation at one
// version, and the measure of an assessment (quality.Measure is this
// type). It is a plain record because version metadata rides inside
// persisted snapshot headers, which must not drag engine types along.
type Score struct {
	Original     int `json:"original"`     // |D|
	Quality      int `json:"quality"`      // |D^q|
	Intersection int `json:"intersection"` // |D ∩ D^q|
}

// CleanFraction is |D ∩ D^q| / |D| — the share of original tuples that
// survive quality assessment (1 on an empty relation).
func (s Score) CleanFraction() float64 {
	if s.Original == 0 {
		return 1
	}
	return float64(s.Intersection) / float64(s.Original)
}

// Distance is |D △ D^q| / |D| — 0 means D is already clean, 1 a fully
// disjoint quality version of the same size (0 on an empty relation).
func (s Score) Distance() float64 {
	if s.Original == 0 {
		return 0
	}
	sym := (s.Original - s.Intersection) + (s.Quality - s.Intersection)
	return float64(sym) / float64(s.Original)
}

// Version is the metadata of one session version. Metadata is kept for
// the newest MaxVersions versions (it is small and rides along in
// snapshot headers); only the instances behind the newest few are
// retained in memory.
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
}

// Ring is the bounded version history of one session. It is never
// empty: New records the first version.
type Ring struct {
	depth   int
	metas   []Version // the newest MaxVersions versions, ascending Seq
	entries []*Entry  // retained snapshots, ascending Seq (suffix of metas)
}

// New builds a ring whose newest version is first, retaining up to
// depth snapshots (0 = DefaultDepth, clamped to 1..MaxVersions — the
// latest version is always retained). metas is the metadata of the
// versions up to first, as decoded from a snapshot header (nil for a
// new session, and for snapshot files that predate history): records
// beyond first.Seq are dropped, only the newest MaxVersions are kept,
// and a record of first.Seq itself (its original wall time, scores and
// attribution) replaces the one first carries.
func New(depth int, metas []Version, first *Entry) *Ring {
	switch {
	case depth == 0:
		depth = DefaultDepth
	case depth < 1:
		depth = 1
	case depth > MaxVersions:
		depth = MaxVersions
	}
	n := 0
	for n < len(metas) && metas[n].Seq < first.Seq {
		n++
	}
	if n < len(metas) && metas[n].Seq == first.Seq {
		first.Version = metas[n]
	}
	prior := metas[max(0, n-MaxVersions+1):n]
	r := &Ring{depth: depth, metas: append(make([]Version, 0, len(prior)+1), prior...)}
	r.Record(first)
	return r
}

// Record appends the next version. The entry's Version.Seq must be
// NextSeq(). The instance joins the retained suffix, the oldest
// retained entries beyond the depth are released, and the oldest
// metadata beyond MaxVersions is dropped; each dropped slot is cleared
// so what it held can be collected.
func (r *Ring) Record(e *Entry) {
	r.metas = append(r.metas, e.Version)
	r.entries = append(r.entries, e)
	for len(r.entries) > r.depth {
		r.entries[0] = nil
		r.entries = r.entries[1:]
	}
	for len(r.metas) > MaxVersions {
		r.metas[0] = Version{}
		r.metas = r.metas[1:]
	}
}

// NextSeq is the sequence number the next recorded version must carry.
func (r *Ring) NextSeq() uint64 { return r.Latest().Seq + 1 }

// Latest returns the newest entry.
func (r *Ring) Latest() *Entry { return r.entries[len(r.entries)-1] }

// OldestRetained is the oldest version whose snapshot is still in
// memory.
func (r *Ring) OldestRetained() uint64 { return r.entries[0].Seq }

// At returns the retained entry for version seq. A seq older than the
// retained suffix (or older than the known metadata entirely) yields a
// *qerr.VersionEvictedError; a seq beyond the newest version yields
// (nil, false, nil) — the caller distinguishes "not yet applied" from
// "evicted".
func (r *Ring) At(seq uint64) (*Entry, bool, error) {
	if seq > r.Latest().Seq {
		return nil, false, nil
	}
	oldest := r.OldestRetained()
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
// is not after t. An instant before the oldest kept version yields a
// *qerr.VersionEvictedError naming that version; an instant at or
// after the newest version resolves to the newest.
func (r *Ring) AsOf(t time.Time) (uint64, error) {
	if oldest := r.metas[0]; t.Before(oldest.Time) {
		return 0, &qerr.VersionEvictedError{Version: oldest.Seq, Oldest: oldest.Seq}
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

// Versions returns a copy of the kept versions' metadata, ascending.
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
