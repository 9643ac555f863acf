package mdqa

import (
	"fmt"
	"time"

	"repro/internal/history"
	"repro/internal/quality"
)

// DefaultHistoryDepth is how many version snapshots a session retains
// in memory when WithHistoryDepth is not used.
const DefaultHistoryDepth = history.DefaultDepth

// Version is the metadata of one session version: its sequence number
// (0 for the initial saturated state, +1 per applied batch or changed
// refresh), WAL sequence, wall time, batch size, cumulative violation
// count, the violations the version introduced over its predecessor,
// and the departure score of every versioned relation.
type Version = history.Version

// Score is the departure measure of one versioned relation at one
// version: |D|, |D^q| and their intersection, with CleanFraction and
// Distance derived from them. It is the same type as Measure.
type Score = history.Score

// ViewOption selects which version of a session a View (or Assess)
// reads. The zero set of options reads the latest state.
type ViewOption func(*viewOpts)

type viewOpts struct {
	at      uint64
	hasAt   bool
	asOf    time.Time
	hasAsOf bool
}

// At pins a view to an exact version number. Versions older than the
// session's retained ring fail with ErrVersionEvicted; versions newer
// than the latest fail with a plain error naming the latest.
func At(version uint64) ViewOption {
	return func(o *viewOpts) { o.at, o.hasAt = version, true }
}

// AsOf pins a view to the newest version at or before a wall-clock
// instant. An instant before the session's first known version fails
// with ErrVersionEvicted. Mutually exclusive with At.
func AsOf(t time.Time) ViewOption {
	return func(o *viewOpts) { o.asOf, o.hasAsOf = t, true }
}

// resolve reduces the option set to an exact version number (hasAt
// false means "latest").
func (s *Session) resolve(opts []ViewOption) (viewOpts, error) {
	var o viewOpts
	for _, opt := range opts {
		opt(&o)
	}
	if o.hasAt && o.hasAsOf {
		return viewOpts{}, fmt.Errorf("mdqa: At and AsOf are mutually exclusive")
	}
	if o.hasAsOf {
		seq, err := s.s.AsOfTime(o.asOf)
		if err != nil {
			return viewOpts{}, err
		}
		o.at, o.hasAt = seq, true
	}
	return o, nil
}

// View returns a frozen, consistent Snapshot of the session — the
// latest state by default, an exact version under At, or the newest
// version not after an instant under AsOf. Every Snapshot accessor
// (Answers, CleanAnswers, Explain, Tuples, ...) works identically at
// any version; historical views are exactly as cheap as latest ones
// while the version is retained in memory. View is the one snapshot
// surface — Session.Snapshot and Assessment.Snapshot delegate to it.
func (s *Session) View(opts ...ViewOption) (*Snapshot, error) {
	o, err := s.resolve(opts)
	if err != nil {
		return nil, err
	}
	if !o.hasAt {
		inst, ver, ok := s.s.View()
		return &Snapshot{inst: inst, versionPred: s.versionPred, vorder: s.vorder, ver: ver, hasVer: ok}, nil
	}
	inst, ver, err := s.s.At(o.at)
	if err != nil {
		return nil, err
	}
	return &Snapshot{inst: inst, versionPred: s.versionPred, vorder: s.vorder, ver: ver, hasVer: true}, nil
}

// History returns the metadata of every version the session knows
// about, ascending by sequence; nil when history is disabled. Metadata
// is kept for every version ever produced — only the snapshot
// instances behind old versions are evicted.
func (s *Session) History() []Version { return s.s.History() }

// LatestVersion returns the newest version's metadata (false when
// history is disabled).
func (s *Session) LatestVersion() (Version, bool) { return s.s.LatestVersion() }

// OldestRetained returns the oldest version whose snapshot is still
// held in memory — the boundary below which At fails with
// ErrVersionEvicted (false when history is disabled).
func (s *Session) OldestRetained() (uint64, bool) { return s.s.OldestRetained() }

// ResolveAsOf resolves a wall-clock instant to the version number an
// AsOf view of it would read, without building the view.
func (s *Session) ResolveAsOf(t time.Time) (uint64, error) { return s.s.AsOfTime(t) }

// Attribute reports which version — and therefore which applied
// batch — introduced the given violation, by consulting the
// per-version delta-attribution records. false when the violation is
// not attributed (history disabled, or the record predates a source
// rebuild that reset violation accounting).
func (s *Session) Attribute(v Violation) (Version, bool) { return s.s.Attribute(v) }

// WithHistoryDepth bounds how many version snapshots each session
// retains in memory for time travel (0 = the default, currently 8;
// negative disables history entirely — View(At(...)) then fails with
// ErrHistoryDisabled). Older versions keep their metadata; a durable
// serving layer can still reconstruct them from disk.
func WithHistoryDepth(depth int) Option {
	return func(cfg *quality.Config) { cfg.HistoryDepth = depth }
}

// WithHistoryBytes caps the estimated memory of each session's
// retained version snapshots; the oldest are evicted first and the
// latest always survives. 0 leaves retention bounded by depth alone.
func WithHistoryBytes(n int64) Option {
	return func(cfg *quality.Config) { cfg.HistoryBytes = n }
}
