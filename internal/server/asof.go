package server

import (
	"context"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/mdqa"
)

// The time-travel read path. Every read endpoint — answers,
// assessment, one-shot assess, trajectory — accepts the same ?as_of=
// parameter (a version number or an RFC3339 instant), parsed and
// validated by one helper so the endpoints cannot drift apart:
// malformed or future values are 400 invalid_as_of, versions behind
// every retained snapshot are 410 version_evicted. Versions still in
// the session's in-memory ring are served at snapshot cost; on a
// durable server, older versions are reconstructed read-only from the
// nearest on-disk snapshot plus WAL replay (persist.ReadSessionAt).

// asOfParam is the parsed form of one ?as_of= value.
type asOfParam struct {
	raw        string
	version    uint64
	hasVersion bool // version-number form; otherwise t is set
	t          time.Time
}

// parseReadParams parses the shared read-endpoint query parameters:
// as_of, and explain on the endpoints that render plans. Endpoints
// without an explain form reject the parameter instead of silently
// ignoring it — the symmetric surface means a parameter is either
// honored or refused, never dropped.
func parseReadParams(r *http.Request, allowExplain bool) (*asOfParam, bool, error) {
	explain := r.URL.Query().Get("explain") == "1"
	if explain && !allowExplain {
		return nil, false, &badRequestError{msg: "explain is not supported on this endpoint"}
	}
	raw := r.URL.Query().Get("as_of")
	if raw == "" {
		return nil, explain, nil
	}
	if n, err := strconv.ParseUint(raw, 10, 64); err == nil {
		return &asOfParam{raw: raw, version: n, hasVersion: true}, explain, nil
	}
	if t, err := time.Parse(time.RFC3339, raw); err == nil {
		return &asOfParam{raw: raw, t: t}, explain, nil
	}
	return nil, false, &invalidAsOfError{msg: fmt.Sprintf("as_of %q is neither a version number nor an RFC3339 instant", raw)}
}

// resolveVersion reduces an as-of parameter to an exact version number
// against the session's live history: instants resolve to the newest
// version not after them, version numbers beyond the latest are the
// client asking for a future the session hasn't reached (400).
func resolveVersion(ms *mdqa.Session, ao *asOfParam) (uint64, error) {
	if !ao.hasVersion {
		return ms.ResolveAsOf(ao.t)
	}
	if latest := ms.LatestVersion(); ao.version > latest.Seq {
		return 0, &invalidAsOfError{msg: fmt.Sprintf("version %d not yet applied (latest %d)", ao.version, latest.Seq)}
	}
	return ao.version, nil
}

// sessionAt returns a session able to serve reads at exactly the given
// version: the live session itself while its ring retains the version,
// else — on a durable server — a throwaway session reconstructed from
// disk. The returned bool reports whether the live session was reused
// (callers keep the shared plan cache only for latest-version reads
// regardless, so historical plans stay faithful to historical
// statistics).
func (s *Server) sessionAt(ctx context.Context, sess *session, ms *mdqa.Session, version uint64) (*mdqa.Session, bool, error) {
	if version >= ms.OldestRetained() {
		return ms, true, nil
	}
	if s.store == nil {
		// Ephemeral server: nothing behind the ring. Surface the same
		// eviction error the ring would.
		_, err := ms.View(mdqa.At(version))
		return nil, false, err
	}
	tmp, err := s.reconstructAt(ctx, sess, version)
	if err != nil {
		return nil, false, err
	}
	return tmp, false, nil
}

// reconstructAt rebuilds a session's state at an exact historical
// version, read-only (loadSession under that version). Cost is one
// snapshot decode plus up to SnapshotEvery incremental applies — the
// replay-latency curve PERF.md documents.
func (s *Server) reconstructAt(ctx context.Context, sess *session, version uint64) (*mdqa.Session, error) {
	lc := sess.lc
	_, ms, _, err := s.loadSession(ctx, lc, sess.id, version)
	if err != nil {
		return nil, err
	}
	if v := ms.LatestVersion(); v.Seq != version {
		return nil, fmt.Errorf("server: as-of reconstruction reached version %d, wanted %d", v.Seq, version)
	}
	s.met.with(lc.name, func(cm *contextMetrics) { cm.asofReconstructs++ })
	return ms, nil
}

// viewAt resolves the snapshot an as-of read serves: live ring first,
// disk reconstruction behind it.
func (s *Server) viewAt(ctx context.Context, sess *session, ms *mdqa.Session, version uint64) (*mdqa.Snapshot, error) {
	target, _, err := s.sessionAt(ctx, sess, ms, version)
	if err != nil {
		return nil, err
	}
	return target.View(mdqa.At(version))
}

// handleVersions serves GET .../sessions/{id}/versions: the session's
// version timeline. It lists the newest mdqa.MaxHistoryVersions
// versions; a longer session no longer lists its older ones, and an
// ?as_of=<RFC3339> instant before the oldest listed version answers
// 410 version_evicted. The retained marker tells which versions are
// in-memory snapshots.
func (s *Server) handleVersions(w http.ResponseWriter, r *http.Request) {
	sess, err := s.lookup(r)
	if err != nil {
		s.fail(w, r.PathValue("name"), err)
		return
	}
	ms, err := s.resident(r.Context(), sess)
	if err != nil {
		s.fail(w, sess.lc.name, err)
		return
	}
	oldest := ms.OldestRetained()
	hist := ms.History()
	resp := VersionsResponse{
		ID:             sess.id,
		Context:        sess.lc.name,
		OldestRetained: oldest,
		Versions:       make([]WireVersion, 0, len(hist)),
	}
	for _, v := range hist {
		resp.Latest = v.Seq
		resp.Versions = append(resp.Versions, wireVersion(v, v.Seq >= oldest))
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleTrajectory serves GET .../sessions/{id}/trajectory?rel=: the
// departure-score series of one versioned relation, one point per
// version /versions lists, truncated by ?as_of= like every other read.
// A session past mdqa.MaxHistoryVersions versions no longer lists its
// oldest points, and an ?as_of=<RFC3339> instant before the oldest
// listed version answers 410 version_evicted.
func (s *Server) handleTrajectory(w http.ResponseWriter, r *http.Request) {
	sess, err := s.lookup(r)
	if err != nil {
		s.fail(w, r.PathValue("name"), err)
		return
	}
	lc := sess.lc
	rel := r.URL.Query().Get("rel")
	if rel == "" {
		s.fail(w, lc.name, &badRequestError{msg: "missing rel parameter (a versioned relation)"})
		return
	}
	if lc.qc.VersionPred(rel) == "" {
		s.fail(w, lc.name, &mdqa.UnknownRelationError{Relation: rel})
		return
	}
	ao, _, err := parseReadParams(r, false)
	if err != nil {
		s.fail(w, lc.name, err)
		return
	}
	ms, err := s.resident(r.Context(), sess)
	if err != nil {
		s.fail(w, lc.name, err)
		return
	}
	limit := ^uint64(0)
	if ao != nil {
		limit, err = resolveVersion(ms, ao)
		if err != nil {
			s.fail(w, lc.name, err)
			return
		}
	}
	resp := TrajectoryResponse{ID: sess.id, Context: lc.name, Relation: rel, Points: []TrajectoryPoint{}}
	for _, v := range ms.History() {
		if v.Seq > limit {
			break
		}
		sc, ok := v.Scores[rel]
		if !ok {
			continue // relation had no tuples yet at this version
		}
		resp.Points = append(resp.Points, TrajectoryPoint{v.Seq, v.Time.UTC().Format(time.RFC3339Nano), wireMeasure(sc)})
	}
	writeJSON(w, http.StatusOK, resp)
}

// wireVersion renders one version's metadata.
func wireVersion(v mdqa.Version, retained bool) WireVersion {
	return WireVersion{
		Seq:        v.Seq,
		WALSeq:     v.WALSeq,
		Time:       v.Time.UTC().Format(time.RFC3339Nano),
		Batch:      v.Batch,
		Violations: v.Violations,
		Introduced: wireViolations(v.Introduced),
		Rows:       v.Rows,
		Retained:   retained,
	}
}
