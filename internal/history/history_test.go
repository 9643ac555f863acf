package history

import (
	"errors"
	"testing"
	"time"

	"repro/internal/qerr"
	"repro/internal/storage"
)

// entry builds a minimal ring entry at seq with the given wall time.
func entry(seq uint64, at time.Time) *Entry {
	return &Entry{
		Version: Version{Seq: seq, Time: at, Rows: int(seq) * 10},
		Inst:    storage.NewInstance(),
	}
}

func t0() time.Time { return time.Date(2026, 8, 1, 12, 0, 0, 0, time.UTC) }

func TestRingRecordAndEvict(t *testing.T) {
	base := t0()
	r := New(2, nil, entry(0, base))
	for seq := uint64(1); seq <= 4; seq++ {
		if got := r.NextSeq(); got != seq {
			t.Fatalf("NextSeq = %d, want %d", got, seq)
		}
		r.Record(entry(seq, base.Add(time.Duration(seq)*time.Minute)))
	}
	// Metadata survives for every version; instances only for the
	// newest two.
	if n := len(r.Versions()); n != 5 {
		t.Fatalf("want 5 version metas, got %d", n)
	}
	if oldest := r.OldestRetained(); oldest != 3 {
		t.Fatalf("oldest retained = %d, want 3", oldest)
	}
	if latest := r.Latest().Seq; latest != 4 {
		t.Fatalf("latest = %d, want 4", latest)
	}
	// Retained versions resolve; evicted ones carry the typed error
	// naming the boundary; future ones are "not yet applied".
	if e, ok, err := r.At(3); err != nil || !ok || e.Seq != 3 {
		t.Fatalf("At(3) = %v %v %v", e, ok, err)
	}
	_, _, err := r.At(1)
	var ve *qerr.VersionEvictedError
	if !errors.As(err, &ve) || ve.Version != 1 || ve.Oldest != 3 {
		t.Fatalf("At(1) must report eviction with boundary: %v", err)
	}
	if !errors.Is(err, qerr.ErrVersionEvicted) {
		t.Fatalf("eviction error must match the sentinel: %v", err)
	}
	if e, ok, err := r.At(9); e != nil || ok || err != nil {
		t.Fatalf("At(future) = %v %v %v, want nil false nil", e, ok, err)
	}
}

func TestRingAsOf(t *testing.T) {
	base := t0()
	r := New(4, nil, entry(0, base))
	for seq := uint64(1); seq <= 3; seq++ {
		r.Record(entry(seq, base.Add(time.Duration(seq)*time.Hour)))
	}
	cases := []struct {
		at   time.Time
		want uint64
	}{
		{base, 0},
		{base.Add(30 * time.Minute), 0},
		{base.Add(1 * time.Hour), 1},
		{base.Add(150 * time.Minute), 2},
		{base.Add(24 * time.Hour), 3},
	}
	for _, tc := range cases {
		got, err := r.AsOf(tc.at)
		if err != nil || got != tc.want {
			t.Fatalf("AsOf(%v) = %d, %v; want %d", tc.at, got, err, tc.want)
		}
	}
	if _, err := r.AsOf(base.Add(-time.Second)); !errors.Is(err, qerr.ErrVersionEvicted) {
		t.Fatalf("AsOf before the first version must report eviction: %v", err)
	}
}

func TestRingAttribute(t *testing.T) {
	v := qerr.Violation{Kind: qerr.NCViolation, ID: "nc1", Detail: "d"}
	r := New(4, nil, entry(0, t0()))
	e1 := entry(1, t0().Add(time.Minute))
	e1.Introduced = []qerr.Violation{v}
	e1.Violations = 1
	r.Record(e1)
	got, ok := r.Attribute(v)
	if !ok || got.Seq != 1 {
		t.Fatalf("Attribute = %+v %v, want version 1", got, ok)
	}
	if _, ok := r.Attribute(qerr.Violation{ID: "other"}); ok {
		t.Fatal("unknown violation must not attribute")
	}
}

func TestRingSeed(t *testing.T) {
	// Seeding from decoded header metadata keeps the original wall
	// times and makes the restored state the single retained snapshot.
	metas := []Version{
		{Seq: 0, Time: t0()},
		{Seq: 1, Time: t0().Add(time.Minute), Batch: 2},
		{Seq: 2, Time: t0().Add(2 * time.Minute), Batch: 1},
	}
	e := entry(2, t0().Add(time.Hour)) // restored state carries replay time
	r := New(4, metas, e)
	if got := r.Versions(); len(got) != 3 || !got[1].Time.Equal(metas[1].Time) {
		t.Fatalf("seeded metas = %+v", got)
	}
	if latest := r.Latest(); latest.Batch != 1 {
		t.Fatal("seeded entry must prefer decoded metadata over the synthetic record")
	}
	if got := r.NextSeq(); got != 3 {
		t.Fatalf("NextSeq after seed = %d, want 3", got)
	}
	// Seeding without metadata synthesizes the entry's own record.
	r2 := New(4, nil, entry(5, t0()))
	if got := r2.NextSeq(); got != 6 {
		t.Fatalf("NextSeq after bare seed = %d, want 6", got)
	}
}

func TestRingKeepsNewestMetadata(t *testing.T) {
	// Past the cap, recording drops the oldest metadata. A depth above
	// the cap is clamped to it, so retained snapshots never outrun the
	// kept metadata.
	const n = MaxVersions + 100
	r := New(2*MaxVersions, nil, entry(0, t0()))
	for seq := uint64(1); seq < n; seq++ {
		r.Record(entry(seq, t0().Add(time.Duration(seq)*time.Second)))
	}
	vs := r.Versions()
	if len(vs) != MaxVersions || vs[0].Seq != n-MaxVersions || vs[len(vs)-1].Seq != n-1 {
		t.Fatalf("kept %d versions %d..%d, want the newest %d", len(vs), vs[0].Seq, vs[len(vs)-1].Seq, MaxVersions)
	}
	if oldest := r.OldestRetained(); oldest != vs[0].Seq {
		t.Fatalf("oldest retained = %d, want the oldest kept version %d", oldest, vs[0].Seq)
	}
	_, err := r.AsOf(t0().Add(time.Second))
	var ve *qerr.VersionEvictedError
	if !errors.As(err, &ve) || ve.Oldest != vs[0].Seq {
		t.Fatalf("AsOf before the kept versions = %v, want eviction naming %d", err, vs[0].Seq)
	}
	if got, err := r.AsOf(vs[0].Time); err != nil || got != vs[0].Seq {
		t.Fatalf("AsOf(oldest kept) = %d, %v", got, err)
	}

	// A decoded header longer than the cap shrinks the same way, and
	// its record of the restored version still wins.
	long := make([]Version, 3*MaxVersions)
	for i := range long {
		long[i] = Version{Seq: uint64(i), Time: t0().Add(time.Duration(i) * time.Second), Batch: 1}
	}
	last := uint64(len(long) - 1)
	r2 := New(4, long, entry(last, t0().Add(time.Hour)))
	vs = r2.Versions()
	if len(vs) != MaxVersions || vs[0].Seq != last-MaxVersions+1 || r2.Latest().Batch != 1 {
		t.Fatalf("restored %d versions from %d, latest %+v", len(vs), vs[0].Seq, r2.Latest().Version)
	}
}
