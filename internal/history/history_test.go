package history

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/datalog"
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
	r := New(2, 0)
	base := t0()
	for seq := uint64(0); seq <= 4; seq++ {
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
	if oldest, _ := r.OldestRetained(); oldest != 3 {
		t.Fatalf("oldest retained = %d, want 3", oldest)
	}
	if latest, _ := r.LatestSeq(); latest != 4 {
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

func TestRingByteBudget(t *testing.T) {
	// A 1-byte budget forces eviction down to the single newest entry
	// (the latest always survives).
	r := New(8, 1)
	for seq := uint64(0); seq <= 3; seq++ {
		r.Record(entry(seq, t0().Add(time.Duration(seq)*time.Minute)))
	}
	if oldest, _ := r.OldestRetained(); oldest != 3 {
		t.Fatalf("byte budget must evict to the newest entry, oldest = %d", oldest)
	}
	if latest := r.Latest(); latest == nil || latest.Seq != 3 {
		t.Fatalf("latest entry must survive the budget: %+v", latest)
	}
}

func TestRingAsOf(t *testing.T) {
	r := New(4, 0)
	base := t0()
	for seq := uint64(0); seq <= 3; seq++ {
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
	r := New(4, 0)
	v := qerr.Violation{Kind: qerr.NCViolation, ID: "nc1", Detail: "d"}
	e0 := entry(0, t0())
	r.Record(e0)
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
	r := New(4, 0)
	e := entry(2, t0().Add(time.Hour)) // restored state carries replay time
	r.Seed(metas, e)
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
	r2 := New(4, 0)
	r2.Seed(nil, entry(5, t0()))
	if got := r2.NextSeq(); got != 6 {
		t.Fatalf("NextSeq after bare seed = %d, want 6", got)
	}
}

// growingRing records versions of a live instance holding one
// 2000-row relation, inserting write rows into it before each
// snapshot after the first, under an 8-deep ring with the given byte
// budget.
func growingRing(t *testing.T, budget int64, versions, write int) *Ring {
	t.Helper()
	live := storage.NewInstance()
	for i := 0; i < 2000; i++ {
		live.MustInsert("G", datalog.C(fmt.Sprintf("g%d", i%50)), datalog.C(fmt.Sprintf("h%d", i/50)))
	}
	r := New(8, budget)
	for seq := 0; seq < versions; seq++ {
		for i := 0; seq > 0 && i < write; i++ {
			live.MustInsert("G", datalog.C(fmt.Sprintf("new%d-%d", seq, i)), datalog.C("h0"))
		}
		r.Record(&Entry{
			Version: Version{Seq: uint64(seq), Time: t0(), Rows: live.TotalTuples()},
			Inst:    live.Snapshot(),
		})
	}
	return r
}

func TestRingBudgetCountsCopiedRelations(t *testing.T) {
	// Each write after a snapshot copies the 2000-row relation's slot
	// table and key maps (about 19 KB; rows and posting lists stay
	// shared), and the older snapshot is left the only holder of the
	// old copy. A 36 KiB budget holds one such copy beside the newest
	// version, never two.
	r := growingRing(t, 36<<10, 8, 1)
	oldest, _ := r.OldestRetained()
	latest, _ := r.LatestSeq()
	if retained := latest - oldest + 1; retained != 2 {
		t.Fatalf("retained %d versions (%d..%d) under a budget below two relation copies, want 2", retained, oldest, latest)
	}
}

func TestRingBudgetSkipsSharedStorage(t *testing.T) {
	// Versions with no write in between share the relation's storage,
	// so the same budget retains all of them.
	r := growingRing(t, 256<<10, 8, 0)
	if oldest, _ := r.OldestRetained(); oldest != 0 {
		t.Fatalf("oldest retained = %d, want 0: unchanged versions must not be charged a copy each", oldest)
	}
}
