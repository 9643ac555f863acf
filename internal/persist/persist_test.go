package persist

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/chase"
	"repro/internal/datalog"
	"repro/internal/history"
	"repro/internal/storage"
)

// buildBase returns a compile-style base interner holding the terms a
// prepared context would have interned, plus a chased instance over a
// fork of it (with one invented null) and a small orig instance.
func buildState(t testing.TB) (*datalog.Interner, SessionState) {
	t.Helper()
	base := datalog.NewInterner()
	for _, name := range []string{"alice", "bob", "hep"} {
		base.ID(datalog.C(name))
	}
	chased := storage.NewInstanceWith(base.Fork())
	if _, err := chased.CreateRelation("treats", "doc", "cond"); err != nil {
		t.Fatal(err)
	}
	chased.MustInsert("treats", datalog.C("alice"), datalog.C("hep"))
	chased.MustInsert("treats", datalog.C("bob"), datalog.C("hep"))
	chased.MustInsert("cert", datalog.C("alice"), datalog.N("n0"))

	orig := storage.NewInstance()
	orig.MustInsert("treats@v1", datalog.C("alice"), datalog.C("hep"))

	st := SessionState{
		Chased: chased,
		Orig:   orig,
		Chase: chase.Restored{
			Rounds: 3, Fired: 7, Merged: 1, NullsCreated: 1, FreshPos: 1,
			Saturated: true,
			Violations: []chase.Violation{
				{Kind: 0, ID: "nc1", Detail: "negative constraint matched"},
			},
		},
	}
	return base, st
}

func TestCodecRoundTrip(t *testing.T) {
	base, st := buildState(t)
	data, err := EncodeSnapshot(Meta{Context: "hospital", Session: "s1", Seq: 42, Applies: 5}, st)
	if err != nil {
		t.Fatal(err)
	}
	meta, got, err := ReadSnapshot(data, base)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Context != "hospital" || meta.Session != "s1" || meta.Seq != 42 || meta.Applies != 5 {
		t.Fatalf("meta round-trip: %+v", meta)
	}
	if !got.Chased.Equal(st.Chased) {
		t.Fatalf("chased instance differs:\n%s\nvs\n%s", got.Chased, st.Chased)
	}
	if !got.Orig.Equal(st.Orig) {
		t.Fatalf("orig instance differs")
	}
	if got.Chase.Rounds != 3 || got.Chase.Fired != 7 || got.Chase.Merged != 1 ||
		got.Chase.NullsCreated != 1 || got.Chase.FreshPos != 1 || !got.Chase.Saturated {
		t.Fatalf("chase counters differ: %+v", got.Chase)
	}
	if len(got.Chase.Violations) != 1 || got.Chase.Violations[0].ID != "nc1" {
		t.Fatalf("violations differ: %+v", got.Chase.Violations)
	}
	if got.Chased.Frozen() || got.Orig.Frozen() {
		t.Fatal("decoded instances must be mutable")
	}
	// Restored rows keep base ids: "alice" must decode to the same id.
	fork := got.Chased.Interner()
	if id, ok := fork.Lookup(datalog.C("alice")); !ok || id != 0 {
		t.Fatalf("alice decoded to id %d (ok=%v), want 0", id, ok)
	}
	// A frozen export encodes identically to its live source.
	st2 := st
	st2.Chased = st.Chased.Snapshot()
	data2, err := EncodeSnapshot(Meta{Context: "hospital", Session: "s1", Seq: 42, Applies: 5}, st2)
	if err != nil {
		t.Fatal(err)
	}
	if string(data2) != string(data) {
		t.Fatal("frozen snapshot encodes differently from its live source")
	}
}

func TestIncompatibleBaseRejected(t *testing.T) {
	_, st := buildState(t)
	data, err := EncodeSnapshot(Meta{Context: "hospital", Session: "s1"}, st)
	if err != nil {
		t.Fatal(err)
	}
	// A base whose id 0 is a different term: prefix verification fails.
	other := datalog.NewInterner()
	other.ID(datalog.C("mallory"))
	if _, _, err := ReadSnapshot(data, other); err == nil || !strings.Contains(err.Error(), "incompatible") {
		t.Fatalf("mismatched base: err = %v, want incompatible-context error", err)
	}
	// A base that interned MORE than the snapshot ever saw: also
	// incompatible (the snapshot cannot vouch for the extra prefix).
	longer := datalog.NewInterner()
	for _, name := range []string{"alice", "bob", "hep"} {
		longer.ID(datalog.C(name))
	}
	for i := 0; i < 10; i++ {
		longer.ID(datalog.C(strings.Repeat("x", i+1)))
	}
	if _, _, err := ReadSnapshot(data, longer); err == nil || !strings.Contains(err.Error(), "incompatible") {
		t.Fatalf("longer base: err = %v, want incompatible-context error", err)
	}
}

func TestCorruptedSectionsRejected(t *testing.T) {
	base, st := buildState(t)
	good, err := EncodeSnapshot(Meta{Context: "c", Session: "s"}, st)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadSnapshot(good, base); err != nil {
		t.Fatalf("pristine snapshot failed: %v", err)
	}
	// Flipping any single byte must be detected (magic, meta CRC or a
	// section CRC), never silently decoded.
	for off := 0; off < len(good); off++ {
		bad := append([]byte(nil), good...)
		bad[off] ^= 0x40
		if _, _, err := ReadSnapshot(bad, base); err == nil {
			t.Fatalf("bit flip at offset %d decoded cleanly", off)
		}
	}
	// Truncations must be detected too.
	for _, cut := range []int{1, 5, 9, len(good) / 2, len(good) - 1} {
		if _, _, err := ReadSnapshot(good[:len(good)-cut], base); err == nil {
			t.Fatalf("truncation by %d decoded cleanly", cut)
		}
	}
}

func TestRowHashGuardsSemanticCorruption(t *testing.T) {
	// The per-relation row-hash fold catches a decoded instance whose
	// rows differ from the encoded ones even if a CRC were somehow
	// satisfied; here we exercise the check directly by re-framing a
	// tampered body with a fresh (valid) CRC.
	base, st := buildState(t)
	good, err := EncodeSnapshot(Meta{Context: "c", Session: "s"}, st)
	if err != nil {
		t.Fatal(err)
	}
	_, metaEnd, err := ReadMeta(good)
	if err != nil {
		t.Fatal(err)
	}
	name, body, _, err := readSection(good, metaEnd)
	if err != nil || name != SectionChase {
		t.Fatalf("first section %q err %v", name, err)
	}
	tampered := append([]byte(nil), body...)
	tampered[len(tampered)-9] ^= 0x01 // a row byte, not the hash itself
	reframed := append([]byte(nil), good[:metaEnd]...)
	reframed = appendSection(reframed, SectionChase, tampered)
	reframed = appendSection(reframed, SectionOrig, nil)
	// Meta lists the sections, so reuse it as-is; only the chase body
	// changed. Decoding must fail on the row-hash (or row validation),
	// not succeed.
	if _, _, err := ReadSnapshot(reframed, base); err == nil {
		t.Fatal("tampered rows decoded cleanly")
	}
}

// TestLongHistoryRoundTrips encodes a session whose header carries the
// metadata of 10,000 versions, over a megabyte of JSON, and reads it
// back: EncodeSnapshot must never write a header ReadSnapshot rejects.
func TestLongHistoryRoundTrips(t *testing.T) {
	base, st := buildState(t)
	t0 := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	for seq := uint64(0); seq < 10_000; seq++ {
		st.History = append(st.History, history.Version{
			Seq: seq, WALSeq: seq, Time: t0.Add(time.Duration(seq) * time.Second),
			Batch: 1, Violations: 1, Rows: 4_000 + int(seq),
			Scores: map[string]history.Score{"Measurements": {Original: int(seq), Quality: int(seq) / 2, Intersection: int(seq) / 2}},
		})
	}
	data, err := EncodeSnapshot(Meta{Context: "hospital", Session: "s1", Seq: 9_999}, st)
	if err != nil {
		t.Fatal(err)
	}
	meta, got, err := ReadSnapshot(data, base)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Seq != 9_999 || !reflect.DeepEqual(got.History, st.History) || !got.Chased.Equal(st.Chased) {
		t.Fatalf("round trip of %d versions: seq %d, %d versions back", len(st.History), meta.Seq, len(got.History))
	}
}
