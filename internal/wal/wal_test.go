package wal

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/datalog"
)

// Fsyncs returns how many fsyncs this writer has issued.
func (w *Writer) Fsyncs() int64 { return w.fsyncs }

func batch(preds ...string) []datalog.Atom {
	var out []datalog.Atom
	for i, p := range preds {
		out = append(out, datalog.Atom{Pred: p, Args: []datalog.Term{
			datalog.C("v" + p),
			datalog.N("n" + p),
			datalog.C("k"), // shared across atoms: exercises symbol reuse
		}})
		_ = i
	}
	return out
}

// writeSegments writes the given batches split across segment files,
// one slice of batches per segment, and returns the directory.
func writeSegments(t *testing.T, segs ...[]Batch) string {
	t.Helper()
	dir := t.TempDir()
	for i, bs := range segs {
		w, err := Create(filepath.Join(dir, SegmentName(uint64(i+1))), Options{Mode: SyncNone})
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range bs {
			if err := w.Append(b.Seq, b.Atoms); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func replayAll(t *testing.T, dir string, afterSeq uint64) ([]Batch, uint64, error) {
	t.Helper()
	var got []Batch
	last, err := ReplayRange(dir, afterSeq, ^uint64(0), func(b Batch) error {
		got = append(got, b)
		return nil
	})
	return got, last, err
}

func TestRoundTripAcrossSegments(t *testing.T) {
	want := [][]Batch{
		{{Seq: 1, Atoms: batch("p", "q")}, {Seq: 2, Atoms: batch("p")}},
		{{Seq: 5, Atoms: batch("q", "r", "p")}},
		{{Seq: 6, Atoms: nil}, {Seq: 9, Atoms: batch("r")}},
	}
	dir := writeSegments(t, want...)

	got, last, err := replayAll(t, dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if last != 9 {
		t.Fatalf("last seq = %d, want 9", last)
	}
	var flat []Batch
	for _, seg := range want {
		flat = append(flat, seg...)
	}
	if len(got) != len(flat) {
		t.Fatalf("replayed %d batches, want %d", len(got), len(flat))
	}
	for i := range flat {
		if got[i].Seq != flat[i].Seq {
			t.Fatalf("batch %d: seq %d, want %d", i, got[i].Seq, flat[i].Seq)
		}
		if len(got[i].Atoms) != len(flat[i].Atoms) {
			t.Fatalf("batch %d: %d atoms, want %d", i, len(got[i].Atoms), len(flat[i].Atoms))
		}
		for j := range flat[i].Atoms {
			if !reflect.DeepEqual(got[i].Atoms[j], flat[i].Atoms[j]) {
				t.Fatalf("batch %d atom %d: %v, want %v", i, j, got[i].Atoms[j], flat[i].Atoms[j])
			}
		}
	}

	// Replay after a snapshot boundary skips covered batches.
	got, last, err = replayAll(t, dir, 5)
	if err != nil {
		t.Fatal(err)
	}
	if last != 9 || len(got) != 2 || got[0].Seq != 6 || got[1].Seq != 9 {
		t.Fatalf("afterSeq=5 replay: last=%d batches=%v", last, got)
	}
}

func TestSyncModes(t *testing.T) {
	dir := t.TempDir()

	w, err := Create(filepath.Join(dir, SegmentName(1)), Options{Mode: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		if err := w.Append(uint64(i), batch("p")); err != nil {
			t.Fatal(err)
		}
	}
	if w.Fsyncs() != 3 {
		t.Fatalf("always mode: %d fsyncs after 3 appends, want 3", w.Fsyncs())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	synced := 0
	w, err = Create(filepath.Join(dir, SegmentName(2)), Options{Mode: SyncInterval, Interval: time.Hour, OnSync: func() { synced++ }})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		if err := w.Append(uint64(i), batch("p")); err != nil {
			t.Fatal(err)
		}
	}
	if w.Fsyncs() != 0 {
		t.Fatalf("interval mode within period: %d fsyncs, want 0", w.Fsyncs())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if synced != 1 {
		t.Fatalf("OnSync fired %d times, want 1 (the Close flush)", synced)
	}

	w, err = Create(filepath.Join(dir, SegmentName(3)), Options{Mode: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(1, batch("p")); err != nil {
		t.Fatal(err)
	}
	if w.Fsyncs() != 0 {
		t.Fatalf("async mode: %d fsyncs before Close, want 0", w.Fsyncs())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if w.Fsyncs() != 1 {
		t.Fatalf("async mode: %d fsyncs after Close, want 1", w.Fsyncs())
	}
}

func TestTornTailDropped(t *testing.T) {
	dir := writeSegments(t, []Batch{
		{Seq: 1, Atoms: batch("p")},
		{Seq: 2, Atoms: batch("q")},
	})
	path := filepath.Join(dir, SegmentName(1))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Chop increasing suffixes off the file; every cut must replay
	// cleanly with only the fully-written prefix of batches.
	for cut := 1; cut < 12; cut++ {
		if err := os.WriteFile(path, data[:len(data)-cut], 0o644); err != nil {
			t.Fatal(err)
		}
		got, last, err := replayAll(t, dir, 0)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if last != 1 || len(got) != 1 || got[0].Seq != 1 {
			t.Fatalf("cut %d: last=%d got=%v, want only batch 1", cut, last, got)
		}
	}
}

func TestTornTailInNonFinalSegmentIsCorruption(t *testing.T) {
	dir := writeSegments(t,
		[]Batch{{Seq: 1, Atoms: batch("p")}},
		[]Batch{{Seq: 2, Atoms: batch("q")}},
	)
	path := filepath.Join(dir, SegmentName(1))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = replayAll(t, dir, 0)
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *CorruptError", err)
	}
}

func TestBadCRCIsCorruption(t *testing.T) {
	dir := writeSegments(t, []Batch{{Seq: 1, Atoms: batch("p")}})
	path := filepath.Join(dir, SegmentName(1))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one bit in the last byte: the payload is complete, so this
	// can never be mistaken for a torn tail, even in the final segment.
	data[len(data)-1] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = replayAll(t, dir, 0)
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *CorruptError", err)
	}
}

func TestSequenceRegressionIsCorruption(t *testing.T) {
	dir := writeSegments(t, []Batch{
		{Seq: 5, Atoms: batch("p")},
		{Seq: 5, Atoms: batch("q")},
	})
	_, _, err := replayAll(t, dir, 0)
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *CorruptError", err)
	}
}

func TestCreateRefusesExisting(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, SegmentName(1))
	w, err := Create(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	w.Close()
	if _, err := Create(path, Options{}); err == nil {
		t.Fatal("Create over an existing segment succeeded")
	}
}

func TestSegmentsOrderAndMaxGen(t *testing.T) {
	dir := t.TempDir()
	for _, gen := range []uint64{7, 2, 12} {
		w, err := Create(filepath.Join(dir, SegmentName(gen)), Options{})
		if err != nil {
			t.Fatal(err)
		}
		w.Close()
	}
	// Non-segment files are ignored.
	if err := os.WriteFile(filepath.Join(dir, "snap-0000000000000000.snap"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	paths, maxGen, err := Segments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if maxGen != 12 || len(paths) != 3 {
		t.Fatalf("maxGen=%d paths=%v", maxGen, paths)
	}
	for i, want := range []uint64{2, 7, 12} {
		if filepath.Base(paths[i]) != SegmentName(want) {
			t.Fatalf("paths[%d] = %s, want %s", i, paths[i], SegmentName(want))
		}
	}
}

func TestParseSyncMode(t *testing.T) {
	for in, want := range map[string]SyncMode{
		"always": SyncAlways, "interval": SyncInterval, "": SyncInterval, "async": SyncNone,
	} {
		got, err := ParseSyncMode(in)
		if err != nil || got != want {
			t.Fatalf("ParseSyncMode(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseSyncMode("sometimes"); err == nil {
		t.Fatal("ParseSyncMode accepted an unknown mode")
	}
}

// TestOversizedSymbolNeverAcked appends a batch whose constant alone
// is longer than MaxRecord. Its batch record is small, but the symbols
// record is longer than any reader accepts: the append must fail, and
// the batches acked around it must replay.
func TestOversizedSymbolNeverAcked(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(filepath.Join(dir, SegmentName(1)), Options{Mode: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(1, batch("p")); err != nil {
		t.Fatal(err)
	}
	huge := []datalog.Atom{{Pred: "big", Args: []datalog.Term{datalog.C(strings.Repeat("x", MaxRecord+1))}}}
	if err := w.Append(2, huge); err == nil {
		t.Fatal("append of a symbol longer than MaxRecord was acked")
	}
	if err := w.Append(2, batch("q")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, last, err := replayAll(t, dir, 0)
	want := []Batch{{Seq: 1, Atoms: batch("p")}, {Seq: 2, Atoms: batch("q")}}
	if err != nil || last != 2 || !reflect.DeepEqual(got, want) {
		t.Fatalf("replay = %v (last %d, err %v), want %v", got, last, err, want)
	}
}

// TestFailedAppendLeavesWriterUnchanged forces one append's write to
// fail by swapping the segment file for a closed one. The batch held
// symbols new to the segment; the next append must write them again,
// so replay returns exactly the acked batches.
func TestFailedAppendLeavesWriterUnchanged(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(filepath.Join(dir, SegmentName(1)), Options{Mode: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(1, batch("p")); err != nil {
		t.Fatal(err)
	}
	failWrites(t, w, func() {
		if err := w.Append(2, batch("q", "r")); err == nil {
			t.Fatal("append to a closed file succeeded")
		}
	})
	if err := w.Append(2, batch("q", "r")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, last, err := replayAll(t, dir, 0)
	want := []Batch{{Seq: 1, Atoms: batch("p")}, {Seq: 2, Atoms: batch("q", "r")}}
	if err != nil || last != 2 || !reflect.DeepEqual(got, want) {
		t.Fatalf("replay = %v (last %d, err %v), want %v", got, last, err, want)
	}
}

// failWrites runs fn with the writer's segment swapped for a closed
// file, so every write fn makes fails, and then swaps it back.
func failWrites(t testing.TB, w *Writer, fn func()) {
	t.Helper()
	closed, err := os.Create(filepath.Join(t.TempDir(), "closed"))
	if err != nil {
		t.Fatal(err)
	}
	closed.Close()
	live := w.f
	w.f = closed
	defer func() { w.f = live }()
	fn()
}
