package persist

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/datalog"
	"repro/internal/wal"
)

// Root returns the store's root directory.
func (s *Store) Root() string { return s.root }

func testAtoms(tag string) []datalog.Atom {
	return []datalog.Atom{
		{Pred: "treats@v1", Args: []datalog.Term{datalog.C(tag), datalog.C("hep")}},
	}
}

func TestStoreRoundTrip(t *testing.T) {
	base, st := buildState(t)
	store, err := OpenStore(t.TempDir(), Options{WAL: wal.Options{Mode: wal.SyncNone}})
	if err != nil {
		t.Fatal(err)
	}
	l, err := store.CreateSession("hospital", "s1", Meta{}, st)
	if err != nil {
		t.Fatal(err)
	}
	for i, tag := range []string{"a", "b", "c"} {
		seq, err := l.Append(testAtoms(tag))
		if err != nil {
			t.Fatal(err)
		}
		if seq != uint64(i+1) {
			t.Fatalf("append %d assigned seq %d", i, seq)
		}
	}
	// Simulated crash: the log is dropped without Close. Same-process
	// reads see the kernel page cache, so the appended (un-fsynced)
	// batches are visible, as they would be after a SIGKILL.
	var got []wal.Batch
	l2, meta, st2, err := store.OpenSession("hospital", "s1", base, func(b wal.Batch) error {
		got = append(got, b)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if meta.Seq != 0 || len(got) != 3 || got[0].Seq != 1 || got[2].Seq != 3 {
		t.Fatalf("recovery: meta.Seq=%d batches=%v", meta.Seq, got)
	}
	if got[1].Atoms[0].Args[0] != datalog.C("b") {
		t.Fatalf("batch 2 atoms = %v", got[1].Atoms)
	}
	if !st2.Chased.Equal(st.Chased) || !st2.Orig.Equal(st.Orig) {
		t.Fatal("recovered state differs from created state")
	}
	if l2.Seq() != 3 {
		t.Fatalf("recovered log at seq %d, want 3", l2.Seq())
	}
	// New appends continue the numbering in a fresh segment.
	if seq, err := l2.Append(testAtoms("d")); err != nil || seq != 4 {
		t.Fatalf("post-recovery append: seq=%d err=%v", seq, err)
	}
}

func TestSnapshotCompaction(t *testing.T) {
	base, st := buildState(t)
	store, err := OpenStore(t.TempDir(), Options{WAL: wal.Options{Mode: wal.SyncNone}, SnapshotEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	l, err := store.CreateSession("hospital", "s1", Meta{}, st)
	if err != nil {
		t.Fatal(err)
	}
	if l.NeedSnapshot() {
		t.Fatal("fresh log wants a snapshot")
	}
	for _, tag := range []string{"a", "b"} {
		if _, err := l.Append(testAtoms(tag)); err != nil {
			t.Fatal(err)
		}
	}
	if !l.NeedSnapshot() {
		t.Fatal("log past SnapshotEvery does not want a snapshot")
	}
	covered, err := l.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	if covered != 2 || l.NeedSnapshot() {
		t.Fatalf("rotate covered %d, need=%v", covered, l.NeedSnapshot())
	}
	// Appends may land in the new segment before the snapshot is out.
	if _, err := l.Append(testAtoms("c")); err != nil {
		t.Fatal(err)
	}
	if err := l.WriteSnapshot(Meta{Context: "hospital", Session: "s1", Seq: covered, Applies: 2}, st); err != nil {
		t.Fatal(err)
	}
	// Compaction: exactly one snapshot (the new one) and one segment
	// (the live one) remain.
	dir := filepath.Join(store.Root(), "hospital", "s1")
	snaps, seqs, err := snapshots(dir)
	if err != nil || len(snaps) != 1 || seqs[0] != 2 {
		t.Fatalf("snapshots after compaction: %v (seqs %v, err %v)", snaps, seqs, err)
	}
	segs, _, err := wal.Segments(dir)
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments after compaction: %v (err %v)", segs, err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Recovery replays only the post-snapshot batch.
	var got []wal.Batch
	l2, meta, _, err := store.OpenSession("hospital", "s1", base, func(b wal.Batch) error {
		got = append(got, b)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if meta.Seq != 2 || len(got) != 1 || got[0].Seq != 3 {
		t.Fatalf("post-compaction recovery: meta.Seq=%d batches=%v", meta.Seq, got)
	}
}

func TestInterruptedCleanupRecovers(t *testing.T) {
	// A crash between snapshot rename and cleanup leaves an old
	// snapshot and sealed segments behind; recovery must use the
	// newest snapshot and skip covered sequences in old segments.
	base, st := buildState(t)
	store, err := OpenStore(t.TempDir(), Options{WAL: wal.Options{Mode: wal.SyncNone}})
	if err != nil {
		t.Fatal(err)
	}
	l, err := store.CreateSession("hospital", "s1", Meta{}, st)
	if err != nil {
		t.Fatal(err)
	}
	for _, tag := range []string{"a", "b"} {
		if _, err := l.Append(testAtoms(tag)); err != nil {
			t.Fatal(err)
		}
	}
	covered, err := l.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(testAtoms("c")); err != nil {
		t.Fatal(err)
	}
	// Write the covering snapshot by hand, skipping cleanup (as if the
	// process died right after the rename).
	data, err := EncodeSnapshot(Meta{Context: "hospital", Session: "s1", Seq: covered, Applies: 2}, st)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(store.Root(), "hospital", "s1")
	if err := WriteFileAtomic(filepath.Join(dir, SnapName(covered)), data); err != nil {
		t.Fatal(err)
	}
	snaps, _, _ := snapshots(dir)
	segs, _, _ := wal.Segments(dir)
	if len(snaps) != 2 || len(segs) != 2 {
		t.Fatalf("setup: %d snaps, %d segs; want 2 and 2", len(snaps), len(segs))
	}
	var got []wal.Batch
	l2, meta, _, err := store.OpenSession("hospital", "s1", base, func(b wal.Batch) error {
		got = append(got, b)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if meta.Seq != 2 || len(got) != 1 || got[0].Seq != 3 {
		t.Fatalf("recovery with leftovers: meta.Seq=%d batches=%v", meta.Seq, got)
	}
}

func TestStoreListingAndRemove(t *testing.T) {
	_, st := buildState(t)
	store, err := OpenStore(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, sid := range []string{"s2", "s1"} {
		l, err := store.CreateSession("hospital", sid, Meta{}, st)
		if err != nil {
			t.Fatal(err)
		}
		l.Close()
	}
	ctxs, err := store.ContextDirs()
	if err != nil || len(ctxs) != 1 || ctxs[0] != "hospital" {
		t.Fatalf("contexts: %v (err %v)", ctxs, err)
	}
	sids, err := store.SessionDirs("hospital")
	if err != nil || len(sids) != 2 || sids[0] != "s1" {
		t.Fatalf("sessions: %v (err %v)", sids, err)
	}
	if err := store.RemoveSession("hospital", "s1"); err != nil {
		t.Fatal(err)
	}
	if sids, _ = store.SessionDirs("hospital"); len(sids) != 1 || sids[0] != "s2" {
		t.Fatalf("sessions after remove: %v", sids)
	}
	if _, err := store.CreateSession("../evil", "s1", Meta{}, st); err == nil || !strings.Contains(err.Error(), "unsafe") {
		t.Fatalf("path traversal accepted: %v", err)
	}
	snap := filepath.Join(store.Root(), "hospital", "s2", SnapName(0))
	before, err := os.ReadFile(snap)
	if err != nil {
		t.Fatalf("expected initial snapshot on disk: %v", err)
	}
	// A create over a live session's directory fails and leaves its
	// durable state as it was.
	if _, err := store.CreateSession("hospital", "s2", Meta{Created: "intruder"}, st); err == nil {
		t.Fatal("create over an existing session directory succeeded")
	}
	if after, err := os.ReadFile(snap); err != nil || !bytes.Equal(after, before) {
		t.Fatalf("failed create touched the existing snapshot (err %v)", err)
	}
}

// TestTornTailTruncatedOnOpen: a torn append at the end of the final
// segment (five bytes of a record header, never acknowledged) does not
// make the session unreadable once OpenSession has created a successor
// segment after it: the open truncates the tail, at every retention.
func TestTornTailTruncatedOnOpen(t *testing.T) {
	for _, retain := range []int{0, 2} {
		base, st := buildState(t)
		store, err := OpenStore(t.TempDir(), Options{WAL: wal.Options{Mode: wal.SyncNone}, RetainHistory: retain})
		if err != nil {
			t.Fatal(err)
		}
		l, err := store.CreateSession("hospital", "s1", Meta{}, st)
		if err != nil {
			t.Fatal(err)
		}
		for _, tag := range []string{"a", "b"} {
			if _, err := l.Append(testAtoms(tag)); err != nil {
				t.Fatal(err)
			}
		}
		// Crash: the log is dropped without Close, mid-append.
		seg := filepath.Join(store.Root(), "hospital", "s1", wal.SegmentName(1))
		f, err := os.OpenFile(seg, os.O_APPEND|os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write([]byte{0x10, 0, 0, 0, 0}); err != nil {
			t.Fatal(err)
		}
		f.Close()
		for open := 1; open <= 2; open++ {
			var got []wal.Batch
			l2, _, _, err := store.OpenSession("hospital", "s1", base, func(b wal.Batch) error {
				got = append(got, b)
				return nil
			})
			if err != nil {
				t.Fatalf("retain %d, open %d: %v", retain, open, err)
			}
			if len(got) != 2 || got[1].Seq != 2 {
				t.Fatalf("retain %d, open %d: replayed %v, want batches 1 and 2", retain, open, got)
			}
			if err := l2.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}
