package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/datalog"
)

// FuzzWALDecode feeds arbitrary bytes to the segment decoder as both a
// final and a non-final segment. The decoder must never panic and
// never hand a batch to the callback with out-of-table symbols (the
// decoder's bounds checks are its memory-safety story).
func FuzzWALDecode(f *testing.F) {
	// Seed with valid encodings so the fuzzer starts past the framing.
	seed := func(bs []Batch) []byte {
		dir := f.TempDir()
		path := filepath.Join(dir, SegmentName(1))
		w, err := Create(path, Options{Mode: SyncNone})
		if err != nil {
			f.Fatal(err)
		}
		for _, b := range bs {
			if err := w.Append(b.Seq, b.Atoms); err != nil {
				f.Fatal(err)
			}
		}
		w.Close()
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		return data
	}
	f.Add(seed(nil))
	f.Add(seed([]Batch{{Seq: 1, Atoms: []datalog.Atom{
		{Pred: "p", Args: []datalog.Term{datalog.C("a"), datalog.N("n0")}},
	}}}))
	f.Add(seed([]Batch{
		{Seq: 1, Atoms: []datalog.Atom{{Pred: "q", Args: []datalog.Term{datalog.C("x")}}}},
		{Seq: 2, Atoms: []datalog.Atom{{Pred: "q", Args: []datalog.Term{datalog.C("x"), datalog.C("y")}}}},
	}))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, final := range []bool{true, false} {
			_, _ = DecodeSegment("fuzz", data, final, func(b Batch) error {
				for _, a := range b.Atoms {
					if a.Pred == "" && len(a.Args) == 0 {
						// fine — just touch the batch
						continue
					}
				}
				return nil
			})
		}
	})
}

// FuzzWALAppendReplay decodes its input into a sequence of batches and
// the index of one append whose write fails (the segment file swapped
// for a closed one; an index past the end fails none). It appends the
// batches in order, and replay must return exactly the acked ones: the
// failed append leaves nothing behind, and every later batch replays
// with its own symbols.
func FuzzWALAppendReplay(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{1, 0x21, 0x05, 0x13, 0x42, 0x07, 0x31})
	f.Add([]byte{0, 0x32, 0x11, 0x26, 0x04, 0x19, 0x33, 0x2a, 0x01})
	f.Add([]byte{2, 0x13, 0x55, 0x66, 0x13, 0x55, 0x67, 0x13, 0x56, 0x66})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		fail := int(data[0])
		batches := fuzzBatches(data[1:])
		dir := t.TempDir()
		w, err := Create(filepath.Join(dir, SegmentName(1)), Options{Mode: SyncNone})
		if err != nil {
			t.Fatal(err)
		}
		var acked []Batch
		for i, atoms := range batches {
			seq := uint64(len(acked) + 1)
			if i == fail {
				failWrites(t, w, func() {
					if err := w.Append(seq, atoms); err == nil {
						t.Fatalf("append %d to a closed file succeeded", i)
					}
				})
				continue
			}
			if err := w.Append(seq, atoms); err != nil {
				t.Fatal(err)
			}
			acked = append(acked, Batch{Seq: seq, Atoms: atoms})
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		var got []Batch
		if _, _, err := ReplayRange(dir, 0, ^uint64(0), func(b Batch) error {
			got = append(got, b)
			return nil
		}); err != nil {
			t.Fatalf("replay: %v", err)
		}
		if len(got) != len(acked) {
			t.Fatalf("replayed %d batches, acked %d", len(got), len(acked))
		}
		for i := range acked {
			if g, a := got[i], acked[i]; g.Seq != a.Seq || datalog.AtomsString(g.Atoms) != datalog.AtomsString(a.Atoms) {
				t.Fatalf("batch %d replayed as seq %d %s, acked as seq %d %s", i, g.Seq, datalog.AtomsString(g.Atoms), a.Seq, datalog.AtomsString(a.Atoms))
			}
		}
	})
}

// fuzzBatches decodes fuzz bytes into batches over a small vocabulary,
// so batches share predicates and terms and also bring new ones. Each
// batch starts with a byte whose low two bits are its atom count; each
// atom is one byte (predicate in the low two bits, arity in the next
// two) followed by one byte per argument (constant or null, and one of
// 32 names).
func fuzzBatches(p []byte) [][]datalog.Atom {
	var out [][]datalog.Atom
	next := func() (byte, bool) {
		if len(p) == 0 {
			return 0, false
		}
		b := p[0]
		p = p[1:]
		return b, true
	}
	for {
		h, ok := next()
		if !ok {
			return out
		}
		var atoms []datalog.Atom
		for n := int(h & 3); n > 0; n-- {
			b, ok := next()
			if !ok {
				break
			}
			a := datalog.Atom{Pred: fmt.Sprintf("p%d", b&3)}
			for k := int(b>>2) & 3; k > 0; k-- {
				t, ok := next()
				if !ok {
					break
				}
				name := fmt.Sprintf("t%d", t&31)
				if t&32 != 0 {
					a.Args = append(a.Args, datalog.N(name))
				} else {
					a.Args = append(a.Args, datalog.C(name))
				}
			}
			atoms = append(atoms, a)
		}
		out = append(out, atoms)
	}
}
