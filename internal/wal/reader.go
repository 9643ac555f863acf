package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/datalog"
)

// Batch is one replayed apply batch.
type Batch struct {
	Seq   uint64
	Atoms []datalog.Atom
}

// CorruptError reports interior log damage: a record that cannot be a
// torn trailing write (see the package comment). Replay never skips
// past one — acknowledged data may be missing and the operator must
// decide, not the recovery path.
type CorruptError struct {
	Path   string
	Offset int
	Reason string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("wal: corrupt log %s at offset %d: %s", e.Path, e.Offset, e.Reason)
}

// SegmentName formats a segment file name for a generation number.
func SegmentName(gen uint64) string { return fmt.Sprintf("wal-%016x.log", gen) }

// segmentGen parses a segment file name, reporting whether it is one.
func segmentGen(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".log") {
		return 0, false
	}
	var gen uint64
	if _, err := fmt.Sscanf(name, "wal-%016x.log", &gen); err != nil {
		return 0, false
	}
	return gen, true
}

// Segments lists a directory's segment files in generation order and
// returns the highest generation seen (0 when none).
func Segments(dir string) (paths []string, maxGen uint64, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, 0, err
	}
	type seg struct {
		gen  uint64
		path string
	}
	var segs []seg
	for _, e := range entries {
		if gen, ok := segmentGen(e.Name()); ok {
			segs = append(segs, seg{gen: gen, path: filepath.Join(dir, e.Name())})
			if gen > maxGen {
				maxGen = gen
			}
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].gen < segs[j].gen })
	for _, s := range segs {
		paths = append(paths, s.path)
	}
	return paths, maxGen, nil
}

// DecodeSegment decodes one segment's records, invoking fn per batch,
// and returns the length of its complete records: len(data), or the
// offset of the torn tail it dropped. final marks the directory's last
// segment: only there is a trailing torn record tolerated (and
// dropped); anywhere else — and for any damage that is not a clean
// torn tail — decoding fails with a *CorruptError. fn returning an
// error aborts decoding with it.
func DecodeSegment(path string, data []byte, final bool, fn func(Batch) error) (int, error) {
	var table []datalog.Term // segment-local symbol table; preds as KindConst
	var preds []bool
	off := 0
	corrupt := func(at int, format string, args ...any) (int, error) {
		return at, &CorruptError{Path: path, Offset: at, Reason: fmt.Sprintf(format, args...)}
	}
	torn := func(at int, reason string) (int, error) {
		if final {
			return at, nil // torn trailing write: drop the tail
		}
		return corrupt(at, "torn record in a non-final segment (%s)", reason)
	}
	for off < len(data) {
		rest := data[off:]
		if len(rest) < 8 {
			return torn(off, "short header")
		}
		length := binary.LittleEndian.Uint32(rest[:4])
		sum := binary.LittleEndian.Uint32(rest[4:8])
		if length > MaxRecord {
			return torn(off, "unreadable length prefix")
		}
		if len(rest) < 8+int(length) {
			return torn(off, "short payload")
		}
		payload := rest[8 : 8+int(length)]
		if crc32.Checksum(payload, castagnoli) != sum {
			// The payload is fully present, and appends are prefix-
			// atomic single writes: this cannot be a torn tail.
			return corrupt(off, "CRC mismatch on a complete record")
		}
		if len(payload) == 0 {
			return corrupt(off, "empty record")
		}
		switch payload[0] {
		case recSyms:
			if err := decodeSyms(payload[1:], &table, &preds); err != nil {
				return corrupt(off, "syms record: %v", err)
			}
		case recBatch:
			b, err := decodeBatch(payload[1:], table, preds)
			if err != nil {
				return corrupt(off, "batch record: %v", err)
			}
			if err := fn(b); err != nil {
				return off, err
			}
		default:
			return corrupt(off, "unknown record type %d", payload[0])
		}
		off += 8 + int(length)
	}
	return off, nil
}

// TornTail locates the torn trailing record replay dropped: the final
// segment at Path holds complete records up to Offset, then the
// partial write of an append that was never acknowledged.
type TornTail struct {
	Path   string
	Offset int
}

// Truncate cuts the segment back to its complete records and syncs
// it, so the segment ends cleanly before a successor is created after
// it (a torn record anywhere but the final segment is corruption).
func (t *TornTail) Truncate() error {
	f, err := os.OpenFile(t.Path, os.O_WRONLY, 0)
	if err == nil {
		if err = f.Truncate(int64(t.Offset)); err == nil {
			err = f.Sync()
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return fmt.Errorf("wal: truncate torn tail: %w", err)
	}
	return nil
}

// decodeSyms appends a syms record's entries to the segment table.
func decodeSyms(p []byte, table *[]datalog.Term, preds *[]bool) error {
	count, p, err := uvarint(p)
	if err != nil {
		return err
	}
	if count > uint64(len(p)) {
		// Each entry costs at least two bytes; reject insane counts
		// before looping.
		return fmt.Errorf("symbol count %d exceeds record size", count)
	}
	for i := uint64(0); i < count; i++ {
		if len(p) < 1 {
			return fmt.Errorf("truncated symbol entry")
		}
		kind := p[0]
		p = p[1:]
		var n uint64
		n, p, err = uvarint(p)
		if err != nil {
			return err
		}
		if n > uint64(len(p)) {
			return fmt.Errorf("symbol name runs past record")
		}
		name := string(p[:n])
		p = p[n:]
		switch kind {
		case byte(datalog.KindConst), byte(datalog.KindVar), byte(datalog.KindNull):
			*table = append(*table, datalog.Term{Kind: datalog.TermKind(kind), Name: name})
			*preds = append(*preds, false)
		case symPred:
			*table = append(*table, datalog.Term{Kind: datalog.KindConst, Name: name})
			*preds = append(*preds, true)
		default:
			return fmt.Errorf("unknown symbol kind %d", kind)
		}
	}
	if len(p) != 0 {
		return fmt.Errorf("%d trailing bytes", len(p))
	}
	return nil
}

// decodeBatch decodes one batch record against the segment table.
func decodeBatch(p []byte, table []datalog.Term, preds []bool) (Batch, error) {
	seq, p, err := uvarint(p)
	if err != nil {
		return Batch{}, err
	}
	natoms, p, err := uvarint(p)
	if err != nil {
		return Batch{}, err
	}
	if natoms > uint64(len(p)) {
		// Each atom costs at least one byte; reject insane counts
		// before allocating.
		return Batch{}, fmt.Errorf("atom count %d exceeds record size", natoms)
	}
	b := Batch{Seq: seq, Atoms: make([]datalog.Atom, 0, natoms)}
	for i := uint64(0); i < natoms; i++ {
		var predID uint64
		predID, p, err = uvarint(p)
		if err != nil {
			return Batch{}, err
		}
		if predID >= uint64(len(table)) || !preds[predID] {
			return Batch{}, fmt.Errorf("predicate symbol %d out of table", predID)
		}
		var arity uint64
		arity, p, err = uvarint(p)
		if err != nil {
			return Batch{}, err
		}
		if arity > uint64(len(p)) {
			return Batch{}, fmt.Errorf("arity %d exceeds record size", arity)
		}
		a := datalog.Atom{Pred: table[predID].Name, Args: make([]datalog.Term, 0, arity)}
		for j := uint64(0); j < arity; j++ {
			var id uint64
			id, p, err = uvarint(p)
			if err != nil {
				return Batch{}, err
			}
			if id >= uint64(len(table)) || preds[id] {
				return Batch{}, fmt.Errorf("term symbol %d out of table", id)
			}
			a.Args = append(a.Args, table[id])
		}
		b.Atoms = append(b.Atoms, a)
	}
	if len(p) != 0 {
		return Batch{}, fmt.Errorf("%d trailing bytes", len(p))
	}
	return b, nil
}

// uvarint decodes one uvarint, returning the rest of the buffer.
func uvarint(p []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(p)
	if n <= 0 {
		return 0, nil, fmt.Errorf("bad uvarint")
	}
	return v, p[n:], nil
}

// ReplayRange replays every batch with afterSeq < Seq <= upToSeq from
// the directory's segments in order, returning the highest sequence
// seen in the whole log (afterSeq when none) — callers that replay a
// prefix still learn how far the log extends — and the final
// segment's torn tail, when decoding dropped one (nil otherwise).
// Every segment is decoded and integrity-checked end to end even when
// the range ends early: a bounded replay must not report success over
// a log whose tail is corrupt. Sequences must be strictly increasing
// across the whole log; a regression is corruption. The session reader
// behind recovery and as-of reconstruction (persist.Store.OpenSession
// and ReadSessionAt) uses this to roll a snapshot forward, to the end
// of the log or to an exact version.
func ReplayRange(dir string, afterSeq, upToSeq uint64, fn func(Batch) error) (uint64, *TornTail, error) {
	paths, _, err := Segments(dir)
	if err != nil {
		return afterSeq, nil, err
	}
	last := afterSeq
	prev := uint64(0)
	var torn *TornTail
	for i, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			return last, nil, err
		}
		final := i == len(paths)-1
		end, err := DecodeSegment(path, data, final, func(b Batch) error {
			if b.Seq <= prev {
				return &CorruptError{Path: path, Reason: fmt.Sprintf("sequence %d not increasing (previous %d)", b.Seq, prev)}
			}
			prev = b.Seq
			if b.Seq > last {
				last = b.Seq
			}
			if b.Seq <= afterSeq || b.Seq > upToSeq {
				return nil // covered by the snapshot, or beyond the range
			}
			return fn(b)
		})
		if err != nil {
			return last, nil, err
		}
		if end < len(data) {
			torn = &TornTail{Path: path, Offset: end}
		}
	}
	return last, torn, nil
}
