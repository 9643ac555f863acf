// Package wal implements the per-session write-ahead log behind
// mdserve's durable sessions: every acknowledged apply batch is
// appended as a length-prefixed, CRC32C-checksummed record before the
// acknowledgment goes out, so a crash loses at most batches that were
// never acked.
//
// # On-disk format
//
// A session's log is a directory of segment files named
// wal-<%016x generation>.log, replayed in generation order. Each
// segment is a sequence of records:
//
//	| len uint32 LE | crc uint32 LE | payload (len bytes) |
//
// where crc is CRC32-C (Castagnoli) over the payload. The payload's
// first byte is the record type:
//
//	recSyms  (1): uvarint count, then per symbol: kind byte,
//	              uvarint len, name bytes. Symbols extend the
//	              segment-local symbol table in order (ids are dense,
//	              0-based, per segment — every segment is
//	              self-contained and replayable alone).
//	recBatch (2): uvarint seq, uvarint natoms, then per atom:
//	              uvarint pred symbol, uvarint arity, per argument a
//	              uvarint term symbol.
//
// Symbol kinds 0–2 are datalog term kinds (constant, variable, null);
// kind 3 marks a predicate name.
//
// # Torn tails vs corruption
//
// Appends are single write syscalls, so a crash — even SIGKILL —
// leaves at most one partially-written record at the very end of the
// final segment (kernel writes are prefix-atomic per call; nothing is
// buffered in user space between Append and its acknowledgment).
// Decoding therefore tolerates exactly that shape: a record whose
// header or payload runs past end-of-file is a torn tail and is
// dropped. A record whose payload is fully present but fails its CRC,
// or that decodes inconsistently under a valid CRC, can not be a torn
// write — that is corruption, and replay fails loudly rather than
// silently dropping acknowledged data. Likewise a torn tail in any
// segment but the last one is corruption. Nothing creates a successor
// after a torn record: Rotate seals a segment only by closing it, a
// session that fails an append drops its writer rather than appending
// past the failure (the serving layer's failure rule), and recovery
// (persist.Store.OpenSession) truncates the final segment's torn tail
// to its last complete record (TornTail.Truncate) before it creates
// the segment that follows.
package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"time"

	"repro/internal/datalog"
)

// SyncMode selects when appends reach stable storage.
type SyncMode uint8

const (
	// SyncAlways fsyncs after every append: an acknowledged batch
	// survives power loss.
	SyncAlways SyncMode = iota
	// SyncInterval fsyncs at most once per Options.Interval,
	// piggybacked on appends (no background goroutine), and always on
	// Close. Acknowledged batches survive process death immediately
	// and power loss up to one interval behind.
	SyncInterval
	// SyncNone never fsyncs explicitly (OS writeback only, still
	// synced on Close). Acknowledged batches survive process death
	// but not necessarily power loss.
	SyncNone
)

// String renders the mode as its flag spelling.
func (m SyncMode) String() string {
	switch m {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	default:
		return "async"
	}
}

// ParseSyncMode parses the -fsync flag vocabulary.
func ParseSyncMode(s string) (SyncMode, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "interval", "":
		return SyncInterval, nil
	case "async":
		return SyncNone, nil
	}
	return 0, fmt.Errorf("wal: unknown fsync mode %q (always, interval, async)", s)
}

// DefaultInterval is the SyncInterval flush period when
// Options.Interval is zero.
const DefaultInterval = 100 * time.Millisecond

// MaxRecord bounds a single record's payload. Appends beyond it fail;
// decoders treat larger length prefixes as unreadable (torn or
// garbage) rather than allocating unbounded buffers.
const MaxRecord = 64 << 20

// Options configures a segment writer.
type Options struct {
	Mode     SyncMode
	Interval time.Duration // SyncInterval period (0 = DefaultInterval)
	// OnSync is invoked after every fsync (metrics hook). May be nil.
	OnSync func()
}

// castagnoli is the CRC32-C table shared by writer and reader.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Record type tags (first payload byte).
const (
	recSyms  = 1
	recBatch = 2
)

// Symbol kind tags. 0–2 mirror datalog.TermKind; symPred marks a
// predicate name.
const symPred = 3

// symKey identifies one symbol in a segment's symbol table.
type symKey struct {
	kind byte
	name string
}

// Writer appends batches to one segment file. It is not safe for
// concurrent use; the session layer serializes appends on its writer
// lock (the same lock that orders the engine applies being logged).
type Writer struct {
	f    *os.File
	opts Options
	// syms is the segment's symbol table as written: an append adds
	// its new symbols (staged in pending) only once its write succeeds,
	// so a failed append leaves the table as the file has it.
	syms     map[symKey]uint64
	pending  map[symKey]uint64
	lastSync time.Time
	fsyncs   int64
	buf      []byte
	rec      []byte
}

// Create opens a fresh segment file for appending. It fails if the
// file already exists — recovery never appends to an existing
// (possibly torn) segment; it starts a new one.
func Create(path string, opts Options) (*Writer, error) {
	if opts.Interval <= 0 {
		opts.Interval = DefaultInterval
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: create segment: %w", err)
	}
	return &Writer{f: f, opts: opts, syms: map[symKey]uint64{}, pending: map[symKey]uint64{}, lastSync: time.Now()}, nil
}

// sym returns the segment-local id of a symbol, staging it in pending
// and its table entry into entries when it is new to the segment.
func (w *Writer) sym(kind byte, name string, entries *[]byte) uint64 {
	k := symKey{kind: kind, name: name}
	if id, ok := w.syms[k]; ok {
		return id
	}
	if id, ok := w.pending[k]; ok {
		return id
	}
	id := uint64(len(w.syms) + len(w.pending))
	w.pending[k] = id
	*entries = append(*entries, kind)
	*entries = binary.AppendUvarint(*entries, uint64(len(name)))
	*entries = append(*entries, name...)
	return id
}

// Append logs one batch under the given sequence number. The batch is
// on disk — in the kernel, and per the sync mode on stable storage —
// when Append returns nil; only then may the caller acknowledge it.
// A batch whose records a reader could not take back (either longer
// than MaxRecord) fails before anything is written, and a failed write
// leaves the writer's symbol table as it was.
func (w *Writer) Append(seq uint64, atoms []datalog.Atom) error {
	defer clear(w.pending)
	// Build the batch payload, staging new symbols on the side.
	var symEntries []byte
	batch := w.rec[:0]
	batch = append(batch, recBatch)
	batch = binary.AppendUvarint(batch, seq)
	batch = binary.AppendUvarint(batch, uint64(len(atoms)))
	for _, a := range atoms {
		batch = binary.AppendUvarint(batch, w.sym(symPred, a.Pred, &symEntries))
		batch = binary.AppendUvarint(batch, uint64(len(a.Args)))
		for _, t := range a.Args {
			batch = binary.AppendUvarint(batch, w.sym(byte(t.Kind), t.Name, &symEntries))
		}
	}
	w.rec = batch[:0]
	var syms []byte
	if len(w.pending) > 0 {
		// Size the record before copying the entries into it: an
		// oversized one is refused without a second copy.
		syms = binary.AppendUvarint([]byte{recSyms}, uint64(len(w.pending)))
		if n := len(syms) + len(symEntries); n > MaxRecord {
			return fmt.Errorf("wal: symbols record of %d bytes exceeds MaxRecord", n)
		}
		syms = append(syms, symEntries...)
	}
	if len(batch) > MaxRecord {
		return fmt.Errorf("wal: batch record of %d bytes exceeds MaxRecord", len(batch))
	}

	// One write syscall covers the syms record (when any) and the
	// batch record, so a crash tears at most a suffix of this append.
	out := w.buf[:0]
	if len(syms) > 0 {
		out = appendRecord(out, syms)
	}
	out = appendRecord(out, batch)
	w.buf = out[:0]
	if _, err := w.f.Write(out); err != nil {
		return fmt.Errorf("wal: append: %w", err)
	}
	for k, id := range w.pending {
		w.syms[k] = id
	}

	switch w.opts.Mode {
	case SyncAlways:
		return w.Sync()
	case SyncInterval:
		if time.Since(w.lastSync) >= w.opts.Interval {
			return w.Sync()
		}
	}
	return nil
}

// appendRecord frames one payload (length prefix + CRC32-C).
func appendRecord(dst, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.Checksum(payload, castagnoli))
	return append(dst, payload...)
}

// Sync forces the segment to stable storage.
func (w *Writer) Sync() error {
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("wal: fsync: %w", err)
	}
	w.fsyncs++
	w.lastSync = time.Now()
	if w.opts.OnSync != nil {
		w.opts.OnSync()
	}
	return nil
}

// Close syncs (in every mode — shutdown flushes are unconditional) and
// closes the segment.
func (w *Writer) Close() error {
	if err := w.Sync(); err != nil {
		w.f.Close()
		return err
	}
	return w.f.Close()
}
