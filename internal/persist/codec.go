// Package persist implements mdserve's durable session snapshots: a
// versioned binary codec for saturated quality contexts plus the
// per-session store (see store.go) that pairs snapshots with a
// write-ahead log (package wal) into a crash-recoverable session
// directory.
//
// # Snapshot file layout
//
//	| magic "MDQSNP01" | metaLen u32 LE | metaCRC u32 LE | meta JSON |
//	| section* |
//
// where each section is
//
//	| nameLen u32 LE | name | bodyLen u32 LE | bodyCRC u32 LE | body |
//
// CRCs are CRC32-C (Castagnoli). The meta JSON (see Meta) carries the
// covered sequence number, the chase counters, and the section list; a
// session snapshot has two instance sections, "chase" (the saturated
// instance) and "orig" (the raw applied facts, for departure
// measures).
//
// An instance body is the full interner term table in id order
// followed by every relation as flat little-endian int32 row blocks,
// closed by an order-independent fold of the per-row bucket hashes
// (datalog.HashInt32s) — the same hashes the in-memory dedup buckets
// are built from — so a decoded instance is verified against the
// hash-bucket metadata of the encoded one, not just against the byte
// CRC.
//
// Decoding the "chase" section materializes rows over a fork of the
// live prepared base interner, verifying term-by-term that the encoded
// table is an extension of the base's: restored rows keep the exact
// ids the compiled plans were built against, and a snapshot written
// under a different context version fails loudly as incompatible
// rather than silently mis-joining.
package persist

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"

	"repro/internal/chase"
	"repro/internal/datalog"
	"repro/internal/history"
	"repro/internal/storage"
)

// Format is the snapshot format version, embedded in the magic and
// the meta JSON.
const Format = 1

const magic = "MDQSNP01"

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Instance section names.
const (
	SectionChase = "chase"
	SectionOrig  = "orig"
	// SectionSources holds the last-applied external source tuples of
	// a session with live source bindings (one instance, one relation
	// per binding). Optional: snapshots written before sources existed
	// — or by sessions without them — omit it, and decode to a nil
	// Sources instance.
	SectionSources = "sources"
)

// Meta is the snapshot's JSON header.
type Meta struct {
	Format  int    `json:"format"`
	Context string `json:"context"`
	Session string `json:"session"`
	// Seq is the highest acknowledged apply sequence the snapshot
	// covers; WAL batches with Seq beyond it are replayed on recovery.
	Seq     uint64 `json:"seq"`
	Created string `json:"created,omitempty"`
	// Applies is the session's cumulative count of acknowledged WAL
	// batches: apply batches, refresh deltas and rebuild markers.
	Applies int       `json:"applies"`
	Chase   ChaseMeta `json:"chase"`
	// Instances lists the section names, in file order.
	Instances []string `json:"instances"`
	// SourceVersions records each source binding's version token as of
	// the snapshot, keyed by binding name; present only when the
	// session has live sources.
	SourceVersions map[string]string `json:"source_versions,omitempty"`
	// History is the session's version metadata (trajectory, wall
	// times, delta attribution) for its newest history.MaxVersions
	// versions up to Seq. Metadata only — as-of reads
	// behind the in-memory ring reconstruct instances by WAL replay
	// from an earlier snapshot file. Absent from pre-history snapshots.
	History []history.Version `json:"history,omitempty"`
}

// ChaseMeta is the header's chase counters: chase.Restored, whose
// fields carry their JSON names.
type ChaseMeta = chase.Restored

// SessionState is the canonical durable state of one quality session:
// the saturated (chased) instance, the raw applied facts, and the
// portable chase counters. The quality layer exports and restores it;
// this package encodes and decodes it.
type SessionState struct {
	Chased *storage.Instance
	Orig   *storage.Instance
	Chase  chase.Restored
	// Sources holds the last-applied external source tuples (nil for
	// sessions without live source bindings), with SourceVersions the
	// per-binding version tokens they correspond to.
	Sources        *storage.Instance
	SourceVersions map[string]string
	// Seq is the apply sequence the state covers — the version number
	// the restored session resumes at. Carried in Meta.Seq on disk;
	// EncodeSnapshot takes it from its meta argument, ReadSnapshot
	// fills it in from the decoded header.
	Seq uint64
	// History is the session's version metadata up to Seq (see
	// Meta.History).
	History []history.Version
}

// EncodeSnapshot serializes a session snapshot. meta.Format, meta.Chase
// and meta.Instances are filled in from st.
func EncodeSnapshot(meta Meta, st SessionState) ([]byte, error) {
	if st.Chased == nil || st.Orig == nil {
		return nil, fmt.Errorf("persist: nil instance in session state")
	}
	meta.Format = Format
	meta.Chase = st.Chase
	meta.History = st.History
	meta.Instances = []string{SectionChase, SectionOrig}
	if st.Sources != nil {
		meta.Instances = append(meta.Instances, SectionSources)
		meta.SourceVersions = st.SourceVersions
	}
	mj, err := json.Marshal(meta)
	if err != nil {
		return nil, fmt.Errorf("persist: marshal meta: %w", err)
	}
	if err := fitsLength("meta", mj); err != nil {
		return nil, err
	}
	out := append([]byte(nil), magic...)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(mj)))
	out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(mj, castagnoli))
	out = append(out, mj...)
	// meta.Instances names the sections in file order: chase, orig,
	// then sources when present.
	sections := []*storage.Instance{st.Chased, st.Orig, st.Sources}
	for i, name := range meta.Instances {
		body := encodeInstance(sections[i])
		if err := fitsLength("section "+name, body); err != nil {
			return nil, err
		}
		out = appendSection(out, name, body)
	}
	return out, nil
}

// fitsLength rejects a header or section body longer than its uint32
// length prefix can state.
func fitsLength(what string, p []byte) error {
	if uint64(len(p)) > math.MaxUint32 {
		return fmt.Errorf("persist: %s of %d bytes does not fit its length prefix", what, len(p))
	}
	return nil
}

func appendSection(dst []byte, name string, body []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(name)))
	dst = append(dst, name...)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(body)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.Checksum(body, castagnoli))
	return append(dst, body...)
}

// encodeInstance serializes one instance body: the interner term table
// in id order, then every relation's schema and flat int32 rows with a
// row-hash fold.
func encodeInstance(db *storage.Instance) []byte {
	in := db.Interner()
	var out []byte
	out = binary.AppendUvarint(out, uint64(in.Len()))
	for id := 0; id < in.Len(); id++ {
		t := in.TermOf(int32(id))
		out = append(out, byte(t.Kind))
		out = binary.AppendUvarint(out, uint64(len(t.Name)))
		out = append(out, t.Name...)
	}
	names := db.RelationNames()
	out = binary.AppendUvarint(out, uint64(len(names)))
	for _, name := range names {
		rel := db.Relation(name)
		attrs := rel.Schema().Attrs
		out = binary.AppendUvarint(out, uint64(len(name)))
		out = append(out, name...)
		out = binary.AppendUvarint(out, uint64(len(attrs)))
		for _, a := range attrs {
			out = binary.AppendUvarint(out, uint64(len(a)))
			out = append(out, a...)
		}
		rows := rel.Rows()
		out = binary.AppendUvarint(out, uint64(len(rows)))
		var fold uint64
		for _, row := range rows {
			for _, id := range row {
				out = binary.LittleEndian.AppendUint32(out, uint32(id))
			}
			fold ^= datalog.HashInt32s(row)
		}
		out = binary.LittleEndian.AppendUint64(out, fold)
	}
	return out
}

// ReadMeta parses and verifies the snapshot header, returning the meta
// and the offset of the first section.
func ReadMeta(data []byte) (Meta, int, error) {
	if len(data) < len(magic)+8 {
		return Meta{}, 0, fmt.Errorf("persist: snapshot too short for header")
	}
	if string(data[:len(magic)]) != magic {
		return Meta{}, 0, fmt.Errorf("persist: bad magic %q", data[:len(magic)])
	}
	off := len(magic)
	mlen := binary.LittleEndian.Uint32(data[off : off+4])
	msum := binary.LittleEndian.Uint32(data[off+4 : off+8])
	off += 8
	if uint64(mlen) > uint64(len(data)-off) {
		return Meta{}, 0, fmt.Errorf("persist: meta length %d out of range", mlen)
	}
	mj := data[off : off+int(mlen)]
	if crc32.Checksum(mj, castagnoli) != msum {
		return Meta{}, 0, fmt.Errorf("persist: meta CRC mismatch")
	}
	var meta Meta
	if err := json.Unmarshal(mj, &meta); err != nil {
		return Meta{}, 0, fmt.Errorf("persist: unmarshal meta: %w", err)
	}
	if meta.Format != Format {
		return Meta{}, 0, fmt.Errorf("persist: unsupported snapshot format %d (want %d)", meta.Format, Format)
	}
	return meta, off + int(mlen), nil
}

// ReadSnapshot decodes a snapshot against the live prepared base
// interner: the "chase" section is materialized over base.Fork() with
// term-by-term prefix verification (see the package comment), the
// "orig" section over a fresh interner. The returned instances are
// mutable and owned by the caller.
func ReadSnapshot(data []byte, base *datalog.Interner) (Meta, SessionState, error) {
	meta, off, err := ReadMeta(data)
	if err != nil {
		return Meta{}, SessionState{}, err
	}
	bodies := map[string][]byte{}
	var order []string
	for off < len(data) {
		name, body, next, err := readSection(data, off)
		if err != nil {
			return Meta{}, SessionState{}, err
		}
		if _, dup := bodies[name]; dup {
			return Meta{}, SessionState{}, fmt.Errorf("persist: duplicate section %q", name)
		}
		bodies[name] = body
		order = append(order, name)
		off = next
	}
	if len(order) != len(meta.Instances) {
		return Meta{}, SessionState{}, fmt.Errorf("persist: %d sections, meta lists %d", len(order), len(meta.Instances))
	}
	for i, name := range meta.Instances {
		if order[i] != name {
			return Meta{}, SessionState{}, fmt.Errorf("persist: section %d is %q, meta lists %q", i, order[i], name)
		}
	}
	chaseBody, ok := bodies[SectionChase]
	if !ok {
		return Meta{}, SessionState{}, fmt.Errorf("persist: missing %q section", SectionChase)
	}
	origBody, ok := bodies[SectionOrig]
	if !ok {
		return Meta{}, SessionState{}, fmt.Errorf("persist: missing %q section", SectionOrig)
	}
	chased, err := decodeInstance(chaseBody, base.Fork())
	if err != nil {
		return Meta{}, SessionState{}, fmt.Errorf("persist: %s section: %w", SectionChase, err)
	}
	orig, err := decodeInstance(origBody, datalog.NewInterner())
	if err != nil {
		return Meta{}, SessionState{}, fmt.Errorf("persist: %s section: %w", SectionOrig, err)
	}
	st := SessionState{
		Chased:  chased,
		Orig:    orig,
		Chase:   meta.Chase,
		Seq:     meta.Seq,
		History: meta.History,
	}
	if srcBody, ok := bodies[SectionSources]; ok {
		st.Sources, err = decodeInstance(srcBody, datalog.NewInterner())
		if err != nil {
			return Meta{}, SessionState{}, fmt.Errorf("persist: %s section: %w", SectionSources, err)
		}
		st.SourceVersions = meta.SourceVersions
	}
	return meta, st, nil
}

func readSection(data []byte, off int) (name string, body []byte, next int, err error) {
	if len(data)-off < 4 {
		return "", nil, 0, fmt.Errorf("persist: truncated section header at %d", off)
	}
	nlen := binary.LittleEndian.Uint32(data[off : off+4])
	off += 4
	if nlen > 256 || uint64(nlen) > uint64(len(data)-off) {
		return "", nil, 0, fmt.Errorf("persist: section name length %d out of range", nlen)
	}
	name = string(data[off : off+int(nlen)])
	off += int(nlen)
	if len(data)-off < 8 {
		return "", nil, 0, fmt.Errorf("persist: truncated section %q header", name)
	}
	blen := binary.LittleEndian.Uint32(data[off : off+4])
	bsum := binary.LittleEndian.Uint32(data[off+4 : off+8])
	off += 8
	if uint64(blen) > uint64(len(data)-off) {
		return "", nil, 0, fmt.Errorf("persist: section %q length %d out of range", name, blen)
	}
	body = data[off : off+int(blen)]
	if crc32.Checksum(body, castagnoli) != bsum {
		return "", nil, 0, fmt.Errorf("persist: section %q CRC mismatch", name)
	}
	return name, body, off + int(blen), nil
}

// decodeInstance materializes one instance body over the given
// interner. Encoded term ids below the interner's current length must
// match its existing assignments exactly (the prefix verification that
// binds a "chase" section to the live base); ids beyond it are
// interned in order and must come out dense.
func decodeInstance(p []byte, in *datalog.Interner) (*storage.Instance, error) {
	baseLen := uint64(in.Len())
	nterms, p, err := uvarint(p)
	if err != nil {
		return nil, err
	}
	if nterms > uint64(len(p)) {
		return nil, fmt.Errorf("term count %d exceeds body size", nterms)
	}
	if nterms < baseLen {
		return nil, fmt.Errorf("term table shorter than live base (%d < %d): snapshot is incompatible with this context", nterms, baseLen)
	}
	for id := uint64(0); id < nterms; id++ {
		if len(p) < 1 {
			return nil, fmt.Errorf("truncated term table")
		}
		kind := datalog.TermKind(p[0])
		p = p[1:]
		if kind != datalog.KindConst && kind != datalog.KindVar && kind != datalog.KindNull {
			return nil, fmt.Errorf("term %d: unknown kind %d", id, kind)
		}
		var n uint64
		n, p, err = uvarint(p)
		if err != nil {
			return nil, err
		}
		if n > uint64(len(p)) {
			return nil, fmt.Errorf("term %d: name runs past body", id)
		}
		t := datalog.Term{Kind: kind, Name: string(p[:n])}
		p = p[n:]
		if id < uint64(in.Len()) {
			if in.TermOf(int32(id)) != t {
				return nil, fmt.Errorf("term %d is %v, live base has %v: snapshot is incompatible with this context (was it written under a different context version or data dir?)", id, t, in.TermOf(int32(id)))
			}
			continue
		}
		if got := in.ID(t); got != int32(id) {
			return nil, fmt.Errorf("term %d re-interned as %d: duplicate table entry", id, got)
		}
	}
	db := storage.NewInstanceWith(in)
	nrel, p, err := uvarint(p)
	if err != nil {
		return nil, err
	}
	if nrel > uint64(len(p)) {
		return nil, fmt.Errorf("relation count %d exceeds body size", nrel)
	}
	var rowBuf []int32
	for r := uint64(0); r < nrel; r++ {
		var name string
		name, p, err = readString(p)
		if err != nil {
			return nil, fmt.Errorf("relation %d: %v", r, err)
		}
		var nattrs uint64
		nattrs, p, err = uvarint(p)
		if err != nil {
			return nil, err
		}
		if nattrs > uint64(len(p)) {
			return nil, fmt.Errorf("relation %s: attr count %d exceeds body size", name, nattrs)
		}
		attrs := make([]string, 0, nattrs)
		for i := uint64(0); i < nattrs; i++ {
			var a string
			a, p, err = readString(p)
			if err != nil {
				return nil, fmt.Errorf("relation %s attr %d: %v", name, i, err)
			}
			attrs = append(attrs, a)
		}
		rel, err := db.CreateRelation(name, attrs...)
		if err != nil {
			return nil, err
		}
		var nrows uint64
		nrows, p, err = uvarint(p)
		if err != nil {
			return nil, err
		}
		arity := uint64(len(attrs))
		need := nrows * arity * 4
		if arity > 0 && nrows > uint64(len(p))/(arity*4) {
			return nil, fmt.Errorf("relation %s: %d rows run past body", name, nrows)
		}
		if uint64(len(p)) < need {
			return nil, fmt.Errorf("relation %s: %d rows run past body", name, nrows)
		}
		var fold uint64
		for i := uint64(0); i < nrows; i++ {
			rowBuf = rowBuf[:0]
			for j := uint64(0); j < arity; j++ {
				rowBuf = append(rowBuf, int32(binary.LittleEndian.Uint32(p[:4])))
				p = p[4:]
			}
			fresh, err := rel.InsertRow(rowBuf)
			if err != nil {
				return nil, fmt.Errorf("relation %s row %d: %w", name, i, err)
			}
			if !fresh {
				return nil, fmt.Errorf("relation %s row %d: duplicate row in snapshot", name, i)
			}
			fold ^= datalog.HashInt32s(rowBuf)
		}
		if len(p) < 8 {
			return nil, fmt.Errorf("relation %s: truncated row-hash", name)
		}
		if want := binary.LittleEndian.Uint64(p[:8]); fold != want {
			return nil, fmt.Errorf("relation %s: row-hash mismatch (%#x != %#x)", name, fold, want)
		}
		p = p[8:]
	}
	if len(p) != 0 {
		return nil, fmt.Errorf("%d trailing bytes after relations", len(p))
	}
	return db, nil
}

func readString(p []byte) (string, []byte, error) {
	n, p, err := uvarint(p)
	if err != nil {
		return "", nil, err
	}
	if n > uint64(len(p)) {
		return "", nil, fmt.Errorf("string runs past body")
	}
	return string(p[:n]), p[n:], nil
}

func uvarint(p []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(p)
	if n <= 0 {
		return 0, nil, fmt.Errorf("bad uvarint")
	}
	return v, p[n:], nil
}

// WriteFileAtomic writes data to path durably: a temp file in the same
// directory is written, fsynced and renamed over path, and the
// directory is fsynced so the rename itself survives power loss.
func WriteFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
