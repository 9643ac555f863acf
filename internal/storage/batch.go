package storage

import (
	"fmt"

	"repro/internal/datalog"
)

// Batch is a per-worker staging buffer for derived rows: parallel
// chase and eval workers accumulate (relation, interned row) pairs
// into a private Batch while matching against a frozen round view,
// and a single writer merges every batch afterwards in a fixed order
// (Instance.MergeBatch). Rows are copied into a chunked arena on Add,
// so staging allocates once per chunk, not once per row, and the
// emission order is preserved exactly — the merge order of a round is
// (unit order, emission order), which keeps parallel runs
// deterministic for a fixed worker count.
//
// A Batch is not safe for concurrent use; the parallel engines give
// every work unit its own.
type Batch struct {
	preds []string
	rows  [][]int32
	arena datalog.Int32Arena
}

// Add stages one row for the named relation. The row is copied; the
// caller may reuse the slice immediately (register/projection buffers
// are reused across matches).
func (b *Batch) Add(pred string, row []int32) {
	b.preds = append(b.preds, pred)
	b.rows = append(b.rows, b.arena.Copy(row))
}

// Len returns the number of staged rows.
func (b *Batch) Len() int { return len(b.rows) }

// Pred returns the relation name of the i-th staged row.
func (b *Batch) Pred(i int) string { return b.preds[i] }

// Row returns the i-th staged row. The slice is owned by the batch.
func (b *Batch) Row(i int) []int32 { return b.rows[i] }

// Reset empties the batch for reuse, dropping its arena chunks.
func (b *Batch) Reset() {
	b.preds = b.preds[:0]
	b.rows = b.rows[:0]
	b.arena.Reset()
}

// InsertBatch merges a slice of staged rows into the relation under
// the single-writer contract: rows are deduplicated against the
// existing slot table (and each other) exactly as row-at-a-time
// InsertRow would, stored through the same arena, and indexed
// incrementally — the merged relation is indistinguishable from one
// built by sequential inserts in the same order. onNew, when non-nil,
// receives the arena-stored copy of every row that was actually new
// (valid for the relation's lifetime, like Rows() entries). It
// returns the number of new rows.
func (r *Relation) InsertBatch(rows [][]int32, onNew func(stored []int32)) (int, error) {
	if r.frozen {
		return 0, errFrozen(r.schema.Name)
	}
	added := 0
	for _, ids := range rows {
		stored, isNew, err := r.insertRowStored(ids)
		if err != nil {
			return added, err
		}
		if isNew {
			added++
			if onNew != nil {
				onNew(stored)
			}
		}
	}
	return added, nil
}

// MergeBatch merges a staged batch into the instance in emission
// order, creating relations as needed (synthetic attribute names,
// like InsertRow). onNew, when non-nil, receives the relation name
// and arena-stored row of every row that was actually new. It returns
// the number of new rows. MergeBatch is the single-writer half of the
// parallel round protocol: workers stage into private Batches against
// a frozen view, then one goroutine merges every batch in unit order.
// Each run of consecutive same-relation rows merges through one
// Relation.InsertBatch call.
func (db *Instance) MergeBatch(b *Batch, onNew func(pred string, stored []int32)) (int, error) {
	added := 0
	for i := 0; i < len(b.rows); {
		pred := b.preds[i]
		j := i + 1
		for j < len(b.rows) && b.preds[j] == pred {
			j++
		}
		rel, err := db.ensure(pred, len(b.rows[i]))
		if err != nil {
			return added, err
		}
		var perRow func(stored []int32)
		if onNew != nil {
			perRow = func(stored []int32) { onNew(pred, stored) }
		}
		n, err := rel.InsertBatch(b.rows[i:j], perRow)
		added += n
		if err != nil {
			return added, fmt.Errorf("storage: merge batch: %w", err)
		}
		i = j
	}
	return added, nil
}
