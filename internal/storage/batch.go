package storage

import "fmt"

// Batch is a per-worker staging buffer for derived rows: parallel
// eval workers stage (relation, interned row) pairs into a private
// Batch while matching against a frozen round view, and a single
// writer merges every batch afterwards in a fixed order
// (Instance.MergeBatch). Staged rows are copied back to back into one
// arity-strided cell array, with one run record per change of
// relation, so staging keeps no per-row string or slice header. The
// emission order is preserved exactly — the merge order of a round is
// (unit order, emission order), which keeps parallel runs
// deterministic for a fixed worker count.
//
// A Batch is not safe for concurrent use; the parallel engines give
// every work unit its own.
type Batch struct {
	cells []int32    // staged rows, concatenated in emission order
	runs  []batchRun // one per maximal run of same-relation rows
}

// batchRun is count consecutive staged rows of one relation, stored
// at cells[start : start+arity*count].
type batchRun struct {
	pred                string
	arity, start, count int
}

// Add stages one row for the named relation. The row is copied; the
// caller may reuse the slice immediately (register/projection buffers
// are reused across matches).
func (b *Batch) Add(pred string, row []int32) {
	if n := len(b.runs); n > 0 && b.runs[n-1].pred == pred && b.runs[n-1].arity == len(row) {
		b.runs[n-1].count++
	} else {
		b.runs = append(b.runs, batchRun{pred: pred, arity: len(row), start: len(b.cells), count: 1})
	}
	b.cells = append(b.cells, row...)
}

// MergeBatch merges a staged batch into the instance in emission
// order, creating relations as needed (synthetic attribute names,
// like InsertRow). Rows are deduplicated against the existing slot
// tables (and each other) exactly as row-at-a-time InsertRow would,
// so the merged instance is indistinguishable from one built by
// sequential inserts in the same order; the new rows are the ones past
// a Lens taken before the merge. It returns the number of new rows.
// MergeBatch is the single-writer half of the parallel round protocol:
// workers stage into private Batches against a frozen view, then one
// goroutine merges every batch in unit order.
func (db *Instance) MergeBatch(b *Batch) (int, error) {
	added := 0
	for _, run := range b.runs {
		rel, err := db.ensure(run.pred, run.arity)
		if err != nil {
			return added, err
		}
		for i := 0; i < run.count; i++ {
			at := run.start + i*run.arity
			isNew, err := rel.InsertRow(b.cells[at : at+run.arity])
			if err != nil {
				return added, fmt.Errorf("storage: merge batch: %w", err)
			}
			if isNew {
				added++
			}
		}
	}
	return added, nil
}
