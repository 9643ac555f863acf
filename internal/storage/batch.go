package storage

import "fmt"

// Batch is a per-worker staging buffer for derived rows: parallel
// eval workers stage (relation, interned row) pairs into a private
// Batch while matching against a frozen round view, and a single
// writer merges every batch of the round afterwards in a fixed order
// (Instance.MergeBatch). Staged rows are copied back to back into
// chunks that are never regrown, so a staged row is copied once, and
// one run record per change of relation (or of chunk) names them, so
// staging keeps no per-row string or slice header. The emission order
// is preserved exactly — the merge order of a round is (unit order,
// emission order), which keeps parallel runs deterministic for a fixed
// worker count.
//
// A Batch is not safe for concurrent use; the parallel engines give
// every work unit its own.
type Batch struct {
	chunks [][]int32  // staged rows, concatenated in emission order
	runs   []batchRun // one per maximal run of same-relation rows in one chunk
}

// batchRun is count consecutive staged rows of one relation, stored
// at chunks[chunk][start : start+arity*count].
type batchRun struct {
	pred                       string
	arity, chunk, start, count int
}

// Chunk sizes in cells: the first chunk of a batch holds firstChunk,
// and each later one twice its predecessor, up to maxChunk (or one row,
// if larger). Doubling keeps a small unit's batch small and a large
// one's chunk count logarithmic, without copying what is staged.
const (
	firstChunk = 64
	maxChunk   = 1 << 16
)

// Add stages one row for the named relation. The row is copied; the
// caller may reuse the slice immediately (register/projection buffers
// are reused across matches).
func (b *Batch) Add(pred string, row []int32) {
	c := len(b.chunks) - 1
	if c < 0 || len(b.chunks[c])+len(row) > cap(b.chunks[c]) {
		size := firstChunk
		if c >= 0 {
			size = min(2*cap(b.chunks[c]), maxChunk)
		}
		b.chunks = append(b.chunks, make([]int32, 0, max(size, len(row))))
		c++
	}
	// The last run ends where the current chunk does when it lies in
	// that chunk: every row staged since it started belongs to it.
	if n := len(b.runs); n > 0 && b.runs[n-1].chunk == c && b.runs[n-1].pred == pred && b.runs[n-1].arity == len(row) {
		b.runs[n-1].count++
	} else {
		b.runs = append(b.runs, batchRun{pred: pred, arity: len(row), chunk: c, start: len(b.chunks[c]), count: 1})
	}
	b.chunks[c] = append(b.chunks[c], row...)
}

// MergeBatch merges one round's staged batches into the instance, in
// argument order and each in emission order, creating relations as
// needed (synthetic attribute names, like InsertRow). Rows are
// deduplicated against the existing slot tables (and each other)
// exactly as row-at-a-time InsertRow would, so the merged instance
// holds the same rows in the same order as one built by sequential
// inserts, and the new rows are the ones past a Lens taken before the
// merge. It returns the number of new rows. MergeBatch is the
// single-writer half of the parallel round protocol: workers stage
// into private Batches against a frozen view, then one goroutine
// merges every batch in unit order.
//
// A relation that is empty before the merge, as every derived relation
// is on its cold fill, is sized once for all the rows staged for it,
// and given back afterwards what rows dedup dropped left unused (see
// Relation.reserve and Relation.giveBack): its slot table ends at the
// size sequential inserts reach. A non-empty relation grows as
// row-at-a-time inserts grow it, since the rows a later round stages
// are mostly duplicates.
func (db *Instance) MergeBatch(bs ...*Batch) (int, error) {
	var cold map[*Relation]int // staged rows per relation empty before the merge
	for _, b := range bs {
		for _, run := range b.runs {
			rel, err := db.ensure(run.pred, run.arity)
			if err != nil {
				return 0, err
			}
			if rel.frozen {
				return 0, fmt.Errorf("storage: merge batch: %w", errFrozen(rel.Name()))
			}
			if rel.Len() == 0 {
				if cold == nil {
					cold = map[*Relation]int{}
				}
				cold[rel] += run.count
			}
		}
	}
	for rel, n := range cold {
		rel.reserve(n)
	}
	added, err := db.mergeRuns(bs)
	for rel := range cold {
		rel.giveBack()
	}
	return added, err
}

// mergeRuns inserts every staged row of bs in order.
func (db *Instance) mergeRuns(bs []*Batch) (int, error) {
	added := 0
	for _, b := range bs {
		for _, run := range b.runs {
			rel := db.relations[run.pred]
			cells := b.chunks[run.chunk]
			for i := 0; i < run.count; i++ {
				at := run.start + i*run.arity
				isNew, err := rel.InsertRow(cells[at : at+run.arity])
				if err != nil {
					return added, fmt.Errorf("storage: merge batch: %w", err)
				}
				if isNew {
					added++
				}
			}
		}
	}
	return added, nil
}
