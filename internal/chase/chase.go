// Package chase implements the Datalog± chase procedure: bottom-up data
// completion by enforcing tuple-generating dependencies (with fresh
// labeled nulls for existential variables), equality-generating
// dependencies (by merging nulls, reporting hard conflicts), and
// negative-constraint checking.
//
// The paper uses the chase both as the semantics of its
// multidimensional ontologies (Section III) and as the engine behind
// data generation through dimensional navigation (Examples 5 and 6);
// the chase-based certain-answer computation in the qa package is the
// executable counterpart of the non-deterministic WeaklyStickyQAns
// algorithm it cites.
//
// The package has two entry layers. Run/Saturate are the one-shot API:
// chase a program over a copy of an instance to its fixpoint. Compile
// and State are the prepared/incremental API behind them: a
// CompiledProgram lowers every dependency onto join plans exactly once
// and can be shared across goroutines, and a State owns a saturated
// instance whose fixpoint can be grown with Extend — semi-naive,
// re-matching only against tuples inserted since the previous round.
package chase

import (
	"context"
	"strconv"
	"strings"

	"repro/internal/datalog"
	"repro/internal/qerr"
	"repro/internal/storage"
)

// Variant selects the chase flavor.
type Variant uint8

const (
	// Restricted (standard) chase fires a TGD trigger only when the
	// head is not already satisfied by the instance. It produces
	// smaller results and terminates on all the ontologies in this
	// repository.
	Restricted Variant = iota
	// Oblivious chase fires every trigger exactly once regardless of
	// head satisfaction. It is simpler but produces more nulls; it is
	// included for the ablation benchmarks.
	Oblivious
)

// String names the variant.
func (v Variant) String() string {
	if v == Oblivious {
		return "oblivious"
	}
	return "restricted"
}

// Options configures a chase run.
type Options struct {
	Variant Variant
	// MaxRounds bounds the number of chase rounds (0 = DefaultMaxRounds).
	MaxRounds int
	// MaxAtoms aborts the chase when the instance exceeds this many
	// tuples (0 = DefaultMaxAtoms), guarding against non-terminating
	// programs.
	MaxAtoms int
	// NullPrefix names invented nulls (default "n").
	NullPrefix string
	// Trace records every TGD application in Result.Steps.
	Trace bool
	// Parallelism bounds the worker pool that fans TGD trigger
	// discovery, EGD body matching and NC checking out across
	// goroutines (0 = runtime.GOMAXPROCS(0); 1 runs every unit on the
	// caller goroutine). Every width runs the same code: discovery is
	// sharded within each dependency and merged in shard order, and
	// all applications (fresh nulls, EGD merges, insertions) stay on
	// the single writer goroutine, so the chase result — instance,
	// insertion order, null labels, counters and violations — is
	// identical at every parallelism degree.
	Parallelism int
}

// DefaultMaxRounds bounds chase rounds when Options.MaxRounds is 0.
const DefaultMaxRounds = 10_000

// DefaultMaxAtoms bounds instance growth when Options.MaxAtoms is 0.
const DefaultMaxAtoms = 5_000_000

// ViolationKind classifies constraint violations found during the
// chase. It is an alias of the shared qerr vocabulary so violations
// travel unchanged into typed errors and through the mdqa facade.
type ViolationKind = qerr.ViolationKind

const (
	// NCViolation: a negative constraint body matched.
	NCViolation = qerr.NCViolation
	// EGDConflict: an EGD required two distinct constants to be equal.
	EGDConflict = qerr.EGDConflict
)

// Violation records one constraint violation.
type Violation = qerr.Violation

// Step records one TGD application (provenance), when Options.Trace is
// set.
type Step struct {
	Rule  string
	Added []datalog.Atom
}

// Result is the outcome of a chase run.
type Result struct {
	// Instance is the chased instance (the input instance is never
	// modified).
	Instance *storage.Instance
	// Rounds is the number of completed rounds.
	Rounds int
	// Fired counts TGD trigger applications that inserted atoms.
	Fired int
	// Merged counts EGD-induced term merges.
	Merged int
	// NullsCreated counts invented labeled nulls.
	NullsCreated int
	// Violations lists NC violations and hard EGD conflicts.
	Violations []Violation
	// Saturated reports whether a fixpoint was reached (false when a
	// bound aborted the run).
	Saturated bool
	// Steps is the provenance trace (only with Options.Trace).
	Steps []Step
}

// Consistent reports whether no violations were found.
func (r *Result) Consistent() bool { return len(r.Violations) == 0 }

// Run chases the program over a copy of db and returns the result.
// ctx is checked once per round and once per work unit (a shard of
// one dependency's matching), so a serving process can time-bound a
// runaway chase with bounded cancellation latency; on cancellation
// the context's error is returned. The error is otherwise non-nil only
// for invalid inputs; bound-exceeded runs return Saturated=false with
// a nil error so callers can inspect partial results.
func Run(ctx context.Context, prog *datalog.Program, db *storage.Instance, opts Options) (*Result, error) {
	st, err := NewState(prog, db, opts)
	if err != nil {
		return nil, err
	}
	if err := st.Chase(ctx); err != nil {
		return nil, err
	}
	return st.Result(), nil
}

func validateRules(prog *datalog.Program) error {
	for _, t := range prog.TGDs {
		if err := t.Validate(); err != nil {
			return err
		}
	}
	for _, e := range prog.EGDs {
		if err := e.Validate(); err != nil {
			return err
		}
	}
	for _, n := range prog.NCs {
		if err := n.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// freshCounter returns a counter for null labels guaranteed not to
// collide with nulls already present in the instance's rows (the
// interner may also remember nulls an EGD merged away; those do not
// count, so numbering depends on the stored tuples alone).
func freshCounter(db *storage.Instance, prefix string) *datalog.Counter {
	in := db.Interner()
	max := -1
	for _, name := range db.RelationNames() {
		for _, row := range db.Relation(name).Rows() {
			for _, id := range row {
				t := in.TermOf(id)
				if t.IsNull() && strings.HasPrefix(t.Name, prefix) {
					if k, err := strconv.Atoi(t.Name[len(prefix):]); err == nil && k > max {
						max = k
					}
				}
			}
		}
	}
	c := datalog.NewCounter(prefix)
	for i := 0; i <= max; i++ {
		c.Next()
	}
	return c
}

// headItem is one argument of a compiled TGD head atom: an interned
// constant, a body-plan register slot, or a fresh existential null.
type headItem struct {
	kind uint8 // 0 const, 1 slot, 2 existential
	id   int32 // kind 0
	slot int   // kind 1
	ex   int   // kind 2: index into the per-trigger fresh-null bank
}

const (
	hConst uint8 = iota
	hSlot
	hEx
)

// headAtomProj builds one head atom's row from trigger registers and
// fresh existential ids.
type headAtomProj struct {
	pred  string
	items []headItem
}

// triggerMemo is a set of register snapshots, hash-bucketed so
// membership tests allocate nothing; snapshots are carved out of a
// chunked arena, so insertion allocates once per chunk rather than
// once per trigger.
type triggerMemo struct {
	buckets map[uint64][][]int32
	arena   datalog.Int32Arena
}

func newTriggerMemo() triggerMemo {
	return triggerMemo{buckets: map[uint64][][]int32{}}
}

// add inserts the register snapshot, reporting whether it was new and
// returning a copy owned by the memo (safe to retain). The snapshot
// may be empty — a TGD with a fully ground body has a zero-slot
// register bank and exactly one trigger — so newness is reported
// separately rather than by a nil sentinel.
func (m *triggerMemo) add(regs []int32) ([]int32, bool) {
	h := datalog.HashInt32s(regs)
	if m.hasHashed(h, regs) {
		return nil, false
	}
	snap := m.arena.Copy(regs)
	m.buckets[h] = append(m.buckets[h], snap)
	return snap, true
}

// has reports whether the snapshot is already memoized, without
// modifying the memo. Delta-round discovery workers probe the
// quiescent memo so triggers memoized in earlier rounds are not
// re-staged through other pivots (the authoritative dedup stays with
// add on the merge goroutine).
func (m *triggerMemo) has(regs []int32) bool {
	return m.hasHashed(datalog.HashInt32s(regs), regs)
}

// hasHashed is has with the row hash precomputed, so add hashes once.
func (m *triggerMemo) hasHashed(h uint64, regs []int32) bool {
	for _, s := range m.buckets[h] {
		if len(s) == len(regs) {
			same := true
			for i := range s {
				if s[i] != regs[i] {
					same = false
					break
				}
			}
			if same {
				return true
			}
		}
	}
	return false
}
