package chase

import (
	"fmt"

	"repro/internal/datalog"
	"repro/internal/storage"
)

// Restored is the portable part of a chase State: the cumulative
// counters, the fresh-null counter position and the violations already
// reported. Together with the saturated instance it is everything a
// session needs to survive a process restart.
//
// Semi-naive watermarks are deliberately absent. A restored state
// re-enters through one full re-match round — exactly the path the
// live engine already takes after every EGD merge — and head
// satisfaction keeps that sound: at a fixpoint every enumerable trigger
// is head-satisfied (a trigger whose head were unsatisfied would fire
// and insert, contradicting saturation), so the full round skips them
// all, refires nothing, and invents no fresh nulls.
type Restored struct {
	// Rounds, Fired, Merged and NullsCreated restore the cumulative
	// Result counters.
	Rounds, Fired, Merged, NullsCreated int
	// FreshPos is the fresh-null counter position (datalog.Counter.Pos)
	// at export time. Restoring the exact position — rather than
	// re-scanning the instance for the highest label — keeps invented
	// null labels identical to an uninterrupted run even after EGD
	// merges have deleted high-numbered nulls from the instance.
	FreshPos int
	// Saturated restores Result.Saturated (false when the exported
	// session had hit a chase bound).
	Saturated bool
	// Violations restores the cumulative violation list, in report
	// order, and re-seeds the dedup set so replayed batches do not
	// re-report them.
	Violations []Violation
}

// Export snapshots the state's portable part. The caller must be the
// state's (quiescent) single writer, matching the Chase/Extend
// contract.
func (st *State) Export() Restored {
	return Restored{
		Rounds:       st.res.Rounds,
		Fired:        st.res.Fired,
		Merged:       st.res.Merged,
		NullsCreated: st.res.NullsCreated,
		FreshPos:     st.fresh.Pos(),
		Saturated:    st.res.Saturated,
		Violations:   append([]Violation(nil), st.res.Violations...),
	}
}

// RestoreState rebuilds a resumable chase state over a previously
// saturated (exported or decoded) instance, which the state takes
// ownership of — it must be mutable and its interner must descend from
// the compile interner, exactly as for NewState. The state resumes
// with the recorded counters and violations and re-enters through a
// full re-match round on the next Chase/Extend call (see Restored for
// why that is sound).
func (cp *CompiledProgram) RestoreState(inst *storage.Instance, opts Options, r Restored) (*State, error) {
	if inst.Frozen() {
		return nil, fmt.Errorf("chase: cannot restore over a frozen snapshot instance")
	}
	st := cp.NewState(inst, opts)
	st.fresh = datalog.NewCounterAt(nullPrefix, r.FreshPos)
	st.res.Rounds = r.Rounds
	st.res.Fired = r.Fired
	st.res.Merged = r.Merged
	st.res.NullsCreated = r.NullsCreated
	st.res.Saturated = r.Saturated
	for _, v := range r.Violations {
		if !st.seenViol[v] {
			st.seenViol[v] = true
			st.res.Violations = append(st.res.Violations, v)
		}
	}
	return st, nil
}
