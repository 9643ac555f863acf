package gen

import (
	"fmt"
	"math/rand"

	"repro/internal/datalog"
	"repro/internal/hm"
)

// StreamSpec parameterizes the streaming quality workload: the base
// QualityWorkload plus an endless sequence of per-tick delta batches —
// new patients arriving with their ward assignments, measurement
// times and measurements. It drives the warm-assessment benchmarks
// and the incremental-vs-scratch equivalence tests: a session built
// on the base instance absorbs Tick batches via Apply, while a cold
// assessment recomputes everything.
type StreamSpec struct {
	// Base is the initial workload (its Patients*Days measurements are
	// assessed cold when the session is opened).
	Base QualitySpec
	// TickPatients is the number of new patients arriving per tick;
	// each contributes one measurement per base day, so a tick is
	// TickPatients*Base.Days new measurements.
	TickPatients int
}

// StreamingWorkload couples the base quality workload with a
// deterministic delta generator.
type StreamingWorkload struct {
	// Base holds the context, the base instance under assessment and
	// its expected-clean bookkeeping.
	Base *StreamBase
	spec StreamSpec
}

// StreamBase is the cold-start state of a streaming workload.
type StreamBase = QualityWorkload

// NewStreamingWorkload builds the base workload and the tick
// generator.
func NewStreamingWorkload(spec StreamSpec) (*StreamingWorkload, error) {
	if spec.TickPatients < 1 {
		return nil, fmt.Errorf("gen: invalid stream spec %+v", spec)
	}
	base, err := NewQualityWorkload(spec.Base)
	if err != nil {
		return nil, err
	}
	return &StreamingWorkload{Base: base, spec: spec}, nil
}

// Tick deterministically generates the i-th delta batch (i >= 0): for
// every arriving patient, the batch carries the patient's ward
// assignment, the new measurement-time dimension members with their
// day rollups, and the measurements themselves — exactly the ground
// atoms a feeding process would push into an assessment session. It
// also returns how many of the tick's measurements must survive into
// the quality version (the patients assigned to good-unit wards).
func (w *StreamingWorkload) Tick(i int) (delta []datalog.Atom, clean int) {
	spec := w.spec
	rng := rand.New(rand.NewSource(spec.Base.Seed + int64(i) + 1))
	dirtyCount := int(float64(spec.TickPatients) * spec.Base.DirtyRatio)
	timeCat := hm.CategoryPredName("Time")
	dayTime := hm.RollupPredName("Time", "Day") // DayTime(day, time)
	for j := 0; j < spec.TickPatients; j++ {
		p := spec.Base.Patients + i*spec.TickPatients + j
		patient := fmt.Sprintf("p%d", p)
		dirty := j < dirtyCount
		for day := 0; day < spec.Base.Days; day++ {
			var ward string
			if dirty {
				ward = fmt.Sprintf("BW%d", rng.Intn(spec.Base.Wards))
			} else {
				ward = fmt.Sprintf("GW%d", rng.Intn(spec.Base.Wards))
				clean++
			}
			dn := DayName(day)
			tm := timeName(day, p)
			val := fmt.Sprintf("%.1f", 36.0+rng.Float64()*3)
			delta = append(delta,
				datalog.A(timeCat, datalog.C(tm)),
				datalog.A(dayTime, datalog.C(dn), datalog.C(tm)),
				datalog.A("PatientWard", datalog.C(ward), datalog.C(dn), datalog.C(patient)),
				datalog.A("Measurements", datalog.C(tm), datalog.C(patient), datalog.C(val)),
			)
		}
	}
	return delta, clean
}

// TickMeasurements returns the number of measurements per tick.
func (w *StreamingWorkload) TickMeasurements() int {
	return w.spec.TickPatients * w.spec.Base.Days
}
