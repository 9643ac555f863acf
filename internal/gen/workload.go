package gen

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/datalog"
	"repro/internal/eval"
	"repro/internal/hm"
	"repro/internal/quality"
	"repro/internal/storage"
)

// QualitySpec parameterizes the scalable hospital-style quality
// workload used by experiment C4 (quality-measure sweep) and the
// Figure 2 pipeline benchmark.
type QualitySpec struct {
	// Patients is the number of patients; each contributes one
	// measurement per day.
	Patients int
	// Days is the number of measurement days.
	Days int
	// Wards is the number of wards per unit (two units: one whose
	// measurements meet the guideline and one whose do not).
	Wards int
	// DirtyRatio is the fraction of patients placed in the
	// non-compliant unit (0.0 = all clean, 1.0 = all dirty).
	DirtyRatio float64
	// Seed drives patient-to-ward assignment.
	Seed int64
}

// QualityWorkload builds a context and an instance under assessment:
// the ontology has a Ward→Unit dimension with a GoodUnit (certified
// nurses, right thermometers via the guideline rule) and a BadUnit.
// Exactly the measurements of patients assigned to GoodUnit wards
// survive into the quality version.
type QualityWorkload struct {
	Context  *quality.Context
	Instance *storage.Instance
	// Ontology and Config are the pieces Context was built from, so
	// callers can rebuild equivalent contexts through other entry
	// points (the mdqa facade benchmarks do).
	Ontology *core.Ontology
	Config   quality.Config
	// ExpectedClean is the number of measurements that must survive.
	ExpectedClean int
	// Total is the total number of measurements.
	Total int
}

// NewQualityWorkload builds the workload.
func NewQualityWorkload(spec QualitySpec) (*QualityWorkload, error) {
	if spec.Patients < 1 || spec.Days < 1 || spec.Wards < 1 {
		return nil, fmt.Errorf("gen: invalid quality spec %+v", spec)
	}
	s := hm.NewDimensionSchema("Site")
	for _, c := range []string{"Ward", "Unit"} {
		if err := s.AddCategory(c); err != nil {
			return nil, err
		}
	}
	if err := s.AddEdge("Ward", "Unit"); err != nil {
		return nil, err
	}
	dim := hm.NewDimension(s)
	for _, u := range []string{"GoodUnit", "BadUnit"} {
		if err := dim.AddMember("Unit", u); err != nil {
			return nil, err
		}
	}
	for i := 0; i < spec.Wards; i++ {
		gw, bw := fmt.Sprintf("GW%d", i), fmt.Sprintf("BW%d", i)
		if err := dim.AddMember("Ward", gw); err != nil {
			return nil, err
		}
		if err := dim.AddMember("Ward", bw); err != nil {
			return nil, err
		}
		if err := dim.AddRollup(gw, "GoodUnit"); err != nil {
			return nil, err
		}
		if err := dim.AddRollup(bw, "BadUnit"); err != nil {
			return nil, err
		}
	}

	tdim, err := timeDimension(spec.Days)
	if err != nil {
		return nil, err
	}
	if err := registerTimes(tdim, spec.Patients, spec.Days); err != nil {
		return nil, err
	}

	o := core.NewOntology()
	if err := o.AddDimension(dim); err != nil {
		return nil, err
	}
	if err := o.AddDimension(tdim); err != nil {
		return nil, err
	}
	for _, rel := range []*core.CategoricalRelation{
		core.NewCategoricalRelation("PatientWard",
			core.Cat("Ward", "Site", "Ward"),
			core.Cat("Day", "T", "Day"),
			core.NonCat("Patient")),
		core.NewCategoricalRelation("PatientUnit",
			core.Cat("Unit", "Site", "Unit"),
			core.Cat("Day", "T", "Day"),
			core.NonCat("Patient")),
	} {
		if err := o.AddRelation(rel); err != nil {
			return nil, err
		}
	}
	rollPred := hm.RollupPredName("Ward", "Unit") // UnitWard
	if err := o.AddRule(datalog.NewTGD("up",
		[]datalog.Atom{datalog.A("PatientUnit", datalog.V("u"), datalog.V("d"), datalog.V("p"))},
		[]datalog.Atom{
			datalog.A("PatientWard", datalog.V("w"), datalog.V("d"), datalog.V("p")),
			datalog.A(rollPred, datalog.V("u"), datalog.V("w")),
		})); err != nil {
		return nil, err
	}

	rng := rand.New(rand.NewSource(spec.Seed))
	dirtyCount := int(float64(spec.Patients) * spec.DirtyRatio)
	d := storage.NewInstance()
	if _, err := d.CreateRelation("Measurements", "Time", "Patient", "Value"); err != nil {
		return nil, err
	}
	clean := 0
	for p := 0; p < spec.Patients; p++ {
		patient := fmt.Sprintf("p%d", p)
		dirty := p < dirtyCount
		for day := 0; day < spec.Days; day++ {
			var ward string
			if dirty {
				ward = fmt.Sprintf("BW%d", rng.Intn(spec.Wards))
			} else {
				ward = fmt.Sprintf("GW%d", rng.Intn(spec.Wards))
				clean++
			}
			dayName := DayName(day)
			if err := o.AddFact("PatientWard", ward, dayName, patient); err != nil {
				return nil, err
			}
			tm := timeName(day, p)
			val := fmt.Sprintf("%.1f", 36.0+rng.Float64()*3)
			d.MustInsert("Measurements", datalog.C(tm), datalog.C(patient), datalog.C(val))
		}
	}

	t, p, v := datalog.V("t"), datalog.V("p"), datalog.V("v")
	du := datalog.V("d")
	cfg := quality.Config{
		QualityRules: []*eval.Rule{
			eval.NewRule("guideline",
				datalog.A("RightTherm", t, p),
				datalog.A("PatientUnit", datalog.C("GoodUnit"), du, p),
				datalog.A("DayTime", du, t)),
		},
		Versions: []quality.VersionSpec{{
			Original: "Measurements",
			Pred:     "Measurements_q",
			Rules: []*eval.Rule{eval.NewRule("measurements-q",
				datalog.A("Measurements_q", t, p, v),
				datalog.A("Measurements", t, p, v),
				datalog.A("RightTherm", t, p))},
		}},
	}
	ctx, err := quality.NewContext(o, cfg)
	if err != nil {
		return nil, err
	}
	return &QualityWorkload{
		Context:       ctx,
		Instance:      d,
		Ontology:      o,
		Config:        cfg,
		ExpectedClean: clean,
		Total:         spec.Patients * spec.Days,
	}, nil
}

// timeDimension builds a Time→Day hierarchy with one day member per
// day index; registerTimes then adds one time member per
// (day, patient) pair with its rollup.
func timeDimension(days int) (*hm.Dimension, error) {
	s := hm.NewDimensionSchema("T")
	for _, c := range []string{"Time", "Day"} {
		if err := s.AddCategory(c); err != nil {
			return nil, err
		}
	}
	if err := s.AddEdge("Time", "Day"); err != nil {
		return nil, err
	}
	d := hm.NewDimension(s)
	for i := 0; i < days; i++ {
		if err := d.AddMember("Day", DayName(i)); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// DayName is the name of the i-th Day member the quality workload
// generates.
func DayName(i int) string { return fmt.Sprintf("d%03d", i) }

func timeName(day, patient int) string {
	return fmt.Sprintf("%s-t%04d", DayName(day), patient)
}

// registerTimes adds the measurement time members and their rollups
// for the workload's patients and days.
func registerTimes(dim *hm.Dimension, patients, days int) error {
	for p := 0; p < patients; p++ {
		for day := 0; day < days; day++ {
			tm := timeName(day, p)
			if err := dim.AddMember("Time", tm); err != nil {
				return err
			}
			if err := dim.AddRollup(tm, DayName(day)); err != nil {
				return err
			}
		}
	}
	return nil
}
