// Package hospital builds the paper's running example in full: the
// Hospital and Time dimensions of Figure 1, the categorical relations
// PatientWard, PatientUnit, WorkingSchedules (Table III), Shifts
// (Table IV), DischargePatients (Table V) and Thermometer, the
// dimensional rules (7), (8) and (9), the dimensional constraints —
// EGD (6) and the "intensive care closed since August 2005" denial —
// and the Measurements instance of Table I under quality assessment.
//
// Substitution note: the paper writes month members like
// "August/2005"; we name them "2005-08" so that the "since August
// 2005" guideline is expressible as an ordering condition
// (m >= "2005-08") over the Month category.
package hospital

import (
	"repro/internal/core"
	"repro/internal/datalog"
	"repro/internal/hm"
	"repro/internal/storage"
)

// Member and table constants used across the example.
const (
	TomWaits      = "Tom Waits"
	LouReed       = "Lou Reed"
	ElvisCostello = "Elvis Costello"
)

// HospitalDimension builds the left-hand dimension of Figure 1:
// Ward → Unit → Institution → AllHospital, with wards W1–W4, units
// Standard/Intensive/Terminal, institutions H1/H2.
func HospitalDimension() *hm.Dimension {
	s := hm.NewDimensionSchema("Hospital")
	s.MustAddCategory("Ward")
	s.MustAddCategory("Unit")
	s.MustAddCategory("Institution")
	s.MustAddCategory("AllHospital")
	s.MustAddEdge("Ward", "Unit")
	s.MustAddEdge("Unit", "Institution")
	s.MustAddEdge("Institution", "AllHospital")

	d := hm.NewDimension(s)
	for _, w := range []string{"W1", "W2", "W3", "W4", "W5"} {
		d.MustAddMember("Ward", w)
	}
	for _, u := range []string{"Standard", "Intensive", "Terminal", "Surgery"} {
		d.MustAddMember("Unit", u)
	}
	d.MustAddMember("Institution", "H1")
	d.MustAddMember("Institution", "H2")
	d.MustAddMember("AllHospital", "allHospital")

	d.MustAddRollup("W1", "Standard")
	d.MustAddRollup("W2", "Standard")
	d.MustAddRollup("W3", "Intensive")
	d.MustAddRollup("W4", "Terminal")
	d.MustAddRollup("W5", "Surgery")
	d.MustAddRollup("Standard", "H1")
	d.MustAddRollup("Intensive", "H1")
	d.MustAddRollup("Terminal", "H1")
	d.MustAddRollup("Surgery", "H2")
	d.MustAddRollup("H1", "allHospital")
	d.MustAddRollup("H2", "allHospital")
	return d
}

// Days and times of the example.
var (
	Days  = []string{"Sep/5", "Sep/6", "Sep/7", "Sep/9", "Oct/5"}
	Times = []string{
		"Sep/5-11:45", "Sep/5-12:05", "Sep/5-12:10", "Sep/5-12:15",
		"Sep/6-11:05", "Sep/6-11:50", "Sep/7-12:15", "Sep/9-12:00",
	}
)

// dayOfTime maps each time member to its day member.
func dayOfTime(t string) string {
	for i := 0; i < len(t); i++ {
		if t[i] == '-' {
			return t[:i]
		}
	}
	return t
}

// monthOfDay maps each day member to its (sortable) month member.
func monthOfDay(d string) string {
	if len(d) >= 3 && d[:3] == "Oct" {
		return "2005-10"
	}
	return "2005-09"
}

// TimeDimension builds the right-hand dimension of Figure 1:
// Time → Day → Month → Year, with the example's timestamps and days,
// months 2005-08..2005-10 and year 2005.
func TimeDimension() *hm.Dimension {
	s := hm.NewDimensionSchema("Time")
	s.MustAddCategory("Time")
	s.MustAddCategory("Day")
	s.MustAddCategory("Month")
	s.MustAddCategory("Year")
	s.MustAddEdge("Time", "Day")
	s.MustAddEdge("Day", "Month")
	s.MustAddEdge("Month", "Year")

	d := hm.NewDimension(s)
	for _, t := range Times {
		d.MustAddMember("Time", t)
	}
	for _, day := range Days {
		d.MustAddMember("Day", day)
	}
	for _, m := range []string{"2005-08", "2005-09", "2005-10"} {
		d.MustAddMember("Month", m)
	}
	d.MustAddMember("Year", "2005")

	for _, t := range Times {
		d.MustAddRollup(t, dayOfTime(t))
	}
	for _, day := range Days {
		d.MustAddRollup(day, monthOfDay(day))
	}
	for _, m := range []string{"2005-08", "2005-09", "2005-10"} {
		d.MustAddRollup(m, "2005")
	}
	return d
}

// RuleSeven is the paper's upward-navigation rule (7):
//
//	PatientUnit(u, d; p) ← PatientWard(w, d; p), UnitWard(u, w)
func RuleSeven() *datalog.TGD {
	return datalog.NewTGD("r7",
		[]datalog.Atom{datalog.A("PatientUnit", datalog.V("u"), datalog.V("d"), datalog.V("p"))},
		[]datalog.Atom{
			datalog.A("PatientWard", datalog.V("w"), datalog.V("d"), datalog.V("p")),
			datalog.A("UnitWard", datalog.V("u"), datalog.V("w")),
		})
}

// RuleEight is the downward-navigation rule (8):
//
//	∃z Shifts(w, d; n, z) ← WorkingSchedules(u, d; n, t), UnitWard(u, w)
func RuleEight() *datalog.TGD {
	return datalog.NewTGD("r8",
		[]datalog.Atom{datalog.A("Shifts", datalog.V("w"), datalog.V("d"), datalog.V("n"), datalog.V("z"))},
		[]datalog.Atom{
			datalog.A("WorkingSchedules", datalog.V("u"), datalog.V("d"), datalog.V("n"), datalog.V("t")),
			datalog.A("UnitWard", datalog.V("u"), datalog.V("w")),
		})
}

// RuleNine is the form-(10) downward rule (9) with an existential
// categorical variable:
//
//	∃u InstitutionUnit(i, u), PatientUnit(u, d; p) ← DischargePatients(i, d; p)
func RuleNine() *datalog.TGD {
	return datalog.NewTGD("r9",
		[]datalog.Atom{
			datalog.A("InstitutionUnit", datalog.V("i"), datalog.V("u")),
			datalog.A("PatientUnit", datalog.V("u"), datalog.V("d"), datalog.V("p")),
		},
		[]datalog.Atom{datalog.A("DischargePatients", datalog.V("i"), datalog.V("d"), datalog.V("p"))})
}

// EGDSix is the paper's dimensional EGD (6): all thermometers used in
// a unit are of the same type.
func EGDSix() *datalog.EGD {
	return datalog.NewEGD("e6", datalog.V("t"), datalog.V("t2"), []datalog.Atom{
		datalog.A("Thermometer", datalog.V("w"), datalog.V("t"), datalog.V("n")),
		datalog.A("Thermometer", datalog.V("w2"), datalog.V("t2"), datalog.V("n2")),
		datalog.A("UnitWard", datalog.V("u"), datalog.V("w")),
		datalog.A("UnitWard", datalog.V("u"), datalog.V("w2")),
	})
}

// IntensiveClosedNC is the inter-dimensional constraint of Example 1:
// no patient in an intensive-care ward since August 2005.
func IntensiveClosedNC() *datalog.NC {
	nc := datalog.NewDenial("intensive-closed",
		datalog.A("PatientWard", datalog.V("w"), datalog.V("d"), datalog.V("p")),
		datalog.A("UnitWard", datalog.C("Intensive"), datalog.V("w")),
		datalog.A("MonthDay", datalog.V("m"), datalog.V("d")))
	nc.WithCond(datalog.OpGe, datalog.V("m"), datalog.C("2005-08"))
	return nc
}

// Options selects which optional parts of the running example to
// include.
type Options struct {
	// WithRuleNine includes the form-(10) rule (9) and Table V.
	WithRuleNine bool
	// WithConstraints includes EGD (6), the intensive-closed denial
	// and the Thermometer data.
	WithConstraints bool
}

// NewOntology assembles the complete multidimensional context ontology
// of the running example.
func NewOntology(opts Options) *core.Ontology {
	o := core.NewOntology()
	mustOK(o.AddDimension(HospitalDimension()))
	mustOK(o.AddDimension(TimeDimension()))

	mustOK(o.AddRelation(core.NewCategoricalRelation("PatientWard",
		core.Cat("Ward", "Hospital", "Ward"),
		core.Cat("Day", "Time", "Day"),
		core.NonCat("Patient"))))
	mustOK(o.AddRelation(core.NewCategoricalRelation("PatientUnit",
		core.Cat("Unit", "Hospital", "Unit"),
		core.Cat("Day", "Time", "Day"),
		core.NonCat("Patient"))))
	mustOK(o.AddRelation(core.NewCategoricalRelation("WorkingSchedules",
		core.Cat("Unit", "Hospital", "Unit"),
		core.Cat("Day", "Time", "Day"),
		core.NonCat("Nurse"),
		core.NonCat("Type"))))
	mustOK(o.AddRelation(core.NewCategoricalRelation("Shifts",
		core.Cat("Ward", "Hospital", "Ward"),
		core.Cat("Day", "Time", "Day"),
		core.NonCat("Nurse"),
		core.NonCat("Shift"))))

	// PatientWard: Tom's trajectory (Example 1) and Lou's stays in
	// non-standard wards (so that Table II keeps exactly Tom's first
	// two measurements).
	o.MustAddFact("PatientWard", "W1", "Sep/5", TomWaits)
	o.MustAddFact("PatientWard", "W2", "Sep/6", TomWaits)
	o.MustAddFact("PatientWard", "W3", "Sep/7", TomWaits)
	o.MustAddFact("PatientWard", "W4", "Sep/9", TomWaits)
	o.MustAddFact("PatientWard", "W4", "Sep/5", LouReed)
	o.MustAddFact("PatientWard", "W3", "Sep/6", LouReed)

	// Table III: WorkingSchedules.
	o.MustAddFact("WorkingSchedules", "Intensive", "Sep/5", "Cathy", "cert.")
	o.MustAddFact("WorkingSchedules", "Standard", "Sep/5", "Helen", "cert.")
	o.MustAddFact("WorkingSchedules", "Standard", "Sep/6", "Helen", "cert.")
	o.MustAddFact("WorkingSchedules", "Terminal", "Sep/5", "Susan", "non-c.")
	o.MustAddFact("WorkingSchedules", "Standard", "Sep/9", "Mark", "non-c.")

	// Table IV: Shifts.
	o.MustAddFact("Shifts", "W4", "Sep/5", "Cathy", "night")
	o.MustAddFact("Shifts", "W1", "Sep/6", "Helen", "morning")
	o.MustAddFact("Shifts", "W4", "Sep/5", "Susan", "evening")

	o.MustAddRule(RuleSeven())
	o.MustAddRule(RuleEight())

	if opts.WithRuleNine {
		mustOK(o.AddRelation(core.NewCategoricalRelation("DischargePatients",
			core.Cat("Inst", "Hospital", "Institution"),
			core.Cat("Day", "Time", "Day"),
			core.NonCat("Patient"))))
		// Table V.
		o.MustAddFact("DischargePatients", "H1", "Sep/9", TomWaits)
		o.MustAddFact("DischargePatients", "H1", "Sep/6", LouReed)
		o.MustAddFact("DischargePatients", "H2", "Oct/5", ElvisCostello)
		o.MustAddRule(RuleNine())
	}
	if opts.WithConstraints {
		mustOK(o.AddRelation(core.NewCategoricalRelation("Thermometer",
			core.Cat("Ward", "Hospital", "Ward"),
			core.NonCat("ThermType"),
			core.NonCat("Nurse"))))
		o.MustAddFact("Thermometer", "W1", "Oral", "Helen")
		o.MustAddFact("Thermometer", "W2", "Oral", "Helen")
		o.MustAddFact("Thermometer", "W4", "Tympanic", "Susan")
		mustOK(o.AddEGD(EGDSix()))
		mustOK(o.AddNC(IntensiveClosedNC()))
	}
	return o
}

// MeasurementsRows is Table I verbatim.
var MeasurementsRows = [][3]string{
	{"Sep/5-12:10", TomWaits, "38.2"},
	{"Sep/6-11:50", TomWaits, "37.1"},
	{"Sep/7-12:15", TomWaits, "37.7"},
	{"Sep/9-12:00", TomWaits, "37.0"},
	{"Sep/6-11:05", LouReed, "37.5"},
	{"Sep/5-12:05", LouReed, "38.0"},
}

// QualityRows is Table II verbatim: the expected quality version of
// Measurements (the paper's headline derivation).
var QualityRows = [][3]string{
	{"Sep/5-12:10", TomWaits, "38.2"},
	{"Sep/6-11:50", TomWaits, "37.1"},
}

// MeasurementsInstance builds the original instance D of Table I.
func MeasurementsInstance() *storage.Instance {
	db := storage.NewInstance()
	if _, err := db.CreateRelation("Measurements", "Time", "Patient", "Value"); err != nil {
		panic(err)
	}
	for _, row := range MeasurementsRows {
		db.MustInsert("Measurements", datalog.C(row[0]), datalog.C(row[1]), datalog.C(row[2]))
	}
	return db
}

func mustOK(err error) {
	if err != nil {
		panic(err)
	}
}
