// Sensor-network data quality: a deployment dimension
// (Sensor → Station → Region) and a calibration guideline expressed as
// a dimensional rule. Readings qualify only when their sensor belongs
// to a station that was calibrated in the reading's month — the same
// context pattern as the paper's Example 7, on a different domain.
// This example also shows the streaming side of the facade: clean
// answers are consumed as an iterator off the assessment snapshot.
//
// Run with: go run ./examples/sensors
package main

import (
	"context"
	"fmt"
	"log"

	"repro/mdqa"
)

func main() {
	ctx := context.Background()

	// Deployment dimension: Sensor -> Station -> Region.
	ds := mdqa.NewDimensionSchema("Deployment")
	for _, c := range []string{"Sensor", "Station", "Region"} {
		ds.MustAddCategory(c)
	}
	ds.MustAddEdge("Sensor", "Station")
	ds.MustAddEdge("Station", "Region")
	dep := mdqa.NewDimension(ds)
	dep.MustAddMember("Region", "North")
	dep.MustAddMember("Region", "South")
	// Members are added in a fixed order (not by ranging over a map),
	// so the streamed answers below come out in the same order on
	// every run.
	for _, sr := range [][2]string{{"ST1", "North"}, {"ST2", "North"}, {"ST3", "South"}} {
		dep.MustAddMember("Station", sr[0])
		dep.MustAddRollup(sr[0], sr[1])
	}
	for _, ss := range [][2]string{{"s1", "ST1"}, {"s2", "ST1"}, {"s3", "ST2"}, {"s4", "ST3"}} {
		dep.MustAddMember("Sensor", "Sensor-"+ss[0])
		dep.MustAddRollup("Sensor-"+ss[0], ss[1])
	}

	// Time dimension: Day -> Month.
	ts := mdqa.NewDimensionSchema("Time")
	ts.MustAddCategory("Day")
	ts.MustAddCategory("Month")
	ts.MustAddEdge("Day", "Month")
	tm := mdqa.NewDimension(ts)
	tm.MustAddMember("Month", "2026-05")
	tm.MustAddMember("Month", "2026-06")
	for _, d := range []string{"2026-05-30", "2026-05-31", "2026-06-01", "2026-06-02"} {
		tm.MustAddMember("Day", d)
		tm.MustAddRollup(d, d[:7])
	}

	o := mdqa.NewOntology()
	must(o.AddDimension(dep))
	must(o.AddDimension(tm))

	// Calibrations live at the Station level and month granularity;
	// SensorCalibrated is virtual, filled by downward navigation.
	must(o.AddRelation(mdqa.NewCategoricalRelation("Calibrated",
		mdqa.Cat("Station", "Deployment", "Station"),
		mdqa.Cat("Month", "Time", "Month"))))
	must(o.AddRelation(mdqa.NewCategoricalRelation("SensorCalibrated",
		mdqa.Cat("Sensor", "Deployment", "Sensor"),
		mdqa.Cat("Month", "Time", "Month"))))
	o.MustAddFact("Calibrated", "ST1", "2026-06")
	o.MustAddFact("Calibrated", "ST3", "2026-05")

	// Downward dimensional rule: a station calibration covers every
	// sensor of the station (the paper's rule (8) pattern, without an
	// invented attribute).
	o.MustAddRule(mdqa.NewTGD("calib-down",
		[]mdqa.Atom{mdqa.NewAtom("SensorCalibrated", mdqa.Var("s"), mdqa.Var("m"))},
		[]mdqa.Atom{
			mdqa.NewAtom("Calibrated", mdqa.Var("st"), mdqa.Var("m")),
			mdqa.NewAtom(mdqa.RollupPredName("Sensor", "Station"), mdqa.Var("st"), mdqa.Var("s")),
		}))

	fmt.Println("== Sensor ontology ==")
	fmt.Print(o.Summary())

	// Readings under assessment: Readings(Day, Sensor, Value).
	d := mdqa.NewInstance()
	if _, err := d.CreateRelation("Readings", "Day", "Sensor", "Value"); err != nil {
		log.Fatal(err)
	}
	rows := [][3]string{
		{"2026-06-01", "Sensor-s1", "21.5"}, // ST1 calibrated 2026-06: clean
		{"2026-06-02", "Sensor-s2", "22.1"}, // ST1: clean
		{"2026-06-01", "Sensor-s3", "19.8"}, // ST2 never calibrated: dirty
		{"2026-05-31", "Sensor-s4", "18.0"}, // ST3 calibrated 2026-05: clean
		{"2026-06-02", "Sensor-s4", "18.4"}, // ST3 calibration expired: dirty
	}
	for _, r := range rows {
		d.MustInsert("Readings", mdqa.Const(r[0]), mdqa.Const(r[1]), mdqa.Const(r[2]))
	}
	fmt.Println("\n== Readings under assessment ==")
	fmt.Print(mdqa.FormatRelation(d.Relation("Readings")))

	// Quality context: a reading is clean when its sensor was
	// calibrated in the reading's month.
	day, sensor, val, month := mdqa.Var("d"), mdqa.Var("s"), mdqa.Var("v"), mdqa.Var("m")
	version := mdqa.NewRule("readings-q",
		mdqa.NewAtom("Readings_q", day, sensor, val),
		mdqa.NewAtom("Readings", day, sensor, val),
		mdqa.NewAtom(mdqa.RollupPredName("Day", "Month"), month, day),
		mdqa.NewAtom("SensorCalibrated", sensor, month))
	qc, err := mdqa.NewContext(o,
		mdqa.WithQualityVersion("Readings", "Readings_q", version))
	must(err)

	a, err := qc.Assess(ctx, d)
	must(err)
	fmt.Println("\n== Quality version (calibrated readings only) ==")
	rq, err := a.Version("Readings")
	must(err)
	fmt.Print(mdqa.FormatRelation(rq))
	m := a.Measures()["Readings"]
	fmt.Printf("\nclean fraction: %.2f (3 of 5 readings)\n", m.CleanFraction())

	// Clean query answering, streamed: ask for North-region readings;
	// dimensional navigation resolves sensors to regions, the clean
	// rewriting answers over Readings_q, and the iterator yields
	// answers one by one without materializing a set.
	q := mdqa.NewQuery(
		mdqa.NewAtom("Q", mdqa.Var("d"), mdqa.Var("s"), mdqa.Var("v")),
		mdqa.NewAtom("Readings", mdqa.Var("d"), mdqa.Var("s"), mdqa.Var("v")),
		mdqa.NewAtom(mdqa.RollupPredName("Sensor", "Station"), mdqa.Var("st"), mdqa.Var("s")),
		mdqa.NewAtom(mdqa.RollupPredName("Station", "Region"), mdqa.Const("North"), mdqa.Var("st")))
	fmt.Println("\nclean North-region readings (streamed):")
	for ans, err := range a.Snapshot().CleanAnswers(q) {
		must(err)
		fmt.Printf("  %s\n", ans)
	}
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
