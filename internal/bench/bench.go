// Package bench is the experiment harness: one runner per table and
// figure of the paper (T1–T5, F1, F2) plus the complexity-claim
// experiments (C1–C4), listed by All. cmd/mdbench drives it (see the
// mdbench row of the README); internal/benchsuite wraps each runner in
// a testing.B benchmark; tests assert the expected shapes.
package bench

import (
	"context"
	"fmt"
	"io"

	"time"

	"repro/internal/chase"
	"repro/internal/core"
	"repro/internal/datalog"
	"repro/internal/eval"
	"repro/internal/gen"
	"repro/internal/hospital"
	"repro/internal/qa"

	"repro/internal/rewrite"
	"repro/internal/sticky"
	"repro/internal/storage"
)

// Experiment is one reproducible artifact of the paper.
type Experiment struct {
	ID    string
	Title string
	Run   func(w io.Writer) error
}

// All returns every experiment in presentation order.
func All() []Experiment {
	return []Experiment{
		{ID: "T1", Title: "Table I: Measurements (original instance D)", Run: RunT1},
		{ID: "T2", Title: "Table II: Measurements_q (quality version)", Run: RunT2},
		{ID: "T3", Title: "Table III: WorkingSchedules", Run: RunT3},
		{ID: "T4", Title: "Table IV: Shifts + Example 5 downward navigation", Run: RunT4},
		{ID: "T5", Title: "Table V: DischargePatients + Example 6 (rule 10)", Run: RunT5},
		{ID: "F1", Title: "Figure 1: extended multidimensional model", Run: RunF1},
		{ID: "F2", Title: "Figure 2: MD context for quality assessment", Run: RunF2},
		{ID: "C1", Title: "Claim IV: PTIME data complexity (scaling)", Run: RunC1},
		{ID: "C2", Title: "Claim IV: FO rewriting vs chase (upward-only)", Run: RunC2},
		{ID: "C3", Title: "Claim III: MD ontologies are weakly sticky", Run: RunC3},
		{ID: "C4", Title: "Section V: quality measure sweep", Run: RunC4},
	}
}

// ByID returns the experiment with the given ID.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// RunT1 prints Table I.
func RunT1(w io.Writer) error {
	d := hospital.MeasurementsInstance()
	rel := d.Relation("Measurements")
	if rel.Len() != 6 {
		return fmt.Errorf("T1: Measurements has %d rows, want 6", rel.Len())
	}
	fmt.Fprint(w, storage.FormatRelation(rel))
	return nil
}

// RunT2 computes and prints the quality version of Table I and checks
// it equals Table II.
func RunT2(w io.Writer) error {
	ctx, err := hospital.QualityContext(hospital.Options{})
	if err != nil {
		return err
	}
	a, err := ctx.Assess(context.Background(), hospital.MeasurementsInstance())
	if err != nil {
		return err
	}
	mq := a.Versions["Measurements"]
	fmt.Fprint(w, storage.FormatRelation(mq))
	if mq.Len() != len(hospital.QualityRows) {
		return fmt.Errorf("T2: quality version has %d rows, want %d", mq.Len(), len(hospital.QualityRows))
	}
	for _, row := range hospital.QualityRows {
		if !mq.Contains([]datalog.Term{datalog.C(row[0]), datalog.C(row[1]), datalog.C(row[2])}) {
			return fmt.Errorf("T2: row %v missing", row)
		}
	}
	m := a.Measures["Measurements"]
	fmt.Fprintf(w, "\nquality measure: |D|=%d |D_q|=%d clean-fraction=%.3f distance=%.3f\n",
		m.Original, m.Quality, m.CleanFraction(), m.Distance())
	fmt.Fprintln(w, "MATCH: exactly the paper's Table II (tuples 1-2 of Table I)")
	return nil
}

// RunT3 prints Table III from the ontology data.
func RunT3(w io.Writer) error {
	o := hospital.NewOntology(hospital.Options{})
	rel := o.Data().Relation("WorkingSchedules")
	if rel.Len() != 5 {
		return fmt.Errorf("T3: WorkingSchedules has %d rows, want 5", rel.Len())
	}
	fmt.Fprint(w, storage.FormatRelation(rel))
	return nil
}

// RunT4 prints Table IV, chases rule (8) and answers Example 5's query
// with all three engines.
func RunT4(w io.Writer) error {
	o := hospital.NewOntology(hospital.Options{})
	comp, err := o.Compile(core.CompileOptions{})
	if err != nil {
		return err
	}
	fmt.Fprint(w, storage.FormatRelation(comp.Instance.Relation("Shifts")))

	res, err := chase.Run(context.Background(), comp.Program, comp.Instance, chase.Options{})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nafter chase (rules 7+8): %d Shifts tuples, %d invented nulls\n",
		res.Instance.Relation("Shifts").Len(), res.NullsCreated)
	fmt.Fprint(w, storage.FormatRelationSorted(res.Instance.Relation("Shifts")))

	q := datalog.NewQuery(datalog.A("Q", datalog.V("d")),
		datalog.A("Shifts", datalog.C("W1"), datalog.V("d"), datalog.C("Mark"), datalog.V("s")))
	for _, engine := range []struct {
		name string
		run  func() (*datalog.AnswerSet, error)
	}{
		{"chase-certain", func() (*datalog.AnswerSet, error) {
			return qa.CertainAnswersViaChase(context.Background(), comp.Program, comp.Instance, q, qa.ChaseOptions{})
		}},
		{"DeterministicWSQAns", func() (*datalog.AnswerSet, error) {
			return qa.Answer(context.Background(), comp.Program, comp.Instance, q, qa.Options{})
		}},
		{"FO-rewriting", func() (*datalog.AnswerSet, error) {
			return rewrite.Answer(context.Background(), comp.Program, comp.Instance, q, rewrite.Options{})
		}},
	} {
		start := time.Now()
		as, err := engine.run()
		if err != nil {
			return fmt.Errorf("T4 %s: %w", engine.name, err)
		}
		if as.Len() != 1 || as.All()[0].Terms[0] != datalog.C("Sep/9") {
			return fmt.Errorf("T4 %s: answers %v, want Sep/9", engine.name, as)
		}
		fmt.Fprintf(w, "\nExample 5 query via %-20s -> Sep/9  (%v)", engine.name, time.Since(start).Round(time.Microsecond))
	}
	fmt.Fprintln(w, "\nMATCH: Example 5's answer Sep/9 on all three engines")
	return nil
}

// RunT5 prints Table V and shows the form-(10) downward generation of
// Example 6.
func RunT5(w io.Writer) error {
	o := hospital.NewOntology(hospital.Options{WithRuleNine: true})
	comp, err := o.Compile(core.CompileOptions{})
	if err != nil {
		return err
	}
	fmt.Fprint(w, storage.FormatRelation(comp.Instance.Relation("DischargePatients")))
	res, err := chase.Run(context.Background(), comp.Program, comp.Instance, chase.Options{})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nafter chase with rule (9):\n")
	fmt.Fprint(w, storage.FormatRelationSorted(res.Instance.Relation("PatientUnit")))
	elvis := 0
	for _, tup := range res.Instance.Relation("PatientUnit").Tuples() {
		if tup[2] == datalog.C(hospital.ElvisCostello) {
			if !tup[0].IsNull() {
				return fmt.Errorf("T5: Elvis's unit must be a labeled null, got %v", tup[0])
			}
			elvis++
		}
	}
	if elvis != 1 {
		return fmt.Errorf("T5: %d Elvis tuples, want 1", elvis)
	}
	fmt.Fprintln(w, "MATCH: discharge data generates PatientUnit with an existential unit member (rule 10);")
	fmt.Fprintln(w, "       Tom's and Lou's discharges are satisfied by upward-derived data (restricted chase)")
	return nil
}

// RunF1 reproduces Figure 1: the two dimensions, the categorical
// relations attached to them, the HM integrity checks and the
// classifier verdict.
func RunF1(w io.Writer) error {
	o := hospital.NewOntology(hospital.Options{WithRuleNine: true, WithConstraints: true})
	fmt.Fprint(w, o.Summary())

	hdim := o.Dimension("Hospital")
	tdim := o.Dimension("Time")
	if vs := hdim.CheckStrictness(); len(vs) != 0 {
		return fmt.Errorf("F1: Hospital not strict: %v", vs)
	}
	if vs := hdim.CheckHomogeneity(); len(vs) != 0 {
		return fmt.Errorf("F1: Hospital not homogeneous: %v", vs)
	}
	if !hdim.Summarizable("Ward", "Institution") {
		return fmt.Errorf("F1: Ward->Institution must be summarizable")
	}
	if vs := tdim.CheckStrictness(); len(vs) != 0 {
		return fmt.Errorf("F1: Time not strict: %v", vs)
	}
	fmt.Fprintln(w, "\nHM checks: Hospital and Time are strict, homogeneous and summarizable")
	fmt.Fprintln(w, "\nGraphviz DOT (Hospital, schema only):")
	fmt.Fprint(w, hdim.DOT(false))
	return nil
}

// RunF2 walks the Figure 2 pipeline end to end and checks Example 7's
// clean answer.
func RunF2(w io.Writer) error {
	ctx, err := hospital.QualityContext(hospital.Options{})
	if err != nil {
		return err
	}
	d := hospital.MeasurementsInstance()
	fmt.Fprintf(w, "original instance D: %d Measurements tuples\n", d.Relation("Measurements").Len())

	a, err := ctx.Assess(context.Background(), d)
	if err != nil {
		return err
	}
	for _, pred := range []string{hospital.MeasurementC, "PatientUnit", hospital.TakenByNurse, hospital.TakenWithTherm, hospital.MeasurementX, hospital.MeasurementsQ} {
		rel := a.Contextual.Relation(pred)
		n := 0
		if rel != nil {
			n = rel.Len()
		}
		fmt.Fprintf(w, "contextual predicate %-16s: %d tuples\n", pred, n)
	}

	q := hospital.DoctorQuery()
	raw, err := eval.EvalQuery(q, a.Contextual)
	if err != nil {
		return err
	}
	clean, err := a.CleanAnswer(q)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\ndoctor's query Q  (raw over D):   %d answers\n", raw.Len())
	fmt.Fprintf(w, "rewritten query Q_q (over S_q):   %d answers\n", clean.Len())
	for _, ans := range clean.Sorted() {
		fmt.Fprintf(w, "  %s\n", ans)
	}
	if clean.Len() != 1 || clean.All()[0].Terms[0] != datalog.C("Sep/5-12:10") {
		return fmt.Errorf("F2: clean answer wrong: %v", clean)
	}
	fmt.Fprintln(w, "MATCH: Example 7's quality answer (Sep/5-12:10, Tom Waits, 38.2)")
	return nil
}

// ScaleRow is one row of a scaling experiment.
type ScaleRow struct {
	N       int
	Chase   time.Duration
	DetQA   time.Duration
	Rewrite time.Duration
	Atoms   int
}

// RunScaling runs the C1 measurement for the given base sizes and
// returns the rows (exported for tests and cmd/mdbench -scale).
func RunScaling(sizes []int) ([]ScaleRow, error) {
	var rows []ScaleRow
	for _, n := range sizes {
		prog, db, q, err := ScalingWorkload(n)
		if err != nil {
			return nil, err
		}

		start := time.Now()
		res, err := chase.Run(context.Background(), prog, db, chase.Options{})
		if err != nil {
			return nil, err
		}
		chaseT := time.Since(start)

		start = time.Now()
		if _, err := qa.Answer(context.Background(), prog, db, q, qa.Options{}); err != nil {
			return nil, err
		}
		detT := time.Since(start)

		start = time.Now()
		if _, err := rewrite.Answer(context.Background(), prog, db, q, rewrite.Options{}); err != nil {
			return nil, err
		}
		rewT := time.Since(start)

		rows = append(rows, ScaleRow{
			N: n, Chase: chaseT, DetQA: detT, Rewrite: rewT,
			Atoms: res.Instance.TotalTuples(),
		})
	}
	return rows, nil
}

// ScalingWorkload builds the C1 chain workload: the one spec behind
// RunScaling and the Scaling_* benchmarks in internal/benchsuite.
func ScalingWorkload(n int) (*datalog.Program, *storage.Instance, *datalog.Query, error) {
	spec := gen.ChainSpec{
		Dim:    gen.DimensionSpec{Name: "S", Levels: 3, Fanout: 8, BaseMembers: 64},
		Tuples: n,
		Upward: true,
		Seed:   42,
	}
	o, err := gen.ChainOntology(spec)
	if err != nil {
		return nil, nil, nil, err
	}
	comp, err := o.Compile(core.CompileOptions{})
	if err != nil {
		return nil, nil, nil, err
	}
	q := datalog.NewQuery(datalog.A("Q", datalog.V("c")),
		datalog.A(gen.UpRelName(2), datalog.V("c"), datalog.C("v0")))
	return comp.Program, comp.Instance, q, nil
}

// RunC1 prints the scaling table.
func RunC1(w io.Writer) error {
	rows, err := RunScaling([]int{100, 400, 1600})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%8s  %12s  %12s  %12s  %10s\n", "n", "chase", "DetQA", "rewrite", "atoms")
	for _, r := range rows {
		fmt.Fprintf(w, "%8d  %12v  %12v  %12v  %10d\n",
			r.N, r.Chase.Round(time.Microsecond), r.DetQA.Round(time.Microsecond),
			r.Rewrite.Round(time.Microsecond), r.Atoms)
	}
	// Shape check: growth between successive sizes stays polynomial —
	// chase atoms grow linearly with n for the fixed ontology.
	for i := 1; i < len(rows); i++ {
		factorN := float64(rows[i].N) / float64(rows[i-1].N)
		factorAtoms := float64(rows[i].Atoms) / float64(rows[i-1].Atoms)
		if factorAtoms > factorN*1.5 {
			return fmt.Errorf("C1: atom growth %f exceeds linear in n (%f)", factorAtoms, factorN)
		}
	}
	fmt.Fprintln(w, "SHAPE: chase output grows linearly in n; all engines polynomial (paper: PTIME data complexity)")
	return nil
}

// RunC2 compares rewriting against the chase on upward-only chains of
// increasing depth.
func RunC2(w io.Writer) error {
	fmt.Fprintf(w, "%8s  %8s  %12s  %12s  %8s\n", "levels", "n", "chase", "rewrite", "UCQ size")
	for _, levels := range []int{2, 3, 4} {
		spec := gen.ChainSpec{
			Dim:    gen.DimensionSpec{Name: "S", Levels: levels, Fanout: 4, BaseMembers: 32},
			Tuples: 500,
			Upward: true,
			Seed:   7,
		}
		o, err := gen.ChainOntology(spec)
		if err != nil {
			return err
		}
		if !o.IsUpwardOnly() {
			return fmt.Errorf("C2: chain must be upward-only")
		}
		comp, err := o.Compile(core.CompileOptions{})
		if err != nil {
			return err
		}
		q := datalog.NewQuery(datalog.A("Q", datalog.V("c")),
			datalog.A(gen.UpRelName(levels-1), datalog.V("c"), datalog.C("v1")))

		start := time.Now()
		oracle, err := qa.CertainAnswersViaChase(context.Background(), comp.Program, comp.Instance, q, qa.ChaseOptions{})
		if err != nil {
			return err
		}
		chaseT := time.Since(start)

		start = time.Now()
		ucq, err := rewrite.Rewrite(comp.Program, q, rewrite.Options{})
		if err != nil {
			return err
		}
		ans, err := rewrite.Answer(context.Background(), comp.Program, comp.Instance, q, rewrite.Options{})
		if err != nil {
			return err
		}
		rewT := time.Since(start)
		if !ans.Equal(oracle) {
			return fmt.Errorf("C2: rewriting disagrees with chase at depth %d", levels)
		}
		fmt.Fprintf(w, "%8d  %8d  %12v  %12v  %8d\n",
			levels, spec.Tuples, chaseT.Round(time.Microsecond), rewT.Round(time.Microsecond), len(ucq))
	}
	fmt.Fprintln(w, "SHAPE: rewriting answers without materializing data and agrees with the chase (paper §IV)")
	return nil
}

// RunC3 classifies the hospital ontology and generated variants.
func RunC3(w io.Writer) error {
	fmt.Fprintf(w, "%-28s  %-6s  %-6s  %-8s  %-14s\n", "ontology", "WS", "sticky", "linear", "weakly-acyclic")
	show := func(name string, rep *sticky.Report) {
		fmt.Fprintf(w, "%-28s  %-6v  %-6v  %-8v  %-14v\n", name, rep.WeaklySticky, rep.Sticky, rep.Linear, rep.WeaklyAcyclic)
	}
	o := hospital.NewOntology(hospital.Options{WithRuleNine: true, WithConstraints: true})
	comp, err := o.Compile(core.CompileOptions{ReferentialNCs: true})
	if err != nil {
		return err
	}
	if !comp.Report.WeaklySticky || comp.Report.Sticky {
		return fmt.Errorf("C3: hospital ontology must be WS and not sticky: %s", comp.Report)
	}
	show("hospital (rules 7,8,9)", comp.Report)

	for _, spec := range []gen.ChainSpec{
		{Dim: gen.DimensionSpec{Name: "U", Levels: 4, Fanout: 3, BaseMembers: 27}, Tuples: 10, Upward: true, Seed: 1},
		{Dim: gen.DimensionSpec{Name: "D", Levels: 4, Fanout: 3, BaseMembers: 27}, Tuples: 10, Downward: true, Seed: 1},
	} {
		og, err := gen.ChainOntology(spec)
		if err != nil {
			return err
		}
		cg, err := og.Compile(core.CompileOptions{})
		if err != nil {
			return err
		}
		if !cg.Report.WeaklySticky {
			return fmt.Errorf("C3: generated chain must be WS")
		}
		name := "chain-upward"
		if spec.Downward {
			name = "chain-downward"
		}
		show(name, cg.Report)
	}

	// A non-WS program for contrast.
	bad := datalog.NewProgram()
	bad.AddTGD(datalog.NewTGD("loop",
		[]datalog.Atom{datalog.A("R", datalog.V("y"), datalog.V("z"))},
		[]datalog.Atom{datalog.A("R", datalog.V("x"), datalog.V("y"))}))
	bad.AddTGD(datalog.NewTGD("join",
		[]datalog.Atom{datalog.A("S", datalog.V("x"))},
		[]datalog.Atom{datalog.A("R", datalog.V("x"), datalog.V("y")), datalog.A("R", datalog.V("y"), datalog.V("x"))}))
	badRep := sticky.Classify(bad)
	if badRep.WeaklySticky {
		return fmt.Errorf("C3: contrast program must not be WS")
	}
	show("contrast (non-WS)", badRep)
	fmt.Fprintln(w, "SHAPE: every compiled MD ontology is weakly sticky (paper §III); the contrast program is not")
	return nil
}

// RunC4 sweeps the dirty-data ratio and reports the quality measures.
func RunC4(w io.Writer) error {
	fmt.Fprintf(w, "%10s  %8s  %8s  %14s  %10s\n", "dirty", "|D|", "|D_q|", "clean-fraction", "distance")
	prev := 2.0
	for _, ratio := range []float64{0.0, 0.2, 0.4, 0.6, 0.8, 1.0} {
		wl, err := gen.NewQualityWorkload(gen.QualitySpec{
			Patients: 40, Days: 4, Wards: 3, DirtyRatio: ratio, Seed: 11,
		})
		if err != nil {
			return err
		}
		a, err := wl.Context.Assess(context.Background(), wl.Instance)
		if err != nil {
			return err
		}
		m := a.Measures["Measurements"]
		if m.Quality != wl.ExpectedClean {
			return fmt.Errorf("C4: ratio %.1f: got %d clean, want %d", ratio, m.Quality, wl.ExpectedClean)
		}
		cf := m.CleanFraction()
		if cf > prev {
			return fmt.Errorf("C4: clean fraction must fall as dirt rises (%.3f after %.3f)", cf, prev)
		}
		prev = cf
		fmt.Fprintf(w, "%10.1f  %8d  %8d  %14.3f  %10.3f\n", ratio, m.Original, m.Quality, cf, m.Distance())
	}
	fmt.Fprintln(w, "SHAPE: clean fraction decreases monotonically with the dirty ratio; measures quantify departure (paper §V)")
	return nil
}

// IDs returns the experiment IDs in presentation order.
func IDs() []string {
	var ids []string
	for _, e := range All() {
		ids = append(ids, e.ID)
	}
	return ids
}
