package mdqa_test

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/mdqa"
)

// buildSalesOntology is a small two-level workload shared by the
// facade tests: CitySales rolls up to CountrySales through a Geo
// dimension.
func buildSalesOntology(t *testing.T) *mdqa.Ontology {
	t.Helper()
	schema := mdqa.NewDimensionSchema("Geo")
	schema.MustAddCategory("City")
	schema.MustAddCategory("Country")
	schema.MustAddEdge("City", "Country")
	geo := mdqa.NewDimension(schema)
	geo.MustAddMember("Country", "Canada")
	geo.MustAddMember("Country", "Chile")
	for city, country := range map[string]string{
		"Ottawa": "Canada", "Toronto": "Canada", "Santiago": "Chile",
	} {
		geo.MustAddMember("City", city)
		geo.MustAddRollup(city, country)
	}
	o := mdqa.NewOntology()
	if err := o.AddDimension(geo); err != nil {
		t.Fatal(err)
	}
	if err := o.AddRelation(mdqa.NewCategoricalRelation("CitySales",
		mdqa.Cat("City", "Geo", "City"), mdqa.NonCat("Item"))); err != nil {
		t.Fatal(err)
	}
	if err := o.AddRelation(mdqa.NewCategoricalRelation("CountrySales",
		mdqa.Cat("Country", "Geo", "Country"), mdqa.NonCat("Item"))); err != nil {
		t.Fatal(err)
	}
	o.MustAddRule(mdqa.NewTGD("up",
		[]mdqa.Atom{mdqa.NewAtom("CountrySales", mdqa.Var("c"), mdqa.Var("i"))},
		[]mdqa.Atom{
			mdqa.NewAtom("CitySales", mdqa.Var("w"), mdqa.Var("i")),
			mdqa.NewAtom(mdqa.RollupPredName("City", "Country"), mdqa.Var("c"), mdqa.Var("w")),
		}))
	return o
}

func TestHospitalPipelineThroughFacade(t *testing.T) {
	qc, err := mdqa.HospitalQualityContext(mdqa.HospitalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	a, err := qc.Assess(context.Background(), mdqa.HospitalMeasurements())
	if err != nil {
		t.Fatal(err)
	}
	v, err := a.Version("Measurements")
	if err != nil {
		t.Fatal(err)
	}
	if v.Len() != 2 {
		t.Fatalf("Table II through the facade: %d tuples, want 2", v.Len())
	}
	m := a.Measures()["Measurements"]
	if m.Original != 6 || m.Quality != 2 {
		t.Errorf("measure = %+v, want 6/2", m)
	}
	ans, err := a.CleanAnswer(mdqa.HospitalDoctorQuery())
	if err != nil {
		t.Fatal(err)
	}
	if ans.Len() != 1 {
		t.Errorf("clean answers = %v, want 1", ans)
	}
	if _, err := a.Version("NoSuch"); !errors.Is(err, mdqa.ErrUnknownRelation) {
		t.Errorf("Version(NoSuch) = %v, want ErrUnknownRelation", err)
	}
}

func TestSessionApplyAndSnapshotConsistency(t *testing.T) {
	o := buildSalesOntology(t)
	version := mdqa.NewRule("sales-q",
		mdqa.NewAtom("CitySales_q", mdqa.Var("w"), mdqa.Var("i")),
		mdqa.NewAtom("CitySales", mdqa.Var("w"), mdqa.Var("i")),
		mdqa.NewAtom("CountrySales", mdqa.Const("Canada"), mdqa.Var("i")))
	qc, err := mdqa.NewContext(o,
		mdqa.WithQualityVersion("CitySales", "CitySales_q", version))
	if err != nil {
		t.Fatal(err)
	}
	d := mdqa.NewInstance()
	if _, err := d.CreateRelation("CitySales", "City", "Item"); err != nil {
		t.Fatal(err)
	}
	d.MustInsert("CitySales", mdqa.Const("Ottawa"), mdqa.Const("skates"))
	d.MustInsert("CitySales", mdqa.Const("Santiago"), mdqa.Const("wine"))

	ctx := context.Background()
	prep, err := qc.Prepare(ctx)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := prep.NewSession(ctx, d)
	if err != nil {
		t.Fatal(err)
	}
	before := sess.Snapshot()
	nBefore, err := before.NumTuples("CitySales")
	if err != nil {
		t.Fatal(err)
	}
	if nBefore != 2 {
		t.Fatalf("snapshot CitySales = %d, want 2", nBefore)
	}

	res, err := sess.Apply(ctx, []mdqa.Atom{
		mdqa.NewAtom("CitySales", mdqa.Const("Toronto"), mdqa.Const("syrup")),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Inserted != 1 {
		t.Errorf("Inserted = %d, want 1", res.Inserted)
	}
	// The old snapshot is frozen; a fresh one sees the delta and the
	// incrementally derived quality version.
	if n, _ := before.NumTuples("CitySales"); n != 2 {
		t.Errorf("frozen snapshot grew to %d", n)
	}
	after := sess.Snapshot()
	seq, err := after.VersionTuples("CitySales")
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for tup := range seq {
		got[tup[0].Name+"/"+tup[1].Name] = true
	}
	want := []string{"Ottawa/skates", "Toronto/syrup"}
	if len(got) != len(want) {
		t.Fatalf("version tuples = %v, want %v", got, want)
	}
	for _, w := range want {
		if !got[w] {
			t.Errorf("version tuples missing %s (have %v)", w, got)
		}
	}
}

func TestStreamingEarlyStopAndDedup(t *testing.T) {
	o := buildSalesOntology(t)
	qc, err := mdqa.NewContext(o)
	if err != nil {
		t.Fatal(err)
	}
	d := mdqa.NewInstance()
	if _, err := d.CreateRelation("CitySales", "City", "Item"); err != nil {
		t.Fatal(err)
	}
	for _, row := range [][2]string{
		{"Ottawa", "skates"}, {"Toronto", "skates"}, {"Toronto", "syrup"},
	} {
		d.MustInsert("CitySales", mdqa.Const(row[0]), mdqa.Const(row[1]))
	}
	prep, err := qc.Prepare(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	sess, err := prep.NewSession(context.Background(), d)
	if err != nil {
		t.Fatal(err)
	}
	snap := sess.Snapshot()

	// Ottawa and Toronto both sell skates: the Canada roll-up derives
	// CountrySales(Canada, skates) once, and the answer stream
	// deduplicates.
	q := mdqa.NewQuery(mdqa.NewAtom("Q", mdqa.Var("i")),
		mdqa.NewAtom("CountrySales", mdqa.Const("Canada"), mdqa.Var("i")))
	seen := map[string]int{}
	for ans, err := range snap.Answers(q) {
		if err != nil {
			t.Fatal(err)
		}
		seen[ans.Terms[0].Name]++
	}
	if len(seen) != 2 || seen["skates"] != 1 || seen["syrup"] != 1 {
		t.Errorf("streamed answers = %v, want skates:1 syrup:1", seen)
	}

	// Early break stops the stream without error.
	count := 0
	for _, err := range snap.Answers(q) {
		if err != nil {
			t.Fatal(err)
		}
		count++
		break
	}
	if count != 1 {
		t.Errorf("early break consumed %d answers", count)
	}

	// Unknown relations surface as typed errors from Tuples.
	if _, err := snap.Tuples("NoSuch"); !errors.Is(err, mdqa.ErrUnknownRelation) {
		t.Errorf("Tuples(NoSuch) = %v, want ErrUnknownRelation", err)
	}
	var ur *mdqa.UnknownRelationError
	if _, err := snap.VersionTuples("CitySales"); !errors.As(err, &ur) || ur.Relation != "CitySales" {
		t.Errorf("VersionTuples without a declared version = %v, want UnknownRelationError", err)
	}
}

// TestMappingReadByOntologyRejected is the README's Geo probe with a
// mapping into the relation the upward rule reads. The chase runs
// before the mappings, so the rule would never see the mapped
// CitySales row and Sales_q would come back empty: Prepare must
// reject the context instead, naming the mapping and the rule.
func TestMappingReadByOntologyRejected(t *testing.T) {
	o := buildSalesOntology(t)
	mapping := mdqa.NewRule("map-sales",
		mdqa.NewAtom("CitySales", mdqa.Var("w"), mdqa.Var("i")),
		mdqa.NewAtom("Sales", mdqa.Var("w"), mdqa.Var("i")))
	version := mdqa.NewRule("sales-q",
		mdqa.NewAtom("Sales_q", mdqa.Var("w"), mdqa.Var("i")),
		mdqa.NewAtom("Sales", mdqa.Var("w"), mdqa.Var("i")),
		mdqa.NewAtom("CountrySales", mdqa.Const("Canada"), mdqa.Var("i")))
	qc, err := mdqa.NewContext(o,
		mdqa.WithMapping(mapping),
		mdqa.WithQualityVersion("Sales", "Sales_q", version))
	if err != nil {
		t.Fatal(err)
	}
	_, err = qc.Prepare(context.Background())
	var ue *mdqa.UnsafeRuleError
	if !errors.Is(err, mdqa.ErrUnsafeRule) || !errors.As(err, &ue) {
		t.Fatalf("Prepare = %v, want ErrUnsafeRule", err)
	}
	if ue.Rule != "map-sales" || !strings.Contains(ue.Reason, "TGD up") {
		t.Errorf("UnsafeRuleError = %+v, want rule map-sales and dependency TGD up", ue)
	}
}

func TestTypedErrorsThroughFacade(t *testing.T) {
	o := buildSalesOntology(t)

	// Unsafe version rule -> ErrUnsafeRule at construction.
	unsafe := mdqa.NewRule("bad",
		mdqa.NewAtom("CitySales_q", mdqa.Var("w"), mdqa.Var("other")),
		mdqa.NewAtom("CitySales", mdqa.Var("w"), mdqa.Var("i")))
	_, err := mdqa.NewContext(o, mdqa.WithQualityVersion("CitySales", "CitySales_q", unsafe))
	if !errors.Is(err, mdqa.ErrUnsafeRule) {
		t.Errorf("unsafe rule error = %v, want ErrUnsafeRule", err)
	}
	var ue *mdqa.UnsafeRuleError
	if !errors.As(err, &ue) || ue.Rule != "bad" || ue.Var != "other" {
		t.Errorf("UnsafeRuleError detail = %+v", ue)
	}

	// A chase bound of one round cannot saturate the roll-up ->
	// ErrBoundExceeded at assessment.
	bounded, err := mdqa.NewContext(o, mdqa.WithChaseBound(1))
	if err != nil {
		t.Fatal(err)
	}
	d := mdqa.NewInstance()
	if _, err := d.CreateRelation("CitySales", "City", "Item"); err != nil {
		t.Fatal(err)
	}
	d.MustInsert("CitySales", mdqa.Const("Ottawa"), mdqa.Const("skates"))
	_, err = bounded.Assess(context.Background(), d)
	if !errors.Is(err, mdqa.ErrBoundExceeded) {
		t.Errorf("bounded assess error = %v, want ErrBoundExceeded", err)
	}
	var be *mdqa.BoundExceededError
	if !errors.As(err, &be) || be.Rounds < 1 {
		t.Errorf("BoundExceededError detail = %+v", be)
	}

	// Strict consistency: the intensive-closed denial of the hospital
	// example fires -> ErrInconsistent carrying the violations.
	strict, err := mdqa.HospitalQualityContext(
		mdqa.HospitalOptions{WithConstraints: true},
		mdqa.WithStrictConsistency())
	if err != nil {
		t.Fatal(err)
	}
	_, err = strict.Assess(context.Background(), mdqa.HospitalMeasurements())
	if !errors.Is(err, mdqa.ErrInconsistent) {
		t.Fatalf("strict assess error = %v, want ErrInconsistent", err)
	}
	var ie *mdqa.InconsistentError
	if !errors.As(err, &ie) || len(ie.Violations) == 0 {
		t.Errorf("InconsistentError carries no violations: %+v", ie)
	}
	// Without the option the same context reports, not fails.
	lax, err := mdqa.HospitalQualityContext(mdqa.HospitalOptions{WithConstraints: true})
	if err != nil {
		t.Fatal(err)
	}
	a, err := lax.Assess(context.Background(), mdqa.HospitalMeasurements())
	if err != nil {
		t.Fatal(err)
	}
	if a.Consistent() || len(a.Violations()) == 0 {
		t.Error("lax assessment must report the violations")
	}
}

func TestCertainAnswerEnginesAgree(t *testing.T) {
	o := buildSalesOntology(t)
	comp, err := o.Compile(mdqa.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	comp.Instance.MustInsert("CitySales", mdqa.Const("Ottawa"), mdqa.Const("skates"))
	comp.Instance.MustInsert("CitySales", mdqa.Const("Santiago"), mdqa.Const("wine"))
	q := mdqa.NewQuery(mdqa.NewAtom("Q", mdqa.Var("i")),
		mdqa.NewAtom("CountrySales", mdqa.Const("Canada"), mdqa.Var("i")))
	ctx := context.Background()
	var sets []*mdqa.AnswerSet
	for _, eng := range []mdqa.QueryEngine{mdqa.EngineDeterministic, mdqa.EngineChase, mdqa.EngineRewrite} {
		as, err := mdqa.CertainAnswers(ctx, comp, q, mdqa.AnswerOptions{Engine: eng})
		if err != nil {
			t.Fatalf("%v: %v", eng, err)
		}
		sets = append(sets, as)
	}
	for i := 1; i < len(sets); i++ {
		if !sets[0].Equal(sets[i]) {
			t.Errorf("engine disagreement: %v vs %v", sets[0], sets[i])
		}
	}
	if sets[0].Len() != 1 {
		t.Errorf("Canada items = %v, want exactly skates", sets[0])
	}
	ok, err := mdqa.HasCertainAnswer(ctx, comp,
		mdqa.NewQuery(mdqa.NewAtom("Q"),
			mdqa.NewAtom("CountrySales", mdqa.Const("Chile"), mdqa.Var("i"))),
		mdqa.AnswerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("Chile must certainly sell something")
	}
}

func TestContextFromParsedFile(t *testing.T) {
	f, err := mdqa.ParseSource(mdqa.HospitalQualityExampleSource())
	if err != nil {
		t.Fatal(err)
	}
	if !mdqa.HasQualityContext(f) {
		t.Fatal("example must declare a quality context")
	}
	qc, err := mdqa.NewContextFromFile(f)
	if err != nil {
		t.Fatal(err)
	}
	a, err := qc.Assess(context.Background(), mdqa.InputInstance(f))
	if err != nil {
		t.Fatal(err)
	}
	v, err := a.Version("Measurements")
	if err != nil {
		t.Fatal(err)
	}
	if v.Len() != 2 {
		t.Errorf("parsed-file Table II = %d tuples, want 2", v.Len())
	}
	// Cancellation propagates through every facade entry point.
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	fresh, err := mdqa.NewContextFromFile(f)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fresh.Assess(cancelled, mdqa.InputInstance(f)); err == nil {
		t.Error("cancelled assess must fail")
	}
	if _, err := fresh.Assess(context.Background(), mdqa.InputInstance(f)); err != nil {
		t.Errorf("context must stay usable after cancellation: %v", err)
	}
}

// TestSnapshotIterationOrderDeterministic pins the documented
// snapshot iteration orders: Relations is sorted by name, and
// Tuples/VersionTuples stream in sorted tuple order — independent of
// insertion/derivation order, so parallel runs can never reorder
// output built from snapshot streams (golden CLI files included).
func TestSnapshotIterationOrderDeterministic(t *testing.T) {
	o := buildSalesOntology(t)
	version := mdqa.NewRule("sales-q",
		mdqa.NewAtom("CitySales_q", mdqa.Var("w"), mdqa.Var("i")),
		mdqa.NewAtom("CitySales", mdqa.Var("w"), mdqa.Var("i")))
	d := mdqa.NewInstance()
	if _, err := d.CreateRelation("CitySales", "City", "Item"); err != nil {
		t.Fatal(err)
	}
	// Deliberately inserted out of sorted order.
	d.MustInsert("CitySales", mdqa.Const("Toronto"), mdqa.Const("syrup"))
	d.MustInsert("CitySales", mdqa.Const("Ottawa"), mdqa.Const("skates"))
	d.MustInsert("CitySales", mdqa.Const("Santiago"), mdqa.Const("wine"))

	for _, degree := range []int{1, 4} {
		qc, err := mdqa.NewContext(o,
			mdqa.WithQualityVersion("CitySales", "CitySales_q", version),
			mdqa.WithParallelism(degree))
		if err != nil {
			t.Fatal(err)
		}
		prep, err := qc.Prepare(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		sess, err := prep.NewSession(context.Background(), d)
		if err != nil {
			t.Fatal(err)
		}
		snap := sess.Snapshot()

		names := snap.Relations()
		if !sort.StringsAreSorted(names) {
			t.Fatalf("p=%d: Relations not sorted: %v", degree, names)
		}

		for _, stream := range []func() (func(func([]mdqa.Term) bool), error){
			func() (func(func([]mdqa.Term) bool), error) { return snap.Tuples("CitySales_q") },
			func() (func(func([]mdqa.Term) bool), error) { return snap.VersionTuples("CitySales") },
		} {
			seq, err := stream()
			if err != nil {
				t.Fatal(err)
			}
			var cities []string
			for tup := range seq {
				cities = append(cities, tup[0].Name)
			}
			want := []string{"Ottawa", "Santiago", "Toronto"}
			if fmt.Sprint(cities) != fmt.Sprint(want) {
				t.Fatalf("p=%d: streamed order %v, want %v", degree, cities, want)
			}
		}
	}
}
