package mdqa_test

import (
	"context"
	"fmt"
	"sort"

	"repro/mdqa"
)

// salesContext builds the small Geo workload used by the examples: a
// City -> Country dimension, an upward roll-up rule, and a quality
// version keeping only city sales whose item also certainly sells at
// the Canada level.
func salesContext() (*mdqa.Context, *mdqa.Instance, error) {
	o, err := salesOntology()
	if err != nil {
		return nil, nil, err
	}
	version := mdqa.NewRule("sales-q",
		mdqa.NewAtom("CitySales_q", mdqa.Var("w"), mdqa.Var("i")),
		mdqa.NewAtom("CitySales", mdqa.Var("w"), mdqa.Var("i")),
		mdqa.NewAtom("CountrySales", mdqa.Const("Canada"), mdqa.Var("i")))
	qc, err := mdqa.NewContext(o,
		mdqa.WithQualityVersion("CitySales", "CitySales_q", version),
		mdqa.WithChaseBound(100))
	if err != nil {
		return nil, nil, err
	}

	d := mdqa.NewInstance()
	if _, err := d.CreateRelation("CitySales", "City", "Item"); err != nil {
		return nil, nil, err
	}
	d.MustInsert("CitySales", mdqa.Const("Ottawa"), mdqa.Const("skates"))
	d.MustInsert("CitySales", mdqa.Const("Santiago"), mdqa.Const("wine"))
	return qc, d, nil
}

// salesOntology is salesContext's ontology: the Geo dimension, the
// CitySales and CountrySales relations and the upward roll-up rule.
func salesOntology() (*mdqa.Ontology, error) {
	schema := mdqa.NewDimensionSchema("Geo")
	schema.MustAddCategory("City")
	schema.MustAddCategory("Country")
	schema.MustAddEdge("City", "Country")
	geo := mdqa.NewDimension(schema)
	geo.MustAddMember("Country", "Canada")
	geo.MustAddMember("Country", "Chile")
	for _, m := range []struct{ city, country string }{
		{"Ottawa", "Canada"}, {"Toronto", "Canada"}, {"Santiago", "Chile"},
	} {
		geo.MustAddMember("City", m.city)
		geo.MustAddRollup(m.city, m.country)
	}
	o := mdqa.NewOntology()
	if err := o.AddDimension(geo); err != nil {
		return nil, err
	}
	for _, rel := range []*mdqa.CategoricalRelation{
		mdqa.NewCategoricalRelation("CitySales", mdqa.Cat("City", "Geo", "City"), mdqa.NonCat("Item")),
		mdqa.NewCategoricalRelation("CountrySales", mdqa.Cat("Country", "Geo", "Country"), mdqa.NonCat("Item")),
	} {
		if err := o.AddRelation(rel); err != nil {
			return nil, err
		}
	}
	o.MustAddRule(mdqa.NewTGD("up",
		[]mdqa.Atom{mdqa.NewAtom("CountrySales", mdqa.Var("c"), mdqa.Var("i"))},
		[]mdqa.Atom{
			mdqa.NewAtom("CitySales", mdqa.Var("w"), mdqa.Var("i")),
			mdqa.NewAtom(mdqa.RollupPredName("City", "Country"), mdqa.Var("c"), mdqa.Var("w")),
		}))
	return o, nil
}

// ExampleNewContext builds a quality context with functional options
// and reads its configuration back.
func ExampleNewContext() {
	qc, _, err := salesContext()
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("versioned relations:", qc.Versioned())
	fmt.Println("version predicate:", qc.VersionPred("CitySales"))
	// Output:
	// versioned relations: [CitySales]
	// version predicate: CitySales_q
}

// ExampleContext_Assess runs the one-shot Figure 2 pipeline and reads
// the departure measure.
func ExampleContext_Assess() {
	qc, d, err := salesContext()
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	a, err := qc.Assess(context.Background(), d)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	m := a.Measures()["CitySales"]
	fmt.Printf("|D|=%d |D_q|=%d clean-fraction=%.2f\n", m.Original, m.Quality, m.CleanFraction())
	// Output:
	// |D|=2 |D_q|=1 clean-fraction=0.50
}

// ExampleSession_Apply feeds a session incrementally: the delta is
// chased semi-naively instead of re-assessing from scratch.
func ExampleSession_Apply() {
	qc, d, err := salesContext()
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	ctx := context.Background()
	prep, err := qc.Prepare(ctx)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	sess, err := prep.NewSession(ctx, d)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	res, err := sess.Apply(ctx, []mdqa.Atom{
		mdqa.NewAtom("CitySales", mdqa.Const("Toronto"), mdqa.Const("syrup")),
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	n, err := sess.Snapshot().NumTuples("CitySales_q")
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("inserted=%d rebuilt=%v clean-tuples=%d\n", res.Inserted, res.Rebuilt, n)
	// Output:
	// inserted=1 rebuilt=false clean-tuples=2
}

// ExampleWithParallelism builds two contexts over the same ontology —
// one at width 1, one fanning chase and eval rounds across four
// workers — and shows that parallelism changes
// only how the assessment is computed, never what it computes.
func ExampleWithParallelism() {
	for _, degree := range []int{1, 4} {
		qc, d, err := salesContext()
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		// Rebuild the context with the explicit degree (parallelism is
		// fixed at construction; 0, the default, uses all cores).
		qc, err = mdqa.NewContext(qc.Ontology(),
			mdqa.WithQualityVersion("CitySales", "CitySales_q",
				mdqa.NewRule("sales-q",
					mdqa.NewAtom("CitySales_q", mdqa.Var("w"), mdqa.Var("i")),
					mdqa.NewAtom("CitySales", mdqa.Var("w"), mdqa.Var("i")),
					mdqa.NewAtom("CountrySales", mdqa.Const("Canada"), mdqa.Var("i")))),
			mdqa.WithParallelism(degree))
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		a, err := qc.Assess(context.Background(), d)
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		m := a.Measures()["CitySales"]
		fmt.Printf("p=%d: |D|=%d |D_q|=%d clean-fraction=%.2f\n", degree, m.Original, m.Quality, m.CleanFraction())
	}
	// Output:
	// p=1: |D|=2 |D_q|=1 clean-fraction=0.50
	// p=4: |D|=2 |D_q|=1 clean-fraction=0.50
}

// ExampleSnapshot_CleanAnswers streams clean query answers off a
// frozen snapshot without materializing an answer set.
func ExampleSnapshot_CleanAnswers() {
	qc, d, err := salesContext()
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	prep, err := qc.Prepare(context.Background())
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	sess, err := prep.NewSession(context.Background(), d)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	// Ask for all city sales; the clean rewriting answers over
	// CitySales_q, so only quality tuples stream out.
	q := mdqa.NewQuery(mdqa.NewAtom("Q", mdqa.Var("w"), mdqa.Var("i")),
		mdqa.NewAtom("CitySales", mdqa.Var("w"), mdqa.Var("i")))
	var rows []string
	for ans, err := range sess.Snapshot().CleanAnswers(q) {
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		rows = append(rows, ans.Terms[0].Name+" sells "+ans.Terms[1].Name)
	}
	sort.Strings(rows)
	for _, r := range rows {
		fmt.Println(r)
	}
	// Output:
	// Ottawa sells skates
}
