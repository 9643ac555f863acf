package rewrite

import (
	"context"
	"strings"
	"testing"

	"repro/internal/core"
	dl "repro/internal/datalog"
	"repro/internal/hospital"
	"repro/internal/qa"
	"repro/internal/storage"
)

// upwardOntology compiles the hospital ontology with rule (7) only —
// the paper's upward-only case where FO rewriting applies.
func upwardOntology(t *testing.T) (*dl.Program, *storage.Instance) {
	t.Helper()
	o := core.NewOntology()
	for _, err := range []error{
		o.AddDimension(hospital.HospitalDimension()),
		o.AddDimension(hospital.TimeDimension()),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, rel := range []*core.CategoricalRelation{
		core.NewCategoricalRelation("PatientWard",
			core.Cat("Ward", "Hospital", "Ward"), core.Cat("Day", "Time", "Day"), core.NonCat("Patient")),
		core.NewCategoricalRelation("PatientUnit",
			core.Cat("Unit", "Hospital", "Unit"), core.Cat("Day", "Time", "Day"), core.NonCat("Patient")),
	} {
		if err := o.AddRelation(rel); err != nil {
			t.Fatal(err)
		}
	}
	o.MustAddFact("PatientWard", "W1", "Sep/5", hospital.TomWaits)
	o.MustAddFact("PatientWard", "W2", "Sep/6", hospital.TomWaits)
	o.MustAddFact("PatientWard", "W3", "Sep/7", hospital.TomWaits)
	o.MustAddFact("PatientWard", "W4", "Sep/9", hospital.TomWaits)
	o.MustAddRule(hospital.RuleSeven())
	if !o.IsUpwardOnly() {
		t.Fatal("fixture must be upward-only")
	}
	comp, err := o.Compile(core.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return comp.Program, comp.Instance
}

func TestRewriteUpwardQuery(t *testing.T) {
	prog, _ := upwardOntology(t)
	// Q(u,d) <- PatientUnit(u,d,"Tom Waits") unfolds into the base
	// query plus the rule-(7) expansion.
	q := dl.NewQuery(dl.A("Q", dl.V("u"), dl.V("d")),
		dl.A("PatientUnit", dl.V("u"), dl.V("d"), dl.C(hospital.TomWaits)))
	ucq, err := Rewrite(prog, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ucq) != 2 {
		t.Fatalf("UCQ size = %d, want 2:\n%v", len(ucq), ucq)
	}
	// One disjunct queries PatientUnit directly, the other joins
	// PatientWard with UnitWard.
	var direct, unfolded bool
	for _, cq := range ucq {
		preds := map[string]bool{}
		for _, a := range cq.Body {
			preds[a.Pred] = true
		}
		if preds["PatientUnit"] {
			direct = true
		}
		if preds["PatientWard"] && preds["UnitWard"] {
			unfolded = true
		}
	}
	if !direct || !unfolded {
		t.Errorf("UCQ missing expected disjuncts: %v", ucq)
	}
}

func TestRewriteAnswersMatchChase(t *testing.T) {
	// Section IV: for upward-only ontologies the rewritten query
	// evaluated on the extensional data equals chase-based certain
	// answers (experiment C2's correctness leg).
	prog, db := upwardOntology(t)
	queries := []*dl.Query{
		dl.NewQuery(dl.A("Q", dl.V("u"), dl.V("d")),
			dl.A("PatientUnit", dl.V("u"), dl.V("d"), dl.C(hospital.TomWaits))),
		dl.NewQuery(dl.A("Q", dl.V("d")),
			dl.A("PatientUnit", dl.C("Standard"), dl.V("d"), dl.V("p"))),
		dl.NewQuery(dl.A("Q", dl.V("p")),
			dl.A("PatientUnit", dl.V("u"), dl.V("d"), dl.V("p")),
			dl.A("MonthDay", dl.C("2005-09"), dl.V("d"))),
		dl.NewQuery(dl.A("Q", dl.V("u")),
			dl.A("PatientUnit", dl.V("u"), dl.C("Sep/5"), dl.V("p"))).
			WithCond(dl.OpNe, dl.V("u"), dl.C("Intensive")),
	}
	for i, q := range queries {
		viaRewrite, err := Answer(context.Background(), prog, db, q, Options{})
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		viaChase, err := qa.CertainAnswersViaChase(context.Background(), prog, db, q, qa.ChaseOptions{})
		if err != nil {
			t.Fatalf("query %d oracle: %v", i, err)
		}
		if !viaRewrite.Equal(viaChase) {
			t.Errorf("query %d (%s):\nrewrite: %voracle: %v", i, q, viaRewrite, viaChase)
		}
	}
}

func TestRewriteMultiLevel(t *testing.T) {
	// Two chained upward rules: Ward -> Unit -> Institution. The
	// rewriting must unfold transitively (depth 2).
	prog, db := upwardOntology(t)
	prog.AddTGD(dl.NewTGD("r-up2",
		[]dl.Atom{dl.A("PatientInstitution", dl.V("i"), dl.V("d"), dl.V("p"))},
		[]dl.Atom{
			dl.A("PatientUnit", dl.V("u"), dl.V("d"), dl.V("p")),
			dl.A("InstitutionUnit", dl.V("i"), dl.V("u")),
		}))
	q := dl.NewQuery(dl.A("Q", dl.V("i")),
		dl.A("PatientInstitution", dl.V("i"), dl.V("d"), dl.C(hospital.TomWaits)))
	ucq, err := Rewrite(prog, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Disjuncts: direct; via r-up2; via r-up2 + r7.
	if len(ucq) != 3 {
		t.Fatalf("UCQ size = %d, want 3:\n%v", len(ucq), ucq)
	}
	ans, err := Answer(context.Background(), prog, db, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Tom was in wards of Standard/Intensive/Terminal, all under H1.
	if ans.Len() != 1 || ans.All()[0].Terms[0] != dl.C("H1") {
		t.Errorf("answers = %v, want H1", ans)
	}
	viaChase, err := qa.CertainAnswersViaChase(context.Background(), prog, db, q, qa.ChaseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !ans.Equal(viaChase) {
		t.Errorf("rewrite %v != chase %v", ans, viaChase)
	}
}

func TestRewriteExistentialNonCategorical(t *testing.T) {
	// Rule (8) has ∃z in the head. Rewriting a query that does not
	// constrain the shift attribute still works: z unifies with an
	// unshared variable.
	o := hospital.NewOntology(hospital.Options{})
	comp, err := o.Compile(core.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	q := dl.NewQuery(dl.A("Q", dl.V("d")),
		dl.A("Shifts", dl.C("W1"), dl.V("d"), dl.C("Mark"), dl.V("s")))
	ucq, err := Rewrite(comp.Program, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ucq) != 2 {
		t.Fatalf("UCQ size = %d, want 2:\n%v", len(ucq), ucq)
	}
	ans, err := Answer(context.Background(), comp.Program, comp.Instance, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ans.Len() != 1 || ans.All()[0].Terms[0] != dl.C("Sep/9") {
		t.Errorf("answers = %v, want Sep/9 (Example 5 via rewriting)", ans)
	}
	// A query binding the shift to a constant cannot use rule (8).
	qc := dl.NewQuery(dl.A("Q", dl.V("d")),
		dl.A("Shifts", dl.C("W2"), dl.V("d"), dl.C("Mark"), dl.C("night")))
	ucq2, err := Rewrite(comp.Program, qc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ucq2) != 1 {
		t.Errorf("constant shift blocks unfolding: UCQ = %v", ucq2)
	}
	// A query where the shift is an answer variable cannot either.
	qa2 := dl.NewQuery(dl.A("Q", dl.V("s")),
		dl.A("Shifts", dl.C("W2"), dl.V("d"), dl.C("Mark"), dl.V("s")))
	ucq3, err := Rewrite(comp.Program, qa2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ucq3) != 1 {
		t.Errorf("answer-variable shift blocks unfolding: UCQ = %v", ucq3)
	}
}

func TestRewritePieceAbsorption(t *testing.T) {
	// Rule (9)'s conjunctive head: a query joining on the invented
	// unit must absorb both atoms into one piece and unfold to
	// DischargePatients.
	o := hospital.NewOntology(hospital.Options{WithRuleNine: true})
	comp, err := o.Compile(core.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	q := dl.NewQuery(dl.A("Q", dl.V("p")),
		dl.A("InstitutionUnit", dl.C("H2"), dl.V("u")),
		dl.A("PatientUnit", dl.V("u"), dl.C("Oct/5"), dl.V("p")))
	ucq, err := Rewrite(comp.Program, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	foundDischarge := false
	for _, cq := range ucq {
		for _, a := range cq.Body {
			if a.Pred == "DischargePatients" {
				foundDischarge = true
			}
		}
	}
	if !foundDischarge {
		t.Errorf("piece rewriting must reach DischargePatients:\n%v", ucq)
	}
	ans, err := Answer(context.Background(), comp.Program, comp.Instance, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ans.Len() != 1 || ans.All()[0].Terms[0] != dl.C(hospital.ElvisCostello) {
		t.Errorf("answers = %v, want Elvis Costello", ans)
	}
}

func TestRewriteBudget(t *testing.T) {
	// A recursive rule set is not FO-rewritable: the budget aborts.
	prog := dl.NewProgram()
	prog.AddTGD(dl.NewTGD("base",
		[]dl.Atom{dl.A("Reach", dl.V("x"), dl.V("y"))},
		[]dl.Atom{dl.A("Next", dl.V("x"), dl.V("y"))}))
	prog.AddTGD(dl.NewTGD("step",
		[]dl.Atom{dl.A("Reach", dl.V("x"), dl.V("z"))},
		[]dl.Atom{dl.A("Reach", dl.V("x"), dl.V("y")), dl.A("Next", dl.V("y"), dl.V("z"))}))
	q := dl.NewQuery(dl.A("Q", dl.V("x")), dl.A("Reach", dl.V("x"), dl.C("end")))
	if _, err := Rewrite(prog, q, Options{MaxRewritings: 50}); err == nil {
		t.Error("recursive program must exceed the rewriting budget")
	}
}

func TestSubsumptionPruning(t *testing.T) {
	prog, _ := upwardOntology(t)
	// Add a redundant rule whose unfolding duplicates rule (7)'s
	// modulo an extra atom: subsumption prunes the specialization.
	prog.AddTGD(dl.NewTGD("r7-redundant",
		[]dl.Atom{dl.A("PatientUnit", dl.V("u"), dl.V("d"), dl.V("p"))},
		[]dl.Atom{
			dl.A("PatientWard", dl.V("w"), dl.V("d"), dl.V("p")),
			dl.A("UnitWard", dl.V("u"), dl.V("w")),
			dl.A("Ward", dl.V("w")),
		}))
	q := dl.NewQuery(dl.A("Q", dl.V("u")),
		dl.A("PatientUnit", dl.V("u"), dl.V("d"), dl.V("p")))
	pruned, err := Rewrite(prog, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	unpruned, err := unfold(prog, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(pruned) >= len(unpruned) {
		t.Errorf("subsumption must prune: pruned=%d unpruned=%d", len(pruned), len(unpruned))
	}
	if len(pruned) != 2 { // direct + rule (7); redundant variant subsumed
		t.Errorf("pruned UCQ = %d CQs, want 2:\n%v", len(pruned), pruned)
	}
}

func TestRewriteRejectsNegation(t *testing.T) {
	prog, _ := upwardOntology(t)
	q := dl.NewQuery(dl.A("Q", dl.V("u")),
		dl.A("PatientUnit", dl.V("u"), dl.V("d"), dl.V("p"))).
		WithNegated(dl.A("Ward", dl.V("u")))
	if _, err := Rewrite(prog, q, Options{}); err == nil {
		t.Error("negated atoms must be rejected")
	}
}

func TestRewriteCarriesConditions(t *testing.T) {
	prog, db := upwardOntology(t)
	q := dl.NewQuery(dl.A("Q", dl.V("d")),
		dl.A("PatientUnit", dl.C("Standard"), dl.V("d"), dl.C(hospital.TomWaits))).
		WithCond(dl.OpGe, dl.V("d"), dl.C("Sep/6"))
	ucq, err := Rewrite(prog, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, cq := range ucq {
		if len(cq.Conds) != 1 {
			t.Errorf("conditions lost in rewriting: %v", cq)
		}
	}
	ans, err := Answer(context.Background(), prog, db, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ans.Len() != 1 || ans.All()[0].Terms[0] != dl.C("Sep/6") {
		t.Errorf("answers = %v, want Sep/6", ans)
	}
}

func TestCanonicalKeyDeduplicates(t *testing.T) {
	q1 := dl.NewQuery(dl.A("Q", dl.V("x")), dl.A("P", dl.V("x"), dl.V("y")))
	q2 := dl.NewQuery(dl.A("Q", dl.V("a")), dl.A("P", dl.V("a"), dl.V("b")))
	if canonicalKey(q1) != canonicalKey(q2) {
		t.Error("alpha-equivalent queries must share a key")
	}
	q3 := dl.NewQuery(dl.A("Q", dl.V("x")), dl.A("P", dl.V("y"), dl.V("x")))
	if canonicalKey(q1) == canonicalKey(q3) {
		t.Error("structurally different queries must differ")
	}
}

func TestRewriteStringsMentionRuleBodies(t *testing.T) {
	prog, _ := upwardOntology(t)
	q := dl.NewQuery(dl.A("Q", dl.V("u"), dl.V("d")),
		dl.A("PatientUnit", dl.V("u"), dl.V("d"), dl.C(hospital.TomWaits)))
	ucq, err := Rewrite(prog, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	joined := ""
	for _, cq := range ucq {
		joined += cq.String() + "\n"
	}
	if !strings.Contains(joined, "PatientWard") || !strings.Contains(joined, "UnitWard") {
		t.Errorf("rewriting output unexpected:\n%s", joined)
	}
}
