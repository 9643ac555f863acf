package qa

import (
	"context"
	"testing"

	"repro/internal/chase"
	"repro/internal/core"
	dl "repro/internal/datalog"
	"repro/internal/hospital"
	"repro/internal/rewrite"
	"repro/internal/storage"
)

// compiled returns the Datalog± form of the hospital ontology.
func compiled(t *testing.T, opts hospital.Options) (*dl.Program, *storage.Instance) {
	t.Helper()
	o := hospital.NewOntology(opts)
	comp, err := o.Compile(core.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return comp.Program, comp.Instance
}

func TestExample5DownwardNavigation(t *testing.T) {
	// Example 5: dates when Mark works in W1 — the chase invents the
	// Shifts tuple via rule (8); the answer is Sep/9.
	prog, db := compiled(t, hospital.Options{})
	q := dl.NewQuery(dl.A("Q", dl.V("d")),
		dl.A("Shifts", dl.C("W1"), dl.V("d"), dl.C("Mark"), dl.V("s")))
	det, err := Answer(context.Background(), prog, db, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if det.Len() != 1 || det.All()[0].Terms[0] != dl.C("Sep/9") {
		t.Errorf("DetQA answers = %v, want exactly Sep/9", det)
	}
	ora, err := CertainAnswersViaChase(context.Background(), prog, db, q, ChaseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !det.Equal(ora) {
		t.Errorf("DetQA %v != chase oracle %v", det, ora)
	}
	// Same for W2, the other Standard ward (Example 2's query).
	q2 := dl.NewQuery(dl.A("Q", dl.V("d")),
		dl.A("Shifts", dl.C("W2"), dl.V("d"), dl.C("Mark"), dl.V("s")))
	det2, err := Answer(context.Background(), prog, db, q2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if det2.Len() != 1 || det2.All()[0].Terms[0] != dl.C("Sep/9") {
		t.Errorf("W2 answers = %v, want Sep/9", det2)
	}
}

func TestInventedValuesAreNotCertain(t *testing.T) {
	// The invented shift attribute is a labeled null: asking for the
	// shift value must return no certain answers.
	prog, db := compiled(t, hospital.Options{})
	q := dl.NewQuery(dl.A("Q", dl.V("s")),
		dl.A("Shifts", dl.C("W2"), dl.V("d"), dl.C("Mark"), dl.V("s")))
	det, err := Answer(context.Background(), prog, db, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if det.Len() != 0 {
		t.Errorf("invented shift must not be a certain answer: %v", det)
	}
	ora, err := CertainAnswersViaChase(context.Background(), prog, db, q, ChaseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !det.Equal(ora) {
		t.Errorf("DetQA %v != oracle %v", det, ora)
	}
	// But a known shift (Helen's Table IV tuple) is certain.
	q2 := dl.NewQuery(dl.A("Q", dl.V("s")),
		dl.A("Shifts", dl.C("W1"), dl.C("Sep/6"), dl.C("Helen"), dl.V("s")))
	det2, err := Answer(context.Background(), prog, db, q2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if det2.Len() != 1 || det2.All()[0].Terms[0] != dl.C("morning") {
		t.Errorf("Helen's shift = %v, want morning", det2)
	}
}

func TestUpwardNavigationAnswers(t *testing.T) {
	// Tom's units per day, derived by upward rule (7).
	prog, db := compiled(t, hospital.Options{})
	q := dl.NewQuery(dl.A("Q", dl.V("u"), dl.V("d")),
		dl.A("PatientUnit", dl.V("u"), dl.V("d"), dl.C(hospital.TomWaits)))
	det, err := Answer(context.Background(), prog, db, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{
		"Sep/5": "Standard", "Sep/6": "Standard", "Sep/7": "Intensive", "Sep/9": "Terminal",
	}
	if det.Len() != len(want) {
		t.Fatalf("answers = %v, want 4", det)
	}
	for _, a := range det.All() {
		if want[a.Terms[1].Name] != a.Terms[0].Name {
			t.Errorf("unexpected answer %v", a)
		}
	}
	ora, err := CertainAnswersViaChase(context.Background(), prog, db, q, ChaseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !det.Equal(ora) {
		t.Errorf("DetQA %v != oracle %v", det, ora)
	}
}

func TestPieceResolutionJoinOnInventedNull(t *testing.T) {
	// Example 6 / rule (9): Elvis was discharged from H2 on Oct/5, so
	// in every model there is SOME unit u of H2 with
	// PatientUnit(u, Oct/5, Elvis). The BCQ joining on u is certainly
	// true even though u is a null in the chase — this exercises the
	// piece absorption across the two head atoms of rule (9).
	prog, db := compiled(t, hospital.Options{WithRuleNine: true})
	bcq := dl.NewQuery(dl.A("Q"),
		dl.A("InstitutionUnit", dl.C("H2"), dl.V("u")),
		dl.A("PatientUnit", dl.V("u"), dl.C("Oct/5"), dl.V("p")))
	ok, err := AnswerBool(context.Background(), prog, db, bcq, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("BCQ must hold via the shared existential unit")
	}
	// The patient is certain (bound by the rule body), the unit is not.
	qp := dl.NewQuery(dl.A("Q", dl.V("p")),
		dl.A("InstitutionUnit", dl.C("H2"), dl.V("u")),
		dl.A("PatientUnit", dl.V("u"), dl.C("Oct/5"), dl.V("p")))
	det, err := Answer(context.Background(), prog, db, qp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if det.Len() != 1 || det.All()[0].Terms[0] != dl.C(hospital.ElvisCostello) {
		t.Errorf("patient answers = %v, want Elvis Costello", det)
	}
	ora, err := CertainAnswersViaChase(context.Background(), prog, db, qp, ChaseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !det.Equal(ora) {
		t.Errorf("DetQA %v != oracle %v", det, ora)
	}
	// Asking for the unit itself yields nothing certain.
	qu := dl.NewQuery(dl.A("Q", dl.V("u")),
		dl.A("InstitutionUnit", dl.C("H2"), dl.V("u")),
		dl.A("PatientUnit", dl.V("u"), dl.C("Oct/5"), dl.V("p")))
	detU, err := Answer(context.Background(), prog, db, qu, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if detU.Len() != 0 {
		t.Errorf("unit answers = %v, want none (invented member)", detU)
	}
}

func TestQueryWithComparisons(t *testing.T) {
	prog, db := compiled(t, hospital.Options{})
	// Units Tom visited on days from Sep/6 onward.
	q := dl.NewQuery(dl.A("Q", dl.V("u"), dl.V("d")),
		dl.A("PatientUnit", dl.V("u"), dl.V("d"), dl.C(hospital.TomWaits))).
		WithCond(dl.OpGe, dl.V("d"), dl.C("Sep/6"))
	det, err := Answer(context.Background(), prog, db, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if det.Len() != 3 { // Sep/6, Sep/7, Sep/9
		t.Errorf("answers = %v, want 3", det)
	}
	ora, err := CertainAnswersViaChase(context.Background(), prog, db, q, ChaseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !det.Equal(ora) {
		t.Errorf("DetQA %v != oracle %v", det, ora)
	}
}

func TestBooleanQueries(t *testing.T) {
	prog, db := compiled(t, hospital.Options{})
	yes := dl.NewQuery(dl.A("Q"),
		dl.A("PatientUnit", dl.C("Standard"), dl.C("Sep/5"), dl.V("p")))
	ok, err := AnswerBool(context.Background(), prog, db, yes, Options{})
	if err != nil || !ok {
		t.Errorf("BCQ must hold: ok=%v err=%v", ok, err)
	}
	no := dl.NewQuery(dl.A("Q"),
		dl.A("PatientUnit", dl.C("Surgery"), dl.V("d"), dl.V("p")))
	ok2, err := AnswerBool(context.Background(), prog, db, no, Options{})
	if err != nil || ok2 {
		t.Errorf("BCQ must fail: ok=%v err=%v", ok2, err)
	}
	open := dl.NewQuery(dl.A("Q", dl.V("p")), dl.A("PatientWard", dl.V("w"), dl.V("d"), dl.V("p")))
	if _, err := AnswerBool(context.Background(), prog, db, open, Options{}); err == nil {
		t.Error("AnswerBool must reject open queries")
	}
}

func TestNegationRejected(t *testing.T) {
	prog, db := compiled(t, hospital.Options{})
	q := dl.NewQuery(dl.A("Q", dl.V("w")), dl.A("PatientWard", dl.V("w"), dl.V("d"), dl.V("p"))).
		WithNegated(dl.A("UnitWard", dl.C("Standard"), dl.V("w")))
	if _, err := Answer(context.Background(), prog, db, q, Options{}); err == nil {
		t.Error("Answer must reject negated atoms")
	}
	if _, err := CertainAnswersViaChase(context.Background(), prog, db, q, ChaseOptions{}); err == nil {
		t.Error("oracle must reject negated atoms")
	}
}

func TestMemoizationEquivalence(t *testing.T) {
	prog, db := compiled(t, hospital.Options{WithRuleNine: true})
	queries := []*dl.Query{
		dl.NewQuery(dl.A("Q", dl.V("d")),
			dl.A("Shifts", dl.C("W1"), dl.V("d"), dl.C("Mark"), dl.V("s"))),
		dl.NewQuery(dl.A("Q", dl.V("u"), dl.V("d")),
			dl.A("PatientUnit", dl.V("u"), dl.V("d"), dl.C(hospital.TomWaits))),
		dl.NewQuery(dl.A("Q", dl.V("p")),
			dl.A("InstitutionUnit", dl.C("H2"), dl.V("u")),
			dl.A("PatientUnit", dl.V("u"), dl.C("Oct/5"), dl.V("p"))),
	}
	for i, q := range queries {
		with, err := Answer(context.Background(), prog, db, q, Options{})
		if err != nil {
			t.Fatal(err)
		}
		without, err := Answer(context.Background(), prog, db, q, Options{DisableMemo: true})
		if err != nil {
			t.Fatal(err)
		}
		if !with.Equal(without) {
			t.Errorf("query %d: memo %v != no-memo %v", i, with, without)
		}
	}
}

func TestDetQAMatchesOracleOnQueryBattery(t *testing.T) {
	// Cross-validation battery over the full ontology: DetQA must
	// agree with chase-based certain answers on every query.
	prog, db := compiled(t, hospital.Options{WithRuleNine: true})
	queries := []*dl.Query{
		dl.NewQuery(dl.A("Q", dl.V("w")), dl.A("PatientWard", dl.V("w"), dl.V("d"), dl.C(hospital.LouReed))),
		dl.NewQuery(dl.A("Q", dl.V("u")), dl.A("PatientUnit", dl.V("u"), dl.C("Sep/6"), dl.V("p"))),
		dl.NewQuery(dl.A("Q", dl.V("n"), dl.V("d")), dl.A("Shifts", dl.V("w"), dl.V("d"), dl.V("n"), dl.V("s"))),
		dl.NewQuery(dl.A("Q", dl.V("d"), dl.V("n")),
			dl.A("Shifts", dl.V("w"), dl.V("d"), dl.V("n"), dl.V("s")),
			dl.A("UnitWard", dl.C("Standard"), dl.V("w"))),
		dl.NewQuery(dl.A("Q", dl.V("i"), dl.V("p")),
			dl.A("InstitutionUnit", dl.V("i"), dl.V("u")),
			dl.A("PatientUnit", dl.V("u"), dl.V("d"), dl.V("p"))),
		dl.NewQuery(dl.A("Q", dl.V("m")),
			dl.A("PatientWard", dl.V("w"), dl.V("d"), dl.C(hospital.TomWaits)),
			dl.A("MonthDay", dl.V("m"), dl.V("d"))),
	}
	for i, q := range queries {
		det, err := Answer(context.Background(), prog, db, q, Options{})
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		ora, err := CertainAnswersViaChase(context.Background(), prog, db, q, ChaseOptions{})
		if err != nil {
			t.Fatalf("query %d oracle: %v", i, err)
		}
		if !det.Equal(ora) {
			t.Errorf("query %d (%s):\nDetQA:\n%soracle:\n%s", i, q, det, ora)
		}
	}
}

func TestDepthBound(t *testing.T) {
	// A recursive chain program: Next facts a0->a1->...->a5, rule
	// Reach(x,y) <- Next(x,y); Reach(x,z) <- Reach(x,y), Next(y,z).
	db := storage.NewInstance()
	names := []string{"a0", "a1", "a2", "a3", "a4", "a5"}
	for i := 0; i+1 < len(names); i++ {
		db.MustInsert("Next", dl.C(names[i]), dl.C(names[i+1]))
	}
	prog := dl.NewProgram()
	prog.AddTGD(dl.NewTGD("base",
		[]dl.Atom{dl.A("Reach", dl.V("x"), dl.V("y"))},
		[]dl.Atom{dl.A("Next", dl.V("x"), dl.V("y"))}))
	prog.AddTGD(dl.NewTGD("step",
		[]dl.Atom{dl.A("Reach", dl.V("x"), dl.V("z"))},
		[]dl.Atom{dl.A("Reach", dl.V("x"), dl.V("y")), dl.A("Next", dl.V("y"), dl.V("z"))}))
	q := dl.NewQuery(dl.A("Q"), dl.A("Reach", dl.C("a0"), dl.C("a5")))
	// Depth 2 is insufficient (needs 5 Reach applications).
	if ok, err := AnswerBool(context.Background(), prog, db, q, Options{MaxDepth: 2}); err != nil || ok {
		t.Errorf("depth 2 must fail: ok=%v err=%v", ok, err)
	}
	if ok, err := AnswerBool(context.Background(), prog, db, q, Options{MaxDepth: 8}); err != nil || !ok {
		t.Errorf("depth 8 must succeed: ok=%v err=%v", ok, err)
	}
	// The default depth heuristic covers this chain too.
	if ok, err := AnswerBool(context.Background(), prog, db, q, Options{}); err != nil || !ok {
		t.Errorf("default depth must succeed: ok=%v err=%v", ok, err)
	}
}

func TestExistentialCannotMatchConstant(t *testing.T) {
	// ∃z Shifts(...z) can never prove a goal with a constant shift.
	prog, db := compiled(t, hospital.Options{})
	q := dl.NewQuery(dl.A("Q"),
		dl.A("Shifts", dl.C("W2"), dl.C("Sep/9"), dl.C("Mark"), dl.C("night")))
	ok, err := AnswerBool(context.Background(), prog, db, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("existential head variable must not unify with a constant")
	}
}

func TestCertainAnswersViaChaseViolations(t *testing.T) {
	prog, db := compiled(t, hospital.Options{})
	prog.AddNC(dl.NewDenial("always",
		dl.A("PatientWard", dl.V("w"), dl.V("d"), dl.V("p"))))
	q := dl.NewQuery(dl.A("Q", dl.V("w")), dl.A("PatientWard", dl.V("w"), dl.V("d"), dl.V("p")))
	if _, err := CertainAnswersViaChase(context.Background(), prog, db, q, ChaseOptions{}); err == nil {
		t.Error("violations must surface as an error by default")
	}
	if _, err := CertainAnswersViaChase(context.Background(), prog, db, q, ChaseOptions{AllowViolations: true}); err != nil {
		t.Errorf("AllowViolations must evaluate anyway: %v", err)
	}
}

// TestNeOnInventedNullNotCertain: under R(y) → ∃z S(y, z) over R(c),
// the match of Q(y) <- S(y, x), x != "a" binds x to an invented null,
// and a model with S(c, a) falsifies the ≠, so (c) is not certain.
// Every certain-answer engine must return nothing.
func TestNeOnInventedNullNotCertain(t *testing.T) {
	ctx := context.Background()
	db := storage.NewInstance()
	db.MustInsert("R", dl.C("c"))
	prog := dl.NewProgram()
	prog.AddTGD(dl.NewTGD("t",
		[]dl.Atom{dl.A("S", dl.V("y"), dl.V("z"))},
		[]dl.Atom{dl.A("R", dl.V("y"))}))
	q := dl.NewQuery(dl.A("Q", dl.V("y")), dl.A("S", dl.V("y"), dl.V("x"))).
		WithCond(dl.OpNe, dl.V("x"), dl.C("a"))
	oracle, err := CertainAnswersViaChase(ctx, prog, db, q, ChaseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	det, err := Answer(ctx, prog, db, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rw, err := rewrite.Answer(ctx, prog, db, q, rewrite.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if oracle.Len() != 0 || det.Len() != 0 || rw.Len() != 0 {
		t.Errorf("chase %v, DetQA %v, rewrite %v; want no certain answer", oracle, det, rw)
	}
}

func TestCertainAnswersViaChaseNonTerminating(t *testing.T) {
	db := storage.NewInstance()
	db.MustInsert("Next", dl.C("a"), dl.C("b"))
	prog := dl.NewProgram()
	prog.AddTGD(dl.NewTGD("diverge",
		[]dl.Atom{dl.A("Next", dl.V("x"), dl.V("y"))},
		[]dl.Atom{dl.A("Next", dl.V("w"), dl.V("x"))}))
	q := dl.NewQuery(dl.A("Q"), dl.A("Next", dl.C("a"), dl.C("b")))
	_, err := CertainAnswersViaChase(context.Background(), prog, db, q, ChaseOptions{
		Chase: chase.Options{MaxAtoms: 100},
	})
	if err == nil {
		t.Error("non-saturating chase must surface as an error")
	}
}

func TestAnswerValidatesQuery(t *testing.T) {
	prog, db := compiled(t, hospital.Options{})
	bad := dl.NewQuery(dl.A("Q", dl.V("zz")), dl.A("PatientWard", dl.V("w"), dl.V("d"), dl.V("p")))
	if _, err := Answer(context.Background(), prog, db, bad, Options{}); err == nil {
		t.Error("unsafe query must be rejected")
	}
}

func TestDetQADoesNotMutateInstance(t *testing.T) {
	prog, db := compiled(t, hospital.Options{WithRuleNine: true})
	before := db.TotalTuples()
	q := dl.NewQuery(dl.A("Q", dl.V("d")),
		dl.A("Shifts", dl.C("W1"), dl.V("d"), dl.C("Mark"), dl.V("s")))
	if _, err := Answer(context.Background(), prog, db, q, Options{}); err != nil {
		t.Fatal(err)
	}
	if db.TotalTuples() != before {
		t.Error("DetQA is read-only; the instance must be unchanged")
	}
}

// TestAnswerCancellation pins the cancellation contract: once the
// context is cancelled, the search stops (even when the signal
// surfaces inside a ground-goal frame, which must not be misread as
// "proof found" or memoized as a definitive failure) and the
// context's error is returned.
func TestAnswerCancellation(t *testing.T) {
	prog, db := compiled(t, hospital.Options{WithRuleNine: true})
	q := dl.NewQuery(dl.A("Q", dl.V("u"), dl.V("d"), dl.V("p")),
		dl.A("PatientUnit", dl.V("u"), dl.V("d"), dl.V("p")))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := &resolver{
		ctx:      ctx,
		steps:    -1, // the very next resolve call hits the ctx check
		byHead:   prog.TGDsByHeadPred(),
		db:       db,
		fresh:    dl.NewCounter("κ"),
		ansVars:  q.Head.Args,
		memoFail: map[string]int{},
		memoOK:   map[string]bool{},
		useMemo:  true,
	}
	r.resolve(q.Body, dl.NewSubst(), 8, func(dl.Subst) bool { return true })
	if r.ctxErr == nil {
		t.Fatal("cancelled resolve must record the context error")
	}
	if len(r.memoFail) != 0 || len(r.memoOK) != 0 {
		t.Errorf("cancelled search must not memoize: fail=%v ok=%v", r.memoFail, r.memoOK)
	}
	// And through the public entry point: the error surfaces.
	if _, err := Answer(ctx, prog, db, q, Options{}); err == nil {
		// The periodic check fires every 4096 steps; a small search
		// can legitimately finish first, but the sticky path above
		// already covers the in-search behavior.
		t.Log("search finished before the periodic cancellation check")
	}
}
