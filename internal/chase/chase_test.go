package chase

import (
	"context"
	"reflect"
	"strings"
	"testing"

	dl "repro/internal/datalog"
	"repro/internal/storage"
)

// hospitalEDB builds the extensional data of the paper's running
// example: the Hospital dimension rollup UnitWard, Table I-adjacent
// PatientWard, Tables III (WorkingSchedules) and IV (Shifts), and
// Table V (DischargePatients).
func hospitalEDB() *storage.Instance {
	db := storage.NewInstance()
	// Hospital dimension: Ward -> Unit (Fig. 1).
	db.MustInsert("UnitWard", dl.C("Standard"), dl.C("W1"))
	db.MustInsert("UnitWard", dl.C("Standard"), dl.C("W2"))
	db.MustInsert("UnitWard", dl.C("Intensive"), dl.C("W3"))
	db.MustInsert("UnitWard", dl.C("Terminal"), dl.C("W4"))
	// PatientWard: Tom's ward per day (drives Table II derivation).
	db.MustInsert("PatientWard", dl.C("W1"), dl.C("Sep/5"), dl.C("Tom Waits"))
	db.MustInsert("PatientWard", dl.C("W2"), dl.C("Sep/6"), dl.C("Tom Waits"))
	db.MustInsert("PatientWard", dl.C("W3"), dl.C("Sep/7"), dl.C("Tom Waits"))
	db.MustInsert("PatientWard", dl.C("W4"), dl.C("Sep/9"), dl.C("Tom Waits"))
	// Table III: WorkingSchedules(Unit, Day, Nurse, Type).
	db.MustInsert("WorkingSchedules", dl.C("Intensive"), dl.C("Sep/5"), dl.C("Cathy"), dl.C("cert."))
	db.MustInsert("WorkingSchedules", dl.C("Standard"), dl.C("Sep/5"), dl.C("Helen"), dl.C("cert."))
	db.MustInsert("WorkingSchedules", dl.C("Standard"), dl.C("Sep/6"), dl.C("Helen"), dl.C("cert."))
	db.MustInsert("WorkingSchedules", dl.C("Terminal"), dl.C("Sep/5"), dl.C("Susan"), dl.C("non-c."))
	db.MustInsert("WorkingSchedules", dl.C("Standard"), dl.C("Sep/9"), dl.C("Mark"), dl.C("non-c."))
	// Table IV: Shifts(Ward, Day, Nurse, Shift).
	db.MustInsert("Shifts", dl.C("W4"), dl.C("Sep/5"), dl.C("Cathy"), dl.C("night"))
	db.MustInsert("Shifts", dl.C("W1"), dl.C("Sep/6"), dl.C("Helen"), dl.C("morning"))
	db.MustInsert("Shifts", dl.C("W4"), dl.C("Sep/5"), dl.C("Susan"), dl.C("evening"))
	// Table V: DischargePatients(Institution, Day, Patient).
	db.MustInsert("DischargePatients", dl.C("H1"), dl.C("Sep/9"), dl.C("Tom Waits"))
	db.MustInsert("DischargePatients", dl.C("H1"), dl.C("Sep/6"), dl.C("Lou Reed"))
	db.MustInsert("DischargePatients", dl.C("H2"), dl.C("Oct/5"), dl.C("Elvis Costello"))
	return db
}

// ruleSeven: PatientUnit(u,d,p) <- PatientWard(w,d,p), UnitWard(u,w).
func ruleSeven() *dl.TGD {
	return dl.NewTGD("r7",
		[]dl.Atom{dl.A("PatientUnit", dl.V("u"), dl.V("d"), dl.V("p"))},
		[]dl.Atom{
			dl.A("PatientWard", dl.V("w"), dl.V("d"), dl.V("p")),
			dl.A("UnitWard", dl.V("u"), dl.V("w")),
		})
}

// ruleEight: ∃z Shifts(w,d,n,z) <- WorkingSchedules(u,d,n,t), UnitWard(u,w).
func ruleEight() *dl.TGD {
	return dl.NewTGD("r8",
		[]dl.Atom{dl.A("Shifts", dl.V("w"), dl.V("d"), dl.V("n"), dl.V("z"))},
		[]dl.Atom{
			dl.A("WorkingSchedules", dl.V("u"), dl.V("d"), dl.V("n"), dl.V("t")),
			dl.A("UnitWard", dl.V("u"), dl.V("w")),
		})
}

// ruleNine: ∃u InstitutionUnit(i,u), PatientUnit(u,d,p) <- DischargePatients(i,d,p).
func ruleNine() *dl.TGD {
	return dl.NewTGD("r9",
		[]dl.Atom{
			dl.A("InstitutionUnit", dl.V("i"), dl.V("u")),
			dl.A("PatientUnit", dl.V("u"), dl.V("d"), dl.V("p")),
		},
		[]dl.Atom{dl.A("DischargePatients", dl.V("i"), dl.V("d"), dl.V("p"))})
}

func TestChaseUpwardNavigationRule7(t *testing.T) {
	prog := dl.NewProgram()
	prog.AddTGD(ruleSeven())
	res, err := Run(context.Background(), prog, hospitalEDB(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Saturated {
		t.Fatal("chase must saturate")
	}
	pu := res.Instance.Relation("PatientUnit")
	if pu == nil || pu.Len() != 4 {
		t.Fatalf("PatientUnit size = %v, want 4 (one per PatientWard tuple)", pu)
	}
	// Example 1: Tom was in Standard unit on Sep/5 and Sep/6.
	for _, want := range [][]string{
		{"Standard", "Sep/5", "Tom Waits"},
		{"Standard", "Sep/6", "Tom Waits"},
		{"Intensive", "Sep/7", "Tom Waits"},
		{"Terminal", "Sep/9", "Tom Waits"},
	} {
		a := dl.A("PatientUnit", dl.C(want[0]), dl.C(want[1]), dl.C(want[2]))
		if !res.Instance.ContainsAtom(a) {
			t.Errorf("missing %s", a)
		}
	}
	if res.NullsCreated != 0 {
		t.Errorf("upward navigation must not invent nulls, created %d", res.NullsCreated)
	}
}

func TestChaseDownwardNavigationRule8(t *testing.T) {
	// Example 5: the chase generates a Shifts tuple for Mark on Sep/9
	// in W1 and W2, with a fresh null for the shift attribute.
	prog := dl.NewProgram()
	prog.AddTGD(ruleEight())
	res, err := Run(context.Background(), prog, hospitalEDB(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Saturated {
		t.Fatal("chase must saturate")
	}
	shifts := res.Instance.Relation("Shifts")
	found := 0
	for _, tup := range shifts.Tuples() {
		if tup[2] == dl.C("Mark") && tup[1] == dl.C("Sep/9") {
			if !tup[3].IsNull() {
				t.Errorf("Mark's invented shift must be a null, got %v", tup[3])
			}
			if tup[0] != dl.C("W1") && tup[0] != dl.C("W2") {
				t.Errorf("Mark's shift in unexpected ward %v", tup[0])
			}
			found++
		}
	}
	if found != 2 {
		t.Errorf("Mark must get shifts in both wards of Standard, got %d", found)
	}
	if res.NullsCreated == 0 {
		t.Error("downward navigation must invent nulls")
	}
}

func TestChaseRestrictedDoesNotDuplicateSatisfiedHeads(t *testing.T) {
	// Helen already has a Shifts tuple in W1 on Sep/6 (Table IV), so
	// the restricted chase must not invent another for that trigger.
	prog := dl.NewProgram()
	prog.AddTGD(ruleEight())
	res, err := Run(context.Background(), prog, hospitalEDB(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	for _, tup := range res.Instance.Relation("Shifts").Tuples() {
		if tup[0] == dl.C("W1") && tup[1] == dl.C("Sep/6") && tup[2] == dl.C("Helen") {
			count++
		}
	}
	if count != 1 {
		t.Errorf("restricted chase duplicated a satisfied head: %d tuples", count)
	}
}

// mergeProbeProgram is R(x) → ∃z S(x,z) with the EGD
// S(x,z), T(x,y) → z = y: the null invented for R(a) is merged into b
// once T(a,b) is present.
func mergeProbeProgram() *dl.Program {
	prog := dl.NewProgram()
	prog.AddTGD(dl.NewTGD("r",
		[]dl.Atom{dl.A("S", dl.V("x"), dl.V("z"))},
		[]dl.Atom{dl.A("R", dl.V("x"))}))
	prog.AddEGD(dl.NewEGD("key", dl.V("z"), dl.V("y"), []dl.Atom{
		dl.A("S", dl.V("x"), dl.V("z")),
		dl.A("T", dl.V("x"), dl.V("y")),
	}))
	return prog
}

// TestChaseEGDMergedNullNotReinvented pins the restricted firing
// condition across an EGD merge: the merge forces a full round, which
// re-enumerates R(a)'s trigger, and only head satisfaction (S(a,b)
// after the merge) keeps it from inventing a new null that the EGD
// would merge again, round after round.
func TestChaseEGDMergedNullNotReinvented(t *testing.T) {
	wantS := [][]dl.Term{{dl.C("a"), dl.C("b")}}
	db := storage.NewInstance()
	db.MustInsert("R", dl.C("a"))
	db.MustInsert("T", dl.C("a"), dl.C("b"))
	res, err := Run(context.Background(), mergeProbeProgram(), db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Saturated || res.Rounds != 2 || res.NullsCreated != 1 {
		t.Errorf("Run: saturated=%v rounds=%d nulls=%d; want true, 2, 1", res.Saturated, res.Rounds, res.NullsCreated)
	}
	if got := res.Instance.Relation("S").Tuples(); !reflect.DeepEqual(got, wantS) {
		t.Errorf("Run: S = %v, want %v", got, wantS)
	}

	base := storage.NewInstance()
	base.MustInsert("R", dl.C("a"))
	st, err := NewState(mergeProbeProgram(), base, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Chase(context.Background()); err != nil {
		t.Fatal(err)
	}
	info, err := st.Extend(context.Background(), []dl.Atom{dl.A("T", dl.C("a"), dl.C("b"))})
	if err != nil {
		t.Fatal(err)
	}
	if info.Fired != 0 || info.Merged != 1 || !info.Saturated {
		t.Errorf("Extend: %+v; want Fired 0, Merged 1, Saturated", *info)
	}
	if n := st.Result().NullsCreated; n != 1 {
		t.Errorf("Extend: nulls created = %d, want 1", n)
	}
	if got := st.Instance().Relation("S").Tuples(); !reflect.DeepEqual(got, wantS) {
		t.Errorf("Extend: S = %v, want %v", got, wantS)
	}
}

func TestChaseExistentialCategoricalRule9(t *testing.T) {
	// Example 6: DischargePatients drives PatientUnit and
	// InstitutionUnit with a shared fresh null per discharge.
	prog := dl.NewProgram()
	prog.AddTGD(ruleNine())
	res, err := Run(context.Background(), prog, hospitalEDB(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	iu := res.Instance.Relation("InstitutionUnit")
	pu := res.Instance.Relation("PatientUnit")
	if iu == nil || pu == nil {
		t.Fatal("rule 9 must create both relations")
	}
	if iu.Len() != 3 || pu.Len() != 3 {
		t.Fatalf("InstitutionUnit=%d PatientUnit=%d, want 3 each", iu.Len(), pu.Len())
	}
	// The null is shared between the two head atoms of each firing.
	for _, iuTup := range iu.Tuples() {
		u := iuTup[1]
		if !u.IsNull() {
			t.Errorf("unit in InstitutionUnit must be null, got %v", u)
			continue
		}
		found := false
		for _, puTup := range pu.Tuples() {
			if puTup[0] == u {
				found = true
			}
		}
		if !found {
			t.Errorf("null %v not shared with PatientUnit", u)
		}
	}
}

func TestChaseEGDMergesNulls(t *testing.T) {
	// Two downward-invented shift nulls for the same (ward,day,nurse)
	// pattern merge under an EGD demanding unique shifts.
	db := storage.NewInstance()
	db.MustInsert("Shifts", dl.C("W1"), dl.C("Sep/9"), dl.C("Mark"), dl.N("a"))
	db.MustInsert("Shifts", dl.C("W1"), dl.C("Sep/9"), dl.C("Mark"), dl.N("b"))
	prog := dl.NewProgram()
	prog.AddEGD(dl.NewEGD("unique-shift", dl.V("s"), dl.V("s2"), []dl.Atom{
		dl.A("Shifts", dl.V("w"), dl.V("d"), dl.V("n"), dl.V("s")),
		dl.A("Shifts", dl.V("w"), dl.V("d"), dl.V("n"), dl.V("s2")),
	}))
	res, err := Run(context.Background(), prog, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Consistent() {
		t.Fatalf("null merge must be consistent: %v", res.Violations)
	}
	if res.Merged == 0 {
		t.Error("expected at least one merge")
	}
	if got := res.Instance.Relation("Shifts").Len(); got != 1 {
		t.Errorf("after merge Shifts size = %d, want 1", got)
	}
}

func TestChaseEGDNullToConstant(t *testing.T) {
	db := storage.NewInstance()
	db.MustInsert("Shifts", dl.C("W1"), dl.C("Sep/9"), dl.C("Mark"), dl.N("a"))
	db.MustInsert("Shifts", dl.C("W1"), dl.C("Sep/9"), dl.C("Mark"), dl.C("morning"))
	prog := dl.NewProgram()
	prog.AddEGD(dl.NewEGD("unique-shift", dl.V("s"), dl.V("s2"), []dl.Atom{
		dl.A("Shifts", dl.V("w"), dl.V("d"), dl.V("n"), dl.V("s")),
		dl.A("Shifts", dl.V("w"), dl.V("d"), dl.V("n"), dl.V("s2")),
	}))
	res, err := Run(context.Background(), prog, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rel := res.Instance.Relation("Shifts")
	if rel.Len() != 1 {
		t.Fatalf("Shifts size = %d, want 1", rel.Len())
	}
	if got := rel.Tuples()[0][3]; got != dl.C("morning") {
		t.Errorf("merge must keep the constant, got %v", got)
	}
}

// egdSix is the paper's EGD (6): thermometers in the same unit have
// the same type.
func egdSix() *dl.EGD {
	return dl.NewEGD("e6", dl.V("t"), dl.V("t2"), []dl.Atom{
		dl.A("Thermometer", dl.V("w"), dl.V("t"), dl.V("n")),
		dl.A("Thermometer", dl.V("w2"), dl.V("t2"), dl.V("n2")),
		dl.A("UnitWard", dl.V("u"), dl.V("w")),
		dl.A("UnitWard", dl.V("u"), dl.V("w2")),
	})
}

func TestChaseEGDHardConflict(t *testing.T) {
	// Example 4's EGD (6): two different constant thermometer types in
	// wards of the same unit is a hard conflict.
	db := hospitalEDB()
	db.MustInsert("Thermometer", dl.C("W1"), dl.C("Oral"), dl.C("Helen"))
	db.MustInsert("Thermometer", dl.C("W2"), dl.C("Tympanic"), dl.C("Mark"))
	prog := dl.NewProgram()
	prog.AddEGD(egdSix())
	res, err := Run(context.Background(), prog, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Consistent() {
		t.Fatal("conflicting constants must violate the EGD")
	}
	found := false
	for _, v := range res.Violations {
		if v.Kind == EGDConflict && v.ID == "e6" {
			found = true
		}
	}
	if !found {
		t.Errorf("expected e6 conflict, got %v", res.Violations)
	}
}

func TestChaseNCViolation(t *testing.T) {
	// The paper's inter-dimensional constraint: no patient in
	// Intensive after Aug/2005 — modeled here on the ward level data.
	db := hospitalEDB()
	prog := dl.NewProgram()
	prog.AddNC(dl.NewDenial("no-intensive",
		dl.A("PatientWard", dl.V("w"), dl.V("d"), dl.V("p")),
		dl.A("UnitWard", dl.C("Intensive"), dl.V("w"))))
	res, err := Run(context.Background(), prog, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Consistent() {
		t.Fatal("W3 is an Intensive ward with a patient: violation expected")
	}
	if res.Violations[0].Kind != NCViolation {
		t.Errorf("kind = %v, want NCViolation", res.Violations[0].Kind)
	}
	if !strings.Contains(res.Violations[0].Detail, "W3") {
		t.Errorf("violation detail should mention W3: %s", res.Violations[0].Detail)
	}
}

func TestChaseNCWithNegation(t *testing.T) {
	// Referential constraint (5): ⊥ <- PatientUnit(u,d,p), not Unit(u).
	db := storage.NewInstance()
	db.MustInsert("PatientUnit", dl.C("Standard"), dl.C("Sep/5"), dl.C("Tom"))
	db.MustInsert("PatientUnit", dl.C("Ghost"), dl.C("Sep/5"), dl.C("Lou"))
	db.MustInsert("Unit", dl.C("Standard"))
	prog := dl.NewProgram()
	prog.AddNC(dl.NewNC("c5",
		dl.Pos(dl.A("PatientUnit", dl.V("u"), dl.V("d"), dl.V("p"))),
		dl.Neg(dl.A("Unit", dl.V("u")))))
	res, err := Run(context.Background(), prog, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 1 {
		t.Fatalf("violations = %v, want exactly the Ghost tuple", res.Violations)
	}
	if !strings.Contains(res.Violations[0].Detail, "Ghost") {
		t.Errorf("violation should mention Ghost: %s", res.Violations[0].Detail)
	}
}

func TestChaseMultiRuleFixpoint(t *testing.T) {
	// Rules 7 and 8 together: PatientUnit derived by 7; 8 uses
	// WorkingSchedules. Both reach fixpoint in bounded rounds.
	prog := dl.NewProgram()
	prog.AddTGD(ruleSeven())
	prog.AddTGD(ruleEight())
	res, err := Run(context.Background(), prog, hospitalEDB(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Saturated {
		t.Fatal("must saturate")
	}
	if res.Instance.Relation("PatientUnit").Len() != 4 {
		t.Errorf("PatientUnit = %d, want 4", res.Instance.Relation("PatientUnit").Len())
	}
	// 5 WorkingSchedules tuples: Intensive->W3, Standard->{W1,W2} x3days... count:
	// Cathy: Intensive -> W3 (1); Helen Sep/5: W1,W2 (2, W1 new? no
	// shift tuple for Helen Sep/5 -> 2 new); Helen Sep/6: W1 exists,
	// W2 new; Susan: W4 exists (Table IV row 3? Susan W4 Sep/5
	// evening exists -> satisfied); Mark: W1, W2 new.
	shifts := res.Instance.Relation("Shifts")
	if shifts.Len() != 3+1+2+1+2 {
		t.Errorf("Shifts = %d tuples: %v", shifts.Len(), shifts.Tuples())
	}
}

func TestChaseMaxAtomsBound(t *testing.T) {
	// A non-terminating program: ∃y Next(x,y) <- Next(y0,x) keeps
	// inventing successors; the atom bound must stop it.
	db := storage.NewInstance()
	db.MustInsert("Next", dl.C("a"), dl.C("b"))
	prog := dl.NewProgram()
	prog.AddTGD(dl.NewTGD("succ",
		[]dl.Atom{dl.A("Next", dl.V("x"), dl.V("y"))},
		[]dl.Atom{dl.A("Next", dl.V("w"), dl.V("x"))}))
	res, err := Run(context.Background(), prog, db, Options{MaxAtoms: 50})
	if err != nil {
		t.Fatal(err)
	}
	if res.Saturated {
		t.Error("non-terminating chase must not report saturation")
	}
	if res.Instance.TotalTuples() <= 50 {
		// It must stop shortly after exceeding the bound.
		t.Logf("stopped at %d tuples", res.Instance.TotalTuples())
	}
	if res.Instance.TotalTuples() > 60 {
		t.Errorf("bound not respected: %d tuples", res.Instance.TotalTuples())
	}
}

func TestChaseGroundBodyTGDFires(t *testing.T) {
	// A TGD with a fully ground body has a zero-slot register bank and
	// an empty register snapshot; its single trigger must still fire.
	db := storage.NewInstance()
	db.MustInsert("P", dl.C("a"))
	prog := dl.NewProgram()
	prog.AddTGD(dl.NewTGD("ground",
		[]dl.Atom{dl.A("Q", dl.C("a"))},
		[]dl.Atom{dl.A("P", dl.C("a"))}))
	res, err := Run(context.Background(), prog, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Saturated {
		t.Fatal("must saturate")
	}
	if res.Fired != 1 {
		t.Errorf("Fired = %d, want 1", res.Fired)
	}
	if !res.Instance.ContainsAtom(dl.A("Q", dl.C("a"))) {
		t.Error("ground-body TGD did not derive Q(a)")
	}
}

func TestChaseMaxRoundsBound(t *testing.T) {
	db := storage.NewInstance()
	db.MustInsert("Next", dl.C("a"), dl.C("b"))
	prog := dl.NewProgram()
	prog.AddTGD(dl.NewTGD("succ",
		[]dl.Atom{dl.A("Next", dl.V("x"), dl.V("y"))},
		[]dl.Atom{dl.A("Next", dl.V("w"), dl.V("x"))}))
	res, err := Run(context.Background(), prog, db, Options{MaxRounds: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Saturated {
		t.Error("must not saturate in 3 rounds")
	}
	if res.Rounds != 3 {
		t.Errorf("rounds = %d, want 3", res.Rounds)
	}
}

func TestChaseDoesNotMutateInput(t *testing.T) {
	db := hospitalEDB()
	before := db.TotalTuples()
	prog := dl.NewProgram()
	prog.AddTGD(ruleSeven())
	if _, err := Run(context.Background(), prog, db, Options{}); err != nil {
		t.Fatal(err)
	}
	if db.TotalTuples() != before {
		t.Error("chase must not mutate the input instance")
	}
}

func TestChaseFreshNullsAvoidCollisions(t *testing.T) {
	db := storage.NewInstance()
	// Instance already contains n0; invented nulls must not collide.
	db.MustInsert("WorkingSchedules", dl.C("Standard"), dl.C("Sep/9"), dl.C("Mark"), dl.N("n0"))
	db.MustInsert("UnitWard", dl.C("Standard"), dl.C("W1"))
	prog := dl.NewProgram()
	prog.AddTGD(ruleEight())
	res, err := Run(context.Background(), prog, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	count := map[dl.Term]int{}
	for _, tup := range res.Instance.Relation("Shifts").Tuples() {
		count[tup[3]]++
	}
	for term, c := range count {
		if c > 1 {
			t.Errorf("null %v used %d times: collision with pre-existing null", term, c)
		}
	}
	if count[dl.N("n0")] > 0 {
		t.Error("an invented null reuses the pre-existing n0")
	}
}

func TestRunRejectsInvalidRules(t *testing.T) {
	prog := dl.NewProgram()
	prog.AddTGD(dl.NewTGD("bad", nil, []dl.Atom{dl.A("B", dl.V("x"))}))
	if _, err := Run(context.Background(), prog, storage.NewInstance(), Options{}); err == nil {
		t.Error("invalid TGD must be rejected")
	}
	prog2 := dl.NewProgram()
	prog2.AddEGD(dl.NewEGD("bad", dl.V("x"), dl.V("y"), []dl.Atom{dl.A("P", dl.V("x"))}))
	if _, err := Run(context.Background(), prog2, storage.NewInstance(), Options{}); err == nil {
		t.Error("invalid EGD must be rejected")
	}
	prog3 := dl.NewProgram()
	prog3.AddNC(dl.NewNC("bad"))
	if _, err := Run(context.Background(), prog3, storage.NewInstance(), Options{}); err == nil {
		t.Error("invalid NC must be rejected")
	}
}

func TestViolationStrings(t *testing.T) {
	v := Violation{Kind: NCViolation, ID: "c1", Detail: "P(a)"}
	if !strings.Contains(v.String(), "nc-violation") || !strings.Contains(v.String(), "c1") {
		t.Errorf("Violation.String = %q", v.String())
	}
	if EGDConflict.String() != "egd-conflict" {
		t.Errorf("EGDConflict.String = %q", EGDConflict.String())
	}
}

// TestExtendRejectsBatchWhole checks that a batch with one atom that
// cannot be inserted is rejected before any atom is: a non-ground
// atom, and atoms whose arity clashes with the instance's relation,
// the program, or an earlier atom of the batch over a new predicate.
func TestExtendRejectsBatchWhole(t *testing.T) {
	ctx := context.Background()
	x := dl.V("x")
	prog := dl.NewProgram()
	prog.AddTGD(dl.NewTGD("t", []dl.Atom{dl.A("R", x)}, []dl.Atom{dl.A("S", x)}))
	base := storage.NewInstance()
	base.MustInsert("T", dl.C("a"), dl.C("b"))
	st, err := NewState(prog, base, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Chase(ctx); err != nil {
		t.Fatal(err)
	}
	good := dl.A("S", dl.C("a"))
	for _, bad := range []dl.Atom{
		dl.A("S", x),
		dl.A("T", dl.C("a")),
		dl.A("R", dl.C("a"), dl.C("b")),
		dl.A("U", dl.C("a"), dl.C("b")),
	} {
		batch := []dl.Atom{good, dl.A("U", dl.C("c")), bad}
		if _, err := st.Extend(ctx, batch); err == nil {
			t.Errorf("Extend accepted %s", dl.AtomsString(batch))
		}
		if n := st.Instance().TotalTuples(); n != 1 {
			t.Fatalf("after rejecting %s the instance holds %d tuples, want 1", dl.AtomsString(batch), n)
		}
	}
	if info, err := st.Extend(ctx, []dl.Atom{good}); err != nil || info.Inserted != 1 || info.Fired != 1 {
		t.Errorf("Extend(%s) = %+v, %v; want one insert and one firing", good, info, err)
	}
}

// TestTGDHeadArityClashIsError compiles against an empty base and
// chases a clone of it holding a relation that clashes with a TGD
// head, as a session does with its data: the chase returns an error
// naming the TGD.
func TestTGDHeadArityClashIsError(t *testing.T) {
	x := dl.V("x")
	prog := dl.NewProgram()
	prog.AddTGD(dl.NewTGD("narrow", []dl.Atom{dl.A("R", x)}, []dl.Atom{dl.A("S", x)}))
	base := storage.NewInstance()
	cp, err := Compile(prog, base)
	if err != nil {
		t.Fatal(err)
	}
	inst := base.CloneDetached()
	inst.MustInsert("R", dl.C("a"), dl.C("b"))
	inst.MustInsert("S", dl.C("a"))
	err = cp.NewState(inst, Options{}).Chase(context.Background())
	if err == nil || !strings.Contains(err.Error(), "tgd narrow") {
		t.Errorf("Chase = %v, want an error naming tgd narrow", err)
	}
}
