package sticky

import (
	"strings"
	"testing"

	dl "repro/internal/datalog"
)

// Positions returns all graph positions, sorted.
func (g *DependencyGraph) Positions() []dl.Position {
	out := make([]dl.Position, len(g.positions))
	copy(out, g.positions)
	dl.SortPositions(out)
	return out
}

func prog(tgds ...*dl.TGD) *dl.Program {
	p := dl.NewProgram()
	for _, t := range tgds {
		p.AddTGD(t)
	}
	return p
}

// hospitalProgram compiles the paper's dimensional rules (7), (8), (9).
func hospitalProgram() *dl.Program {
	r7 := dl.NewTGD("r7",
		[]dl.Atom{dl.A("PatientUnit", dl.V("u"), dl.V("d"), dl.V("p"))},
		[]dl.Atom{
			dl.A("PatientWard", dl.V("w"), dl.V("d"), dl.V("p")),
			dl.A("UnitWard", dl.V("u"), dl.V("w")),
		})
	r8 := dl.NewTGD("r8",
		[]dl.Atom{dl.A("Shifts", dl.V("w"), dl.V("d"), dl.V("n"), dl.V("z"))},
		[]dl.Atom{
			dl.A("WorkingSchedules", dl.V("u"), dl.V("d"), dl.V("n"), dl.V("t")),
			dl.A("UnitWard", dl.V("u"), dl.V("w")),
		})
	r9 := dl.NewTGD("r9",
		[]dl.Atom{
			dl.A("InstitutionUnit", dl.V("i"), dl.V("u")),
			dl.A("PatientUnit", dl.V("u"), dl.V("d"), dl.V("p")),
		},
		[]dl.Atom{dl.A("DischargePatients", dl.V("i"), dl.V("d"), dl.V("p"))})
	return prog(r7, r8, r9)
}

func TestDependencyGraphEdges(t *testing.T) {
	// ∃z S(y,z) <- R(x,y): normal R[1]->S[0], special R[1]->S[1].
	p := prog(dl.NewTGD("r",
		[]dl.Atom{dl.A("S", dl.V("y"), dl.V("z"))},
		[]dl.Atom{dl.A("R", dl.V("x"), dl.V("y"))}))
	g := BuildDependencyGraph(p)
	var normal, special int
	for _, e := range g.edges {
		if e.special {
			special++
			if e.from != (dl.Position{Pred: "R", Index: 1}) || e.to != (dl.Position{Pred: "S", Index: 1}) {
				t.Errorf("special edge %v -> %v unexpected", e.from, e.to)
			}
		} else {
			normal++
			if e.from != (dl.Position{Pred: "R", Index: 1}) || e.to != (dl.Position{Pred: "S", Index: 0}) {
				t.Errorf("normal edge %v -> %v unexpected", e.from, e.to)
			}
		}
	}
	if normal != 1 || special != 1 {
		t.Errorf("edges: normal=%d special=%d, want 1/1", normal, special)
	}
	if len(g.Positions()) != 4 {
		t.Errorf("positions = %v, want R[0],R[1],S[0],S[1]", g.Positions())
	}
}

func TestWeaklyAcyclic(t *testing.T) {
	// Acyclic: R -> S -> T.
	p := prog(
		dl.NewTGD("a", []dl.Atom{dl.A("S", dl.V("y"), dl.V("z"))}, []dl.Atom{dl.A("R", dl.V("x"), dl.V("y"))}),
		dl.NewTGD("b", []dl.Atom{dl.A("T", dl.V("x"), dl.V("y"))}, []dl.Atom{dl.A("S", dl.V("x"), dl.V("y"))}),
	)
	if !BuildDependencyGraph(p).WeaklyAcyclic() {
		t.Error("chain program must be weakly acyclic")
	}
	// Special self-loop: ∃z R(y,z) <- R(x,y).
	loop := prog(dl.NewTGD("l",
		[]dl.Atom{dl.A("R", dl.V("y"), dl.V("z"))},
		[]dl.Atom{dl.A("R", dl.V("x"), dl.V("y"))}))
	if BuildDependencyGraph(loop).WeaklyAcyclic() {
		t.Error("existential self-loop must break weak acyclicity")
	}
	// Normal-only cycle is fine: R(y,x) <- R(x,y).
	swap := prog(dl.NewTGD("s",
		[]dl.Atom{dl.A("R", dl.V("y"), dl.V("x"))},
		[]dl.Atom{dl.A("R", dl.V("x"), dl.V("y"))}))
	if !BuildDependencyGraph(swap).WeaklyAcyclic() {
		t.Error("cycle without special edges keeps weak acyclicity")
	}
}

func TestInfiniteRankPositions(t *testing.T) {
	// ∃z R(y,z) <- R(x,y): R[1] on a special cycle; R[0] reachable.
	p := prog(dl.NewTGD("l",
		[]dl.Atom{dl.A("R", dl.V("y"), dl.V("z"))},
		[]dl.Atom{dl.A("R", dl.V("x"), dl.V("y"))}))
	g := BuildDependencyGraph(p)
	inf := g.InfiniteRankPositions()
	if !inf[dl.Position{Pred: "R", Index: 1}] {
		t.Error("R[1] must have infinite rank (special self-loop)")
	}
	if !inf[dl.Position{Pred: "R", Index: 0}] {
		t.Error("R[0] must have infinite rank (reachable from the cycle)")
	}
	if len(g.FiniteRankPositions()) != 0 {
		t.Errorf("finite-rank = %v, want none", g.FiniteRankPositions())
	}
}

func TestInfiniteRankReachability(t *testing.T) {
	// The cycle contaminates downstream positions only.
	p := prog(
		dl.NewTGD("l",
			[]dl.Atom{dl.A("R", dl.V("y"), dl.V("z"))},
			[]dl.Atom{dl.A("R", dl.V("x"), dl.V("y"))}),
		dl.NewTGD("copy",
			[]dl.Atom{dl.A("S", dl.V("a"))},
			[]dl.Atom{dl.A("R", dl.V("a"), dl.V("b"))}),
		dl.NewTGD("island",
			[]dl.Atom{dl.A("Q", dl.V("a"))},
			[]dl.Atom{dl.A("P", dl.V("a"))}),
	)
	g := BuildDependencyGraph(p)
	inf := g.InfiniteRankPositions()
	if !inf[dl.Position{Pred: "S", Index: 0}] {
		t.Error("S[0] is fed from R[0]: infinite rank")
	}
	if inf[dl.Position{Pred: "P", Index: 0}] || inf[dl.Position{Pred: "Q", Index: 0}] {
		t.Error("island P->Q must stay finite rank")
	}
}

func TestMarkingInitial(t *testing.T) {
	// S(x) <- P(x,y): y not in head => marked.
	p := prog(dl.NewTGD("r",
		[]dl.Atom{dl.A("S", dl.V("x"))},
		[]dl.Atom{dl.A("P", dl.V("x"), dl.V("y"))}))
	m := ComputeMarking(p)
	if !m.MarkedVars[0][dl.V("y")] {
		t.Error("y must be marked (absent from head)")
	}
	if m.MarkedVars[0][dl.V("x")] {
		t.Error("x must not be marked")
	}
	if !m.MarkedPositions[dl.Position{Pred: "P", Index: 1}] {
		t.Error("P[1] must be a marked position")
	}
}

func TestMarkingPropagation(t *testing.T) {
	// σ1: S(x) <- P(x,y)         => y marked at P[1]
	// σ2: P(u,v) <- Q(u,v)       => head var v sits at marked P[1] => v marked at Q[1]
	// σ3: Q(a,b) <- T(a,b)       => head var b sits at marked Q[1] => b marked at T[1]
	p := prog(
		dl.NewTGD("s1", []dl.Atom{dl.A("S", dl.V("x"))}, []dl.Atom{dl.A("P", dl.V("x"), dl.V("y"))}),
		dl.NewTGD("s2", []dl.Atom{dl.A("P", dl.V("u"), dl.V("v"))}, []dl.Atom{dl.A("Q", dl.V("u"), dl.V("v"))}),
		dl.NewTGD("s3", []dl.Atom{dl.A("Q", dl.V("a"), dl.V("b"))}, []dl.Atom{dl.A("T", dl.V("a"), dl.V("b"))}),
	)
	m := ComputeMarking(p)
	if !m.MarkedVars[1][dl.V("v")] {
		t.Error("v must be marked by propagation into σ2")
	}
	if !m.MarkedVars[2][dl.V("b")] {
		t.Error("b must be marked by two-step propagation into σ3")
	}
	if m.MarkedVars[1][dl.V("u")] || m.MarkedVars[2][dl.V("a")] {
		t.Error("u/a feed unmarked positions and must stay unmarked")
	}
}

func TestClassifySticky(t *testing.T) {
	// Canonical sticky rule: ∃z R(y,z) <- R(x,y): x marked, occurs
	// once; sticky holds despite infinite rank.
	p := prog(dl.NewTGD("l",
		[]dl.Atom{dl.A("R", dl.V("y"), dl.V("z"))},
		[]dl.Atom{dl.A("R", dl.V("x"), dl.V("y"))}))
	rep := Classify(p)
	if !rep.Sticky || !rep.WeaklySticky {
		t.Errorf("linear existential loop is sticky: %+v", rep)
	}
	if !rep.Linear || !rep.Guarded {
		t.Error("single-body-atom rule is linear and guarded")
	}
	if rep.WeaklyAcyclic {
		t.Error("special self-loop is not weakly acyclic")
	}
}

func TestClassifyNonStickyButWS(t *testing.T) {
	// T(x) <- P(x,y), Q(y,x): y marked, occurs twice, but every
	// position has finite rank (no existentials) => WS, not sticky.
	p := prog(dl.NewTGD("j",
		[]dl.Atom{dl.A("T", dl.V("x"))},
		[]dl.Atom{dl.A("P", dl.V("x"), dl.V("y")), dl.A("Q", dl.V("y"), dl.V("x"))}))
	rep := Classify(p)
	if rep.Sticky {
		t.Error("marked join variable must break stickiness")
	}
	if rep.StickyWitness == "" || !strings.Contains(rep.StickyWitness, "y") {
		t.Errorf("witness must name the variable: %q", rep.StickyWitness)
	}
	if !rep.WeaklySticky {
		t.Errorf("finite-rank join keeps weak stickiness: %s", rep.WSWitness)
	}
	if !rep.WeaklyAcyclic {
		t.Error("no special edges: weakly acyclic")
	}
}

func TestClassifyNotWeaklySticky(t *testing.T) {
	// σ1: ∃z R(y,z) <- R(x,y)  — R[0], R[1] infinite rank.
	// σ2: S(x) <- R(x,y), R(y,x) — y marked, occurs only at R
	// positions of infinite rank => not WS.
	p := prog(
		dl.NewTGD("l",
			[]dl.Atom{dl.A("R", dl.V("y"), dl.V("z"))},
			[]dl.Atom{dl.A("R", dl.V("x"), dl.V("y"))}),
		dl.NewTGD("j",
			[]dl.Atom{dl.A("S", dl.V("x"))},
			[]dl.Atom{dl.A("R", dl.V("x"), dl.V("y")), dl.A("R", dl.V("y"), dl.V("x"))}),
	)
	rep := Classify(p)
	if rep.WeaklySticky {
		t.Error("marked join at infinite-rank-only positions must break WS")
	}
	if rep.WSWitness == "" {
		t.Error("WS witness expected")
	}
	if rep.Sticky {
		t.Error("cannot be sticky if not weakly sticky")
	}
}

func TestClassifyHospitalOntology(t *testing.T) {
	// Section III claim (experiment C3): the compiled MD ontology is
	// weakly sticky. It is not sticky (rule (7) joins PatientWard and
	// UnitWard on the marked ward variable) and not linear.
	rep := Classify(hospitalProgram())
	if !rep.WeaklySticky {
		t.Fatalf("hospital ontology must be WS: %s", rep.WSWitness)
	}
	if rep.Sticky {
		t.Error("hospital ontology is not sticky (marked join variable w in rule 7)")
	}
	if rep.Linear {
		t.Error("rules 7/8 have two body atoms")
	}
	if !rep.WeaklyAcyclic {
		t.Error("hospital ontology has no existential cycles: weakly acyclic")
	}
	if len(rep.InfiniteRank) != 0 {
		t.Errorf("no infinite-rank positions expected, got %v", rep.InfiniteRank)
	}
}

func TestClassifyGuardedness(t *testing.T) {
	guarded := prog(dl.NewTGD("g",
		[]dl.Atom{dl.A("T", dl.V("x"))},
		[]dl.Atom{dl.A("P", dl.V("x"), dl.V("y")), dl.A("Q", dl.V("y"))}))
	if !Classify(guarded).Guarded {
		t.Error("P(x,y) guards {x,y}")
	}
	unguarded := prog(dl.NewTGD("u",
		[]dl.Atom{dl.A("T", dl.V("x"))},
		[]dl.Atom{dl.A("P", dl.V("x"), dl.V("y")), dl.A("Q", dl.V("y"), dl.V("z"))}))
	if Classify(unguarded).Guarded {
		t.Error("no atom contains {x,y,z}")
	}
}

func TestClassifyReportString(t *testing.T) {
	rep := Classify(hospitalProgram())
	s := rep.String()
	if !strings.Contains(s, "weakly-sticky") {
		t.Errorf("report String must list classes: %q", s)
	}
}

func TestMarkingExistentialHeadVarsIgnored(t *testing.T) {
	// Existential head variables never occur in bodies; the marking
	// must not record them even when their head position is marked.
	p := prog(
		dl.NewTGD("a", []dl.Atom{dl.A("S", dl.V("x"))}, []dl.Atom{dl.A("P", dl.V("x"), dl.V("y"))}),
		dl.NewTGD("b", []dl.Atom{dl.A("P", dl.V("u"), dl.V("z"))}, []dl.Atom{dl.A("R", dl.V("u"))}),
	)
	m := ComputeMarking(p)
	if m.MarkedVars[1][dl.V("z")] {
		t.Error("existential z has no body occurrence and must not be marked")
	}
}
