package core

import (
	"fmt"
	"strings"

	"repro/internal/datalog"
	"repro/internal/sticky"
	"repro/internal/storage"
)

// CompileOptions tunes the Datalog± compilation.
type CompileOptions struct {
	// ReferentialNCs adds the form-(1) constraints ⊥ ← R(...), ¬K(e)
	// for every categorical attribute of every relation.
	ReferentialNCs bool
	// TransitiveRollups adds composition rules defining parent-child
	// predicates across non-adjacent category pairs, letting rules and
	// constraints navigate several levels in one atom (the paper's
	// MonthDay over a Time ⇒ Day ⇒ Month hierarchy is adjacent, but
	// e.g. InstitutionWard is not).
	TransitiveRollups bool
}

// Compiled is the Datalog± form of an ontology: the program Σ_M (rules
// and constraints) and the extensional instance D_M (dimension
// predicates plus categorical data).
type Compiled struct {
	Program  *datalog.Program
	Instance *storage.Instance
	// Report is the syntactic classification of the program (Section
	// III argues it is weakly sticky; tests assert it).
	Report *sticky.Report
	// Directions maps rule IDs to their navigation direction.
	Directions map[string]Direction
	// Forms maps rule IDs to their syntactic form.
	Forms map[string]RuleForm
}

// Compile emits the Datalog± program and extensional instance.
func (o *Ontology) Compile(opts CompileOptions) (*Compiled, error) {
	db := storage.NewInstance()
	// Dimension predicates: categories and rollups.
	for _, name := range o.dimOrder {
		if err := o.dimensions[name].EmitAtoms(db); err != nil {
			return nil, err
		}
	}
	// Categorical relation data.
	for _, name := range o.relOrder {
		rel := o.relations[name]
		if _, err := db.CreateRelation(name, rel.StorageSchema().Attrs...); err != nil {
			return nil, err
		}
		if err := db.CopyRelation(o.data.Relation(name)); err != nil {
			return nil, err
		}
	}

	prog := datalog.NewProgram()
	comp := &Compiled{
		Instance:   db,
		Directions: map[string]Direction{},
		Forms:      map[string]RuleForm{},
	}
	for _, t := range o.rules {
		prog.AddTGD(t)
		comp.Directions[t.ID] = o.NavigationDirection(t)
		form, err := o.RuleForm(t)
		if err != nil {
			return nil, err
		}
		comp.Forms[t.ID] = form
	}
	if opts.TransitiveRollups {
		for _, name := range o.dimOrder {
			for _, t := range o.dimensions[name].TransitiveRollupProgram() {
				prog.AddTGD(t)
				comp.Directions[t.ID] = DirectionNone
				comp.Forms[t.ID] = Form4
			}
		}
	}
	for _, e := range o.egds {
		prog.AddEGD(e)
	}
	for _, n := range o.ncs {
		prog.AddNC(n)
	}
	if opts.ReferentialNCs {
		for _, name := range o.relOrder {
			rel := o.relations[name]
			for _, pos := range rel.CategoricalPositions() {
				nc, err := rel.ReferentialNC(pos)
				if err != nil {
					return nil, err
				}
				prog.AddNC(nc)
			}
		}
	}
	if err := prog.Validate(); err != nil && err != datalog.ErrEmptyProgram {
		return nil, err
	}
	comp.Program = prog
	comp.Report = sticky.Classify(prog)
	return comp, nil
}

// SeparabilityHeuristic applies the paper's separability argument to
// the registered EGDs: when every EGD equates variables that occur
// only at categorical positions of categorical relations, EGD and TGD
// enforcement do not interact (the TGDs never invent values at those
// positions under form (4)), so the chase can treat them separately.
// Form-(10) rules invent category members, voiding the argument; the
// result then depends on the application (the paper's caveat at the
// end of Section III).
//
// It returns (separable, reason).
func (o *Ontology) SeparabilityHeuristic() (bool, string) {
	hasForm10 := false
	for _, t := range o.rules {
		if f, err := o.RuleForm(t); err == nil && f == Form10 {
			hasForm10 = true
			break
		}
	}
	for _, e := range o.egds {
		for _, side := range []datalog.Term{e.Left, e.Right} {
			cat, err := o.egdVarCategorical(e, side)
			if err != nil {
				return false, err.Error()
			}
			if !cat {
				return false, fmt.Sprintf("EGD %s equates non-categorical variable %s", e.ID, side)
			}
		}
	}
	if hasForm10 && len(o.egds) > 0 {
		return false, "form-(10) rules invent category members; separability is application-dependent"
	}
	return true, "all EGD head variables are categorical and no rule invents category members"
}

// egdVarCategorical reports whether the variable occurs only at
// categorical positions within the EGD body's categorical-relation
// atoms (occurrences in rollup/category atoms count as categorical).
func (o *Ontology) egdVarCategorical(e *datalog.EGD, v datalog.Term) (bool, error) {
	found := false
	for _, a := range e.Body {
		rel, isRel := o.relations[a.Pred]
		for i, tm := range a.Args {
			if tm != v {
				continue
			}
			found = true
			if isRel && !rel.Attrs[i].IsCategorical() {
				return false, nil
			}
		}
	}
	if !found {
		return false, fmt.Errorf("core: EGD %s: head variable %s not in body", e.ID, v)
	}
	return true, nil
}

// Summary renders a human-readable inventory of the ontology, used by
// the CLI's describe command.
func (o *Ontology) Summary() string {
	var b strings.Builder
	b.WriteString("Dimensions:\n")
	for _, name := range o.dimOrder {
		d := o.dimensions[name]
		fmt.Fprintf(&b, "  %s (%d members)\n", d.Schema(), d.MemberCount())
	}
	b.WriteString("Categorical relations:\n")
	for _, name := range o.relOrder {
		fmt.Fprintf(&b, "  %s (%d tuples)\n", o.relations[name], o.data.Relation(name).Len())
	}
	if len(o.rules) > 0 {
		b.WriteString("Dimensional rules:\n")
		for _, t := range o.rules {
			dir := o.NavigationDirection(t)
			form, _ := o.RuleForm(t)
			fmt.Fprintf(&b, "  [%s, %s, %s] %s\n", t.ID, form, dir, t)
		}
	}
	if len(o.egds) > 0 {
		b.WriteString("Dimensional EGDs:\n")
		for _, e := range o.egds {
			fmt.Fprintf(&b, "  [%s] %s\n", e.ID, e)
		}
	}
	if len(o.ncs) > 0 {
		b.WriteString("Dimensional constraints:\n")
		for _, n := range o.ncs {
			fmt.Fprintf(&b, "  [%s] %s\n", n.ID, n)
		}
	}
	return b.String()
}
