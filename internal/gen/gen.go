// Package gen builds deterministic synthetic workloads for the
// benchmark harness and the cross-engine property tests: parameterized
// dimension hierarchies, categorical relations with data at chosen
// levels, upward/downward rule chains, and a scalable hospital-style
// quality-assessment workload with a controllable dirty-data ratio.
//
// Everything is seeded: the same spec always yields the same ontology,
// so benchmark runs and test failures are reproducible.
package gen

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/datalog"
	"repro/internal/hm"
)

// DimensionSpec parameterizes a linear dimension hierarchy.
type DimensionSpec struct {
	// Name of the dimension; categories are Name_L0 (bottom) through
	// Name_L{Levels-1} (top).
	Name string
	// Levels is the number of categories (≥ 1).
	Levels int
	// Fanout is how many level-k members share one level-k+1 parent.
	Fanout int
	// BaseMembers is the number of members at the bottom category.
	BaseMembers int
}

// CategoryName returns the category at the given level.
func (s DimensionSpec) CategoryName(level int) string {
	return fmt.Sprintf("%s_L%d", s.Name, level)
}

// MemberName returns the j-th member of the given level.
func (s DimensionSpec) MemberName(level, j int) string {
	return fmt.Sprintf("%s_m%d_%d", s.Name, level, j)
}

// MembersAt returns how many members the given level holds.
func (s DimensionSpec) MembersAt(level int) int {
	n := s.BaseMembers
	for k := 0; k < level; k++ {
		n = (n + s.Fanout - 1) / s.Fanout
		if n < 1 {
			n = 1
		}
	}
	return n
}

// LinearDimension builds the dimension instance: each member at level
// k rolls up to member j/Fanout at level k+1 — a strict, homogeneous
// hierarchy by construction.
func LinearDimension(spec DimensionSpec) (*hm.Dimension, error) {
	if spec.Levels < 1 || spec.Fanout < 1 || spec.BaseMembers < 1 {
		return nil, fmt.Errorf("gen: invalid spec %+v", spec)
	}
	s := hm.NewDimensionSchema(spec.Name)
	for l := 0; l < spec.Levels; l++ {
		if err := s.AddCategory(spec.CategoryName(l)); err != nil {
			return nil, err
		}
	}
	for l := 0; l+1 < spec.Levels; l++ {
		if err := s.AddEdge(spec.CategoryName(l), spec.CategoryName(l+1)); err != nil {
			return nil, err
		}
	}
	d := hm.NewDimension(s)
	for l := 0; l < spec.Levels; l++ {
		for j := 0; j < spec.MembersAt(l); j++ {
			if err := d.AddMember(spec.CategoryName(l), spec.MemberName(l, j)); err != nil {
				return nil, err
			}
		}
	}
	for l := 0; l+1 < spec.Levels; l++ {
		parents := spec.MembersAt(l + 1)
		for j := 0; j < spec.MembersAt(l); j++ {
			p := j / spec.Fanout
			if p >= parents {
				p = parents - 1
			}
			if err := d.AddRollup(spec.MemberName(l, j), spec.MemberName(l+1, p)); err != nil {
				return nil, err
			}
		}
	}
	return d, nil
}

// ChainSpec parameterizes a synthetic MD ontology whose rules chain
// data up (and optionally down) a linear dimension.
type ChainSpec struct {
	Dim DimensionSpec
	// Tuples is the number of base facts.
	Tuples int
	// Upward adds relations R0..R{Levels-1} with data in R0 and one
	// upward rule per level (the paper's rule (7) pattern).
	Upward bool
	// Downward adds relations S{Levels-1}..S0 with data at the top
	// and one existential downward rule per level (the rule (8)
	// pattern: the payload of the lower level is invented).
	Downward bool
	// Seed drives member assignment of the generated facts.
	Seed int64
}

// UpRelName returns the name of the upward relation at a level.
func UpRelName(level int) string { return fmt.Sprintf("R%d", level) }

// DownRelName returns the name of the downward relation at a level.
func DownRelName(level int) string { return fmt.Sprintf("S%d", level) }

// ChainOntology builds the ontology for a ChainSpec.
func ChainOntology(spec ChainSpec) (*core.Ontology, error) {
	dim, err := LinearDimension(spec.Dim)
	if err != nil {
		return nil, err
	}
	o := core.NewOntology()
	if err := o.AddDimension(dim); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(spec.Seed))

	if spec.Upward {
		for l := 0; l < spec.Dim.Levels; l++ {
			rel := core.NewCategoricalRelation(UpRelName(l),
				core.Cat("C", spec.Dim.Name, spec.Dim.CategoryName(l)),
				core.NonCat("Val"))
			if err := o.AddRelation(rel); err != nil {
				return nil, err
			}
		}
		base := spec.Dim.MembersAt(0)
		for i := 0; i < spec.Tuples; i++ {
			m := spec.Dim.MemberName(0, rng.Intn(base))
			if err := o.AddFact(UpRelName(0), m, fmt.Sprintf("v%d", i)); err != nil {
				return nil, err
			}
		}
		for l := 0; l+1 < spec.Dim.Levels; l++ {
			roll := hm.RollupPredName(spec.Dim.CategoryName(l), spec.Dim.CategoryName(l+1))
			rule := datalog.NewTGD(fmt.Sprintf("up%d", l),
				[]datalog.Atom{datalog.A(UpRelName(l+1), datalog.V("p"), datalog.V("x"))},
				[]datalog.Atom{
					datalog.A(UpRelName(l), datalog.V("c"), datalog.V("x")),
					datalog.A(roll, datalog.V("p"), datalog.V("c")),
				})
			if err := o.AddRule(rule); err != nil {
				return nil, err
			}
		}
	}

	if spec.Downward {
		for l := 0; l < spec.Dim.Levels; l++ {
			rel := core.NewCategoricalRelation(DownRelName(l),
				core.Cat("C", spec.Dim.Name, spec.Dim.CategoryName(l)),
				core.NonCat("Val"),
				core.NonCat("Extra"))
			if err := o.AddRelation(rel); err != nil {
				return nil, err
			}
		}
		top := spec.Dim.Levels - 1
		topMembers := spec.Dim.MembersAt(top)
		for i := 0; i < spec.Tuples; i++ {
			m := spec.Dim.MemberName(top, rng.Intn(topMembers))
			if err := o.AddFact(DownRelName(top), m, fmt.Sprintf("w%d", i), "known"); err != nil {
				return nil, err
			}
		}
		for l := spec.Dim.Levels - 1; l > 0; l-- {
			roll := hm.RollupPredName(spec.Dim.CategoryName(l-1), spec.Dim.CategoryName(l))
			rule := datalog.NewTGD(fmt.Sprintf("down%d", l),
				[]datalog.Atom{datalog.A(DownRelName(l-1), datalog.V("c"), datalog.V("x"), datalog.V("z"))},
				[]datalog.Atom{
					datalog.A(DownRelName(l), datalog.V("p"), datalog.V("x"), datalog.V("e")),
					datalog.A(roll, datalog.V("p"), datalog.V("c")),
				})
			if err := o.AddRule(rule); err != nil {
				return nil, err
			}
		}
	}
	return o, nil
}
