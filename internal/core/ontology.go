package core

import (
	"fmt"

	"repro/internal/datalog"
	"repro/internal/hm"
	"repro/internal/storage"
)

// Ontology is the paper's multidimensional ontology M = (S_M, D_M,
// Σ_M): dimensions (category predicates K and parent-child predicates
// O with their extensions), categorical relations R with extensional
// data, and the intentional part — dimensional rules and constraints.
type Ontology struct {
	dimensions map[string]*hm.Dimension
	dimOrder   []string
	relations  map[string]*CategoricalRelation
	relOrder   []string
	data       *storage.Instance

	rules []*datalog.TGD
	egds  []*datalog.EGD
	ncs   []*datalog.NC

	// rollupPreds maps a parent-child predicate name to the dimension
	// it belongs to; categoryPreds likewise for category predicates.
	rollupPreds   map[string]string
	categoryPreds map[string]string
}

// NewOntology returns an empty ontology.
func NewOntology() *Ontology {
	return &Ontology{
		dimensions:    map[string]*hm.Dimension{},
		relations:     map[string]*CategoricalRelation{},
		data:          storage.NewInstance(),
		rollupPreds:   map[string]string{},
		categoryPreds: map[string]string{},
	}
}

// AddDimension registers a dimension instance.
func (o *Ontology) AddDimension(d *hm.Dimension) error {
	name := d.Name()
	if _, dup := o.dimensions[name]; dup {
		return fmt.Errorf("core: dimension %s already added", name)
	}
	if err := d.Validate(); err != nil {
		return err
	}
	o.dimensions[name] = d
	o.dimOrder = append(o.dimOrder, name)
	for _, cat := range d.Schema().Categories() {
		pred := hm.CategoryPredName(cat)
		if owner, dup := o.categoryPreds[pred]; dup {
			return fmt.Errorf("core: category predicate %s declared by dimensions %s and %s", pred, owner, name)
		}
		o.categoryPreds[pred] = name
	}
	for _, e := range d.Schema().Edges() {
		pred := hm.RollupPredName(e[0], e[1])
		o.rollupPreds[pred] = name
	}
	return nil
}

// Dimension returns a registered dimension.
func (o *Ontology) Dimension(name string) *hm.Dimension { return o.dimensions[name] }

// Dimensions returns the dimension names in registration order.
func (o *Ontology) Dimensions() []string {
	out := make([]string, len(o.dimOrder))
	copy(out, o.dimOrder)
	return out
}

// AddRelation registers a categorical relation schema, checking that
// every categorical attribute names a registered dimension category.
func (o *Ontology) AddRelation(r *CategoricalRelation) error {
	if err := r.Validate(); err != nil {
		return err
	}
	if _, dup := o.relations[r.Name]; dup {
		return fmt.Errorf("core: relation %s already declared", r.Name)
	}
	if o.categoryPreds[r.Name] != "" || o.rollupPreds[r.Name] != "" {
		return fmt.Errorf("core: relation name %s collides with a dimension predicate", r.Name)
	}
	for _, a := range r.Attrs {
		if !a.IsCategorical() {
			continue
		}
		d := o.dimensions[a.Dimension]
		if d == nil {
			return fmt.Errorf("core: relation %s: unknown dimension %s", r.Name, a.Dimension)
		}
		if !d.Schema().HasCategory(a.Category) {
			return fmt.Errorf("core: relation %s: dimension %s has no category %s", r.Name, a.Dimension, a.Category)
		}
	}
	o.relations[r.Name] = r
	o.relOrder = append(o.relOrder, r.Name)
	if _, err := o.data.CreateRelation(r.Name, r.StorageSchema().Attrs...); err != nil {
		return err
	}
	return nil
}

// Relation returns a registered relation schema.
func (o *Ontology) Relation(name string) *CategoricalRelation { return o.relations[name] }

// Relations returns the relation names in registration order.
func (o *Ontology) Relations() []string {
	out := make([]string, len(o.relOrder))
	copy(out, o.relOrder)
	return out
}

// AddFact inserts a tuple into a categorical relation, checking arity
// and that every categorical attribute value is a member of its
// category (eager referential integrity).
func (o *Ontology) AddFact(rel string, values ...string) error {
	return o.addFact(rel, true, values...)
}

// AddFactUnchecked inserts without the category-membership check; used
// to stage dirty data whose violations the form-(1) constraints should
// then surface.
func (o *Ontology) AddFactUnchecked(rel string, values ...string) error {
	return o.addFact(rel, false, values...)
}

func (o *Ontology) addFact(rel string, checked bool, values ...string) error {
	r := o.relations[rel]
	if r == nil {
		return fmt.Errorf("core: unknown relation %s", rel)
	}
	if len(values) != r.Arity() {
		return fmt.Errorf("core: relation %s expects %d values, got %d", rel, r.Arity(), len(values))
	}
	if checked {
		for i, a := range r.Attrs {
			if !a.IsCategorical() {
				continue
			}
			d := o.dimensions[a.Dimension]
			cat, ok := d.CategoryOf(values[i])
			if !ok || cat != a.Category {
				return fmt.Errorf("core: relation %s: value %q is not a member of %s.%s", rel, values[i], a.Dimension, a.Category)
			}
		}
	}
	terms := make([]datalog.Term, len(values))
	for i, v := range values {
		terms[i] = datalog.C(v)
	}
	_, err := o.data.Insert(rel, terms...)
	return err
}

// MustAddFact panics on error; for static example data.
func (o *Ontology) MustAddFact(rel string, values ...string) {
	if err := o.AddFact(rel, values...); err != nil {
		panic(err)
	}
}

// Data returns the ontology's extensional categorical data (without
// the dimension predicates, which Compile emits).
func (o *Ontology) Data() *storage.Instance { return o.data }

// AddRule registers a dimensional rule after validating it against the
// paper's forms (4) and (10) (see ValidateRule).
func (o *Ontology) AddRule(t *datalog.TGD) error {
	if err := t.Validate(); err != nil {
		return err
	}
	if err := o.checkArity("rule", t.ID, t.Head, t.Body); err != nil {
		return err
	}
	if _, err := o.RuleForm(t); err != nil {
		return err
	}
	o.rules = append(o.rules, t)
	return nil
}

// MustAddRule panics on error.
func (o *Ontology) MustAddRule(t *datalog.TGD) {
	if err := o.AddRule(t); err != nil {
		panic(err)
	}
}

// AddEGD registers a dimensional constraint of form (2).
func (o *Ontology) AddEGD(e *datalog.EGD) error {
	if err := e.Validate(); err != nil {
		return err
	}
	if err := o.checkArity("egd", e.ID, e.Body); err != nil {
		return err
	}
	o.egds = append(o.egds, e)
	return nil
}

// AddNC registers a dimensional constraint of form (3) (or a
// hand-written referential constraint of form (1)).
func (o *Ontology) AddNC(n *datalog.NC) error {
	if err := n.Validate(); err != nil {
		return err
	}
	if err := o.checkArity("constraint", n.ID, n.PositiveBody(), n.NegativeBody()); err != nil {
		return err
	}
	o.ncs = append(o.ncs, n)
	return nil
}

// checkArity rejects an atom over a known predicate whose argument
// count is not the predicate's arity: a categorical relation's
// attribute count, 2 for a parent-child predicate, 1 for a category
// predicate. Such an atom could never match, and RuleForm indexes
// relation attributes by argument position. Atoms over unknown
// predicates pass; each caller decides whether it allows them.
func (o *Ontology) checkArity(kind, id string, atomLists ...[]datalog.Atom) error {
	for _, atoms := range atomLists {
		for _, a := range atoms {
			want := -1
			switch o.kindOf(a) {
			case kindCategoricalRel:
				want = o.relations[a.Pred].Arity()
			case kindRollup:
				want = 2
			case kindCategory:
				want = 1
			}
			if want >= 0 && len(a.Args) != want {
				return fmt.Errorf("core: %s %s: atom %s has %d arguments, %s takes %d", kind, id, a, len(a.Args), a.Pred, want)
			}
		}
	}
	return nil
}

// Rules returns the dimensional rules.
func (o *Ontology) Rules() []*datalog.TGD {
	out := make([]*datalog.TGD, len(o.rules))
	copy(out, o.rules)
	return out
}

// EGDs returns the registered EGDs.
func (o *Ontology) EGDs() []*datalog.EGD {
	out := make([]*datalog.EGD, len(o.egds))
	copy(out, o.egds)
	return out
}

// NCs returns the registered negative constraints.
func (o *Ontology) NCs() []*datalog.NC {
	out := make([]*datalog.NC, len(o.ncs))
	copy(out, o.ncs)
	return out
}

// IsRollupPred reports whether pred is a parent-child predicate of a
// registered dimension, returning the dimension name.
func (o *Ontology) IsRollupPred(pred string) (string, bool) {
	d, ok := o.rollupPreds[pred]
	return d, ok
}

// IsCategoryPred reports whether pred is a category predicate,
// returning the owning dimension name.
func (o *Ontology) IsCategoryPred(pred string) (string, bool) {
	d, ok := o.categoryPreds[pred]
	return d, ok
}

// atomKind classifies an atom of a rule with respect to the ontology.
type atomKind uint8

const (
	kindCategoricalRel atomKind = iota
	kindRollup
	kindCategory
	kindUnknown
)

func (o *Ontology) kindOf(a datalog.Atom) atomKind {
	if _, ok := o.relations[a.Pred]; ok {
		return kindCategoricalRel
	}
	if _, ok := o.rollupPreds[a.Pred]; ok {
		return kindRollup
	}
	if _, ok := o.categoryPreds[a.Pred]; ok {
		return kindCategory
	}
	return kindUnknown
}
