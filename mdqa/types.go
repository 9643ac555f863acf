package mdqa

import (
	"repro/internal/chase"
	"repro/internal/core"
	"repro/internal/datalog"
	"repro/internal/eval"
	"repro/internal/hm"
	"repro/internal/storage"
)

// The facade re-exports the engine's data vocabulary as aliases: the
// types are identical (no conversion cost, no copying), but external
// consumers reach them without importing internal packages.

// ---- Terms, atoms, queries ----

// Term is a constant, variable or labeled null.
type Term = datalog.Term

// Const builds a constant term.
func Const(name string) Term { return datalog.C(name) }

// Var builds a variable term.
func Var(name string) Term { return datalog.V(name) }

// Null builds a labeled null term.
func Null(label string) Term { return datalog.N(label) }

// Atom is a predicate applied to terms.
type Atom = datalog.Atom

// NewAtom builds an atom.
func NewAtom(pred string, args ...Term) Atom { return datalog.A(pred, args...) }

// CompOp is a comparison operator for rule and query conditions.
type CompOp = datalog.CompOp

// Comparison operators.
const (
	OpEq = datalog.OpEq
	OpNe = datalog.OpNe
	OpLt = datalog.OpLt
	OpLe = datalog.OpLe
	OpGt = datalog.OpGt
	OpGe = datalog.OpGe
)

// Query is a conjunctive query with optional negation and comparisons.
type Query = datalog.Query

// NewQuery builds a query from its head and positive body.
func NewQuery(head Atom, body ...Atom) *Query { return datalog.NewQuery(head, body...) }

// Answer is one query answer.
type Answer = datalog.Answer

// AnswerSet is a deduplicated set of answers.
type AnswerSet = datalog.AnswerSet

// NewAnswerSet builds an empty answer set.
func NewAnswerSet() *AnswerSet { return datalog.NewAnswerSet() }

// ---- Datalog± dependencies ----

// TGD is a tuple-generating dependency (a dimensional rule, possibly
// with existential head variables).
type TGD = datalog.TGD

// NewTGD builds a TGD from head and body atom lists.
func NewTGD(id string, head, body []Atom) *TGD { return datalog.NewTGD(id, head, body) }

// EGD is an equality-generating dependency.
type EGD = datalog.EGD

// NewEGD builds an EGD equating l and r under the body.
func NewEGD(id string, l, r Term, body []Atom) *EGD { return datalog.NewEGD(id, l, r, body) }

// Literal is an atom with an optional negation marker, for negative
// constraint bodies.
type Literal = datalog.Literal

// Pos builds a positive literal.
func Pos(a Atom) Literal { return datalog.Pos(a) }

// Neg builds a negated literal.
func Neg(a Atom) Literal { return datalog.Neg(a) }

// NC is a negative constraint (denial).
type NC = datalog.NC

// NewNC builds a negative constraint from its body literals.
func NewNC(id string, body ...Literal) *NC { return datalog.NewNC(id, body...) }

// Program is a Datalog± program: TGDs, EGDs and NCs.
type Program = datalog.Program

// ---- Derived-layer rules (mappings, quality predicates, versions) ----

// Rule is a plain Datalog rule with optional stratified negation and
// built-in comparisons, used for contextual mappings, quality
// predicates and quality-version definitions.
type Rule = eval.Rule

// NewRule builds a positive rule; chain WithNegated/WithCond for
// negation and comparisons.
func NewRule(id string, head Atom, body ...Atom) *Rule { return eval.NewRule(id, head, body...) }

// ---- Dimensions (the HM model) ----

// DimensionSchema is a hierarchy of categories.
type DimensionSchema = hm.DimensionSchema

// NewDimensionSchema starts an empty dimension schema.
func NewDimensionSchema(name string) *DimensionSchema { return hm.NewDimensionSchema(name) }

// Dimension is a dimension instance: members per category and child
// to parent rollups.
type Dimension = hm.Dimension

// NewDimension builds an empty dimension over a schema.
func NewDimension(schema *DimensionSchema) *Dimension { return hm.NewDimension(schema) }

// RollupPredName names the binary rollup predicate between two
// adjacent categories (parent first: RollupPredName("City","Country")
// is "CountryCity").
func RollupPredName(child, parent string) string { return hm.RollupPredName(child, parent) }

// CategoryPredName names the unary membership predicate of a category.
func CategoryPredName(category string) string { return hm.CategoryPredName(category) }

// ---- Ontologies ----

// Ontology is a multidimensional ontology: dimensions, categorical
// relations, facts, and dimensional rules and constraints.
type Ontology = core.Ontology

// NewOntology starts an empty ontology.
func NewOntology() *Ontology { return core.NewOntology() }

// Attribute describes one attribute of a categorical relation.
type Attribute = core.Attribute

// Cat declares a categorical attribute tied to a dimension category.
func Cat(name, dimension, category string) Attribute { return core.Cat(name, dimension, category) }

// NonCat declares a non-categorical attribute.
func NonCat(name string) Attribute { return core.NonCat(name) }

// CategoricalRelation is a relation whose attributes may be tied to
// dimension categories.
type CategoricalRelation = core.CategoricalRelation

// NewCategoricalRelation builds a categorical relation schema.
func NewCategoricalRelation(name string, attrs ...Attribute) *CategoricalRelation {
	return core.NewCategoricalRelation(name, attrs...)
}

// CompileOptions configures ontology compilation to Datalog±.
type CompileOptions = core.CompileOptions

// Compiled is the Datalog± form of an ontology: the program, the
// extensional instance, and the syntactic classification report.
type Compiled = core.Compiled

// ---- Storage ----

// Instance is a relational instance over interned terms.
type Instance = storage.Instance

// NewInstance builds an empty instance.
func NewInstance() *Instance { return storage.NewInstance() }

// Relation is one relation of an instance.
type Relation = storage.Relation

// FormatRelation renders a relation as an aligned text table.
func FormatRelation(r *Relation) string { return storage.FormatRelation(r) }

// FormatRelationSorted renders a relation with sorted rows (stable
// across runs; use for golden output).
func FormatRelationSorted(r *Relation) string { return storage.FormatRelationSorted(r) }

// PlanCache is a concurrency-safe LRU of compiled query plans keyed by
// normalized query shape, shared across the snapshots of one session
// (or one server context). Pass it to Snapshot.AnswersCached /
// CleanAnswersCached so repeated ad-hoc queries skip recompilation.
type PlanCache = storage.PlanCache

// NewPlanCache builds a plan cache holding at most capacity plans;
// capacity <= 0 disables caching.
func NewPlanCache(capacity int) *PlanCache { return storage.NewPlanCache(capacity) }

// ---- Chase ----

// ChaseOptions configures a chase run.
type ChaseOptions = chase.Options

// ChaseResult is the outcome of a chase run.
type ChaseResult = chase.Result
