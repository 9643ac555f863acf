package chase

import (
	"fmt"
	"strings"

	"repro/internal/datalog"
	"repro/internal/storage"
)

// Derivation explains why an atom is in a chased instance: either it
// was extensional, or a rule fired and produced it (together with the
// atoms produced by the same firing).
type Derivation struct {
	Atom datalog.Atom
	// Rule is the ID of the producing TGD; empty for extensional
	// atoms.
	Rule string
	// Siblings are the other atoms added by the same firing (shared
	// existential nulls make them inseparable), excluding Atom.
	Siblings []datalog.Atom
}

// IsExtensional reports whether the atom was present before the chase.
func (d Derivation) IsExtensional() bool { return d.Rule == "" }

// String renders the derivation.
func (d Derivation) String() string {
	if d.IsExtensional() {
		return d.Atom.String() + " (extensional)"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s (by rule %s", d.Atom, d.Rule)
	if len(d.Siblings) > 0 {
		fmt.Fprintf(&b, ", with %s", datalog.AtomsString(d.Siblings))
	}
	b.WriteByte(')')
	return b.String()
}

// Explain looks up the provenance of an atom in a traced chase result
// (Options.Trace must have been set). It returns the derivation and
// true when the atom is in the result instance. EGD merges rewrite
// nulls after firing, so Explain resolves the atom against the traced
// steps modulo exact match only; atoms affected by merges may resolve
// as extensional-looking misses — callers assessing merged instances
// should run with SkipEGDs or treat a false return as "rewritten".
func (r *Result) Explain(atom datalog.Atom) (Derivation, bool) {
	if !r.Instance.ContainsAtom(atom) {
		return Derivation{}, false
	}
	for _, step := range r.Steps {
		for i, added := range step.Added {
			if added.Equal(atom) {
				sib := make([]datalog.Atom, 0, len(step.Added)-1)
				sib = append(sib, step.Added[:i]...)
				sib = append(sib, step.Added[i+1:]...)
				return Derivation{Atom: atom, Rule: step.Rule, Siblings: sib}, true
			}
		}
	}
	return Derivation{Atom: atom}, true
}

// DerivationChain explains an atom transitively: the derivation of the
// atom, then of each body-supporting atom that was itself derived, up
// to extensional facts. Because Step records only the added atoms (not
// the trigger), the chain is reconstructed by re-matching rule bodies
// against the final instance: each step lists one homomorphism of the
// producing rule's body whose head instantiation contains the atom.
// maxDepth bounds the recursion.
func (r *Result) DerivationChain(prog *datalog.Program, atom datalog.Atom, maxDepth int) []Derivation {
	var chain []Derivation
	seen := map[string]bool{}
	var walk func(a datalog.Atom, depth int)
	walk = func(a datalog.Atom, depth int) {
		if depth <= 0 || seen[a.Key()] {
			return
		}
		seen[a.Key()] = true
		d, ok := r.Explain(a)
		if !ok {
			return
		}
		chain = append(chain, d)
		if d.IsExtensional() {
			return
		}
		// Find the producing rule and one body match supporting the
		// firing.
		for _, tgd := range prog.TGDs {
			if tgd.ID != d.Rule {
				continue
			}
			// Unify the atom with a head atom, then search a body
			// homomorphism consistent with it. The fact is ground, so
			// the unifier seeds the plan with ground bindings only.
			plan := storage.CompileQueryPlan(r.Instance, tgd.Body)
			for _, h := range tgd.Head {
				s, okU := unifyHeadWithFact(h, a)
				if !okU {
					continue
				}
				found := false
				plan.Run(r.Instance, s, func(ext datalog.Subst) bool {
					for _, b := range tgd.Body {
						walk(ext.ApplyAtom(b), depth-1)
					}
					found = true
					return false // one support suffices
				})
				if found {
					return
				}
			}
		}
	}
	walk(atom, maxDepth)
	return chain
}

// unifyHeadWithFact matches a head atom pattern against a ground fact,
// binding universal variables; existential head variables bind to the
// fact's nulls (or values) freely.
func unifyHeadWithFact(head, fact datalog.Atom) (datalog.Subst, bool) {
	return datalog.Match(head, fact, datalog.NewSubst())
}
