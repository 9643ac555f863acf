package quality

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/chase"
	"repro/internal/core"
	"repro/internal/datalog"
	"repro/internal/storage"
)

// Repair implements a simple consistency repair in the spirit of the
// database-repair literature the paper builds on (Bertossi 2011,
// footnote 3): tuples of *categorical relations* participating in
// negative-constraint violations are deleted, producing a consistent
// subset. Dimension data (category members and rollups) is treated as
// trusted context and never deleted; EGD conflicts are reported but
// not repaired by deletion (choosing a side would be arbitrary).
//
// The deletion strategy is greedy and deterministic: for each
// violation, delete the lexicographically least categorical tuple in
// its positive body. Re-chase and repeat until consistent or the
// iteration bound is hit.
type Repair struct {
	// Deleted lists the tuples removed, as ground atoms.
	Deleted []datalog.Atom
	// Iterations is the number of chase-and-delete rounds.
	Iterations int
	// Remaining are violations that deletion could not resolve (EGD
	// conflicts, or violations whose bodies contain no deletable
	// categorical tuple).
	Remaining []chase.Violation
}

// String summarizes the repair.
func (r *Repair) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "repair: %d deletions in %d iterations", len(r.Deleted), r.Iterations)
	if len(r.Remaining) > 0 {
		fmt.Fprintf(&b, ", %d unresolved violations", len(r.Remaining))
	}
	return b.String()
}

// RepairByDeletion removes ontology facts until the compiled program's
// negative constraints hold. It mutates a copy: the returned instance
// is the repaired extensional data of the categorical relations; the
// ontology itself is untouched. ctx bounds each chase round.
func RepairByDeletion(ctx context.Context, o *core.Ontology, opts core.CompileOptions, maxIterations int) (*storage.Instance, *Repair, error) {
	if maxIterations <= 0 {
		maxIterations = 10_000
	}
	comp, err := o.Compile(opts)
	if err != nil {
		return nil, nil, err
	}
	// Working instance: compiled instance (dimensions + data); we
	// delete only from categorical relations.
	work := comp.Instance.Clone()
	isCategorical := map[string]bool{}
	for _, name := range o.Relations() {
		isCategorical[name] = true
	}
	rep := &Repair{}
	for it := 0; it < maxIterations; it++ {
		rep.Iterations = it + 1
		res, err := chase.Run(ctx, comp.Program, work, chase.Options{})
		if err != nil {
			return nil, nil, err
		}
		if res.Consistent() {
			rep.Remaining = nil
			return projectRelations(work, o), rep, nil
		}
		progress := false
		rep.Remaining = rep.Remaining[:0]
		for _, v := range res.Violations {
			if v.Kind != chase.NCViolation {
				rep.Remaining = append(rep.Remaining, v)
				continue
			}
			victim, ok := pickVictim(v, work, isCategorical)
			if !ok {
				rep.Remaining = append(rep.Remaining, v)
				continue
			}
			if work.DeleteAtom(victim) {
				rep.Deleted = append(rep.Deleted, victim)
				progress = true
				// One deletion per round: re-chase to see what is
				// still violated (derived data changes).
				break
			}
		}
		if !progress {
			return projectRelations(work, o), rep, nil
		}
	}
	return projectRelations(work, o), rep, fmt.Errorf("quality: repair did not converge in %d iterations", maxIterations)
}

// pickVictim chooses the lexicographically least categorical base
// tuple mentioned in the violation detail that is present in the
// working instance (derived atoms disappear on re-chase, so deleting
// them is pointless).
func pickVictim(v chase.Violation, work *storage.Instance, isCategorical map[string]bool) (datalog.Atom, bool) {
	atoms := parseViolationAtoms(v.Detail)
	var candidates []datalog.Atom
	for _, a := range atoms {
		if isCategorical[a.Pred] && work.ContainsAtom(a) {
			candidates = append(candidates, a)
		}
	}
	if len(candidates) == 0 {
		return datalog.Atom{}, false
	}
	sort.Slice(candidates, func(i, j int) bool {
		return candidates[i].Key() < candidates[j].Key()
	})
	return candidates[0], true
}

// parseViolationAtoms re-parses the atoms rendered into a violation
// detail string ("R(a, b), S(c)"). The renderer quotes constants that
// need it, so a small scanner suffices.
func parseViolationAtoms(detail string) []datalog.Atom {
	var out []datalog.Atom
	i := 0
	n := len(detail)
	for i < n {
		// Predicate name up to '('.
		start := i
		for i < n && detail[i] != '(' {
			i++
		}
		if i >= n {
			break
		}
		pred := strings.TrimSpace(detail[start:i])
		i++ // '('
		var args []datalog.Term
		for i < n && detail[i] != ')' {
			for i < n && (detail[i] == ' ' || detail[i] == ',') {
				i++
			}
			if i < n && detail[i] == ')' {
				break
			}
			if i < n && detail[i] == '"' {
				// Quoted constant.
				j := i + 1
				var sb strings.Builder
				for j < n && detail[j] != '"' {
					if detail[j] == '\\' && j+1 < n {
						j++
					}
					sb.WriteByte(detail[j])
					j++
				}
				args = append(args, datalog.C(sb.String()))
				i = j + 1
			} else {
				j := i
				for j < n && detail[j] != ',' && detail[j] != ')' {
					j++
				}
				tok := strings.TrimSpace(detail[i:j])
				if strings.HasPrefix(tok, "⊥") {
					args = append(args, datalog.N(strings.TrimPrefix(tok, "⊥")))
				} else {
					args = append(args, datalog.C(tok))
				}
				i = j
			}
		}
		i++ // ')'
		if pred != "" {
			out = append(out, datalog.Atom{Pred: pred, Args: args})
		}
		// Skip ", " between atoms.
		for i < n && (detail[i] == ',' || detail[i] == ' ') {
			i++
		}
	}
	return out
}

// projectRelations extracts the categorical relations from the working
// instance (dropping dimension predicates) into a fresh instance.
func projectRelations(work *storage.Instance, o *core.Ontology) *storage.Instance {
	out := storage.NewInstance()
	for _, name := range o.Relations() {
		rel := work.Relation(name)
		if rel == nil {
			continue
		}
		// Tuples are well-formed by construction.
		if err := out.CopyRelation(rel); err != nil {
			panic("quality: project copy failed: " + err.Error())
		}
	}
	return out
}
