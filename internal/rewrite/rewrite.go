// Package rewrite implements first-order (UCQ) query rewriting for MD
// ontologies (Section IV of the paper): for upward-navigating
// ontologies, a conjunctive query over intensional categorical
// relations is compiled into a union of conjunctive queries that can
// be evaluated directly on the extensional database — no chase, no
// data generation.
//
// The rewriter is a piece-based unfolding procedure in the style of
// Gottlob–Orsi–Pieris XRewrite: a query atom (or a piece of atoms
// sharing variables captured by existential head variables) is
// replaced by the body of a rule whose head produces it. It terminates
// on the paper's upward-only ontologies (level-acyclic unfolding) and
// guards against non-FO-rewritable inputs with a rewriting budget.
package rewrite

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/datalog"
	"repro/internal/eval"
	"repro/internal/storage"
)

// Options configures the rewriter.
type Options struct {
	// MaxRewritings aborts when the UCQ exceeds this many CQs
	// (0 = DefaultMaxRewritings); recursive rule sets are not
	// FO-rewritable and hit this bound.
	MaxRewritings int
}

// DefaultMaxRewritings bounds the UCQ size.
const DefaultMaxRewritings = 10_000

// Rewrite unfolds the query against the program's TGDs into a union of
// conjunctive queries over extensional predicates (and any predicates
// the rules cannot produce). Queries with negated atoms are rejected.
func Rewrite(prog *datalog.Program, q *datalog.Query, opts Options) ([]*datalog.Query, error) {
	ucq, err := unfold(prog, q, opts)
	if err != nil {
		return nil, err
	}
	return pruneSubsumed(ucq), nil
}

// unfold is Rewrite without the subsumption pruning: every CQ the
// unfoldings reach, up to the canonicalKey dedup.
func unfold(prog *datalog.Program, q *datalog.Query, opts Options) ([]*datalog.Query, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if len(q.Negated) > 0 {
		return nil, fmt.Errorf("rewrite: query %s has negated atoms", q.Head.Pred)
	}
	limit := opts.MaxRewritings
	if limit <= 0 {
		limit = DefaultMaxRewritings
	}
	fresh := datalog.NewCounter("ρ")

	seen := map[string]bool{}
	var result []*datalog.Query
	queue := []*datalog.Query{q.Clone()}
	seen[canonicalKey(q)] = true

	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		result = append(result, cur)
		if len(result)+len(queue) > limit {
			return nil, fmt.Errorf("rewrite: more than %d rewritings; the rule set is not FO-rewritable within the budget (downward or recursive rules?)", limit)
		}
		for _, next := range rewriteStep(prog, cur, fresh) {
			k := canonicalKey(next)
			if !seen[k] {
				seen[k] = true
				queue = append(queue, next)
			}
		}
	}
	return result, nil
}

// rewriteStep produces every single-step unfolding of the query.
func rewriteStep(prog *datalog.Program, q *datalog.Query, fresh *datalog.Counter) []*datalog.Query {
	var out []*datalog.Query
	for i := range q.Body {
		for _, tgd := range prog.TGDs {
			producesAtom := false
			for _, h := range tgd.Head {
				if h.Pred == q.Body[i].Pred {
					producesAtom = true
					break
				}
			}
			if !producesAtom {
				continue
			}
			ren := datalog.RenameApart(tgd, fresh)
			out = append(out, unfoldVia(q, i, ren)...)
		}
	}
	return out
}

// unfoldVia unfolds query atom i through the (renamed) rule, once per
// piece unifier (datalog.Pieces); the answer and condition variables
// survive into the rewritten query, so they are protected.
func unfoldVia(q *datalog.Query, i int, ren *datalog.TGD) []*datalog.Query {
	rest := make([]datalog.Atom, 0, len(q.Body)-1)
	rest = append(rest, q.Body[:i]...)
	rest = append(rest, q.Body[i+1:]...)
	protect := q.Head.Vars()
	for _, c := range q.Conds {
		protect = append(protect, c.L, c.R)
	}
	var out []*datalog.Query
	datalog.Pieces(q.Body[i], rest, ren, protect, func(sigma datalog.Subst, body []datalog.Atom) bool {
		nq := &datalog.Query{Head: sigma.ApplyAtom(q.Head), Body: distinctAtoms(body)}
		for _, c := range q.Conds {
			nq.Conds = append(nq.Conds, datalog.Comparison{Op: c.Op, L: sigma.Apply(c.L), R: sigma.Apply(c.R)})
		}
		out = append(out, nq)
		return true
	})
	return out
}

// distinctAtoms drops repeated atoms from body in place, keeping each
// atom's first occurrence: a conjunction is idempotent, so the CQ means
// the same and its join has fewer atoms.
func distinctAtoms(body []datalog.Atom) []datalog.Atom {
	out := body[:0]
	for _, a := range body {
		if !slices.ContainsFunc(out, a.Equal) {
			out = append(out, a)
		}
	}
	return out
}

// canonicalKey renders a CQ up to variable renaming, for duplicate
// elimination in the rewriting queue.
func canonicalKey(q *datalog.Query) string {
	ren := map[string]string{}
	next := 0
	canon := func(t datalog.Term) string {
		switch t.Kind {
		case datalog.KindVar:
			if _, ok := ren[t.Name]; !ok {
				ren[t.Name] = fmt.Sprintf("v%d", next)
				next++
			}
			return "?" + ren[t.Name]
		case datalog.KindNull:
			return "⊥" + t.Name
		default:
			return "c" + t.Name
		}
	}
	var b strings.Builder
	writeAtom := func(a datalog.Atom) {
		b.WriteString(a.Pred)
		b.WriteByte('(')
		for k, t := range a.Args {
			if k > 0 {
				b.WriteByte(',')
			}
			b.WriteString(canon(t))
		}
		b.WriteByte(')')
	}
	writeAtom(q.Head)
	b.WriteString(":-")
	// Sort body atoms by a stable pre-rendering to tolerate atom
	// reorderings (a weak canonical form: exact canonicalization is
	// graph isomorphism; this is a sound dedup key — equal keys imply
	// equal queries up to renaming only when orderings align, so it
	// may keep some duplicates, never drops distinct CQs).
	body := datalog.CloneAtoms(q.Body)
	sort.SliceStable(body, func(i, j int) bool {
		return body[i].String() < body[j].String()
	})
	for _, a := range body {
		writeAtom(a)
		b.WriteByte(';')
	}
	for _, c := range q.Conds {
		b.WriteString(canon(c.L))
		b.WriteString(c.Op.String())
		b.WriteString(canon(c.R))
		b.WriteByte(';')
	}
	return b.String()
}

// pruneSubsumed removes CQs subsumed by a more general CQ in the set.
// Subsumption is checked only between queries with identical condition
// lists (conservative but sound).
func pruneSubsumed(qs []*datalog.Query) []*datalog.Query {
	condKey := func(q *datalog.Query) string {
		parts := make([]string, len(q.Conds))
		for i, c := range q.Conds {
			parts[i] = c.String()
		}
		sort.Strings(parts)
		return strings.Join(parts, "&")
	}
	var out []*datalog.Query
	for i, q := range qs {
		subsumed := false
		for j, p := range qs {
			if i == j || subsumed {
				continue
			}
			if condKey(p) != condKey(q) {
				continue
			}
			// p subsumes q: θ(head_p)=head_q and θ(body_p) ⊆ body_q.
			if len(p.Body) <= len(q.Body) &&
				datalog.ConjunctionSubsumes(
					append([]datalog.Atom{p.Head}, p.Body...),
					append([]datalog.Atom{q.Head}, q.Body...)) {
				// Break ties (mutual subsumption) by keeping the
				// earlier query.
				if len(p.Body) < len(q.Body) || j < i {
					subsumed = true
				}
			}
		}
		if !subsumed {
			out = append(out, q)
		}
	}
	return out
}

// Answer rewrites the query and evaluates the UCQ over the extensional
// instance, filtering answers that contain labeled nulls (certain
// answers). For upward-only MD ontologies this is equivalent to
// chase-based certain answers, without materializing any data. ctx is
// checked between UCQ disjuncts.
func Answer(ctx context.Context, prog *datalog.Program, db *storage.Instance, q *datalog.Query, opts Options) (*datalog.AnswerSet, error) {
	ucq, err := Rewrite(prog, q, opts)
	if err != nil {
		return nil, err
	}
	certain := datalog.NewAnswerSet()
	for _, d := range ucq {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		err := eval.EvalQueryFunc(d, db, nil, func(a datalog.Answer) bool {
			if !a.HasNull() {
				certain.Add(a)
			}
			return true
		})
		if err != nil {
			return nil, err
		}
	}
	return certain, nil
}
