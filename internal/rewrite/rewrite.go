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
	// DisableSubsumption keeps subsumed CQs (ablation benchmark).
	DisableSubsumption bool
}

// DefaultMaxRewritings bounds the UCQ size.
const DefaultMaxRewritings = 10_000

// Rewrite unfolds the query against the program's TGDs into a union of
// conjunctive queries over extensional predicates (and any predicates
// the rules cannot produce). Queries with negated atoms are rejected.
func Rewrite(prog *datalog.Program, q *datalog.Query, opts Options) ([]*datalog.Query, error) {
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
	if !opts.DisableSubsumption {
		result = pruneSubsumed(result)
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

// unfoldVia unfolds query atom i through the (renamed) rule,
// considering every head atom and growing pieces when existential
// markers capture shared variables.
func unfoldVia(q *datalog.Query, i int, ren *datalog.TGD) []*datalog.Query {
	exVars := map[datalog.Term]bool{}
	for _, z := range ren.ExistentialVars() {
		exVars[z] = true
	}
	var out []*datalog.Query
	goal := q.Body[i]
	rest := make([]datalog.Atom, 0, len(q.Body)-1)
	rest = append(rest, q.Body[:i]...)
	rest = append(rest, q.Body[i+1:]...)
	for _, head := range ren.Head {
		sigma, ok := datalog.Unify(goal, head, datalog.NewSubst())
		if !ok {
			continue
		}
		out = append(out, growPiece(q, ren, exVars, sigma, rest)...)
	}
	return out
}

// growPiece checks marker soundness, absorbs goals captured by
// existential markers, and emits the unfolded CQ when the piece is
// closed.
func growPiece(q *datalog.Query, ren *datalog.TGD, exVars map[datalog.Term]bool, sigma datalog.Subst, rest []datalog.Atom) []*datalog.Query {
	markers := map[datalog.Term]bool{}
	for z := range exVars {
		img := sigma.Apply(z)
		if !img.IsVar() {
			return nil // existential bound to a constant: unsound
		}
		markers[img] = true
	}
	// Protected variables must not be captured: answer variables and
	// condition variables survive into the rewritten query.
	for _, av := range q.Head.Vars() {
		if img := sigma.Apply(av); img.IsVar() && markers[img] {
			return nil
		}
	}
	for _, c := range q.Conds {
		for _, tm := range []datalog.Term{c.L, c.R} {
			if tm.IsVar() {
				if img := sigma.Apply(tm); img.IsVar() && markers[img] {
					return nil
				}
			}
		}
	}
	// A remaining goal mentioning a marker must join the piece.
	pending := -1
	for j, g := range rest {
		ga := sigma.ApplyAtom(g)
		for _, tm := range ga.Args {
			if tm.IsVar() && markers[tm] {
				pending = j
				break
			}
		}
		if pending >= 0 {
			break
		}
	}
	if pending < 0 {
		body := append(sigma.ApplyAtoms(ren.Body), sigma.ApplyAtoms(rest)...)
		nq := &datalog.Query{
			Head: sigma.ApplyAtom(q.Head),
			Body: body,
		}
		for _, c := range q.Conds {
			nq.Conds = append(nq.Conds, datalog.Comparison{
				Op: c.Op,
				L:  sigma.Apply(c.L),
				R:  sigma.Apply(c.R),
			})
		}
		return []*datalog.Query{nq}
	}
	var out []*datalog.Query
	goal := sigma.ApplyAtom(rest[pending])
	remaining := make([]datalog.Atom, 0, len(rest)-1)
	remaining = append(remaining, rest[:pending]...)
	remaining = append(remaining, rest[pending+1:]...)
	for _, head := range ren.Head {
		sigma2, ok := datalog.Unify(goal, sigma.ApplyAtom(head), sigma)
		if !ok {
			continue
		}
		out = append(out, growPiece(q, ren, exVars, sigma2, remaining)...)
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
		err := eval.EvalQueryFunc(d, db, func(a datalog.Answer) bool {
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
