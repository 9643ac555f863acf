package qa

import (
	"fmt"
	"strings"

	"repro/internal/datalog"
	"repro/internal/storage"
)

// ProofNode is one node of an accepting resolution proof schema (the
// tree-like structure WeaklyStickyQAns builds, Section IV of the
// paper): a goal atom resolved either against an extensional fact
// (leaf) or through a TGD whose body atoms become children.
type ProofNode struct {
	// Goal is the (instantiated) goal atom at this node.
	Goal datalog.Atom
	// Fact is the extensional fact the goal mapped to, for leaves.
	Fact datalog.Atom
	// Rule is the TGD that entailed the goal, for inner nodes.
	Rule string
	// Children are the sub-proofs of the rule's body atoms.
	Children []*ProofNode
}

// IsLeaf reports whether the goal was resolved extensionally.
func (n *ProofNode) IsLeaf() bool { return n.Rule == "" }

// Size returns the number of nodes in the schema.
func (n *ProofNode) Size() int {
	s := 1
	for _, c := range n.Children {
		s += c.Size()
	}
	return s
}

// String renders the proof schema as an indented tree.
func (n *ProofNode) String() string {
	var b strings.Builder
	n.render(&b, 0)
	return b.String()
}

func (n *ProofNode) render(b *strings.Builder, depth int) {
	b.WriteString(strings.Repeat("  ", depth))
	if n.IsLeaf() {
		fmt.Fprintf(b, "%s  [fact %s]\n", n.Goal, n.Fact)
		return
	}
	fmt.Fprintf(b, "%s  [rule %s]\n", n.Goal, n.Rule)
	for _, c := range n.Children {
		c.render(b, depth+1)
	}
}

// Prove runs DeterministicWSQAns on a Boolean conjunctive query and,
// when it accepts, returns the accepting resolution proof schemas for
// the query's atoms (one root per query atom, in order). It returns
// ok=false with nil proofs when the query is not entailed.
//
// The proof is reconstructed by re-running the resolution with a
// recording trail; the recorded tree instantiates every goal with the
// substitution that closed the proof, so leaves show the exact
// extensional facts used and inner nodes the rules applied — Example
// 5's proof, for instance, shows Shifts(W1, Sep/9, Mark, z) entailed
// by rule (8) from WorkingSchedules(Standard, Sep/9, Mark, non-c.) and
// UnitWard(Standard, W1).
func Prove(prog *datalog.Program, db *storage.Instance, q *datalog.Query, opts Options) ([]*ProofNode, bool, error) {
	if !q.IsBoolean() {
		return nil, false, fmt.Errorf("qa: Prove expects a Boolean query; project %s first", q.Head.Pred)
	}
	if err := q.Validate(); err != nil {
		return nil, false, err
	}
	if len(q.Negated) > 0 {
		return nil, false, fmt.Errorf("qa: query %s has negated atoms", q.Head.Pred)
	}
	p := &prover{
		byHead: prog.TGDsByHeadPred(),
		db:     db,
		fresh:  datalog.NewCounter("κ"),
		conds:  q.Conds,
	}
	roots, ok := p.prove(q.Body, datalog.NewSubst(), opts.maxDepth(prog, q))
	if !ok {
		return nil, false, nil
	}
	return roots, true, nil
}

// prover is a recording variant of the resolver. It is kept separate
// from the hot-path resolver: recording allocates per node, and the
// resolver's memoization cannot be reused soundly while trails are
// collected (a memoized "proven" hit has no recorded sub-tree).
type prover struct {
	byHead map[string][]*datalog.TGD
	db     *storage.Instance
	fresh  *datalog.Counter
	conds  []datalog.Comparison
}

// prove resolves the goals left to right, returning the proof roots
// under the first closing substitution.
func (p *prover) prove(goals []datalog.Atom, s datalog.Subst, depth int) ([]*ProofNode, bool) {
	if len(goals) == 0 {
		for _, c := range p.conds {
			ok, err := c.Eval(s)
			if err != nil || !ok {
				return nil, false
			}
		}
		return nil, true
	}
	g := goals[0]
	rest := goals[1:]

	// Extensional resolution.
	var result []*ProofNode
	found := false
	storage.CompileQueryPlan(p.db, []datalog.Atom{g}).Run(p.db, datalog.NewSubst(), func(theta datalog.Subst) bool {
		sub, ok := p.prove(theta.ApplyAtoms(rest), s.Compose(theta), depth)
		if !ok {
			return true
		}
		fact := theta.ApplyAtom(g)
		result = append([]*ProofNode{{Goal: fact, Fact: fact}}, sub...)
		found = true
		return false
	})
	if found {
		return result, true
	}

	// Rule resolution.
	if depth > 0 {
		for _, tgd := range p.byHead[g.Pred] {
			if nodes, ok := p.proveViaRule(g, rest, s, tgd, depth-1); ok {
				return nodes, true
			}
		}
	}
	return nil, false
}

// proveViaRule mirrors resolver.applyRule/resolvePiece with recording:
// the goal (plus any absorbed piece goals) resolves through one rule
// firing whose body atoms are proven as children.
func (p *prover) proveViaRule(g datalog.Atom, rest []datalog.Atom, s datalog.Subst, tgd *datalog.TGD, depth int) ([]*ProofNode, bool) {
	ren := datalog.RenameApart(tgd, p.fresh)
	exVars := map[datalog.Term]bool{}
	for _, z := range ren.ExistentialVars() {
		exVars[z] = true
	}
	for _, head := range ren.Head {
		sigma, ok := datalog.Unify(g, head, datalog.NewSubst())
		if !ok {
			continue
		}
		if nodes, ok := p.provePiece(g, ren, exVars, sigma, rest, s, depth, 1); ok {
			return nodes, true
		}
	}
	return nil, false
}

// provePiece grows the piece (pieceSize tracks how many of the
// original goals it absorbed) and on closure proves body+rest,
// assembling the proof nodes: the piece goals become one node per
// goal, all attributed to the rule, sharing the body sub-proofs.
func (p *prover) provePiece(g datalog.Atom, ren *datalog.TGD, exVars map[datalog.Term]bool, sigma datalog.Subst, rest []datalog.Atom, s datalog.Subst, depth int, pieceSize int) ([]*ProofNode, bool) {
	markers := map[datalog.Term]bool{}
	for z := range exVars {
		img := sigma.Apply(z)
		if !img.IsVar() {
			return nil, false
		}
		markers[img] = true
	}
	pending := -1
	for i, goal := range rest {
		ga := sigma.ApplyAtom(goal)
		for _, tm := range ga.Args {
			if tm.IsVar() && markers[tm] {
				pending = i
				break
			}
		}
		if pending >= 0 {
			break
		}
	}
	if pending < 0 {
		for _, c := range p.conds {
			for _, tm := range []datalog.Term{c.L, c.R} {
				if img := sigma.Apply(s.Apply(tm)); img.IsVar() && markers[img] {
					return nil, false
				}
			}
		}
		body := sigma.ApplyAtoms(ren.Body)
		newGoals := append(datalog.CloneAtoms(body), sigma.ApplyAtoms(rest)...)
		sub, ok := p.prove(newGoals, s.Compose(sigma), depth)
		if !ok {
			return nil, false
		}
		// The first len(body) nodes of sub prove the rule body; the
		// remainder proves the rest of the conjunction.
		bodyNodes := sub
		restNodes := []*ProofNode(nil)
		if len(sub) >= len(body) {
			bodyNodes = sub[:len(body)]
			restNodes = sub[len(body):]
		}
		node := &ProofNode{
			Goal:     sigma.ApplyAtom(g),
			Rule:     ren.ID,
			Children: bodyNodes,
		}
		return append([]*ProofNode{node}, restNodes...), true
	}
	goal := sigma.ApplyAtom(rest[pending])
	remaining := make([]datalog.Atom, 0, len(rest)-1)
	remaining = append(remaining, rest[:pending]...)
	remaining = append(remaining, rest[pending+1:]...)
	for _, head := range ren.Head {
		sigma2, ok := datalog.Unify(goal, sigma.ApplyAtom(head), sigma)
		if !ok {
			continue
		}
		if nodes, ok := p.provePiece(g, ren, exVars, sigma2, remaining, s, depth, pieceSize+1); ok {
			return nodes, true
		}
	}
	return nil, false
}
