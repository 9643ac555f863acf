// Package sticky classifies Datalog± programs into the syntactic
// classes the paper relies on: linear, guarded, sticky, weakly-acyclic
// and weakly-sticky (WS). Section III of the paper argues that the
// compiled multidimensional ontologies are weakly sticky, which is what
// makes conjunctive query answering decidable (and tractable in data
// complexity); this package provides the executable membership tests.
//
// The definitions follow Calì, Gottlob and Pieris, "Towards more
// expressive ontology languages: the query answering problem" (AIJ
// 2012), and Fagin et al.'s weak acyclicity (TCS 2005).
package sticky

import (
	"sort"

	"repro/internal/datalog"
)

// edge is a dependency-graph edge between predicate positions. Special
// edges target positions where an existential variable is created.
type edge struct {
	from, to datalog.Position
	special  bool
}

// DependencyGraph is the position dependency graph of a set of TGDs:
// nodes are predicate positions; for every TGD and every universal
// variable x occurring in the body at position p and in the head,
// there is a normal edge from p to every head position of x, and a
// special edge from p to every head position holding an existential
// variable.
type DependencyGraph struct {
	positions []datalog.Position
	posIndex  map[datalog.Position]int
	edges     []edge
	adj       map[int][]int // adjacency over position indices
}

// BuildDependencyGraph constructs the graph for the program's TGDs.
func BuildDependencyGraph(prog *datalog.Program) *DependencyGraph {
	g := &DependencyGraph{posIndex: map[datalog.Position]int{}, adj: map[int][]int{}}
	addPos := func(p datalog.Position) int {
		if i, ok := g.posIndex[p]; ok {
			return i
		}
		i := len(g.positions)
		g.positions = append(g.positions, p)
		g.posIndex[p] = i
		return i
	}
	// Register every position of every predicate occurring anywhere.
	for _, pi := range prog.Predicates() {
		for i := 0; i < pi.Arity; i++ {
			addPos(datalog.Position{Pred: pi.Name, Index: i})
		}
	}
	addEdge := func(from, to datalog.Position, special bool) {
		f, t := addPos(from), addPos(to)
		g.edges = append(g.edges, edge{from: from, to: to, special: special})
		g.adj[f] = append(g.adj[f], t)
	}
	for _, tgd := range prog.TGDs {
		exVars := map[datalog.Term]bool{}
		for _, v := range tgd.ExistentialVars() {
			exVars[v] = true
		}
		headVars := map[datalog.Term]bool{}
		for _, v := range datalog.VarsOfAtoms(tgd.Head) {
			headVars[v] = true
		}
		// Positions of each variable in body and head.
		bodyPos := varPositions(tgd.Body)
		headPos := varPositions(tgd.Head)
		for v, bps := range bodyPos {
			if !headVars[v] {
				continue
			}
			for _, bp := range bps {
				for _, hp := range headPos[v] {
					addEdge(bp, hp, false)
				}
				for ev := range exVars {
					for _, ep := range headPos[ev] {
						addEdge(bp, ep, true)
					}
				}
			}
		}
	}
	return g
}

// varPositions maps each variable to the positions it occupies in the
// conjunction.
func varPositions(atoms []datalog.Atom) map[datalog.Term][]datalog.Position {
	out := map[datalog.Term][]datalog.Position{}
	for _, a := range atoms {
		for i, t := range a.Args {
			if t.IsVar() {
				out[t] = append(out[t], datalog.Position{Pred: a.Pred, Index: i})
			}
		}
	}
	return out
}

// WeaklyAcyclic reports whether no cycle traverses a special edge —
// Fagin et al.'s sufficient condition for chase termination.
func (g *DependencyGraph) WeaklyAcyclic() bool {
	comp := g.sccs()
	for _, e := range g.edges {
		if !e.special {
			continue
		}
		f, t := g.posIndex[e.from], g.posIndex[e.to]
		if comp[f] == comp[t] {
			return false
		}
	}
	return true
}

// InfiniteRankPositions returns Π∞: positions reachable from a cycle
// that contains a special edge. During the chase, only these positions
// can host infinitely many distinct nulls; the finite-rank positions
// ΠF = all \ Π∞ can take only polynomially many values, which is what
// weak stickiness exploits.
func (g *DependencyGraph) InfiniteRankPositions() map[datalog.Position]bool {
	comp := g.sccs()
	// A "bad" SCC contains a special edge inside it.
	badComp := map[int]bool{}
	for _, e := range g.edges {
		f, t := g.posIndex[e.from], g.posIndex[e.to]
		if comp[f] == comp[t] && e.special {
			badComp[comp[f]] = true
		}
	}
	// BFS from every node of every bad SCC.
	reach := make([]bool, len(g.positions))
	var queue []int
	for i := range g.positions {
		if badComp[comp[i]] {
			reach[i] = true
			queue = append(queue, i)
		}
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, m := range g.adj[n] {
			if !reach[m] {
				reach[m] = true
				queue = append(queue, m)
			}
		}
	}
	out := map[datalog.Position]bool{}
	for i, r := range reach {
		if r {
			out[g.positions[i]] = true
		}
	}
	return out
}

// FiniteRankPositions returns ΠF, sorted.
func (g *DependencyGraph) FiniteRankPositions() []datalog.Position {
	inf := g.InfiniteRankPositions()
	var out []datalog.Position
	for _, p := range g.positions {
		if !inf[p] {
			out = append(out, p)
		}
	}
	datalog.SortPositions(out)
	return out
}

// sccs computes strongly connected components (iterative Tarjan),
// returning the component id per node index.
func (g *DependencyGraph) sccs() []int {
	n := len(g.positions)
	comp := make([]int, n)
	for i := range comp {
		comp[i] = -1
	}
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = -1
	}
	var stack []int
	next := 0
	compCount := 0

	type frame struct {
		node int
		iter int
	}
	for start := 0; start < n; start++ {
		if index[start] != -1 {
			continue
		}
		var frames []frame
		frames = append(frames, frame{node: start})
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			v := f.node
			if f.iter == 0 {
				index[v] = next
				low[v] = next
				next++
				stack = append(stack, v)
				onStack[v] = true
			}
			advanced := false
			for f.iter < len(g.adj[v]) {
				w := g.adj[v][f.iter]
				f.iter++
				if index[w] == -1 {
					frames = append(frames, frame{node: w})
					advanced = true
					break
				}
				if onStack[w] && index[w] < low[v] {
					low[v] = index[w]
				}
			}
			if advanced {
				continue
			}
			// Post-order: fold low into parent, pop SCC root.
			if low[v] == index[v] {
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp[w] = compCount
					if w == v {
						break
					}
				}
				compCount++
			}
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				parent := frames[len(frames)-1].node
				if low[v] < low[parent] {
					low[parent] = low[v]
				}
			}
		}
	}
	return comp
}

// sortedPositionSet renders a position set as a sorted slice, for
// deterministic reports.
func sortedPositionSet(m map[datalog.Position]bool) []datalog.Position {
	out := make([]datalog.Position, 0, len(m))
	for p := range m {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Pred != out[j].Pred {
			return out[i].Pred < out[j].Pred
		}
		return out[i].Index < out[j].Index
	})
	return out
}
