package graph

import (
	"objectbase/internal/core"
)

// BuildOptions configures SG construction.
type BuildOptions struct {
	// IncludeAborted keeps aborted executions' steps in the graph. The
	// default (false) builds the graph of the committed projection: abort
	// semantics (a) makes aborted steps effect-free, so the serialisable
	// object is the history of surviving executions.
	IncludeAborted bool
}

// Build constructs SG(h) per Definition 9.
//
// Type (a) edges: for every ordered pair of conflicting local steps t (of
// execution f) before t' (of execution f') on the same object, an edge
// e -> e' is added for *every* pair of incomparable ancestors e of f and e'
// of f'. The paper's Observation after Definition 9 notes these ancestor
// edges all exist; materialising them makes sibling projections (used by the
// serial-order construction and Theorem 5) directly available.
//
// Type (b) edges: for every pair of incomparable executions whose least
// common ancestor exists, if the lca's message steps toward them are
// programme-ordered, an edge is added in that order.
func Build(h *core.History, opts BuildOptions) *SG {
	g := NewSG()
	include := func(id core.ExecID) bool {
		return opts.IncludeAborted || !h.Aborted(id)
	}

	// Nodes: every (included) method execution.
	for _, e := range h.AllExecs() {
		if include(e.ID) {
			g.AddNode(e.ID)
		}
	}

	// Type (a): conflicting local steps.
	for _, obj := range h.ObjectNames() {
		steps := h.Steps[obj]
		ok := includedSteps(steps, include)
		for i := 0; i < len(steps); i++ {
			si := steps[i]
			if !ok[i] {
				continue
			}
			for j := i + 1; j < len(steps); j++ {
				sj := steps[j]
				if !ok[j] {
					continue
				}
				if si.Exec.Comparable(sj.Exec) {
					continue // ordered by programme structure, not a Def 9(a) edge
				}
				if !h.Conflicts(si, sj) {
					continue
				}
				addAncestorEdges(g, si.Exec, sj.Exec)
			}
		}
	}

	// Type (b): programme-ordered sibling messages at the lca.
	execs := h.AllExecs()
	ok := make([]bool, len(execs))
	for i, e := range execs {
		ok[i] = include(e.ID)
	}
	for i := 0; i < len(execs); i++ {
		for j := 0; j < len(execs); j++ {
			if i == j || !ok[i] || !ok[j] {
				continue
			}
			e, e2 := execs[i].ID, execs[j].ID
			if e.Comparable(e2) {
				continue
			}
			lca, ok := core.LCA(e, e2)
			if !ok {
				continue
			}
			m1, err1 := h.AncestorMessage(lca, e)
			m2, err2 := h.AncestorMessage(lca, e2)
			if err1 != nil || err2 != nil {
				continue
			}
			if core.ProgramOrdered(m1.End, m2.Start) {
				g.AddEdge(e, e2, EdgeProgram)
			}
		}
	}
	return g
}

// includedSteps evaluates include once per step, so the quadratic pair
// loops over steps do no per-pair lookups (History.Aborted formats the
// execution's key on every call).
func includedSteps(steps []*core.Step, include func(core.ExecID) bool) []bool {
	ok := make([]bool, len(steps))
	for i, s := range steps {
		ok[i] = include(s.Exec)
	}
	return ok
}

// addAncestorEdges adds e -> e' (type a) for every incomparable ancestor
// pair of f, f2. With path IDs, the incomparable ancestor pairs are exactly
// the prefixes longer than the common prefix.
func addAncestorEdges(g *SG, f, f2 core.ExecID) {
	l := commonPrefixLen(f, f2)
	for i := l + 1; i <= len(f); i++ {
		for j := l + 1; j <= len(f2); j++ {
			g.AddEdge(f[:i], f2[:j], EdgeConflict)
		}
	}
}

func commonPrefixLen(a, b core.ExecID) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	i := 0
	for i < n && a[i] == b[i] {
		i++
	}
	return i
}

// RootProjection returns the subgraph induced on top-level executions.
func (g *SG) RootProjection() *SG {
	out := NewSG()
	for _, n := range g.Nodes() {
		if len(n) == 1 {
			out.AddNode(n)
		}
	}
	for _, n := range g.Nodes() {
		if len(n) != 1 {
			continue
		}
		for to, kind := range g.edges[n.Key()] {
			id := g.nodes[to]
			if len(id) == 1 {
				out.AddEdge(n, id, kind)
			}
		}
	}
	return out
}
