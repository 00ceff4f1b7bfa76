package graph

import (
	"fmt"

	"objectbase/internal/core"
)

// LocalGraph builds SG_local(h, o) of Definition 10: nodes are the method
// executions *of object o* in h; there is an edge e -> e' iff e, e' are
// incomparable and some local step of e itself (not of a descendant)
// precedes and conflicts with some local step of e'. Ensuring this graph is
// acyclic (together with SG_mesg) is the job of intra-object
// synchronisation.
func LocalGraph(h *core.History, object string, includeAborted bool) *SG {
	g := NewSG()
	include := func(id core.ExecID) bool { return includeAborted || !h.Aborted(id) }
	for _, e := range h.AllExecs() {
		if e.Object == object && include(e.ID) {
			g.AddNode(e.ID)
		}
	}
	steps := h.Steps[object]
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
				continue
			}
			if h.Conflicts(si, sj) {
				g.AddEdge(si.Exec, sj.Exec, EdgeConflict)
			}
		}
	}
	return g
}

// MesgGraph builds SG_mesg(h, o): same nodes as SG_local(h, o); an edge
// e -> e' iff e, e' are incomparable and there are *proper descendants*
// f of e and f' of e' such that (f, f') is an edge of SG_local(h, o') for
// some object o'. Ensuring this graph's acyclicity (in union with SG_local)
// is the job of inter-object synchronisation: it imports, into object o,
// orderings that o's executions incurred elsewhere through their
// descendants.
func MesgGraph(h *core.History, object string, includeAborted bool) *SG {
	g := NewSG()
	include := func(id core.ExecID) bool { return includeAborted || !h.Aborted(id) }
	var nodes []core.ExecID
	for _, e := range h.AllExecs() {
		if e.Object == object && include(e.ID) {
			g.AddNode(e.ID)
			nodes = append(nodes, e.ID)
		}
	}
	for _, obj2 := range h.ObjectNames() {
		local := LocalGraph(h, obj2, includeAborted)
		for _, f := range local.Nodes() {
			for _, f2 := range local.Successors(f) {
				// Lift the edge f -> f2 to incomparable proper ancestors
				// that are method executions of `object`.
				for _, e := range nodes {
					if !e.IsProperAncestorOf(f) {
						continue
					}
					for _, e2 := range nodes {
						if !e2.IsProperAncestorOf(f2) {
							continue
						}
						if e.Comparable(e2) {
							continue
						}
						g.AddEdge(e, e2, EdgeConflict)
					}
				}
			}
		}
	}
	return g
}

// SiblingOrder builds the relation ->e of Theorem 5(b) for one method
// execution e: nodes are e's message steps (identified by the child
// executions they created); u ->e u' iff u precedes u' in e's programme
// order, or some descendant step under u precedes and conflicts with some
// descendant step under u'.
func SiblingOrder(h *core.History, e core.ExecID, includeAborted bool) *SG {
	g := NewSG()
	include := func(id core.ExecID) bool { return includeAborted || !h.Aborted(id) }
	msgs := h.Messages[e.Key()]
	ok := make([]bool, len(msgs))
	for i, m := range msgs {
		if ok[i] = include(m.Child); ok[i] {
			g.AddNode(m.Child)
		}
	}
	for i, m1 := range msgs {
		if !ok[i] {
			continue
		}
		for j, m2 := range msgs {
			if i == j || !ok[j] {
				continue
			}
			if core.ProgramOrdered(m1.End, m2.Start) {
				g.AddEdge(m1.Child, m2.Child, EdgeProgram)
				continue
			}
			if conflictingDescendants(h, m1.Child, m2.Child, include) {
				g.AddEdge(m1.Child, m2.Child, EdgeConflict)
			}
		}
	}
	return g
}

// conflictingDescendants reports whether some local step of a descendant of
// u precedes and conflicts with some local step of a descendant of u2.
func conflictingDescendants(h *core.History, u, u2 core.ExecID, include func(core.ExecID) bool) bool {
	for _, obj := range h.ObjectNames() {
		steps := h.Steps[obj]
		ok := includedSteps(steps, include)
		for i := 0; i < len(steps); i++ {
			si := steps[i]
			if !ok[i] || !u.IsAncestorOf(si.Exec) {
				continue
			}
			for j := i + 1; j < len(steps); j++ {
				sj := steps[j]
				if !ok[j] || !u2.IsAncestorOf(sj.Exec) {
					continue
				}
				if h.Conflicts(si, sj) {
					return true
				}
			}
		}
	}
	return false
}

// CheckTheorem5 verifies the two conditions of Theorem 5 on the committed
// projection of a history:
//
//	(a) for every object o, SG_local(h,o) ∪ SG_mesg(h,o) is acyclic; and
//	(b) for every method execution e, the relation ->e is acyclic.
//
// A nil return certifies the history serialisable by Theorem 5. The error
// identifies which condition failed and where — tests use it both ways:
// schedulers that enforce the decomposition must pass, and the §2
// counterexample (per-object serialisable but globally not) must fail.
//
// The environment object participates in condition (a): the proof of
// Theorem 5 chooses, for any SG cycle, an object of which all cycle members
// have ancestor executions, and "at least one such object, the environment,
// exists". Concretely, SG_mesg(h, environment) imports conflicts between
// top-level transactions, so the §2 counterexample fails exactly there.
func CheckTheorem5(h *core.History) error {
	objects := append(h.ObjectNames(), core.EnvironmentObject)
	for _, obj := range objects {
		union := LocalGraph(h, obj, false)
		mesg := MesgGraph(h, obj, false)
		for _, f := range mesg.Nodes() {
			for _, f2 := range mesg.Successors(f) {
				union.AddEdge(f, f2, EdgeConflict)
			}
		}
		if cyc := union.FindCycle(); cyc != nil {
			return fmt.Errorf("graph: Theorem 5(a) violated at object %s: cycle %s in SG_local ∪ SG_mesg", obj, FormatCycle(cyc))
		}
	}
	for _, e := range h.AllExecs() {
		if h.Aborted(e.ID) {
			continue
		}
		if cyc := SiblingOrder(h, e.ID, false).FindCycle(); cyc != nil {
			return fmt.Errorf("graph: Theorem 5(b) violated at execution %s: cycle %s in ->e", e.ID, FormatCycle(cyc))
		}
	}
	return nil
}
