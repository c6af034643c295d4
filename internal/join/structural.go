package join

import (
	"lotusx/internal/doc"
	"lotusx/internal/twig"
)

// runStructural evaluates the twig by decomposing it into one binary
// structural join per query edge (the Stack-Tree-Desc algorithm of
// Al-Khalifa et al.), then assembling full matches from the edge pair sets.
// Before assembly, a bottom-up semi-join pass prunes parent candidates with
// no match in some child edge, which keeps the enumeration from exploring
// dead branches; the edge pairs themselves are still computed per edge in
// isolation, so Stats.EdgePairs exposes the classical weakness that E2/E3
// measure against holistic evaluation.
func (ev *evaluator) runStructural() error {
	edges := ev.scr.borrowEdges(ev.q.Len())

	// Bottom-up: survivors[qid] lists, in document order, the nodes of
	// query node qid that head a full match of qid's sub-twig.  A leaf's
	// survivors are its whole stream; an inner node survives iff it has a
	// pair in every child edge.
	survivors := make([][]doc.NodeID, ev.q.Len())
	var reduce func(qn *twig.Node)
	reduce = func(qn *twig.Node) {
		if ev.err != nil {
			return
		}
		if len(qn.Children) == 0 {
			survivors[qn.ID] = ev.nodes[qn.ID]
			return
		}
		var surv []doc.NodeID
		for i, qc := range qn.Children {
			reduce(qc)
			e := &edges[qc.ID]
			ev.structuralJoin(qn, qc, survivors[qc.ID], e)
			ev.stats.EdgePairs += e.freeze()
			if i == 0 {
				surv = append(surv, e.parents...)
			} else {
				surv = intersectInto(surv, e.parents)
			}
		}
		survivors[qn.ID] = surv
	}
	reduce(ev.q.Root)
	if ev.err != nil {
		return ev.err
	}
	ev.assemble(survivors[ev.q.Root.ID], edges)
	return nil
}

// structuralJoin runs a stack-based merge of qn's stream against the
// surviving nodes of child qc, adding to out every (ancestor, descendant)
// pair that satisfies the edge axis.  Both inputs are in document order;
// the stack holds the current chain of nested ancestors.
func (ev *evaluator) structuralJoin(qn, qc *twig.Node, childSurvivors []doc.NodeID, out *edgeIndex) {
	d := ev.ix.Document()
	ancestors := ev.nodes[qn.ID]
	stack := ev.scr.nodeStack[:0]
	ai := 0
	for _, c := range childSurvivors {
		if !ev.tick() {
			break
		}
		creg := d.Region(c)
		ev.stats.ElementsScanned++
		// Push every ancestor-stream node that starts before c.
		for ai < len(ancestors) && d.Region(ancestors[ai]).Start < creg.Start {
			// Pop stack entries that end before this new node starts; they
			// cannot contain it or anything later.
			areg := d.Region(ancestors[ai])
			for len(stack) > 0 && d.Region(stack[len(stack)-1]).End < areg.Start {
				stack = stack[:len(stack)-1]
			}
			stack = append(stack, ancestors[ai])
			ai++
			ev.stats.ElementsScanned++
		}
		// Pop entries that end before c starts.
		for len(stack) > 0 && d.Region(stack[len(stack)-1]).End < creg.Start {
			stack = stack[:len(stack)-1]
		}
		// Remaining stack entries all contain c.
		for _, a := range stack {
			if qc.Axis == twig.Child {
				if d.Region(a).Level+1 != creg.Level {
					continue
				}
			}
			if d.Region(a).IsAncestor(creg) {
				out.add(a, c)
			}
		}
	}
	ev.scr.nodeStack = stack // hand the grown capacity back for the next edge
}
