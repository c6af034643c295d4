package join

import (
	"slices"

	"lotusx/internal/doc"
)

// edgeIndex records, for one query edge, which document nodes matched the
// child query node under each match of the parent query node.  Pairs are
// collected flat, then frozen into CSR form: parents sorted and unique, and
// the children of parents[i] in children[offsets[i]:offsets[i+1]], sorted
// and unique.  Lookup is a binary search over parents.
type edgeIndex struct {
	// pairs packs each collected (parent, child) pair as parent<<32|child;
	// NodeIDs are non-negative, so numeric order is (parent, child) order.
	pairs    []uint64
	parents  []doc.NodeID
	offsets  []int32
	children []doc.NodeID
}

// add records one (parent, child) pair.
func (e *edgeIndex) add(p, c doc.NodeID) {
	e.pairs = append(e.pairs, uint64(uint32(p))<<32|uint64(uint32(c)))
}

// freeze sorts and deduplicates the collected pairs into the CSR arrays and
// returns the distinct pair count.
func (e *edgeIndex) freeze() int {
	slices.Sort(e.pairs)
	e.pairs = slices.Compact(e.pairs)
	e.parents, e.offsets, e.children = e.parents[:0], e.offsets[:0], e.children[:0]
	for i, pc := range e.pairs {
		p := doc.NodeID(pc >> 32)
		if n := len(e.parents); n == 0 || e.parents[n-1] != p {
			e.parents = append(e.parents, p)
			e.offsets = append(e.offsets, int32(i))
		}
		e.children = append(e.children, doc.NodeID(uint32(pc)))
	}
	e.offsets = append(e.offsets, int32(len(e.pairs)))
	return len(e.pairs)
}

// kids returns the children recorded under parent p (nil when none).
func (e *edgeIndex) kids(p doc.NodeID) []doc.NodeID {
	i, ok := slices.BinarySearch(e.parents, p)
	if !ok {
		return nil
	}
	return e.children[e.offsets[i]:e.offsets[i+1]]
}

// reset empties the index, keeping every backing array's capacity.
func (e *edgeIndex) reset() {
	e.pairs, e.parents, e.offsets, e.children = e.pairs[:0], e.parents[:0], e.offsets[:0], e.children[:0]
}

// assemble enumerates full twig matches from the per-edge indexes.  edges
// is indexed by the child query node's ID; roots lists candidate bindings of
// the query root.  Every edge's axis is re-checked during enumeration, so a
// superset edge index (for example the A-D superset TwigStack produces on
// P-C edges) still yields exact results.
func (ev *evaluator) assemble(roots []doc.NodeID, edges []edgeIndex) {
	m := make(Match, ev.q.Len())
	for _, r := range roots {
		m[ev.q.Root.ID] = r
		if !ev.assembleFrom(1, m, edges) {
			return
		}
	}
}

// assembleFrom binds query nodes in preorder from ID i on — each node's
// parent precedes it, so it is already bound — and emits a match once every
// node is bound.  Preorder nesting binds each child's whole subtree before
// its next sibling.  It reports whether enumeration may continue (false
// once the match cap is hit or the context dies).
func (ev *evaluator) assembleFrom(i int, m Match, edges []edgeIndex) bool {
	if ev.err != nil {
		return false
	}
	if i == len(m) {
		return ev.addMatch(m)
	}
	qc := ev.q.Node(i)
	p := m[qc.Parent().ID]
	for _, cand := range edges[i].kids(p) {
		if !ev.edgeHolds(qc, p, cand) {
			continue
		}
		m[i] = cand
		if !ev.assembleFrom(i+1, m, edges) {
			return false
		}
	}
	return true
}

// sortUnique sorts ns ascending and drops duplicates in place.
func sortUnique(ns []doc.NodeID) []doc.NodeID {
	slices.Sort(ns)
	return slices.Compact(ns)
}

// intersectInto keeps the elements of the sorted unique list a that also
// occur in the sorted unique list b, in place.
func intersectInto(a, b []doc.NodeID) []doc.NodeID {
	out := a[:0]
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}
