package join

import (
	"sync"

	"lotusx/internal/doc"
)

// scratch holds the working buffers of one evaluation that do NOT escape
// Run: the in-progress path solution, the flat per-path solution sets (path
// solutions are consumed by mergePathSolutions before Run returns),
// algorithm stacks, the structural-join ancestor stack, and the per-edge
// indexes and root candidates that feed assembly.  Pooling them removes the
// per-element and per-solution allocations from the join hot loops — the
// allocs/op lines of the Benchmark* suite are the scoreboard.
//
// Full matches are NOT here: they escape into Result, so the evaluator
// copies them into its own non-pooled matchArena (see addMatch).
type scratch struct {
	// solSets holds the emitted path solutions, one flat set per path (or
	// per leaf): a solution of width w is w consecutive NodeIDs, so a run
	// with S solutions costs O(log S) slice growths instead of S
	// allocations, and nothing once the pooled capacity suffices.
	solSets [][]doc.NodeID
	// solBuf is the single in-progress solution expandPath and alignLeaf
	// mutate in place (neither is reentrant; emitters append a copy to
	// their solution set).
	solBuf []doc.NodeID
	// chainBuf is alignLeaf's root-to-leaf document node chain.
	chainBuf []doc.NodeID
	// nodeStack is structuralJoin's running ancestor stack.
	nodeStack []doc.NodeID
	// stackSet provides the per-query-node (TwigStack) or per-path-node
	// (PathStack) element stacks; inner capacity survives across borrows.
	stackSet [][]stackEntry
	// pathView is expandLeaf's root-path window over stackSet's stacks.
	pathView [][]stackEntry
	// edges holds one edge index per query node (indexed by the edge's
	// child node ID); every array keeps its capacity across borrows.
	edges []edgeIndex
	// roots and pathRoots are mergePathSolutions' root-candidate lists.
	roots, pathRoots []doc.NodeID
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// maxPooledArena bounds the capacity, in elements, of each solution set or
// edge-pair buffer kept alive in the pool; a pathological query should not
// pin its peak footprint forever.
const maxPooledArena = 1 << 20

func getScratch() *scratch { return scratchPool.Get().(*scratch) }

// release resets every buffer (keeping capacity) and returns s to the pool.
// Callers must not retain anything pointing into s past this call.
func (s *scratch) release() {
	for i := range s.solSets {
		if cap(s.solSets[i]) > maxPooledArena {
			s.solSets[i] = nil
		}
		s.solSets[i] = s.solSets[i][:0]
	}
	s.solBuf = s.solBuf[:0]
	s.chainBuf = s.chainBuf[:0]
	s.nodeStack = s.nodeStack[:0]
	for i := range s.stackSet {
		s.stackSet[i] = s.stackSet[i][:0]
	}
	for i := range s.pathView {
		s.pathView[i] = nil
	}
	for i := range s.edges {
		if cap(s.edges[i].pairs) > maxPooledArena {
			s.edges[i] = edgeIndex{}
		}
		s.edges[i].reset()
	}
	s.roots = s.roots[:0]
	s.pathRoots = s.pathRoots[:0]
	scratchPool.Put(s)
}

// borrowStacks returns n empty stacks whose backing arrays are reused
// across borrows.  The previous borrow must be dead: both users finish with
// their stacks (and every solution expanded from them) before borrowing
// again.
func (s *scratch) borrowStacks(n int) [][]stackEntry {
	for len(s.stackSet) < n {
		s.stackSet = append(s.stackSet, nil)
	}
	set := s.stackSet[:n]
	for i := range set {
		set[i] = set[i][:0]
	}
	return set
}

// borrowSolSets returns n empty solution sets whose arrays are reused
// across borrows; like borrowStacks, the previous borrow must be dead.
func (s *scratch) borrowSolSets(n int) [][]doc.NodeID {
	for len(s.solSets) < n {
		s.solSets = append(s.solSets, nil)
	}
	set := s.solSets[:n]
	for i := range set {
		set[i] = set[i][:0]
	}
	return set
}

// borrowEdges returns n empty edge indexes whose arrays are reused across
// borrows; like borrowStacks, the previous borrow must be dead.
func (s *scratch) borrowEdges(n int) []edgeIndex {
	for len(s.edges) < n {
		s.edges = append(s.edges, edgeIndex{})
	}
	set := s.edges[:n]
	for i := range set {
		set[i].reset()
	}
	return set
}

// borrowPathView returns an n-wide reusable window for expandLeaf.
func (s *scratch) borrowPathView(n int) [][]stackEntry {
	for len(s.pathView) < n {
		s.pathView = append(s.pathView, nil)
	}
	return s.pathView[:n]
}

// borrowSol returns the length-n in-progress solution buffer.
func (s *scratch) borrowSol(n int) []doc.NodeID {
	if cap(s.solBuf) < n {
		s.solBuf = make([]doc.NodeID, n)
	}
	s.solBuf = s.solBuf[:n]
	return s.solBuf
}
