package join

import (
	"lotusx/internal/doc"
	"lotusx/internal/index"
	"lotusx/internal/twig"
)

// stackEntry is one element on an algorithm stack: the document node plus
// the index of the top of the parent query node's stack at push time.  The
// entries at or below ptr in the parent stack are exactly this node's
// stacked ancestors.
type stackEntry struct {
	node doc.NodeID
	ptr  int
}

// rootPaths decomposes the query into its root-to-leaf paths.
func rootPaths(q *twig.Query) [][]*twig.Node {
	var paths [][]*twig.Node
	var walk func(n *twig.Node, prefix []*twig.Node)
	walk = func(n *twig.Node, prefix []*twig.Node) {
		prefix = append(prefix, n)
		if n.IsLeaf() {
			paths = append(paths, append([]*twig.Node(nil), prefix...))
			return
		}
		for _, c := range n.Children {
			walk(c, prefix)
		}
	}
	walk(q.Root, nil)
	return paths
}

// expandPath enumerates every root-to-leaf solution encoded by the stack
// chain ending at stacks[len(path)-1][leafIdx].  Parent-child edges are
// enforced here (stacks only guarantee ancestor-descendant).  Solutions are
// emitted root-first.
func (ev *evaluator) expandPath(path []*twig.Node, stacks [][]stackEntry, leafIdx int, emit func(sol []doc.NodeID)) {
	d := ev.ix.Document()
	sol := ev.scr.borrowSol(len(path))
	var rec func(i, idx int)
	rec = func(i, idx int) {
		if !ev.tick() {
			return
		}
		sol[i] = stacks[i][idx].node
		if i == 0 {
			emit(sol)
			return
		}
		limit := stacks[i][idx].ptr
		for j := 0; j <= limit; j++ {
			if path[i].Axis == twig.Child &&
				!d.Region(stacks[i-1][j].node).IsParent(d.Region(sol[i])) {
				continue
			}
			rec(i-1, j)
		}
	}
	rec(len(path)-1, leafIdx)
}

// pathSolutions stores the emitted root-to-leaf solutions of one path,
// flat: solution i is sols[i*len(path) : (i+1)*len(path)], root first.
type pathSolutions struct {
	path []*twig.Node
	sols []doc.NodeID
}

// count returns the number of solutions stored.
func (ps *pathSolutions) count() int { return len(ps.sols) / len(ps.path) }

// runPathStack evaluates the twig by running the PathStack algorithm once
// per root-to-leaf path and merging the per-path solutions.  Each run prunes
// only with its own path's constraints, so paths sharing a branching node
// can emit solutions that no full twig match extends — the intermediate
// blow-up experiment E3 quantifies against TwigStack.
func (ev *evaluator) runPathStack() error {
	paths := rootPaths(ev.q)
	sets := ev.scr.borrowSolSets(len(paths))
	all := make([]pathSolutions, len(paths))
	for i, path := range paths {
		if ev.err != nil {
			return ev.err
		}
		all[i] = pathSolutions{path: path, sols: sets[i]}
		ev.pathStackOne(path, &all[i])
		sets[i] = all[i].sols // hand the grown capacity back to the pool
		ev.stats.PathSolutions += all[i].count()
	}
	ev.mergePathSolutions(all)
	return nil
}

// pathStackOne runs PathStack (Bruno et al. 2002) over one path.
func (ev *evaluator) pathStackOne(path []*twig.Node, out *pathSolutions) {
	k := len(path)
	streams := make([]*index.Stream, k)
	for i, qn := range path {
		streams[i] = ev.stream(qn.ID)
	}
	stacks := ev.scr.borrowStacks(k)
	leaf := k - 1

	for !streams[leaf].EOF() {
		if !ev.tick() {
			return
		}
		// qmin: the non-exhausted stream whose head starts first.
		qmin := -1
		for i := range streams {
			if streams[i].EOF() {
				continue
			}
			if qmin == -1 || streams[i].Region().Start < streams[qmin].Region().Start {
				qmin = i
			}
		}
		head := streams[qmin].Region()

		// Pop every stack entry that ends before the new head starts; such
		// entries cannot be ancestors of it or of anything later.
		for i := range stacks {
			for len(stacks[i]) > 0 && ev.endOf(stacks[i][len(stacks[i])-1]) < head.Start {
				stacks[i] = stacks[i][:len(stacks[i])-1]
			}
		}

		if qmin == 0 || len(stacks[qmin-1]) > 0 {
			stacks[qmin] = append(stacks[qmin], stackEntry{
				node: streams[qmin].Head(),
				ptr:  len(stackOrNil(stacks, qmin-1)) - 1,
			})
			ev.stats.ElementsPushed++
			if qmin == leaf {
				ev.expandPath(path, stacks, len(stacks[leaf])-1, func(sol []doc.NodeID) {
					out.sols = append(out.sols, sol...)
				})
				stacks[leaf] = stacks[leaf][:len(stacks[leaf])-1]
			}
		}
		streams[qmin].Advance()
		ev.stats.ElementsScanned++
	}
}

func stackOrNil(stacks [][]stackEntry, i int) []stackEntry {
	if i < 0 {
		return nil
	}
	return stacks[i]
}

func (ev *evaluator) endOf(e stackEntry) int32 {
	return ev.ix.Document().Region(e.node).End
}

// mergePathSolutions combines per-path solutions into full twig matches:
// the per-edge (parent, child) pairs observed across solutions feed the
// shared assembly, and root candidates are the intersection of every path's
// root set (a root missing from any path heads no full match).
func (ev *evaluator) mergePathSolutions(all []pathSolutions) {
	edges := ev.scr.borrowEdges(ev.q.Len())
	roots := ev.scr.roots[:0]
	for pi, ps := range all {
		pathRoots := ev.scr.pathRoots[:0]
		w := len(ps.path)
		for s := 0; s < len(ps.sols); s += w {
			if !ev.tick() {
				return
			}
			sol := ps.sols[s : s+w]
			pathRoots = append(pathRoots, sol[0])
			for i := 1; i < w; i++ {
				edges[ps.path[i].ID].add(sol[i-1], sol[i])
			}
		}
		pathRoots = sortUnique(pathRoots)
		if pi == 0 {
			roots = append(roots, pathRoots...)
		} else {
			roots = intersectInto(roots, pathRoots)
		}
		ev.scr.pathRoots = pathRoots
	}
	ev.scr.roots = roots
	for i := range edges {
		if len(edges[i].pairs) > 0 {
			edges[i].freeze()
		}
	}
	ev.assemble(roots, edges)
}
