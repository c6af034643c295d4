package join

import (
	"math"

	"lotusx/internal/doc"
	"lotusx/internal/index"
	"lotusx/internal/twig"
)

// twigState is the running state of one TwigStack evaluation.
type twigState struct {
	ev      *evaluator
	streams []*index.Stream // per query node ID
	stacks  [][]stackEntry  // per query node ID
	// paths lists the query's root-to-leaf paths; pathOf[leafID] is the
	// one ending at that leaf, indexed by query node ID (nil for
	// non-leaves) to keep the per-push lookup off a map.
	paths  [][]*twig.Node
	pathOf [][]*twig.Node
	// sols[leafID] collects the leaf's emitted path solutions, flat (see
	// pathSolutions).
	sols [][]doc.NodeID
	// leaves caches the query's leaves for the per-iteration end check.
	leaves []*twig.Node
}

// runTwigStack evaluates the twig holistically (Bruno, Koudas, Srivastava,
// "Holistic Twig Joins", SIGMOD 2002).  getNext only returns query nodes
// whose head element has a descendant extension in every child stream, so
// for ancestor-descendant-only twigs every emitted root-to-leaf solution is
// part of some full match — the optimality that experiment E3 measures.
// Parent-child edges are enforced during expansion and assembly, where the
// algorithm (like the original) can do extra work; experiment E4 measures
// that.
func (ev *evaluator) runTwigStack() error {
	ts := &twigState{
		ev:      ev,
		streams: make([]*index.Stream, ev.q.Len()),
		stacks:  ev.scr.borrowStacks(ev.q.Len()),
		paths:   rootPaths(ev.q),
		pathOf:  make([][]*twig.Node, ev.q.Len()),
		sols:    ev.scr.borrowSolSets(ev.q.Len()),
		leaves:  ev.q.Leaves(),
	}
	for _, qn := range ev.q.Nodes() {
		ts.streams[qn.ID] = ev.stream(qn.ID)
	}
	for _, path := range ts.paths {
		ts.pathOf[path[len(path)-1].ID] = path
	}

	for !ts.allLeavesDone() {
		if !ev.tick() {
			return ev.err
		}
		qact := ts.getNext(ev.q.Root)
		s := ts.streams[qact.ID]
		if s.EOF() {
			// getNext signals an exhausted subtree by returning its root;
			// reaching the query root this way means nothing is left.
			break
		}
		head := s.Region()
		parent := qact.Parent()
		if parent != nil {
			ts.cleanStack(parent.ID, head.Start)
		}
		if parent == nil || len(ts.stacks[parent.ID]) > 0 {
			ts.cleanStack(qact.ID, head.Start)
			ptr := -1
			if parent != nil {
				ptr = len(ts.stacks[parent.ID]) - 1
			}
			ts.stacks[qact.ID] = append(ts.stacks[qact.ID], stackEntry{node: s.Head(), ptr: ptr})
			ev.stats.ElementsPushed++
			if qact.IsLeaf() {
				path := ts.pathOf[qact.ID]
				ts.expandLeaf(qact, path)
				ts.stacks[qact.ID] = ts.stacks[qact.ID][:len(ts.stacks[qact.ID])-1]
			}
		}
		s.Advance()
		ev.stats.ElementsScanned++
	}

	ts.merge()
	return nil
}

// expandLeaf emits the path solutions encoded by the just-pushed top of the
// leaf's stack.  The leaf's chain spans the stacks of the query nodes on
// its root path, which is exactly the layout expandPath expects.
func (ts *twigState) expandLeaf(leaf *twig.Node, path []*twig.Node) {
	stacks := ts.ev.scr.borrowPathView(len(path))
	for i, qn := range path {
		stacks[i] = ts.stacks[qn.ID]
	}
	ts.ev.expandPath(path, stacks, len(stacks[len(path)-1])-1, func(sol []doc.NodeID) {
		ts.sols[leaf.ID] = append(ts.sols[leaf.ID], sol...)
		ts.ev.stats.PathSolutions++
	})
}

// cleanStack pops entries of query node qid's stack that end before start;
// they cannot contain the next element or anything after it.
func (ts *twigState) cleanStack(qid int, start int32) {
	st := ts.stacks[qid]
	for len(st) > 0 && ts.ev.endOf(st[len(st)-1]) < start {
		st = st[:len(st)-1]
	}
	ts.stacks[qid] = st
}

// allLeavesDone reports whether every leaf stream is exhausted — the
// paper's end(q) condition.
func (ts *twigState) allLeavesDone() bool {
	for _, leaf := range ts.leaves {
		if !ts.streams[leaf.ID].EOF() {
			return false
		}
	}
	return true
}

// headStart returns the start tick of a stream's head, or +inf at EOF so
// exhausted streams lose every minimum and win every maximum.
func (ts *twigState) headStart(qid int) int32 {
	s := ts.streams[qid]
	if s.EOF() {
		return math.MaxInt32
	}
	return s.Region().Start
}

// getNext returns the query node to process next: a node whose head element
// is guaranteed to have descendant extensions in every child stream (the
// paper's Algorithm 2), or — our explicit convention — a node with an
// exhausted stream to signal that its whole subtree is drained.
func (ts *twigState) getNext(qn *twig.Node) *twig.Node {
	if qn.IsLeaf() {
		return qn
	}
	var qmin, qmax *twig.Node
	for _, qc := range qn.Children {
		r := ts.getNext(qc)
		if r != qc {
			return r
		}
		if qmin == nil || ts.headStart(qc.ID) < ts.headStart(qmin.ID) {
			qmin = qc
		}
		if qmax == nil || ts.headStart(qc.ID) > ts.headStart(qmax.ID) {
			qmax = qc
		}
	}
	// Discard own elements that end before the latest child head starts:
	// they cannot contain a future element of that child, and all their
	// descendants in the other child streams were already processed.
	own := ts.streams[qn.ID]
	maxStart := ts.headStart(qmax.ID)
	for !own.EOF() && own.Region().End < maxStart {
		if !ts.ev.tick() {
			break
		}
		own.Advance()
		ts.ev.stats.ElementsScanned++
	}
	if !own.EOF() && own.Region().Start < ts.headStart(qmin.ID) {
		return qn
	}
	if ts.streams[qmin.ID].EOF() {
		// Every child subtree is exhausted (their heads are all +inf), and
		// the loop above drained our own stream: signal exhaustion upward.
		return qn
	}
	return qmin
}

// merge assembles full twig matches from the per-leaf path solutions,
// sharing mergePathSolutions with PathStack.
func (ts *twigState) merge() {
	all := make([]pathSolutions, len(ts.paths))
	for i, path := range ts.paths {
		all[i] = pathSolutions{path: path, sols: ts.sols[path[len(path)-1].ID]}
	}
	ts.ev.mergePathSolutions(all)
}
