package join

import (
	"slices"

	"lotusx/internal/doc"
	"lotusx/internal/twig"
)

// runTJFast implements TJFast (Lu, Ling, Chan, Chen, "From Region Encoding
// to Extended Dewey", VLDB 2005) — the leaf-streams-only twig join from the
// LotusX authors' own lineage.  Only the streams of the query's *leaf* nodes
// are read; each leaf element's root-to-leaf tag path is recovered and
// aligned against the query path, directly yielding that leaf's path
// solutions, which the shared merge phase assembles into full matches.
//
// The original reads the tag path out of the extended Dewey label via the
// DTD's finite state transducer so it never touches ancestor nodes on disk;
// our documents are in memory with parent pointers, so the path walk is the
// equivalent O(depth) operation (DESIGN.md records the substitution).  The
// advantage TJFast keeps here is what E2 measures: internal query nodes
// contribute no stream scans at all, which dominates when internal tags are
// frequent (//S//NP//NN reads only the NN stream).
func (ev *evaluator) runTJFast() error {
	paths := rootPaths(ev.q)
	sets := ev.scr.borrowSolSets(len(paths))
	all := make([]pathSolutions, len(paths))
	for i, path := range paths {
		leaf := path[len(path)-1]
		ps := &all[i]
		*ps = pathSolutions{path: path, sols: sets[i]}
		for _, e := range ev.nodes[leaf.ID] {
			if !ev.tick() {
				return ev.err
			}
			ev.stats.ElementsScanned++
			ev.alignLeaf(path, e, ps)
		}
		sets[i] = ps.sols // hand the grown capacity back to the pool
		ev.stats.PathSolutions += ps.count()
	}
	ev.mergePathSolutions(all)
	return nil
}

// alignLeaf enumerates every alignment of the query path onto the root path
// of leaf element e and appends the resulting path solutions.  The tag path
// is decoded from e's extended Dewey label (pure arithmetic over the
// transducer, the TJFast signature move); the parent-pointer walk only
// recovers the ancestors' identities for the output tuples.
func (ev *evaluator) alignLeaf(path []*twig.Node, e doc.NodeID, out *pathSolutions) {
	d := ev.ix.Document()
	trans, labels := ev.ix.ExtDewey()
	tagPath, err := trans.DecodeTags(labels.At(e))
	if err != nil {
		// Labels are built from this very document; decoding cannot fail.
		panic("join: extended Dewey decode failed: " + err.Error())
	}

	// Root-to-e node chain (identities for the solution tuples).
	if cap(ev.scr.chainBuf) < len(tagPath) {
		ev.scr.chainBuf = make([]doc.NodeID, len(tagPath))
	}
	chain := ev.scr.chainBuf[:len(tagPath)]
	for cur, i := e, len(chain)-1; cur != doc.None; cur, i = d.Parent(cur), i-1 {
		chain[i] = cur
	}

	k := len(path) - 1
	sol := ev.scr.borrowSol(len(path))
	sol[k] = e

	tags := d.Tags()
	// qualifies reports whether chain[pos] can be bound to query node qi
	// (never the leaf): the tag is checked against the decoded path, then
	// membership in qi's filtered node list, which is in document order.
	qualifies := func(qi, pos int) bool {
		qn := path[qi]
		if !qn.IsWildcard() && tagPath[pos] != tags.ID(qn.Tag) {
			return false
		}
		_, ok := slices.BinarySearch(ev.nodes[qn.ID], chain[pos])
		return ok
	}

	// rec binds query node qi to a chain position strictly below "upper"
	// (the position bound to qi+1), walking from the leaf to the root.
	var rec func(qi, upper int)
	rec = func(qi, upper int) {
		if !ev.tick() {
			return
		}
		if qi < 0 {
			out.sols = append(out.sols, sol...)
			return
		}
		qn := path[qi+1] // the child whose Axis constrains qi's position
		if qn.Axis == twig.Child {
			pos := upper - 1
			if pos < 0 || !qualifies(qi, pos) {
				return
			}
			if qi == 0 && path[0].Axis == twig.Child && pos != 0 {
				return
			}
			sol[qi] = chain[pos]
			rec(qi-1, pos)
			return
		}
		for pos := upper - 1; pos >= 0; pos-- {
			if !qualifies(qi, pos) {
				continue
			}
			if qi == 0 && path[0].Axis == twig.Child && pos != 0 {
				continue
			}
			sol[qi] = chain[pos]
			rec(qi-1, pos)
		}
	}

	// The leaf itself must sit where the query wants it: a rooted
	// single-node query (/tag) was already filtered in buildStreams; for
	// longer paths the leaf can be anywhere, its ancestors constrain it.
	if k == 0 {
		out.sols = append(out.sols, sol...)
		return
	}
	rec(k-1, len(chain)-1)
}
