// Package rewrite implements LotusX's query rewriting solution: when a twig
// query returns few or no answers — a mistyped tag, an over-constrained
// value, a wrong axis — the engine enumerates relaxed variants in increasing
// order of a penalty, so the caller can evaluate them until enough answers
// accumulate.  Every answer produced through a rewrite is annotated with the
// relaxations applied.
//
// Relaxation rules (single steps, freely composable by the best-first
// search):
//
//	value-contains  [t = "v"]   -> [t contains "v"]      penalty 0.5
//	value-drop      [t contains "v"] -> [t]              penalty 1.0
//	axis-relax      /t          -> //t                   penalty 0.3
//	tag-substitute  mistyped tag -> a tag that occurs at the same position
//	                (DataGuide siblings/context), scaled by name distance
//	tag-wildcard    t           -> *                     penalty 1.2
//	leaf-delete     drop a non-output leaf               penalty 1.5
package rewrite

import (
	"container/heap"
	"context"
	"sort"
	"strings"

	"lotusx/internal/dataguide"
	"lotusx/internal/doc"
	"lotusx/internal/index"
	"lotusx/internal/obs"
	"lotusx/internal/twig"
)

// Rule identifies a relaxation rule.
type Rule string

// The relaxation rules.
const (
	ValueContains Rule = "value-contains"
	ValueDrop     Rule = "value-drop"
	AxisRelax     Rule = "axis-relax"
	TagSubstitute Rule = "tag-substitute"
	TagWildcard   Rule = "tag-wildcard"
	LeafDelete    Rule = "leaf-delete"
)

// Penalties holds the per-rule base penalties.  DefaultPenalties reflects
// how surprising each relaxation is to a user.
type Penalties map[Rule]float64

// DefaultPenalties is the penalty model used when none is supplied.
func DefaultPenalties() Penalties {
	return Penalties{
		ValueContains: 0.5,
		ValueDrop:     1.0,
		AxisRelax:     0.3,
		TagSubstitute: 0.8,
		TagWildcard:   1.2,
		LeafDelete:    1.5,
	}
}

// Applied records one relaxation applied to a query.
type Applied struct {
	Rule   Rule
	NodeID int    // preorder ID in the query the rule was applied to
	Detail string // human-readable, e.g. `tag "writer" -> "author"`
}

// Rewrite is one relaxed query variant.
type Rewrite struct {
	Query   *twig.Query
	Penalty float64
	Applied []Applied
}

// Engine enumerates rewrites over one indexed document.
type Engine struct {
	ix        *index.Index
	guide     *dataguide.Guide
	penalties Penalties
	// maxSubstitutes bounds how many substitute tags each mistyped tag
	// fans out to.
	maxSubstitutes int
}

// New returns an Engine with the default penalty model.
func New(ix *index.Index, guide *dataguide.Guide) *Engine {
	return &Engine{ix: ix, guide: guide, penalties: DefaultPenalties(), maxSubstitutes: 3}
}

// SetPenalties overrides the penalty model (ablation benches use this).
func (e *Engine) SetPenalties(p Penalties) { e.penalties = p }

// EnumerateContext is Enumerate under a context: when the context carries a
// trace, the best-first relaxation search is recorded as a
// "rewrite:enumerate" span with the number of candidates it produced.
func (e *Engine) EnumerateContext(ctx context.Context, q *twig.Query, maxPenalty float64, limit int) []Rewrite {
	sp := obs.StartLeaf(ctx, "rewrite:enumerate")
	out := e.Enumerate(q, maxPenalty, limit)
	sp.SetInt("candidates", len(out))
	sp.End()
	return out
}

// Enumerate returns up to limit rewrites of q with penalty at most
// maxPenalty, cheapest first, excluding q itself.  The search is best-first
// over compositions of single-rule steps; distinct step sequences can derive
// the same query, so results are deduplicated by rendered query text keeping
// the cheapest derivation (a re-push replaces a costlier queued one, and
// stale queue entries are dropped at pop time — Dijkstra without
// decrease-key).
func (e *Engine) Enumerate(q *twig.Query, maxPenalty float64, limit int) []Rewrite {
	if limit <= 0 {
		return nil
	}
	best := map[string]float64{q.String(): 0}
	pq := &rewriteQueue{}
	push := func(rw Rewrite) {
		if rw.Penalty > maxPenalty {
			return
		}
		key := rw.Query.String()
		if prev, ok := best[key]; ok && prev <= rw.Penalty {
			return
		}
		best[key] = rw.Penalty
		heap.Push(pq, queued{rw: rw, key: key})
	}
	// Substitution candidates depend only on a node's position and tag, and
	// relaxed variants share most positions with their origin; the memo
	// lives for this call only, so concurrent calls share nothing.
	subs := make(map[string][]subCandidate)
	for _, rw := range e.expand(Rewrite{Query: q}, subs) {
		push(rw)
	}
	emitted := make(map[string]struct{})
	var out []Rewrite
	for pq.Len() > 0 && len(out) < limit {
		it := heap.Pop(pq).(queued)
		if it.rw.Penalty > best[it.key] {
			continue // superseded by a cheaper derivation
		}
		if _, dup := emitted[it.key]; dup {
			continue
		}
		emitted[it.key] = struct{}{}
		out = append(out, it.rw)
		for _, next := range e.expand(it.rw, subs) {
			push(next)
		}
	}
	return out
}

// expand produces all single-step relaxations of rw; subs memoizes
// substitution candidates by position (see substitutions).
func (e *Engine) expand(rw Rewrite, subs map[string][]subCandidate) []Rewrite {
	var out []Rewrite
	q := rw.Query
	for _, qn := range q.Nodes() {
		id := qn.ID
		switch qn.Pred.Op {
		case twig.Eq:
			out = append(out, e.derive(rw, id, ValueContains,
				`"`+qn.Pred.Value+`": = -> contains`,
				func(n *twig.Node) { n.Pred.Op = twig.Contains }))
		case twig.Contains:
			out = append(out, e.derive(rw, id, ValueDrop,
				`drop value "`+qn.Pred.Value+`"`,
				func(n *twig.Node) { n.Pred = twig.Pred{} }))
		}
		if qn.Axis == twig.Child && qn.Parent() != nil {
			out = append(out, e.derive(rw, id, AxisRelax,
				qn.Tag+": / -> //",
				func(n *twig.Node) { n.Axis = twig.Descendant }))
		}
		if !qn.IsWildcard() {
			out = append(out, e.substitutions(rw, qn, subs)...)
			out = append(out, e.derive(rw, id, TagWildcard,
				qn.Tag+" -> *",
				func(n *twig.Node) { n.Tag = twig.Wildcard }))
		}
		if qn.IsLeaf() && !qn.Output && qn.Parent() != nil {
			out = append(out, e.deleteLeaf(rw, qn))
		}
	}
	return out
}

// derive clones rw's query, applies mutate to the node with the given ID,
// renormalizes and extends the provenance.
func (e *Engine) derive(rw Rewrite, nodeID int, rule Rule, detail string, mutate func(*twig.Node)) Rewrite {
	nq := rw.Query.Clone()
	mutate(nq.Node(nodeID))
	if err := nq.Normalize(); err != nil {
		// Mutations keep the tree well-formed; a failure is a programming
		// error.
		panic("rewrite: derived query failed to normalize: " + err.Error())
	}
	return Rewrite{
		Query:   nq,
		Penalty: rw.Penalty + e.penalties[rule],
		Applied: appendApplied(rw.Applied, Applied{Rule: rule, NodeID: nodeID, Detail: detail}),
	}
}

// substitutions proposes position-feasible replacement tags for qn, ranked
// by name distance; the penalty grows with the distance.  Candidates are
// looked up in subs under qn's position key and computed on a miss.
func (e *Engine) substitutions(rw Rewrite, qn *twig.Node, subs map[string][]subCandidate) []Rewrite {
	key := positionKey(qn)
	candidates, ok := subs[key]
	if !ok {
		candidates = e.substituteTags(rw.Query, qn)
		subs[key] = candidates
	}
	out := make([]Rewrite, 0, len(candidates))
	for _, c := range candidates {
		out = append(out, e.deriveSub(rw, qn.ID, c.name, c.dist))
	}
	return out
}

// positionKey renders exactly what substituteTags reads of qn: the axis and
// tag of every node on its parent's root path, then qn's own axis and tag.
// A root node has an empty parent path, which no non-root node has.
func positionKey(qn *twig.Node) string {
	var chain []*twig.Node
	for cur := qn.Parent(); cur != nil; cur = cur.Parent() {
		chain = append(chain, cur)
	}
	var b strings.Builder
	for i := len(chain) - 1; i >= 0; i-- {
		writeStep(&b, chain[i])
	}
	b.WriteByte(0)
	writeStep(&b, qn)
	return b.String()
}

func writeStep(b *strings.Builder, n *twig.Node) {
	if n.Axis == twig.Child {
		b.WriteByte('/')
	} else {
		b.WriteString("//")
	}
	b.WriteString(n.Tag)
}

func (e *Engine) deriveSub(rw Rewrite, nodeID int, tag string, dist int) Rewrite {
	old := rw.Query.Node(nodeID).Tag
	r := e.derive(rw, nodeID, TagSubstitute,
		`tag "`+old+`" -> "`+tag+`"`,
		func(n *twig.Node) { n.Tag = tag })
	r.Penalty += 0.1 * float64(dist)
	return r
}

type subCandidate struct {
	name string
	dist int
}

// substituteTags lists tags that occur at qn's position (its parent's
// feasible child/descendant tags per the DataGuide; for the root, any tag),
// ordered by edit distance to qn's current tag, nearest first, capped.
func (e *Engine) substituteTags(q *twig.Query, qn *twig.Node) []subCandidate {
	dict := e.ix.Document().Tags()
	feasible := make(map[doc.TagID]int)
	if p := qn.Parent(); p != nil {
		contexts := e.guide.FindContext(contextSteps(q, p))
		if len(contexts) > 0 {
			feasible = e.guide.CandidateTags(contexts, qn.Axis)
		}
	} else {
		root := e.guide.Root()
		feasible[root.Tag] = root.Count
		if qn.Axis == twig.Descendant {
			for t, c := range root.SubtreeTagCounts() {
				feasible[t] += c
			}
		}
	}
	var cands []subCandidate
	for tag := range feasible {
		name := dict.Name(tag)
		if name == qn.Tag {
			continue
		}
		d := editDistance(strings.ToLower(name), strings.ToLower(qn.Tag))
		cands = append(cands, subCandidate{name: name, dist: d})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].dist != cands[j].dist {
			return cands[i].dist < cands[j].dist
		}
		return cands[i].name < cands[j].name
	})
	if len(cands) > e.maxSubstitutes {
		cands = cands[:e.maxSubstitutes]
	}
	return cands
}

// contextSteps converts the root-to-node chain into DataGuide steps.
func contextSteps(q *twig.Query, n *twig.Node) []dataguide.Step {
	var chain []*twig.Node
	for cur := n; cur != nil; cur = cur.Parent() {
		chain = append(chain, cur)
	}
	steps := make([]dataguide.Step, 0, len(chain))
	for i := len(chain) - 1; i >= 0; i-- {
		steps = append(steps, dataguide.Step{Axis: chain[i].Axis, Tag: chain[i].Tag})
	}
	return steps
}

// deleteLeaf clones the query without the given leaf.
func (e *Engine) deleteLeaf(rw Rewrite, leaf *twig.Node) Rewrite {
	nq := rw.Query.Clone()
	target := nq.Node(leaf.ID)
	parent := target.Parent()
	kids := parent.Children[:0]
	for _, c := range parent.Children {
		if c != target {
			kids = append(kids, c)
		}
	}
	parent.Children = kids
	// Order constraints referencing the deleted node (or any node whose ID
	// shifts) are re-resolved by position: drop constraints touching the
	// removed subtree and remap the rest.
	nq.Order = remapOrder(rw.Query, nq, leaf.ID)
	if err := nq.Normalize(); err != nil {
		panic("rewrite: leaf deletion broke the query: " + err.Error())
	}
	return Rewrite{
		Query:   nq,
		Penalty: rw.Penalty + e.penalties[LeafDelete],
		Applied: appendApplied(rw.Applied, Applied{Rule: LeafDelete, NodeID: leaf.ID, Detail: "drop leaf " + leaf.Tag}),
	}
}

// remapOrder translates order constraints after removing the leaf with
// preorder ID removed: constraints touching it are dropped; IDs above shift
// down by one.
func remapOrder(old, _ *twig.Query, removed int) []twig.OrderConstraint {
	var out []twig.OrderConstraint
	for _, oc := range old.Order {
		if oc.Before == removed || oc.After == removed {
			continue
		}
		b, a := oc.Before, oc.After
		if b > removed {
			b--
		}
		if a > removed {
			a--
		}
		out = append(out, twig.OrderConstraint{Before: b, After: a})
	}
	return out
}

func appendApplied(prev []Applied, next Applied) []Applied {
	out := make([]Applied, 0, len(prev)+1)
	out = append(out, prev...)
	return append(out, next)
}

// editDistance is the full Levenshtein distance (strings are tag names,
// always short).
func editDistance(a, b string) int {
	ra, rb := []rune(a), []rune(b)
	prev := make([]int, len(rb)+1)
	cur := make([]int, len(rb)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(ra); i++ {
		cur[0] = i
		for j := 1; j <= len(rb); j++ {
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
			}
			cur[j] = min(prev[j]+1, min(cur[j-1]+1, prev[j-1]+cost))
		}
		prev, cur = cur, prev
	}
	return prev[len(rb)]
}

// queued is one rewrite waiting in the search queue, with its rendered
// query text computed once at push time: the dedup key and the heap's
// tie-breaker.
type queued struct {
	rw  Rewrite
	key string
}

// rewriteQueue is a min-heap on penalty with deterministic tie-breaking by
// rendered query text.
type rewriteQueue []queued

func (q rewriteQueue) Len() int { return len(q) }
func (q rewriteQueue) Less(i, j int) bool {
	if q[i].rw.Penalty != q[j].rw.Penalty {
		return q[i].rw.Penalty < q[j].rw.Penalty
	}
	return q[i].key < q[j].key
}
func (q rewriteQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *rewriteQueue) Push(x any)   { *q = append(*q, x.(queued)) }
func (q *rewriteQueue) Pop() any {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}
