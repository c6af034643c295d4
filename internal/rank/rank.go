// Package rank implements LotusX's answer ranking strategy.  The demo paper
// claims "a new ranking strategy ... to rank the query [answers]
// effectively" without publishing the formula; this is a documented
// reconstruction with the same stated goals.  Each match is scored as
//
//		score = (1 + content) × tightness × (1 + idf)
//
//	  - content rewards similarity between the query's value predicates and
//	    the matched text: exact match > prefix match > token overlap.
//	  - tightness rewards structurally compact matches: every descendant edge
//	    that matches farther apart than a direct child adds slack, and
//	    tightness = 1/(1+slack).  Among answers satisfying the same twig,
//	    the ones mirroring the query's shape most closely rank first.
//	  - idf rewards matches on rarer predicate terms, normalized to [0, 1).
//
// Ties break by document order, making rankings deterministic.
package rank

import (
	"context"
	"math"
	"sort"
	"strings"

	"lotusx/internal/index"
	"lotusx/internal/join"
	"lotusx/internal/obs"
	"lotusx/internal/twig"
)

// Scored is a match with its score and component breakdown (for Explain
// views in the GUI).
type Scored struct {
	Match     join.Match
	Score     float64
	Content   float64 // content similarity component in [0,1]
	Tightness float64 // structural tightness in (0,1]
	IDF       float64 // normalized rarity component in [0,1)
}

// Ranker scores matches over one index.
type Ranker struct {
	ix *index.Index
}

// New returns a Ranker over ix.
func New(ix *index.Index) *Ranker { return &Ranker{ix: ix} }

// RankContext is Rank under a context: when the context carries a trace, the
// scoring pass is recorded as a "rank" span with its input and output sizes.
// Ranking itself is not cancellable — it is pure CPU over already-enumerated
// matches and bounded by them.
func (r *Ranker) RankContext(ctx context.Context, q *twig.Query, matches []join.Match, k int) []Scored {
	sp := obs.StartLeaf(ctx, "rank")
	out := r.Rank(q, matches, k)
	sp.SetInt("matches", len(matches))
	sp.SetInt("ranked", len(out))
	sp.End()
	return out
}

// Rank scores all matches and returns the top k (all when k <= 0), best
// first.
func (r *Ranker) Rank(q *twig.Query, matches []join.Match, k int) []Scored {
	// idf depends on the query alone: compute it once, not per match.
	idf := r.idf(q)
	out := make([]Scored, 0, len(matches))
	for _, m := range matches {
		out = append(out, r.score(q, m, idf))
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		// Document order of the output node, then of the whole tuple.
		a, b := out[i].Match, out[j].Match
		for idx := range a {
			if a[idx] != b[idx] {
				return a[idx] < b[idx]
			}
		}
		return false
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}

// Score computes the full score breakdown of one match.
func (r *Ranker) Score(q *twig.Query, m join.Match) Scored {
	return r.score(q, m, r.idf(q))
}

// score is Score with the query-level idf component precomputed.
func (r *Ranker) score(q *twig.Query, m join.Match, idf float64) Scored {
	s := Scored{
		Match:     m,
		Content:   r.contentSim(q, m),
		Tightness: r.tightness(q, m),
		IDF:       idf,
	}
	s.Score = (1 + s.Content) * s.Tightness * (1 + s.IDF)
	return s
}

// contentSim averages the per-predicate similarity between the predicate
// operand and the matched node's value.  Matches of predicate-free queries
// score 0 (the component is neutral).
func (r *Ranker) contentSim(q *twig.Query, m join.Match) float64 {
	d := r.ix.Document()
	var total float64
	var n int
	for _, qn := range q.Nodes() {
		if qn.Pred.Op == twig.NoPred {
			continue
		}
		n++
		total += valueSimilarity(strings.ToLower(qn.Pred.Value), strings.ToLower(d.Value(m[qn.ID])))
	}
	if n == 0 {
		return 0
	}
	return total / float64(n)
}

// valueSimilarity grades how well a matched value satisfies the predicate
// operand: 1 for equality, 0.8 for a prefix, token Jaccard otherwise.
func valueSimilarity(pred, value string) float64 {
	pred = strings.TrimSpace(pred)
	value = strings.TrimSpace(value)
	if pred == value {
		return 1
	}
	if strings.HasPrefix(value, pred) {
		return 0.8
	}
	pt := index.Tokenize(pred)
	vt := index.Tokenize(value)
	if len(pt) == 0 || len(vt) == 0 {
		return 0
	}
	set := make(map[string]struct{}, len(pt))
	for _, t := range pt {
		set[t] = struct{}{}
	}
	inter := 0
	vset := make(map[string]struct{}, len(vt))
	for _, t := range vt {
		if _, dup := vset[t]; dup {
			continue
		}
		vset[t] = struct{}{}
		if _, ok := set[t]; ok {
			inter++
		}
	}
	union := len(set) + len(vset) - inter
	return float64(inter) / float64(union)
}

// tightness computes 1/(1+slack) where slack sums, over all query edges,
// how many levels beyond a direct child the match stretches.
func (r *Ranker) tightness(q *twig.Query, m join.Match) float64 {
	d := r.ix.Document()
	slack := 0
	for _, qn := range q.Nodes() {
		p := qn.Parent()
		if p == nil {
			continue
		}
		lp := d.Region(m[p.ID]).Level
		lc := d.Region(m[qn.ID]).Level
		slack += int(lc - lp - 1)
	}
	return 1 / (1 + float64(slack))
}

// idf averages ln(1 + N/df) over the query's predicate tokens and squashes
// to [0,1).  Queries without predicates get 0 (neutral).
func (r *Ranker) idf(q *twig.Query) float64 {
	n := float64(r.ix.ValuedNodes())
	var total float64
	var count int
	for _, qn := range q.Nodes() {
		if qn.Pred.Op == twig.NoPred {
			continue
		}
		for _, tok := range index.Tokenize(qn.Pred.Value) {
			df := float64(r.ix.DF(tok))
			total += math.Log1p(n / (1 + df))
			count++
		}
	}
	if count == 0 {
		return 0
	}
	avg := total / float64(count)
	return avg / (1 + avg)
}
