package trie

import (
	"sort"
	"strings"
	"unicode/utf8"
)

// FuzzyComplete returns words whose prefix is within edit distance maxDist
// of the query prefix, heaviest first, at most k.  It powers LotusX's
// tolerance to typos while the user grows a query node: "athor" still
// suggests "author".  Exact-prefix matches sort before fuzzy ones of equal
// weight (distance is a secondary key).
//
// The search runs the classic trie × dynamic-programming-row algorithm over
// the virtual trie of the sorted words: a node is the range of words sharing
// a prefix, its children are the sub-ranges split by the next rune, and each
// edge extends a Levenshtein row against the query; branches whose row
// minimum exceeds maxDist (and hold no settled hit) are pruned.
func (t *Trie) FuzzyComplete(prefix string, maxDist, k int) []Entry {
	if k <= 0 {
		return nil
	}
	if maxDist <= 0 {
		return t.Complete(prefix, k)
	}
	t.Freeze()
	q := []rune(prefix)
	row := make([]int, len(q)+1)
	for i := range row {
		row[i] = i
	}
	type hit struct {
		Entry
		dist int
	}
	var hits []hit

	// The prefix edit distance of a word w is min over w's prefixes p of
	// levenshtein(q, p); at each trie node it equals the minimum of
	// row[len(q)] along the root path so far ("best").  Because row minima
	// are nondecreasing as the path extends, once minOf(row) >= best the
	// distance of every word below is settled at best and the subtree can be
	// emitted wholesale; otherwise we keep descending to find improvements.
	// The node at byte depth off is the word range [lo, hi).
	var walk func(off, lo, hi int, prev []int, best int)
	walk = func(off, lo, hi int, prev []int, best int) {
		if d := prev[len(q)]; d < best {
			best = d
		}
		m := minOf(prev)
		if best == 0 || m >= best {
			if best <= maxDist {
				for _, e := range t.topK(lo, hi, k) {
					hits = append(hits, hit{e, best})
				}
			}
			return
		}
		if m > maxDist {
			return // best > m > maxDist: nothing below can qualify
		}
		i := lo
		if len(t.words[i]) == off {
			// The node's own word sorts first in its range.
			if best <= maxDist {
				hits = append(hits, hit{t.entry(int32(i)), best})
			}
			i++
		}
		cur := make([]int, len(q)+1)
		for i < hi {
			r, size := utf8.DecodeRuneInString(t.words[i][off:])
			edge := t.words[i][off : off+size]
			end := i + sort.Search(hi-i, func(j int) bool { return !strings.HasPrefix(t.words[i+j][off:], edge) })
			cur[0] = prev[0] + 1
			for j := 1; j <= len(q); j++ {
				cost := 1
				if q[j-1] == r {
					cost = 0
				}
				cur[j] = min(prev[j]+1, min(cur[j-1]+1, prev[j-1]+cost))
			}
			walk(off+size, i, end, cur, best)
			i = end
		}
	}
	if len(t.words) > 0 {
		walk(0, 0, len(t.words), row, len(q)+1)
	}

	sort.SliceStable(hits, func(i, j int) bool {
		if hits[i].dist != hits[j].dist {
			return hits[i].dist < hits[j].dist
		}
		if hits[i].Weight != hits[j].Weight {
			return hits[i].Weight > hits[j].Weight
		}
		return hits[i].Word < hits[j].Word
	})
	if len(hits) > k {
		hits = hits[:k]
	}
	out := make([]Entry, len(hits))
	for i, h := range hits {
		out[i] = h.Entry
	}
	return out
}

func minOf(xs []int) int {
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}
