package trie

import (
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
)

// refEntry is one word of the brute-force reference dictionary.
type refEntry struct {
	word   string
	weight int64
	datum  int32
	dist   int
}

// refDict is a map-backed dictionary with Insert's semantics: weights
// accumulate, the first datum sticks.
type refDict map[string]*refEntry

func (r refDict) insert(w string, weight int64, datum int32) {
	if e, ok := r[w]; ok {
		e.weight += weight
		return
	}
	r[w] = &refEntry{word: w, weight: weight, datum: datum}
}

// top sorts candidates by (distance, weight descending, word) and keeps k.
func top(cands []refEntry, k int) []refEntry {
	sort.Slice(cands, func(i, j int) bool {
		a, b := cands[i], cands[j]
		if a.dist != b.dist {
			return a.dist < b.dist
		}
		if a.weight != b.weight {
			return a.weight > b.weight
		}
		return a.word < b.word
	})
	if len(cands) > k {
		cands = cands[:k]
	}
	return cands
}

// refComplete scans every word for the prefix.
func (r refDict) complete(prefix string, k int) []refEntry {
	var cands []refEntry
	for w, e := range r {
		if strings.HasPrefix(w, prefix) {
			cands = append(cands, *e)
		}
	}
	return top(cands, k)
}

// refFuzzy computes each word's prefix edit distance directly — the
// minimum Levenshtein distance between the query and any rune prefix of
// the word — and keeps the words within maxDist.
func (r refDict) fuzzy(prefix string, maxDist, k int) []refEntry {
	q := []rune(prefix)
	var cands []refEntry
	for w, e := range r {
		rw := []rune(w)
		best := len(q) + len(rw)
		for l := 0; l <= len(rw); l++ {
			best = min(best, levenshtein(q, rw[:l]))
		}
		if best <= maxDist {
			c := *e
			c.dist = best
			cands = append(cands, c)
		}
	}
	return top(cands, k)
}

func levenshtein(a, b []rune) int {
	prev := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur := make([]int, len(b)+1)
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			cur[j] = min(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
		}
		prev = cur
	}
	return prev[len(b)]
}

// unicodeWord draws a short word over an alphabet mixing one-, two-, three-
// and four-byte UTF-8 runes, so byte-range boundaries fall inside and
// between multi-byte sequences.
func unicodeWord(rng *rand.Rand, maxLen int) string {
	alphabet := []rune{'a', 'b', 'z', 'é', 'ß', 'ж', '日', '本', '😀', '𝄞'}
	var b strings.Builder
	for n := rng.Intn(maxLen + 1); n > 0; n-- {
		b.WriteRune(alphabet[rng.Intn(len(alphabet))])
	}
	return b.String()
}

func sameEntries(got []Entry, want []refEntry) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range want {
		if got[i].Word != want[i].word || got[i].Weight != want[i].weight || got[i].Datum != want[i].datum {
			return false
		}
	}
	return true
}

// TestCompleteMatchesBruteForceUnicode checks Complete against a full scan
// over random Unicode words.  Weights come from a tiny range, so ties at
// the k-th entry are the common case: the lexicographic tie-break decides
// which of the equally heavy words make the cut.
func TestCompleteMatchesBruteForceUnicode(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ties := 0
	for trial := 0; trial < 400; trial++ {
		tr, ref := New(), refDict{}
		for n := rng.Intn(120); n > 0; n-- {
			w := unicodeWord(rng, 5)
			weight, datum := int64(1+rng.Intn(3)), int32(rng.Intn(1000))
			tr.Insert(w, weight, datum)
			ref.insert(w, weight, datum)
		}
		for probe := 0; probe < 8; probe++ {
			prefix := unicodeWord(rng, 2)
			k := 1 + rng.Intn(10)
			want := ref.complete(prefix, k)
			if all := ref.complete(prefix, k+1); len(all) == k+1 && all[k].weight == all[k-1].weight {
				ties++
			}
			if got := tr.Complete(prefix, k); !sameEntries(got, want) {
				t.Fatalf("trial %d: Complete(%q, %d) = %v, want %v", trial, prefix, k, got, want)
			}
		}
	}
	if ties < 100 {
		t.Fatalf("only %d probes tied at the k-th entry; the test lost its point", ties)
	}
}

// TestFuzzyCompleteMatchesBruteForceUnicode checks FuzzyComplete against
// direct prefix-edit-distance computation over random Unicode words, for
// budgets 1 and 2 (budget 0 delegates to Complete).
func TestFuzzyCompleteMatchesBruteForceUnicode(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		tr, ref := New(), refDict{}
		for n := rng.Intn(80); n > 0; n-- {
			w := unicodeWord(rng, 5)
			weight, datum := int64(1+rng.Intn(3)), int32(rng.Intn(1000))
			tr.Insert(w, weight, datum)
			ref.insert(w, weight, datum)
		}
		for probe := 0; probe < 6; probe++ {
			prefix := unicodeWord(rng, 3)
			maxDist, k := 1+rng.Intn(2), 1+rng.Intn(12)
			want := ref.fuzzy(prefix, maxDist, k)
			if got := tr.FuzzyComplete(prefix, maxDist, k); !sameEntries(got, want) {
				t.Fatalf("trial %d: FuzzyComplete(%q, %d, %d) = %v, want %v", trial, prefix, maxDist, k, got, want)
			}
		}
	}
}

// TestInsertAfterReadRefreezes: reads freeze the dictionary on demand, and
// a later Insert thaws it — the new word and the accumulated weight must
// both be visible to the next read.
func TestInsertAfterReadRefreezes(t *testing.T) {
	tr := New()
	tr.Insert("beta", 1, 1)
	tr.Insert("alpha", 2, 2)
	if got := tr.Complete("", 5); len(got) != 2 || got[0].Word != "alpha" {
		t.Fatalf("first read = %v", got)
	}
	tr.Insert("beta", 5, 9)
	tr.Insert("gamma", 3, 3)
	got := tr.Complete("", 5)
	want := []Entry{{"beta", 6, 1}, {"gamma", 3, 3}, {"alpha", 2, 2}}
	if len(got) != len(want) {
		t.Fatalf("after re-insert = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("after re-insert = %v, want %v", got, want)
		}
	}
}

// TestConcurrentFirstReads: the first reads after the last Insert may race
// to freeze the dictionary; exactly one freezes, and every reader sees the
// frozen arrays (run under -race).
func TestConcurrentFirstReads(t *testing.T) {
	tr := New()
	for i, w := range []string{"delta", "alpha", "charlie", "bravo", "alpine"} {
		tr.Insert(w, int64(i+1), int32(i))
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := tr.Complete("al", 5); len(got) != 2 || got[0].Word != "alpine" {
				t.Errorf("Complete(al) = %v", got)
			}
			if tr.Len() != 5 || !tr.Contains("bravo") {
				t.Errorf("Len/Contains wrong")
			}
		}()
	}
	wg.Wait()
}
