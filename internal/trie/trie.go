// Package trie implements LotusX's completion dictionaries: weighted word
// sets with top-k prefix completion and bounded-edit-distance (fuzzy)
// completion.  LotusX keeps one dictionary over tag names and one per tag
// over its values; the auto-completion engine intersects dictionary
// candidates with the position-feasible set from the DataGuide.
//
// A Trie is built by Insert and then frozen into byte-sorted parallel arrays
// (words, weights, datums) plus a max-weight segment tree.  For UTF-8, byte
// order is rune order, so every prefix's words form one contiguous range —
// the node of a virtual trie — found by binary search.  Top-k completion is
// best-first over segment-tree ranges: O(k log n), with no per-character
// nodes kept resident.
package trie

import (
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"unicode/utf8"
)

// Entry is a completion result.
type Entry struct {
	Word   string
	Weight int64 // caller-defined weight, typically an occurrence count
	Datum  int32 // caller-defined payload, e.g. a TagID; -1 if unused
}

// Trie is a weighted completion dictionary.  It is not safe for concurrent
// mutation; after the last Insert it is safe for concurrent readers.
// Insert accumulates into a build map; Freeze — or else the first read —
// sorts the words, builds the segment tree and drops the map.
type Trie struct {
	// words, weights and datums are parallel; once frozen, words are
	// byte-sorted and unique.
	words   []string
	weights []int64
	datums  []int32
	// seg is a bottom-up max-weight segment tree over weights: seg[i] for
	// i in [1, n) holds the argmax of its children 2i and 2i+1, where a
	// child j >= n is the leaf of entry j-n (leaves are not stored).
	seg []int32

	// slot maps a word to its index while building; nil once frozen.
	slot  map[string]int32
	dirty atomic.Bool // true between an Insert and the next freeze
	mu    sync.Mutex  // serializes a read-triggered freeze
}

// New returns an empty Trie.
func New() *Trie { return &Trie{} }

// canonical returns s with every invalid UTF-8 byte replaced by U+FFFD, the
// rune a range loop decodes it to; valid strings come back unchanged.
func canonical(s string) string {
	if utf8.ValidString(s) {
		return s
	}
	return string([]rune(s))
}

// Insert adds word with the given weight and payload.  Inserting an existing
// word adds the weight to the stored weight (and keeps the existing payload),
// so repeated insertions accumulate occurrence counts.
func (t *Trie) Insert(word string, weight int64, datum int32) {
	word = canonical(word)
	if t.slot == nil {
		t.slot = make(map[string]int32, len(t.words))
		for i, w := range t.words {
			t.slot[w] = int32(i)
		}
	}
	if i, ok := t.slot[word]; ok {
		t.weights[i] += weight
	} else {
		t.slot[word] = int32(len(t.words))
		t.words = append(t.words, word)
		t.weights = append(t.weights, weight)
		t.datums = append(t.datums, datum)
	}
	t.dirty.Store(true)
}

// Freeze sorts the dictionary into its read-only form and releases the
// build map.  Reads freeze on demand, so calling it is optional; index
// builds call it so the build map never outlives the build.
func (t *Trie) Freeze() {
	if !t.dirty.Load() {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.dirty.Load() {
		return
	}
	order := make([]int32, len(t.words))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int { return strings.Compare(t.words[a], t.words[b]) })
	words := make([]string, len(order))
	weights := make([]int64, len(order))
	datums := make([]int32, len(order))
	for i, j := range order {
		words[i], weights[i], datums[i] = t.words[j], t.weights[j], t.datums[j]
	}
	t.words, t.weights, t.datums = words, weights, datums
	n := len(words)
	t.seg = make([]int32, n)
	for i := n - 1; i >= 1; i-- {
		t.seg[i] = t.better(t.segNode(2*i), t.segNode(2*i+1))
	}
	t.slot = nil
	t.dirty.Store(false)
}

// segNode returns the argmax entry of segment-tree node j.
func (t *Trie) segNode(j int) int32 {
	if n := len(t.words); j >= n {
		return int32(j - n)
	}
	return t.seg[j]
}

// better returns whichever of entries a and b completes first: the heavier,
// or on equal weight the lexicographically smaller (lower index); -1 stands
// for no entry.
func (t *Trie) better(a, b int32) int32 {
	switch {
	case a < 0:
		return b
	case b < 0:
		return a
	case t.weights[b] > t.weights[a], t.weights[b] == t.weights[a] && b < a:
		return b
	}
	return a
}

// argmax returns the best entry in [lo, hi), which must be non-empty.
func (t *Trie) argmax(lo, hi int) int32 {
	best := int32(-1)
	n := len(t.words)
	for l, r := lo+n, hi+n; l < r; l, r = l>>1, r>>1 {
		if l&1 == 1 {
			best = t.better(best, t.segNode(l))
			l++
		}
		if r&1 == 1 {
			r--
			best = t.better(best, t.segNode(r))
		}
	}
	return best
}

// Len returns the number of distinct words stored.
func (t *Trie) Len() int {
	t.Freeze()
	return len(t.words)
}

// find returns the index of word, or -1.
func (t *Trie) find(word string) int {
	t.Freeze()
	word = canonical(word)
	if i, ok := slices.BinarySearch(t.words, word); ok {
		return i
	}
	return -1
}

// Contains reports whether word was inserted.
func (t *Trie) Contains(word string) bool { return t.find(word) >= 0 }

// Weight returns the accumulated weight of word, or 0 if absent.
func (t *Trie) Weight(word string) int64 {
	if i := t.find(word); i >= 0 {
		return t.weights[i]
	}
	return 0
}

// prefixRange narrows [lo, hi) — a range whose words share some shorter
// prefix — to the words starting with prefix.
func (t *Trie) prefixRange(prefix string, lo, hi int) (int, int) {
	lo += sort.SearchStrings(t.words[lo:hi], prefix)
	hi = lo + sort.Search(hi-lo, func(i int) bool { return !strings.HasPrefix(t.words[lo+i], prefix) })
	return lo, hi
}

func (t *Trie) entry(i int32) Entry {
	return Entry{Word: t.words[i], Weight: t.weights[i], Datum: t.datums[i]}
}

// Complete returns up to k words starting with prefix, heaviest first, ties
// broken lexicographically for determinism.
func (t *Trie) Complete(prefix string, k int) []Entry {
	if k <= 0 {
		return nil
	}
	t.Freeze()
	cp := canonical(prefix)
	lo, hi := t.prefixRange(cp, 0, len(t.words))
	out := t.topK(lo, hi, k)
	if cp != prefix {
		// Report the caller's own prefix bytes, as a rune-by-rune descent
		// that appends the remaining runes would.
		for i := range out {
			out[i].Word = prefix + out[i].Word[len(cp):]
		}
	}
	return out
}

// span is a frontier item of topK: an entry range and its best entry.
type span struct{ lo, hi, top int32 }

// topK lists up to k entries of [lo, hi) heaviest first (ties
// lexicographic).  It pops the range whose best entry completes first,
// emits that entry and pushes the two sub-ranges around it, so each result
// costs two segment-tree queries and a heap operation.
func (t *Trie) topK(lo, hi, k int) []Entry {
	if lo >= hi {
		return nil
	}
	out := make([]Entry, 0, min(k, hi-lo))
	// before orders the max-heap: the span whose top completes first wins.
	before := func(a, b span) bool { return t.better(a.top, b.top) == a.top }
	// Each pop pushes at most two spans, so the heap never exceeds k+1.
	heap := make([]span, 1, cap(out)+1)
	heap[0] = span{int32(lo), int32(hi), t.argmax(lo, hi)}
	for len(heap) > 0 && len(out) < k {
		s := heap[0]
		last := len(heap) - 1
		heap[0] = heap[last]
		heap = heap[:last]
		siftDown(heap, 0, before)
		out = append(out, t.entry(s.top))
		for _, sub := range [2][2]int32{{s.lo, s.top}, {s.top + 1, s.hi}} {
			if sub[0] < sub[1] {
				heap = append(heap, span{sub[0], sub[1], t.argmax(int(sub[0]), int(sub[1]))})
				siftUp(heap, len(heap)-1, before)
			}
		}
	}
	return out
}

func siftUp(h []span, i int, before func(a, b span) bool) {
	for i > 0 {
		p := (i - 1) / 2
		if !before(h[i], h[p]) {
			return
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

func siftDown(h []span, i int, before func(a, b span) bool) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && before(h[c+1], h[c]) {
			c++
		}
		if !before(h[c], h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// Walk calls fn for every stored word in lexicographic order; fn returning
// false stops the walk.
func (t *Trie) Walk(fn func(Entry) bool) {
	t.Freeze()
	for i := range t.words {
		if !fn(t.entry(int32(i))) {
			return
		}
	}
}
