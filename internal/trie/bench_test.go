package trie_test

import (
	"strings"
	"testing"
	"unicode/utf8"

	"lotusx/internal/dataset"
	"lotusx/internal/doc"
	"lotusx/internal/trie"
)

// Completion microbenchmarks over a real value dictionary: every folded
// value of the DBLP scale-1 document, weighted by occurrence, the shape of
// the per-tag value dictionaries the index builds.  Probe prefixes are the
// first one to three runes of evenly spaced dictionary words, so they hit
// ranges of every size; fuzzy probes drop a rune to force the edit-distance
// walk.  Run with -benchmem: Complete's allocations are its result slice.
var benchDict struct {
	tr       *trie.Trie
	prefixes []string
	typos    []string
}

func benchSetup(b *testing.B) (*trie.Trie, []string, []string) {
	if benchDict.tr == nil {
		d, err := dataset.Build(dataset.DBLP, 1, 42)
		if err != nil {
			b.Fatal(err)
		}
		tr := trie.New()
		for i := 0; i < d.Len(); i++ {
			if v := d.Value(doc.NodeID(i)); v != "" {
				tr.Insert(strings.ToLower(strings.TrimSpace(v)), 1, int32(i))
			}
		}
		tr.Freeze()
		var words []string
		tr.Walk(func(e trie.Entry) bool { words = append(words, e.Word); return true })
		for i := 0; i < len(words); i += len(words)/64 + 1 {
			w := []rune(words[i])
			if n := 1 + i%3; len(w) > n {
				benchDict.prefixes = append(benchDict.prefixes, string(w[:n]))
			}
			if len(w) > 4 {
				benchDict.typos = append(benchDict.typos, string(w[:1])+string(w[2:4]))
			}
		}
		benchDict.tr = tr
		b.Logf("dictionary: %d words, %d prefixes, %d typos", tr.Len(), len(benchDict.prefixes), len(benchDict.typos))
	}
	return benchDict.tr, benchDict.prefixes, benchDict.typos
}

func BenchmarkComplete(b *testing.B) {
	tr, prefixes, _ := benchSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := tr.Complete(prefixes[i%len(prefixes)], 10); len(got) == 0 {
			b.Fatalf("no completion for %q", prefixes[i%len(prefixes)])
		}
	}
}

func BenchmarkFuzzyComplete(b *testing.B) {
	tr, _, typos := benchSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := typos[i%len(typos)]
		if got := tr.FuzzyComplete(p, 1, 10); len(got) == 0 && utf8.RuneCountInString(p) > 0 {
			b.Fatalf("no fuzzy completion for %q", p)
		}
	}
}
