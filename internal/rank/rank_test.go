package rank

import (
	"math"
	"testing"

	"lotusx/internal/doc"
	"lotusx/internal/index"
	"lotusx/internal/join"
	"lotusx/internal/twig"
)

const libXML = `<lib>
  <book><title>xml databases</title><author>rare name</author></book>
  <book><title>xml</title><author>common name</author></book>
  <book><part><title>xml databases explained</title></part><author>common name</author></book>
  <book><title>cooking</title><author>common name</author></book>
</lib>`

func setup(t *testing.T) (*index.Index, *Ranker) {
	t.Helper()
	d, err := doc.FromString("test", libXML)
	if err != nil {
		t.Fatal(err)
	}
	ix := index.Build(d)
	return ix, New(ix)
}

func runMatches(t *testing.T, ix *index.Index, qs string) (*twig.Query, []join.Match) {
	t.Helper()
	q := twig.MustParse(qs)
	res, err := join.Run(ix, q, join.TwigStack, join.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return q, res.Matches
}

func TestExactValueOutranksPartial(t *testing.T) {
	ix, r := setup(t)
	q, ms := runMatches(t, ix, `//book[.//title contains "xml"]`)
	if len(ms) != 3 {
		t.Fatalf("matches = %d, want 3", len(ms))
	}
	scored := r.Rank(q, ms, 0)
	d := ix.Document()
	// The exact-equal title "xml" should rank first (similarity 1.0 beats
	// prefix 0.8 and token overlap).
	top := d.Value(scored[0].Match[1]) // node 1 = title
	if top != "xml" {
		t.Fatalf("top title = %q, want \"xml\"", top)
	}
	if scored[0].Content != 1.0 {
		t.Errorf("top content = %f, want 1.0", scored[0].Content)
	}
}

func TestTightnessPrefersDirectChildren(t *testing.T) {
	ix, r := setup(t)
	q, ms := runMatches(t, ix, `//book[.//title contains "databases"]`)
	if len(ms) != 2 {
		t.Fatalf("matches = %d, want 2", len(ms))
	}
	scored := r.Rank(q, ms, 0)
	// "xml databases" is a direct child title (slack 0); the part/title has
	// slack 1, and both have the same content component? Both contain
	// "databases": "xml databases" similarity vs "xml databases explained":
	// Jaccard 1/2 vs 1/3... content differs too, but both favour the direct
	// child. Verify order and tightness values.
	if scored[0].Tightness != 1.0 {
		t.Errorf("winner tightness = %f, want 1.0", scored[0].Tightness)
	}
	if scored[1].Tightness != 0.5 {
		t.Errorf("runner-up tightness = %f, want 0.5", scored[1].Tightness)
	}
	if scored[0].Score <= scored[1].Score {
		t.Error("scores not strictly ordered")
	}
}

func TestIDFRewardsRareTerms(t *testing.T) {
	_, r := setup(t)
	qRare := twig.MustParse(`//book[author contains "rare"]`)
	qCommon := twig.MustParse(`//book[author contains "common"]`)
	if r.idf(qRare) <= r.idf(qCommon) {
		t.Errorf("idf(rare)=%f should exceed idf(common)=%f", r.idf(qRare), r.idf(qCommon))
	}
}

func TestPredicateFreeQueryNeutralScore(t *testing.T) {
	ix, r := setup(t)
	q, ms := runMatches(t, ix, `//book/author`)
	scored := r.Rank(q, ms, 0)
	for _, s := range scored {
		if s.Content != 0 || s.IDF != 0 {
			t.Errorf("neutral components expected, got %+v", s)
		}
		if s.Score != s.Tightness {
			t.Errorf("score should equal tightness for predicate-free queries")
		}
	}
	// Deterministic: equal scores ordered by document order.
	for i := 1; i < len(scored); i++ {
		if scored[i-1].Score == scored[i].Score &&
			scored[i-1].Match[1] > scored[i].Match[1] {
			t.Error("tie not broken by document order")
		}
	}
}

func TestRankTopK(t *testing.T) {
	ix, r := setup(t)
	q, ms := runMatches(t, ix, `//book`)
	scored := r.Rank(q, ms, 2)
	if len(scored) != 2 {
		t.Fatalf("topk = %d", len(scored))
	}
	all := r.Rank(q, ms, 0)
	if len(all) != 4 {
		t.Fatalf("all = %d", len(all))
	}
	if all[0].Score != scored[0].Score || all[1].Score != scored[1].Score {
		t.Error("top-k disagrees with full ranking")
	}
}

func TestValueSimilarity(t *testing.T) {
	cases := []struct {
		pred, val string
		want      float64
	}{
		{"xml", "xml", 1},
		{"xml", "xml databases", 0.8},
		{"databases xml", "xml databases", 1.0 / 1.0}, // same token set -> jaccard 1? inter=2 union=2
		{"xml", "cooking", 0},
		{"", "", 1},
		{"a b", "b c", 1.0 / 3.0},
	}
	for _, c := range cases {
		got := valueSimilarity(c.pred, c.val)
		if math.Abs(got-c.want) > 1e-9 {
			t.Errorf("valueSimilarity(%q,%q) = %f, want %f", c.pred, c.val, got, c.want)
		}
	}
}

func TestScoreBreakdownComposition(t *testing.T) {
	ix, r := setup(t)
	q, ms := runMatches(t, ix, `//book[.//title contains "xml"]`)
	for _, m := range ms {
		s := r.Score(q, m)
		want := (1 + s.Content) * s.Tightness * (1 + s.IDF)
		if math.Abs(s.Score-want) > 1e-12 {
			t.Errorf("score %f does not equal composition %f", s.Score, want)
		}
		if s.Content < 0 || s.Content > 1 || s.Tightness <= 0 || s.Tightness > 1 || s.IDF < 0 || s.IDF >= 1 {
			t.Errorf("component out of range: %+v", s)
		}
	}
}

// TestRankMatchesScore: Rank hoists the query-level idf out of its per-match
// loop; every score it returns must stay bit-equal to Score on that match.
func TestRankMatchesScore(t *testing.T) {
	ix, r := setup(t)
	q, ms := runMatches(t, ix, `//book[.//title contains "xml"][author contains "common name"]`)
	if len(ms) == 0 {
		t.Fatal("no matches")
	}
	for _, s := range r.Rank(q, ms, 0) {
		want := r.Score(q, s.Match)
		if math.Float64bits(s.Score) != math.Float64bits(want.Score) ||
			math.Float64bits(s.IDF) != math.Float64bits(want.IDF) {
			t.Errorf("match %v: Rank score %v idf %v, Score %v idf %v", s.Match, s.Score, s.IDF, want.Score, want.IDF)
		}
	}
}
