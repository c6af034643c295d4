package join

import (
	"testing"

	"lotusx/internal/dataset"
	"lotusx/internal/index"
	"lotusx/internal/twig"
)

// TestAllocsScaleFree guards the join hot path against per-element
// allocations: doubling the document may add only the O(log n) slice
// growths of the solution and match arenas, so the allocation count at
// XMark scale 2 must stay under 1.25x the count at scale 1.  A per-element
// allocation (a fresh leaf list per TwigStack iteration, a map entry per
// solution edge) roughly doubles it and fails here.
func TestAllocsScaleFree(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two XMark documents")
	}
	q := twig.MustParse(`//item/name`)
	allocs := func(alg Algorithm, ix *index.Index) float64 {
		return testing.AllocsPerRun(20, func() {
			res, err := Run(ix, q, alg, Options{})
			if err != nil || len(res.Matches) == 0 {
				t.Fatalf("%s: %v, %d matches", alg, err, len(res.Matches))
			}
		})
	}
	var ix [2]*index.Index
	for i, scale := range []int{1, 2} {
		d, err := dataset.Build(dataset.XMark, scale, 42)
		if err != nil {
			t.Fatal(err)
		}
		ix[i] = index.Build(d)
	}
	for _, alg := range []Algorithm{TwigStack, PathStack} {
		small, large := allocs(alg, ix[0]), allocs(alg, ix[1])
		t.Logf("%s: %.0f allocs at scale 1, %.0f at scale 2", alg, small, large)
		if large >= 1.25*small {
			t.Errorf("%s allocates %.0f times at scale 2 vs %.0f at scale 1 (>= 1.25x): a per-element allocation is back on the hot path",
				alg, large, small)
		}
	}
}
