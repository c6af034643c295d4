package rewrite_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"strconv"
	"testing"

	"lotusx/internal/bench"
	"lotusx/internal/dataguide"
	"lotusx/internal/dataset"
	"lotusx/internal/index"
	"lotusx/internal/rewrite"
	"lotusx/internal/twig"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/e9_enumerate.golden from the current Enumerate")

const goldenPath = "testdata/e9_enumerate.golden"

// TestEnumerateGoldenE9 pins Enumerate's full output — every rewrite's
// rendered query, exact penalty and applied steps, in order — for E9's
// broken queries on all three datasets, at the serving defaults (max
// penalty 2.5, 32 rewrites).  Any change to candidate generation, penalty
// arithmetic, deduplication or queue order shows up as a diff.
func TestEnumerateGoldenE9(t *testing.T) {
	engines := make(map[dataset.Kind]*rewrite.Engine)
	for _, kind := range dataset.Kinds {
		d, err := dataset.Build(kind, 1, 42)
		if err != nil {
			t.Fatal(err)
		}
		engines[kind] = rewrite.New(index.Build(d), dataguide.Build(d))
	}
	var buf bytes.Buffer
	for _, b := range bench.BrokenQueries(42) {
		q, err := twig.Parse(b.Text)
		if err != nil {
			continue // E9 skips mutations that do not parse, too
		}
		fmt.Fprintf(&buf, "== %s %s %s %s\n", b.Kind, b.ID, b.Break, q)
		for _, rw := range engines[b.Kind].Enumerate(q, 2.5, 32) {
			fmt.Fprintf(&buf, "%s\t%s\n", strconv.FormatFloat(rw.Penalty, 'g', -1, 64), rw.Query)
			for _, a := range rw.Applied {
				fmt.Fprintf(&buf, "\t%s@%d %s\n", a.Rule, a.NodeID, a.Detail)
			}
		}
	}
	if *updateGolden {
		if err := os.WriteFile(goldenPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (regenerate with: go test ./internal/rewrite/ -run TestEnumerateGoldenE9 -update)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		got := bytes.Split(buf.Bytes(), []byte("\n"))
		exp := bytes.Split(want, []byte("\n"))
		for i := 0; i < len(got) && i < len(exp); i++ {
			if !bytes.Equal(got[i], exp[i]) {
				t.Fatalf("Enumerate output diverges from %s at line %d:\n got: %s\nwant: %s", goldenPath, i+1, got[i], exp[i])
			}
		}
		t.Fatalf("Enumerate output length differs from %s: %d lines, want %d", goldenPath, len(got), len(exp))
	}
}
