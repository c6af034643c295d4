package main

import (
	"bytes"
	"encoding/json"
	"testing"
)

// streamBytes renders workload name's stream for seed as JSON, at scale 1
// to keep the test quick.
func streamBytes(t *testing.T, name string, seed, stream int64) []byte {
	t.Helper()
	ws, err := loadWorkloads()
	if err != nil {
		t.Fatal(err)
	}
	w := *ws[name]
	w.Scale = 1
	refs, err := buildRefs(&w)
	if err != nil {
		t.Fatal(err)
	}
	var gds []*genData
	for _, r := range refs {
		gds = append(gds, r.gd)
	}
	ops := genOps(&w, gds, seed, stream, 500)
	if w.IngestEvry > 0 {
		for i := 0; i < 3; i++ {
			op := ingestOp(seed, i, refs[0].name)
			ops = append(ops, op, Op{Query: markerQuery(op), Path: string(ingestBody(op))})
		}
	}
	b, err := json.Marshal(ops)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestStreamsAreSeeded(t *testing.T) {
	for _, name := range []string{"session", "search", "router"} {
		a := streamBytes(t, name, 11, streamOpen)
		if b := streamBytes(t, name, 11, streamOpen); !bytes.Equal(a, b) {
			t.Errorf("%s: seed 11 gave two different streams", name)
		}
		if c := streamBytes(t, name, 12, streamOpen); bytes.Equal(a, c) {
			t.Errorf("%s: seeds 11 and 12 gave the same stream", name)
		}
		if c := streamBytes(t, name, 11, streamClosed); bytes.Equal(a, c) {
			t.Errorf("%s: the open and closed streams of seed 11 are the same", name)
		}
	}
}
