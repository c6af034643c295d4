package main

import (
	"testing"
	"time"

	"lotusx/internal/obs"
)

func TestSelfTimes(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	// root [0,100]: a [10,40] and b [30,60] overlap (50 covered), c [90,120]
	// sticks out past the root (10 covered).  a holds a1 [15,25].
	spans := []Span{
		{ID: 1, Name: "root", Start: ms(0), End: ms(100)},
		{ID: 2, Parent: 1, Name: "a", Start: ms(10), End: ms(40)},
		{ID: 3, Parent: 1, Name: "b", Start: ms(30), End: ms(60)},
		{ID: 4, Parent: 1, Name: "c", Start: ms(90), End: ms(120)},
		{ID: 5, Parent: 2, Name: "a1", Start: ms(15), End: ms(25)},
	}
	want := map[int64]time.Duration{1: ms(40), 2: ms(20), 3: ms(30), 4: ms(30), 5: ms(10)}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("span %d self time = %v, want %v", id, got[id], w)
		}
	}
}

func TestGraftPlacesServerTreeInsideRequest(t *testing.T) {
	rec := newRecorder()
	start := rec.origin.Add(10 * time.Millisecond)
	end := start.Add(10 * time.Millisecond)
	root := rec.add(7, 0, "bench:query", start, end)
	rec.graft(7, root, start, end, &obs.Node{Name: "query", DurationMS: 6, Children: []*obs.Node{
		{Name: "join:twigstack", StartMS: 1, DurationMS: 4},
	}})
	spans := rec.Spans()
	if len(spans) != 3 {
		t.Fatalf("%d spans, want 3", len(spans))
	}
	srv, join := spans[1], spans[2]
	if srv.Name != "server:query" || srv.Parent != root || join.Parent != srv.ID || join.Req != 7 {
		t.Fatalf("bad tree: %+v", spans)
	}
	// The 6 ms server root is centred in the 10 ms request: [12, 18] ms.
	if srv.Start != 12*time.Millisecond || srv.End != 18*time.Millisecond {
		t.Errorf("server span at [%v, %v], want [12ms, 18ms]", srv.Start, srv.End)
	}
	self := selfTimes(spans)
	if self[root] != 4*time.Millisecond || self[srv.ID] != 2*time.Millisecond {
		t.Errorf("self times root=%v server=%v, want 4ms and 2ms", self[root], self[srv.ID])
	}
}
