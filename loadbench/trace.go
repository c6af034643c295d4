package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"

	"lotusx/internal/obs"
)

// Span is one interval the traced run records: a benchmark-side call into a
// layer, or a server span grafted under the benchmark span of the request
// that returned it.  Spans of one request share Req.
type Span struct {
	ID     int64         `json:"id"`
	Parent int64         `json:"parent"` // 0 for a request's root span
	Req    int64         `json:"req"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"startNs"` // since the recorder's origin
	End    time.Duration `json:"endNs"`
}

// Recorder keeps spans in memory; Write saves them when the run ends.
type Recorder struct {
	mu     sync.Mutex
	origin time.Time
	spans  []Span
}

func newRecorder() *Recorder { return &Recorder{origin: time.Now()} }

// add records a span and returns its ID.
func (r *Recorder) add(req, parent int64, name string, start, end time.Time) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := int64(len(r.spans) + 1)
	r.spans = append(r.spans, Span{ID: id, Parent: parent, Req: req, Name: name,
		Start: start.Sub(r.origin), End: end.Sub(r.origin)})
	return id
}

// end sets the end of span id, recorded before its children were.
func (r *Recorder) end(id int64, t time.Time) {
	r.mu.Lock()
	r.spans[id-1].End = t.Sub(r.origin)
	r.mu.Unlock()
}

// time runs fn inside a span and returns fn's duration.
func (r *Recorder) time(req, parent int64, name string, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	r.add(req, parent, name, start, end)
	return end.Sub(start)
}

// graft records a server span tree under parent.  The server's root is
// placed at the centre of the parent's interval minus its own duration —
// the two clocks share no origin, and this splits the transport time evenly
// between request and response.
func (r *Recorder) graft(req, parent int64, pStart, pEnd time.Time, n *obs.Node) {
	if n == nil {
		return
	}
	dur := time.Duration(n.DurationMS * float64(time.Millisecond))
	base := pStart.Add((pEnd.Sub(pStart) - dur) / 2)
	var walk func(n *obs.Node, parent int64)
	walk = func(n *obs.Node, parent int64) {
		s := base.Add(time.Duration(n.StartMS * float64(time.Millisecond)))
		e := s.Add(time.Duration(n.DurationMS * float64(time.Millisecond)))
		id := r.add(req, parent, "server:"+n.Name, s, e)
		for _, c := range n.Children {
			walk(c, id)
		}
	}
	walk(n, parent)
}

// Spans returns a copy of the recorded spans.
func (r *Recorder) Spans() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// Write saves the spans as JSON lines.
func (r *Recorder) Write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.Spans() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover (overlapping children count once,
// and child time outside the parent's interval is ignored).
func selfTimes(spans []Span) map[int64]time.Duration {
	kids := make(map[int64][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = (s.End - s.Start) - covered(s.Start, s.End, kids[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals clipped to
// [lo, hi].
func covered(lo, hi time.Duration, children []Span) time.Duration {
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for _, c := range children {
		a, b := max(c.Start, lo), min(c.End, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB time.Duration
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}
