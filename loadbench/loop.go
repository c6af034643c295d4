package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"sync"
	"sync/atomic"
	"time"

	"lotusx/internal/ingest"
	"lotusx/internal/metrics"
	"lotusx/internal/obs"
)

// tracedReq is one request of the traced phase: its request id, its
// loopback time and the span tree the server returned.
type tracedReq struct {
	op     Op
	req    int64 // request id shared by the request's spans
	loop   time.Duration
	server *obs.Node
}

// maxSamples bounds the checked responses a phase keeps, so the in-process
// comparison stays short on the cheap, high-rate workloads.
const maxSamples = 300

// phase collects what one measured phase observed.
type phase struct {
	mu         sync.Mutex
	lat        map[string][]float64   // ms by class
	at         map[string][]time.Time // when each latency sample was due (open loop) or sent
	late       []float64              // ms, open loop only
	attempted  int
	failed     int
	good       int         // closed loop: correct and within the class limit
	goodAt     []time.Time // closed loop: when each good response arrived
	start      time.Time
	mismatches []error
	samples    []sample
	traced     []tracedReq
}

func newPhase() *phase {
	return &phase{lat: map[string][]float64{}, at: map[string][]time.Time{}}
}

// runner drives one deployment.
type runner struct {
	w       *Workload
	c       *client
	senders int
	rec     *Recorder // nil outside the traced run
	reqSeq  atomic.Int64
}

// sendResult is one completed request.
type sendResult struct {
	status     int
	body       []byte
	err        error
	start, end time.Time
}

func (r *runner) send(ctx context.Context, op Op, traced bool) sendResult {
	req, err := r.c.request(ctx, op, traced)
	if err != nil {
		return sendResult{err: err}
	}
	start := time.Now()
	status, body, err := r.c.do(req)
	return sendResult{status: status, body: body, err: err, start: start, end: time.Now()}
}

// record classifies one result: a transport error or non-200 status is a
// failure; a 200 whose envelope or paging is wrong is a failure and a
// correctness mismatch.  Checked samples are kept for the in-process
// comparison after the run.
func (p *phase) record(op Op, res sendResult, at time.Time, lat time.Duration, keep bool) bool {
	ok := true
	var mismatch error
	switch {
	case res.err != nil:
		ok = false
	case res.status != http.StatusOK:
		ok = false
	default:
		if err := validate(op, res.status, res.body); err != nil {
			ok, mismatch = false, fmt.Errorf("%s %q: %w", op.Kind, op.Query+op.Path, err)
		}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.attempted++
	if !ok {
		p.failed++
	}
	if mismatch != nil {
		p.mismatches = append(p.mismatches, mismatch)
	}
	p.lat[op.Class] = append(p.lat[op.Class], float64(lat)/float64(time.Millisecond))
	p.at[op.Class] = append(p.at[op.Class], at)
	if ok && keep && op.Check && len(p.samples) < maxSamples {
		p.samples = append(p.samples, sample{op: op, body: res.body})
	}
	return ok
}

// traceRecord grafts a traced response's span tree under a benchmark span
// for the request.
func (r *runner) traceRecord(p *phase, op Op, res sendResult) {
	if res.err != nil || res.status != http.StatusOK {
		return
	}
	var env struct {
		Trace *obs.Node `json:"trace"`
	}
	json.Unmarshal(res.body, &env) // explain responses carry no trace
	req := r.reqSeq.Add(1)
	id := r.rec.add(req, 0, "bench:"+op.Kind, res.start, res.end)
	r.rec.graft(req, id, res.start, res.end, env.Trace)
	p.mu.Lock()
	p.traced = append(p.traced, tracedReq{op: op, req: req, loop: res.end.Sub(res.start), server: env.Trace})
	p.mu.Unlock()
}

// openLoop sends ops[i] at t0 + i/rate for the phase's duration, from at
// most r.senders goroutines, and times each operation from when it was due.
func (r *runner) openLoop(ctx context.Context, ops []Op, dur time.Duration, traced, keep bool) *phase {
	p := newPhase()
	interval := time.Duration(float64(time.Second) / r.w.Rate)
	n := int(dur / interval)
	t0 := time.Now().Add(10 * time.Millisecond)
	p.start = t0
	var next atomic.Int64
	var wg sync.WaitGroup
	for s := 0; s < r.senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n || ctx.Err() != nil {
					return
				}
				due := t0.Add(time.Duration(i) * interval)
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				op := ops[i%len(ops)]
				res := r.send(ctx, op, traced)
				if res.start.IsZero() {
					res.start, res.end = time.Now(), time.Now()
				}
				p.record(op, res, due, res.end.Sub(due), keep)
				p.mu.Lock()
				p.late = append(p.late, float64(res.start.Sub(due))/float64(time.Millisecond))
				p.mu.Unlock()
				if traced {
					r.traceRecord(p, op, res)
				}
			}
		}()
	}
	wg.Wait()
	return p
}

// closedLoop keeps r.senders requests in flight for dur and counts the
// correct responses within their class's latency limit.
func (r *runner) closedLoop(ctx context.Context, ops []Op, dur time.Duration) *phase {
	p := newPhase()
	start := time.Now()
	p.start = start
	deadline := start.Add(dur)
	var next atomic.Int64
	var wg sync.WaitGroup
	for s := 0; s < r.senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) && ctx.Err() == nil {
				op := ops[int(next.Add(1)-1)%len(ops)]
				res := r.send(ctx, op, false)
				if res.start.IsZero() {
					res.start, res.end = time.Now(), time.Now()
				}
				lat := res.end.Sub(res.start)
				ok := p.record(op, res, res.start, lat, true)
				if ok && float64(lat)/float64(time.Millisecond) <= r.w.LimitsMS[op.Class] {
					p.mu.Lock()
					p.good++
					p.goodAt = append(p.goodAt, res.end)
					p.mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return p
}

// goodput is the rate of good responses in the closed loop's calm windows.
func (p *phase) goodput(dur time.Duration, sw *stealWatch) float64 {
	calm := sw.calm(p.start, dur, goodputWindows)
	var good, kept float64
	for _, at := range p.goodAt {
		if i := windowOf(p.start, at, dur, goodputWindows); i >= 0 && calm[i] {
			good++
		}
	}
	for _, c := range calm {
		if c {
			kept++
		}
	}
	return good / (kept * (dur / goodputWindows).Seconds())
}

// calmLatencies returns the class's latencies that fell in the open loop's
// calm windows.
func (p *phase) calmLatencies(class string, dur time.Duration, sw *stealWatch) []float64 {
	calm := sw.calm(p.start, dur, latencyWindows)
	var out []float64
	for i, at := range p.at[class] {
		if w := windowOf(p.start, at, dur, latencyWindows); w >= 0 && calm[w] {
			out = append(out, p.lat[class][i])
		}
	}
	return out
}

// ------------------------------------------------------------- scraping

// scrapes holds the 1/s metrics scrapes of a run.
type scrapes struct {
	mu        sync.Mutex
	promMS    []float64
	jsonMS    []float64
	promKB    []float64
	deltaMax  int64
	attempted int
	failed    int
}

// scrapeLoop scrapes /metrics and /api/v1/metrics once a second until stop
// closes, as a deployment's monitoring would.
func (r *runner) scrapeLoop(ctx context.Context, stop <-chan struct{}, s *scrapes) {
	tick := time.NewTicker(time.Second)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-ctx.Done():
			return
		case <-tick.C:
		}
		t := time.Now()
		status, body, err := r.c.get(ctx, "/metrics")
		promMS := float64(time.Since(t)) / float64(time.Millisecond)
		t = time.Now()
		snap, jerr := r.metricsSnapshot(ctx)
		jsonMS := float64(time.Since(t)) / float64(time.Millisecond)
		s.mu.Lock()
		s.attempted += 2
		if err != nil || status != http.StatusOK || !bytes.HasPrefix(body, []byte("# HELP")) {
			s.failed++
		} else {
			s.promMS = append(s.promMS, promMS)
			s.promKB = append(s.promKB, float64(len(body))/1024)
		}
		if jerr != nil {
			s.failed++
		} else {
			s.jsonMS = append(s.jsonMS, jsonMS)
			for _, c := range snap.Corpora {
				s.deltaMax = max(s.deltaMax, c.DeltaShards)
			}
		}
		s.mu.Unlock()
	}
}

func (r *runner) metricsSnapshot(ctx context.Context) (*metrics.Snapshot, error) {
	status, body, err := r.c.get(ctx, "/api/v1/metrics")
	if err != nil {
		return nil, fmt.Errorf("metrics scrape: %w", err)
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("metrics scrape: status %d", status)
	}
	var snap metrics.Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		return nil, fmt.Errorf("metrics scrape: %w", err)
	}
	return &snap, nil
}

// --------------------------------------------------------------- ingest

// ingests holds what the ingest driver observed.
type ingests struct {
	mu         sync.Mutex
	acceptMS   []float64
	visibleS   []float64
	queueMS    []float64
	jobMS      []float64
	attempted  int
	failed     int
	mismatches []error
}

func (g *ingests) fail(err error) {
	g.mu.Lock()
	g.failed++
	g.mismatches = append(g.mismatches, err)
	g.mu.Unlock()
}

// inbox is the dataset the ingest workload uploads into.  The reads use
// another dataset: publishing into the one they read would invalidate
// their cached answers every ingest, which on two CPUs made read latency
// swing by more than half between runs.  Index builds, journal fsyncs and
// compactions still compete with the reads for the CPUs.
const inbox = "inbox"

// createInbox creates the inbox dataset from one seeded slice (synchronously,
// before anything is timed).
func (r *runner) createInbox(ctx context.Context, seed int64) error {
	op := ingestOp(seed, 999999, inbox)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, r.c.base+"/api/v1/datasets/"+inbox+"?sync=1&shards=2", bytes.NewReader(ingestBody(op)))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/xml")
	status, body, err := r.c.do(req)
	if err != nil {
		return fmt.Errorf("creating %s: %w", inbox, err)
	}
	if status != http.StatusCreated {
		return fmt.Errorf("creating %s: status %d: %.200s", inbox, status, body)
	}
	return nil
}

// ingestLoop uploads one seeded slice every w.IngestEvry seconds until
// until, and follows each: the 202 turnaround, the time until its marker
// answers a query, and the job reaching done.
func (r *runner) ingestLoop(ctx context.Context, seed int64, dataset string, until time.Time, g *ingests) {
	every := time.Duration(r.w.IngestEvry * float64(time.Second))
	t0 := time.Now()
	for i := 0; ; i++ {
		due := t0.Add(every/2 + time.Duration(i)*every)
		if !due.Before(until) || ctx.Err() != nil {
			return
		}
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		op := ingestOp(seed, i, dataset)
		g.mu.Lock()
		g.attempted++
		g.mu.Unlock()
		if err := r.ingestOne(ctx, op, g); err != nil {
			g.fail(fmt.Errorf("ingest %s: %w", op.Shard, err))
		}
	}
}

func (r *runner) ingestOne(ctx context.Context, op Op, g *ingests) error {
	u := r.c.base + "/api/v1/datasets/" + url.PathEscape(op.Dataset) + "/shards/" + url.PathEscape(op.Shard)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, u, bytes.NewReader(ingestBody(op)))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/xml")
	start := time.Now()
	status, body, err := r.c.do(req)
	accepted := time.Now()
	if err != nil {
		return err
	}
	if status != http.StatusAccepted {
		return fmt.Errorf("status %d: %.200s", status, body)
	}
	var env struct {
		Job ingest.Job `json:"job"`
	}
	if err := json.Unmarshal(body, &env); err != nil || env.Job.ID == "" {
		return fmt.Errorf("202 without a job envelope: %.200s", body)
	}
	// Poll the marker until it answers: exactly one article by the marker
	// author.
	mq := Op{Class: "query", Kind: "query", Dataset: op.Dataset, Query: markerQuery(op), K: 10}
	deadline := accepted.Add(30 * time.Second)
	var visible time.Time
	for visible.IsZero() {
		if time.Now().After(deadline) || ctx.Err() != nil {
			return fmt.Errorf("marker %s never answered", op.Marker)
		}
		res := r.send(ctx, mq, false)
		if res.err != nil || res.status != http.StatusOK {
			return fmt.Errorf("marker query: status %d err %v", res.status, res.err)
		}
		if err := validate(mq, res.status, res.body); err != nil {
			return fmt.Errorf("marker query: %w", err)
		}
		var qr queryResp
		json.Unmarshal(res.body, &qr)
		switch {
		case qr.Total == 0:
			time.Sleep(10 * time.Millisecond)
		case qr.Total == 1 && qr.Answers[0].Path == "/dblp/article":
			visible = res.end
		default:
			return fmt.Errorf("marker query answered %d answers (first %q)", qr.Total, qr.Answers[0].Path)
		}
	}
	// The job must reach done.
	for {
		status, body, err := r.c.get(ctx, "/api/v1/jobs/"+url.PathEscape(env.Job.ID))
		if err != nil || status != http.StatusOK {
			return fmt.Errorf("job poll: status %d err %v", status, err)
		}
		if err := json.Unmarshal(body, &env); err != nil {
			return fmt.Errorf("job poll: %w", err)
		}
		if env.Job.State == "done" {
			break
		}
		if env.Job.State == "failed" || time.Now().After(deadline) {
			return fmt.Errorf("job %s ended %s: %s", env.Job.ID, env.Job.State, env.Job.Error)
		}
		time.Sleep(10 * time.Millisecond)
	}
	g.mu.Lock()
	g.acceptMS = append(g.acceptMS, float64(accepted.Sub(start))/float64(time.Millisecond))
	g.visibleS = append(g.visibleS, visible.Sub(accepted).Seconds())
	g.queueMS = append(g.queueMS, env.Job.QueueMS)
	g.jobMS = append(g.jobMS, env.Job.RunMS)
	g.mu.Unlock()
	return nil
}
