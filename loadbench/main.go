// Command loadbench is LotusX's serving benchmark.  It launches the
// lotusx-server binary over loopback in the topology a workload names,
// drives it with a seeded operation stream — an open loop at the workload's
// frozen offered rate, then a closed loop with one connection per CPU — and
// checks every response.  It prints each metric with its unit and sample
// count, and as its last line one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 a
// separate traced run reports per-layer metrics instead.  Run it through
// run.sh, which builds the server and this program from source:
//
//	bash loadbench/run.sh --workload session --seed 1 --seconds 15 --trace 0
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// warmup is the closed-loop warm-up before the measured phases.
const warmup = 2 * time.Second

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	n     int
}

type report struct {
	metrics    map[string]metric
	attempted  int
	failed     int
	mismatches []error
}

func (r *report) set(name string, v float64, unit string, n int) {
	r.metrics[name] = metric{Value: v, Unit: unit, n: n}
}

func main() {
	workload := flag.String("workload", "", "workload name (see workloads.json)")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Int("seconds", 15, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end one")
	server := flag.String("server", "", "path to the lotusx-server binary")
	out := flag.String("out", "", "directory for server logs, corpus directories and span files")
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *trace == 1, *server, *out); err != nil {
		fmt.Fprintln(os.Stderr, "loadbench:", err)
		os.Exit(2)
	}
}

func run(name string, seed int64, seconds int, traced bool, bin, out string) error {
	ws, err := loadWorkloads()
	if err != nil {
		return err
	}
	w, ok := ws[name]
	if !ok {
		return fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames(ws), ", "))
	}
	if seconds < 2 {
		return fmt.Errorf("--seconds %d: want at least 2", seconds)
	}
	if _, err := os.Stat(bin); err != nil {
		return fmt.Errorf("--server: %w", err)
	}
	dir, err := os.MkdirTemp(out, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	fmt.Printf("# env workload=%s seed=%d seconds=%d trace=%v go=%s gomaxprocs=%d nproc=%d cpu=%q commit=%s\n",
		name, seed, seconds, traced, runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), cpuModel(), commit())

	began := time.Now()
	stage := func(what string) { fmt.Printf("# %6.2fs %s\n", time.Since(began).Seconds(), what) }
	refs, err := buildRefs(w)
	if err != nil {
		return fmt.Errorf("building in-process references: %w", err)
	}
	var gds []*genData
	for _, r := range refs {
		gds = append(gds, r.gd)
	}
	probes, err := setupProbes(context.Background(), w, refs)
	if err != nil {
		return err
	}
	dur := time.Duration(seconds) * time.Second
	openDur := dur / 2
	openOps := genOps(w, gds, seed, streamOpen, int(w.Rate*dur.Seconds())+1)
	// The closed stream must outlast the closed loop even at 1000 ops/s: a
	// stream that wrapped around would replay cached answers.
	closedOps := genOps(w, gds, seed, streamClosed, int(max(4*w.Rate, 1000)*dur.Seconds())+1)
	warmOps := genOps(w, gds, seed, streamWarm, int(max(4*w.Rate, 1000)*warmup.Seconds())+1)
	// The references are dropped while anything is timed — collecting a
	// heap of that size would steal the server's CPU at random moments —
	// and rebuilt for the checks afterwards.
	refs = nil
	runtime.GC()
	debug.FreeOSMemory()
	stage("references built, operations generated")

	// An interrupt cancels the run, which stops the servers on the way out.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	rep := &report{metrics: map[string]metric{}}

	// Set-up: launch the topology three times, time each launch to the first
	// correct answer on every served dataset, keep the last one running.
	var setups []float64
	var d *deployment
	for i := 0; i < 3; i++ {
		if d != nil {
			d.stop()
		}
		var s time.Duration
		d, s, err = setup(ctx, w, bin, dir, i, probes)
		if err != nil {
			return fmt.Errorf("set-up %d: %w", i, err)
		}
		setups = append(setups, s.Seconds())
	}
	defer func() { d.stop() }()
	stage("set-up done")

	r := &runner{w: w, c: newClient(d.front.addr, runtime.NumCPU()), senders: runtime.NumCPU()}
	defer r.c.close()
	// Warm-up: caches fill and lazy set-up finishes before anything is
	// timed.  Its responses are still checked.
	pw := r.closedLoop(ctx, warmOps, warmup)
	rep.attempted, rep.failed, rep.mismatches = pw.attempted, pw.failed, pw.mismatches
	if w.IngestEvry > 0 {
		rep.attempted++
		if err := r.createInbox(ctx, seed); err != nil {
			return err
		}
	}
	stage("warm-up done")
	if traced {
		r.rec = newRecorder()
		if err := runTraced(ctx, r, d, openOps, dur, seed, rep); err != nil {
			return err
		}
		if err := r.rec.Write(filepath.Join(out, fmt.Sprintf("spans-%s-%d.jsonl", name, seed))); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
	} else {
		if err := runTimed(ctx, r, d, openOps, closedOps, openDur, dur-openDur, seed, rep); err != nil {
			return err
		}
		rep.set("setup_s", median(setups), "s", len(setups))
	}
	d.stop()
	if ctx.Err() != nil {
		return fmt.Errorf("interrupted")
	}
	stage("run done")
	return emit(rep)
}

// runTimed is the untraced run: open loop and closed loop (half the measured
// time each: the closed loop's goodput needed the longer phase to be steady
// on the random-twig workloads), scrapes throughout,
// ingests beside them when the workload has them; then the in-process
// checks.
func runTimed(ctx context.Context, r *runner, d *deployment, openOps, closedOps []Op, openDur, closedDur time.Duration, seed int64, rep *report) error {
	sc := &scrapes{}
	ing := &ingests{}
	stop := make(chan struct{})
	done := make(chan struct{}, 2)
	go func() { r.scrapeLoop(ctx, stop, sc); done <- struct{}{} }()
	bg := 1
	if r.w.IngestEvry > 0 {
		bg++
		until := time.Now().Add(openDur + closedDur)
		go func() { r.ingestLoop(ctx, seed, inbox, until, ing); done <- struct{}{} }()
	}
	sw := watchSteal()
	po := r.openLoop(ctx, openOps, openDur, false, true)
	pc := r.closedLoop(ctx, closedOps, closedDur)
	sw.close()
	close(stop)
	for ; bg > 0; bg-- {
		<-done
	}
	rss, err := d.peakRSS()
	if err != nil {
		return err
	}
	d.stop()

	// Latencies and goodput count only the calm windows of each phase (see
	// stealWatch); the sample counts printed are those kept.
	for _, class := range []string{"query", "complete"} {
		xs := po.calmLatencies(class, openDur, sw)
		s := summarize(xs)
		if s.N == 0 {
			return fmt.Errorf("the open loop kept no %s operations", class)
		}
		rep.set(class+"_p50_ms", s.P50, "ms", s.N)
		// The tails are printed, not gated: on the random-twig workloads
		// they moved by 20-40% between seeds, with whether a costly query
		// happened to queue others behind it.
		if s.HasP90 {
			fmt.Printf("info %s_p90_ms=%.3f (n=%d)\n", class, s.P90, s.N)
		}
		if s.HasP99 {
			fmt.Printf("info %s_p99_ms=%.3f (n=%d)\n", class, s.P99, s.N)
		}
	}
	// Goodput is printed, not gated: on search it moved by a quarter between
	// seeds, beyond the largest bound a metric may have.
	fmt.Printf("info goodput_ops_s=%.3f (n=%d)\n", pc.goodput(closedDur, sw), pc.good)
	fmt.Printf("info steal_ticks=%.0f over the measured phases\n", sw.stealAt(time.Now())-sw.steal[0])
	rep.set("peak_rss_mb", rss, "MB", len(d.all))
	late := summarize(po.late)
	fmt.Printf("info bench.generator_late_ms p99=%.3f p50=%.3f (n=%d)\n", quantile(po.late, 0.99), late.P50, late.N)
	if r.w.IngestEvry > 0 {
		fmt.Printf("info ingest accept_p50_ms=%.3f visible_p50_s=%.4f (n=%d)\n", median(ing.acceptMS), median(ing.visibleS), len(ing.visibleS))
	}

	rep.attempted += po.attempted + pc.attempted + sc.attempted + ing.attempted
	rep.failed += po.failed + pc.failed + sc.failed + ing.failed
	rep.mismatches = append(append(append(rep.mismatches, po.mismatches...), pc.mismatches...), ing.mismatches...)
	// Every read's dataset is static (ingests go to their own dataset), so
	// every sampled answer must equal the in-process one.
	samples := append(po.samples, pc.samples...)
	refs, err := buildRefs(r.w)
	if err != nil {
		return err
	}
	errs := compareSamples(ctx, refs, samples, r.w.Topology == "router")
	rep.mismatches = append(rep.mismatches, errs...)
	rep.failed += len(errs)
	fmt.Printf("info compared %d sampled responses with in-process evaluation: %d mismatches\n", len(samples), len(errs))
	if r.w.Topology == "router" {
		fmt.Printf("info router: %d checked query responses number highlight query nodes differently from the client's query\n", routerRenumbered(ctx, refs, samples))
	}
	fmt.Printf("info error_ratio=%.6f (%d failed of %d attempted)\n", float64(rep.failed)/float64(max(1, rep.attempted)), rep.failed, rep.attempted)
	return nil
}

// emit prints every metric with its unit and sample count, then the result
// line.  A correctness mismatch exits non-zero after the result line.
func emit(rep *report) error {
	names := make([]string, 0, len(rep.metrics))
	for n := range rep.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rep.metrics[n]
		fmt.Printf("metric %-32s %14.6f %-6s (n=%d)\n", n, m.Value, m.Unit, m.n)
	}
	for i, err := range rep.mismatches {
		if i == 20 {
			fmt.Fprintf(os.Stderr, "... and %d more mismatches\n", len(rep.mismatches)-20)
			break
		}
		fmt.Fprintln(os.Stderr, "MISMATCH:", err)
	}
	line, err := json.Marshal(map[string]any{
		"correct":   len(rep.mismatches) == 0,
		"attempted": max(1, rep.attempted),
		"failed":    rep.failed,
		"metrics":   rep.metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if len(rep.mismatches) > 0 {
		os.Exit(1)
	}
	return nil
}

// probe is one set-up readiness check: an operation and the answer it must
// get, from the front process or (shard >= 0) from one shard server.
type probe struct {
	shard int
	op    Op
	want  []byte
}

// setupProbes evaluates the set-up probes in process: one per served
// dataset, plus one per shard server for a router.
func setupProbes(ctx context.Context, w *Workload, refs []*refData) ([]probe, error) {
	var ps []probe
	if w.Topology == "router" {
		for i, ne := range refs[0].backend.Engines() {
			op := probeOp(refs[0].gd, "")
			want, err := expected(ctx, ne.Engine, op, true)
			if err != nil {
				return nil, err
			}
			ps = append(ps, probe{shard: i, op: op, want: want})
		}
	}
	for _, r := range refs {
		op := probeOp(r.gd, r.name)
		want, err := expected(ctx, r.backend, op, w.Topology == "router")
		if err != nil {
			return nil, err
		}
		ps = append(ps, probe{shard: -1, op: op, want: want})
	}
	return ps, nil
}

// setup launches the topology and waits for the first correct answer on
// every served dataset (for a router, on every shard server first).
func setup(ctx context.Context, w *Workload, bin, dir string, n int, probes []probe) (*deployment, time.Duration, error) {
	start := time.Now()
	d, err := launch(w, bin, dir, n)
	if err != nil {
		return nil, 0, err
	}
	for _, pr := range probes {
		p := d.front
		if pr.shard >= 0 {
			p = d.all[pr.shard]
		}
		if err := waitCorrect(ctx, p, pr, w.Topology == "router"); err != nil {
			d.stop()
			return nil, 0, err
		}
	}
	return d, time.Since(start), nil
}

// probeOp is the set-up probe: the most frequent element under the root.
func probeOp(gd *genData, dataset string) Op {
	root := &gd.paths[0]
	tag := gd.paths[root.children[0]].tag()
	return Op{Class: "query", Kind: "query", Dataset: dataset, Query: "//" + tag, K: 3}
}

// waitCorrect polls p with op until it answers what b answers in process.
// Refused connections mean the server is still starting; a wrong answer
// fails set-up.
func waitCorrect(ctx context.Context, p *proc, pr probe, dropShard bool) error {
	op, want := pr.op, pr.want
	c := newClient(p.addr, 1)
	defer c.close()
	deadline := time.Now().Add(150 * time.Second)
	for {
		if p.exited() {
			return fmt.Errorf("server exited during set-up; see %s", p.log.Name())
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("no answer from %s within the set-up budget", p.addr)
		}
		req, err := c.request(ctx, op, false)
		if err != nil {
			return err
		}
		if status, body, err := c.do(req); err == nil && status == http.StatusOK {
			got, err := observed(op, body, dropShard)
			if err != nil {
				return err
			}
			if !bytes.Equal(got, want) {
				return fmt.Errorf("set-up probe %q answered wrongly:\n  server:     %.300s\n  in-process: %.300s", op.Query, got, want)
			}
			return nil
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the commit under test, as run.sh found it; a checkout that is
// not a git repository reports a digest of its sources instead.
func commit() string {
	if c := os.Getenv("LOADBENCH_COMMIT"); c != "" {
		return c
	}
	return "unknown"
}
