package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"lotusx/internal/cache"
	"lotusx/internal/core"
	"lotusx/internal/corpus"
	"lotusx/internal/dataguide"
	"lotusx/internal/dataset"
	"lotusx/internal/doc"
	"lotusx/internal/index"
	"lotusx/internal/join"
	"lotusx/internal/metrics"
	"lotusx/internal/obs"
	"lotusx/internal/remote"
	"lotusx/internal/server"
	"lotusx/internal/twig"
)

// The traced run's in-process replay stops after this many operations of
// each class, or after replayBudget, whichever comes first.
const (
	replayCap    = 300
	replayBudget = 20 * time.Second
)

// samples collects named per-layer samples.
type samples map[string][]float64

func (s samples) add(name string, v float64) { s[name] = append(s[name], v) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// runTraced is the per-layer run.  An untraced open loop and a traced one
// (every request with the passive X-Lotusx-Trace: sample header, which keeps
// the hot-path caches in use) run back to back at the workload's rate; the
// ratio of their medians is the tracing overhead.  Server span trees are
// grafted under the benchmark's request spans, scrape deltas cover the
// traced phase, and the traced operations are then replayed in process
// against each layer's public functions.
func runTraced(ctx context.Context, r *runner, d *deployment, ops []Op, dur time.Duration, seed int64, rep *report) error {
	sc := &scrapes{}
	ing := &ingests{}
	stop := make(chan struct{})
	done := make(chan struct{}, 2)
	go func() { r.scrapeLoop(ctx, stop, sc); done <- struct{}{} }()
	bg := 1
	if r.w.IngestEvry > 0 {
		bg++
		until := time.Now().Add(dur)
		go func() { r.ingestLoop(ctx, seed, inbox, until, ing); done <- struct{}{} }()
	}
	// The two phases send different halves of the stream: repeating the
	// untraced half would turn the traced one into cache hits.
	pu := r.openLoop(ctx, ops[:len(ops)/2], dur/2, false, false)
	snap1, proc1, err := scrapeAll(ctx, r, d)
	if err != nil {
		return err
	}
	pt := r.openLoop(ctx, ops[len(ops)/2:], dur/2, true, false)
	snap2, proc2, err := scrapeAll(ctx, r, d)
	if err != nil {
		return err
	}
	close(stop)
	for ; bg > 0; bg-- {
		<-done
	}

	set := func(name string, v float64, unit string, n int) { rep.set(name, v, unit, n) }
	ops2 := float64(max(1, pt.attempted))

	// Tracing overhead and the generator's own schedule.
	all := func(p *phase) []float64 {
		return append(append([]float64(nil), p.lat["query"]...), p.lat["complete"]...)
	}
	set("obs.trace_overhead_ratio", median(all(pt))/median(all(pu)), "ratio", pt.attempted)
	late := append(append([]float64(nil), pu.late...), pt.late...)
	set("bench.generator_late_ms_p99", quantile(late, 0.99), "ms", len(late))
	set("bench.ops_attempted", float64(pu.attempted+pt.attempted), "count", pu.attempted+pt.attempted)

	// Server spans, grafted under the benchmark's request spans.
	spanSamples(r.rec, pt.traced, set)

	// Scrape deltas over the traced phase.
	cacheDeltas(snap1, snap2, ops2, set)
	var shed int64
	for name, ep := range snap2.Endpoints {
		shed += ep.Shed - snap1.Endpoints[name].Shed
	}
	set("httpmw.shed_count", float64(shed), "count", 1)
	var limited, denied int64
	if snap1.Admission != nil && snap2.Admission != nil {
		limited = snap2.Admission.Limited - snap1.Admission.Limited
		denied = snap2.Admission.RetryBudgetDenied - snap1.Admission.RetryBudgetDenied
	}
	set("httpmw.ratelimited_count", float64(limited), "count", 1)
	set("go.alloc_kb_per_op", (proc2.totalAlloc-proc1.totalAlloc)/1024/ops2, "KB", pt.attempted)
	set("go.gc_cycles_per_1k_ops", (proc2.gcCycles-proc1.gcCycles)/ops2*1000, "count", pt.attempted)
	set("go.gc_pause_ms_total", (proc2.gcPauseS-proc1.gcPauseS)*1000, "ms", 1)
	set("metrics.prom_scrape_ms_p50", median(sc.promMS), "ms", len(sc.promMS))
	set("metrics.json_scrape_ms_p50", median(sc.jsonMS), "ms", len(sc.jsonMS))
	set("metrics.prom_kb", median(sc.promKB), "KB", len(sc.promKB))

	// Ingest and compaction: job polls plus counter deltas over the run.
	set("ingest.accept_ms_p50", median(ing.acceptMS), "ms", len(ing.acceptMS))
	set("ingest.visible_s_p50", median(ing.visibleS), "s", len(ing.visibleS))
	set("ingest.queue_wait_ms_p50", median(ing.queueMS), "ms", len(ing.queueMS))
	set("ingest.job_ms_p50", median(ing.jobMS), "ms", len(ing.jobMS))
	var jobsFailed, compactions int64
	var compactMS float64
	if snap2.Ingest != nil {
		jobsFailed, compactions = snap2.Ingest.Failed, snap2.Ingest.Compactions
		compactMS = snap2.Ingest.CompactionRun.P50MS
	}
	set("ingest.jobs_failed", float64(jobsFailed), "count", 1)
	set("corpus.compactions", float64(compactions), "count", 1)
	set("corpus.compact_ms_p50", compactMS, "ms", int(compactions))
	set("corpus.delta_shards_max", float64(sc.deltaMax), "count", len(sc.jsonMS))

	// Remote counters (router only; zero elsewhere).
	var rsearch, hedges, failovers int64
	for name, rm := range snap2.Remotes {
		rsearch += rm.Searches - snap1.Remotes[name].Searches
		hedges += rm.HedgesFired - snap1.Remotes[name].HedgesFired
		failovers += rm.Failovers - snap1.Remotes[name].Failovers
	}
	set("remote.hedges_per_1k", float64(hedges)/float64(max(1, rsearch))*1000, "count", int(rsearch))
	set("remote.failovers", float64(failovers), "count", 1)
	set("remote.budget_denied", float64(denied), "count", 1)

	refs, err := buildRefs(r.w)
	if err != nil {
		return err
	}
	if err := replay(ctx, r, d, refs, pt.traced, set); err != nil {
		return err
	}
	if err := setupLayers(r.w, refs, set); err != nil {
		return err
	}

	rep.attempted += pu.attempted + pt.attempted + sc.attempted + ing.attempted
	rep.failed += pu.failed + pt.failed + sc.failed + ing.failed
	rep.mismatches = append(append(append(rep.mismatches, pu.mismatches...), pt.mismatches...), ing.mismatches...)
	return nil
}

// procStats are cumulative Go runtime counters summed over a deployment.
type procStats struct{ totalAlloc, gcCycles, gcPauseS float64 }

// scrapeAll reads the front's metrics snapshot and every process's runtime
// counters (TotalAlloc from the debug listener's heap profile, GC cycles
// and pause from /api/v1/metrics).
func scrapeAll(ctx context.Context, r *runner, d *deployment) (*metrics.Snapshot, procStats, error) {
	var ps procStats
	front, err := r.metricsSnapshot(ctx)
	if err != nil {
		return nil, ps, err
	}
	for _, p := range d.all {
		snap := front
		if p != d.front {
			c := newClient(p.addr, 1)
			pr := &runner{c: c}
			snap, err = pr.metricsSnapshot(ctx)
			c.close()
			if err != nil {
				return nil, ps, err
			}
		}
		ps.gcCycles += float64(snap.Process.GCCycles)
		ps.gcPauseS += snap.Process.GCPauseTotalSeconds
		alloc, err := totalAlloc(ctx, p.debug)
		if err != nil {
			return nil, ps, err
		}
		ps.totalAlloc += alloc
	}
	return front, ps, nil
}

func totalAlloc(ctx context.Context, debugAddr string) (float64, error) {
	c := newClient(debugAddr, 1)
	defer c.close()
	status, body, err := c.get(ctx, "/debug/pprof/heap?debug=1")
	if err != nil || status != http.StatusOK {
		return 0, fmt.Errorf("heap profile from %s: status %d err %v", debugAddr, status, err)
	}
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "# TotalAlloc = "); ok {
			return strconv.ParseFloat(strings.TrimSpace(v), 64)
		}
	}
	return 0, fmt.Errorf("heap profile from %s has no TotalAlloc", debugAddr)
}

// cacheDeltas turns the hot-path cache counters into hit ratios and an
// eviction rate over the traced phase.
func cacheDeltas(a, b *metrics.Snapshot, ops float64, set func(string, float64, string, int)) {
	var evictions int64
	for _, name := range []string{"results", "completions"} {
		hits := b.Caches[name].Hits - a.Caches[name].Hits
		lookups := hits + b.Caches[name].Misses - a.Caches[name].Misses
		evictions += b.Caches[name].Evictions - a.Caches[name].Evictions
		ratio := 0.0
		if lookups > 0 {
			ratio = float64(hits) / float64(lookups)
		}
		metric := map[string]string{"results": "cache.result_hit_ratio", "completions": "cache.completion_hit_ratio"}[name]
		set(metric, ratio, "ratio", int(lookups))
	}
	set("cache.evictions_per_1k_ops", float64(evictions)/ops*1000, "count", int(ops))
}

// spanSamples derives per-request layer times from the grafted server
// spans: join and rank self time, rewrite enumeration, corpus fan-out and
// merge, and the slowest shard's share of the fan-out.
func spanSamples(rec *Recorder, traced []tracedReq, set func(string, float64, string, int)) {
	spans := rec.Spans()
	self := selfTimes(spans)
	byReq := make(map[int64][]Span)
	for _, s := range spans {
		byReq[s.Req] = append(byReq[s.Req], s)
	}
	sm := samples{}
	for _, t := range traced {
		if t.op.Kind != "query" || t.server == nil {
			continue
		}
		var joinSelf, rankSelf, enum, fanout, merge, slowest time.Duration
		enumerated := false
		for _, s := range byReq[t.req] {
			switch {
			case strings.HasPrefix(s.Name, "server:join:"):
				joinSelf += self[s.ID]
			case s.Name == "server:rank":
				rankSelf += self[s.ID]
			case s.Name == "server:rewrite:enumerate":
				enum += s.End - s.Start
				enumerated = true
			case s.Name == "server:fanout":
				fanout += s.End - s.Start
			case s.Name == "server:merge":
				merge += s.End - s.Start
			case s.Name == "server:shard":
				slowest = max(slowest, s.End-s.Start)
			}
		}
		sm.add("join", ms(joinSelf))
		sm.add("rank", ms(rankSelf))
		if enumerated {
			sm.add("enum", ms(enum))
		}
		if fanout > 0 {
			sm.add("fanout", ms(fanout))
			sm.add("merge", ms(merge))
			sm.add("slowest", float64(slowest)/float64(fanout))
		}
	}
	js := summarize(sm["join"])
	set("join.self_ms_p50", js.P50, "ms", js.N)
	set("join.self_ms_p99", quantile(sm["join"], 0.99), "ms", js.N)
	set("rank.self_ms_p50", median(sm["rank"]), "ms", len(sm["rank"]))
	set("rewrite.enumerate_ms_p50", median(sm["enum"]), "ms", len(sm["enum"]))
	set("corpus.fanout_ms_p50", median(sm["fanout"]), "ms", len(sm["fanout"]))
	set("corpus.merge_ms_p50", median(sm["merge"]), "ms", len(sm["merge"]))
	set("corpus.slowest_shard_share", median(sm["slowest"]), "ratio", len(sm["slowest"]))
}

// ---------------------------------------------------------------- replay

// countingTransport counts response body bytes, the wire size of remote
// RPCs.
type countingTransport struct {
	base  http.RoundTripper
	bytes atomic.Int64
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

func (t *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := t.base.RoundTrip(req)
	if err == nil {
		resp.Body = countingBody{resp.Body, &t.bytes}
	}
	return resp, err
}

// replica is the in-process twin of the deployment the replay drives: a
// server.Server over the same topology, its backends, and (for the router)
// remote clients of the live shard servers.
type replica struct {
	srv      *server.Server
	backends map[string]core.Backend // cache-wrapped, by ?dataset=
	clients  []*remote.Client
	wire     *countingTransport
}

func newReplica(w *Workload, d *deployment, refs []*refData) (*replica, error) {
	rp := &replica{backends: map[string]core.Backend{}}
	catalog := core.NewCatalog()
	reg := metrics.New()
	cfg := server.Config{Metrics: reg, SlowQuery: 250 * time.Millisecond}
	if w.Topology == "router" {
		// The router serves a remote corpus over the live shard servers, with
		// its caches off (the router default).
		cfg.DisableResultCache, cfg.DisableCompletionCache = true, true
		rp.wire = &countingTransport{base: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}}
		met := reg.Remote("cluster")
		var backends []corpus.ShardBackend
		for i, p := range d.all[:len(d.all)-1] {
			c, err := remote.NewClient(remote.ClientConfig{BaseURL: "http://" + p.addr, Metrics: met, Transport: rp.wire})
			if err != nil {
				return nil, err
			}
			rp.clients = append(rp.clients, c)
			sh, err := remote.NewShard(fmt.Sprintf("cluster-%02d", i), []*remote.Client{c}, remote.ShardOptions{Metrics: met})
			if err != nil {
				return nil, err
			}
			backends = append(backends, sh)
		}
		c, err := corpus.NewRemote("cluster", backends, corpus.Config{Metrics: reg.Corpus("cluster")})
		if err != nil {
			return nil, err
		}
		catalog.AddBackend("cluster", c)
	} else {
		for _, r := range refs {
			catalog.AddBackend(r.name, r.backend)
		}
	}
	rp.srv = server.NewCatalogConfig(catalog, cfg)
	set := cache.NewSet(cache.Config{
		Results:     !cfg.DisableResultCache,
		Completions: !cfg.DisableCompletionCache,
		MaxBytes:    64 << 20,
		Metrics:     metrics.New(),
	})
	for _, name := range catalog.Names() {
		b, err := catalog.GetBackend(name)
		if err != nil {
			return nil, err
		}
		rp.backends[name] = set.Wrap(b)
	}
	return rp, nil
}

// replay re-sends the traced operations in process: through
// Server.ServeHTTP, through a cache-wrapped backend, and into the engine
// layers each one exercises (twig, join, rank, rewrite, render, complete,
// remote), each call timed inside a benchmark span.
func replay(ctx context.Context, r *runner, d *deployment, refs []*refData, traced []tracedReq, set func(string, float64, string, int)) error {
	rp, err := newReplica(r.w, d, refs)
	if err != nil {
		return err
	}
	defer rp.srv.Close()
	rec := r.rec
	sm := samples{}
	var evaluated, useful, rewriting float64
	var wireBytes int64
	var remoteQueries int
	counts := map[string]int{}
	deadline := time.Now().Add(replayBudget)
	for _, t := range traced {
		if time.Now().After(deadline) {
			break
		}
		if counts[t.op.Class] >= replayCap {
			continue
		}
		counts[t.op.Class]++
		op := t.op
		reqID := r.reqSeq.Add(1)
		root := rec.add(reqID, 0, "bench:replay:"+op.Kind, time.Now(), time.Now())

		// The server handler in process.
		hreq, err := r.c.request(ctx, op, true)
		if err != nil {
			return err
		}
		hreq.RequestURI = ""
		rw := httptest.NewRecorder()
		handler := rec.time(reqID, root, "layer:server.ServeHTTP", func() { rp.srv.ServeHTTP(rw, hreq) })
		if rw.Code != http.StatusOK {
			return fmt.Errorf("in-process %s answered %d: %.200s", op.Kind, rw.Code, rw.Body.Bytes())
		}
		sm.add("handler", us(handler))
		sm.add("respkb", float64(rw.Body.Len())/1024)
		if t.loop > handler {
			sm.add("transport", us(t.loop-handler))
		}
		var env struct {
			Trace *obs.Node `json:"trace"`
		}
		if err := json.Unmarshal(rw.Body.Bytes(), &env); err == nil && env.Trace != nil {
			root := time.Duration(env.Trace.DurationMS * float64(time.Millisecond))
			sm.add("unspanned", float64(max(0, handler-root))/float64(handler))
		}

		// The cache-wrapped backend: the backend call the handler makes.
		b := rp.backends[op.Dataset]
		if b == nil {
			return fmt.Errorf("no in-process backend for dataset %q", op.Dataset)
		}
		tr := obs.New("bench")
		bctx := obs.ContextWith(ctx, tr.Root())
		var callErr error
		var q *twig.Query
		var parseDur time.Duration
		var call time.Duration
		switch op.Kind {
		case "query":
			parseDur = rec.time(reqID, root, "layer:twig.Parse", func() { q, callErr = twig.Parse(op.Query) })
			if callErr != nil {
				return callErr
			}
			sm.add("parse", us(parseDur))
			call = rec.time(reqID, root, "layer:cache.SearchHits", func() { _, callErr = b.SearchHits(bctx, q, searchOpts(op)) })
		default:
			pq, focus, err := parsePath(op.Path)
			if err != nil {
				return err
			}
			call = rec.time(reqID, root, "layer:cache.Complete", func() {
				switch op.Kind {
				case "tag":
					_, callErr = b.CompleteTags(bctx, pq, focus, parseAxis(op.Axis), op.Prefix, op.K)
				case "value":
					_, callErr = b.CompleteValues(bctx, pq, focus, op.Prefix, op.K)
				default:
					_, callErr = b.ExplainTags(bctx, pq, focus, parseAxis(op.Axis), op.Tag, op.K)
				}
			})
		}
		if callErr != nil {
			return fmt.Errorf("in-process %s: %w", op.Kind, callErr)
		}
		tr.Finish()
		if tr.Root().Attr("cache") == "hit" {
			sm.add("cachehit", us(call))
		}
		sm.add("overhead", us(max(0, handler-call-parseDur)))

		// The engine layers, on the workload's own data.
		ref := refFor(refs, op.Dataset)
		var engines []core.NamedEngine
		if ref != nil {
			engines = ref.backend.Engines()
		}
		switch op.Kind {
		case "query":
			var joinT, rankT, enumT time.Duration
			var scanned, matches int
			for _, ne := range engines {
				e := ne.Engine
				var res *join.Result
				joinT += rec.time(reqID, root, "layer:join.Run", func() {
					res, callErr = join.Run(e.Index(), q, join.TwigStack, join.Options{MaxMatches: 10000, Ctx: ctx})
				})
				if callErr != nil {
					return callErr
				}
				scanned += res.Stats.ElementsScanned
				matches += len(res.Matches)
				rankT += rec.time(reqID, root, "layer:rank.RankContext", func() { e.Ranker().RankContext(ctx, q, res.Matches, 0) })
				want := op.K + op.Offset
				if op.Rewrite && len(res.OutputNodes(q)) < want {
					rewriting++
					ev, uf, dur := rewriteUsefulness(ctx, rec, reqID, root, e, q, res, want)
					evaluated += float64(ev)
					useful += float64(uf)
					enumT += dur
				}
			}
			sm.add("join", ms(joinT))
			sm.add("rank", ms(rankT))
			if enumT > 0 {
				sm.add("enum", ms(enumT))
			}
			if matches > 0 {
				sm.add("scanned", float64(scanned)/float64(matches))
			}
			if ref != nil {
				sm.add("render", ms(renderPage(ctx, rec, reqID, root, ref.whole, q, op)))
			}
			// Direct RPCs to each shard server: the shards have answered
			// these queries for the router already, so this times the remote
			// path itself (client, wire, JSON) over the shards' hot path.
			for _, c := range rp.clients {
				before := rp.wire.bytes.Load()
				var rpcErr error
				rpc := rec.time(reqID, root, "layer:remote.Client.Search", func() {
					_, rpcErr = c.Search(ctx, remote.SearchRequest{Query: op.Query, K: op.K + op.Offset, Rewrite: op.Rewrite, SnippetMax: 400}, remote.TraceOff)
				})
				if rpcErr != nil {
					return fmt.Errorf("remote search: %w", rpcErr)
				}
				sm.add("rpc", ms(rpc))
				wireBytes += rp.wire.bytes.Load() - before
			}
			if len(rp.clients) > 0 {
				remoteQueries++
			}
		default:
			pq, focus, _ := parsePath(op.Path)
			var total time.Duration
			for _, ne := range engines {
				c := ne.Engine.Completer()
				total += rec.time(reqID, root, "layer:complete."+op.Kind, func() {
					switch op.Kind {
					case "tag":
						c.SuggestTagsContext(ctx, pq, focus, parseAxis(op.Axis), op.Prefix, op.K)
					case "value":
						c.SuggestValuesContext(ctx, pq, focus, op.Prefix, op.K)
					default:
						c.ExplainTagContext(ctx, pq, focus, parseAxis(op.Axis), op.Tag, op.K)
					}
				})
			}
			sm.add("complete."+op.Kind, us(total))
		}
		rec.end(root, time.Now())
	}

	set("server.handler_us_p50", median(sm["handler"]), "us", len(sm["handler"]))
	set("server.overhead_us_p50", median(sm["overhead"]), "us", len(sm["overhead"]))
	set("server.response_kb_p50", median(sm["respkb"]), "KB", len(sm["respkb"]))
	set("server.unspanned_share", median(sm["unspanned"]), "ratio", len(sm["unspanned"]))
	set("net.transport_us_p50", median(sm["transport"]), "us", len(sm["transport"]))
	set("cache.hit_us_p50", median(sm["cachehit"]), "us", len(sm["cachehit"]))
	set("twig.parse_us_p50", median(sm["parse"]), "us", len(sm["parse"]))
	set("join.run_ms_p50", median(sm["join"]), "ms", len(sm["join"]))
	set("join.scanned_per_match", median(sm["scanned"]), "ratio", len(sm["scanned"]))
	set("rank.rank_ms_p50", median(sm["rank"]), "ms", len(sm["rank"]))
	set("rewrite.enumerate_call_ms_p50", median(sm["enum"]), "ms", len(sm["enum"]))
	set("rewrite.evaluated_per_query", evaluated/max(1, rewriting), "count", int(rewriting))
	usefulRatio := 0.0
	if evaluated > 0 {
		usefulRatio = useful / evaluated
	}
	set("rewrite.useful_ratio", usefulRatio, "ratio", int(evaluated))
	set("core.render_ms_p50", median(sm["render"]), "ms", len(sm["render"]))
	set("complete.tags_us_p50", median(sm["complete.tag"]), "us", len(sm["complete.tag"]))
	set("complete.values_us_p50", median(sm["complete.value"]), "us", len(sm["complete.value"]))
	set("complete.explain_us_p50", median(sm["complete.explain"]), "us", len(sm["complete.explain"]))
	set("remote.rpc_ms_p50", median(sm["rpc"]), "ms", len(sm["rpc"]))
	set("remote.wire_kb_per_query", float64(wireBytes)/1024/float64(max(1, remoteQueries)), "KB", remoteQueries)
	return nil
}

// rewriteUsefulness enumerates q's relaxations the way the engine does and
// evaluates them until want answers accumulate, counting the relaxations
// evaluated and those that added at least one answer not seen before.
func rewriteUsefulness(ctx context.Context, rec *Recorder, req, parent int64, e *core.Engine, q *twig.Query, exact *join.Result, want int) (evaluated, useful int, enum time.Duration) {
	seen := map[doc.NodeID]bool{}
	for _, n := range exact.OutputNodes(q) {
		seen[n] = true
	}
	var rws []*twig.Query
	enum = rec.time(req, parent, "layer:rewrite.EnumerateContext", func() {
		for _, rw := range e.Rewriter().EnumerateContext(ctx, q, 2.5, 32) {
			rws = append(rws, rw.Query)
		}
	})
	for _, rq := range rws {
		if len(seen) >= want {
			break
		}
		res, err := join.Run(e.Index(), rq, join.TwigStack, join.Options{MaxMatches: 10000, Ctx: ctx})
		if err != nil {
			continue
		}
		evaluated++
		added := false
		for _, n := range res.OutputNodes(rq) {
			if !seen[n] {
				seen[n], added = true, true
			}
		}
		if added {
			useful++
		}
	}
	return evaluated, useful, enum
}

// renderPage times Engine.RenderHit over the op's page on the
// whole-document engine: snippets and highlights.
func renderPage(ctx context.Context, rec *Recorder, req, parent int64, e *core.Engine, q *twig.Query, op Op) time.Duration {
	res, err := e.SearchContext(ctx, q, searchOpts(op))
	if err != nil {
		return 0
	}
	return rec.time(req, parent, "layer:core.RenderHit", func() {
		for _, a := range res.Answers {
			e.RenderHit("", q, a, 400)
		}
	})
}

// setupLayers times the set-up path's layers on the workload's data:
// parsing the generated XML, building the index and the DataGuide, and
// splitting into the workload's shards.  Each is the median of three
// repetitions, summed over the served datasets; resident index bytes come
// from the built indexes.
func setupLayers(w *Workload, refs []*refData, set func(string, float64, string, int)) error {
	var parse, build, guide, split float64
	var resident int64
	for _, r := range refs {
		var xml bytes.Buffer
		if err := dataset.Generate(dataset.Kind(r.kind), w.Scale, datasetSeed, &xml); err != nil {
			return err
		}
		var p, b, g, s []float64
		for i := 0; i < 3; i++ {
			t := time.Now()
			d, err := doc.FromReader(r.doc.Name(), bytes.NewReader(xml.Bytes()))
			if err != nil {
				return err
			}
			p = append(p, ms(time.Since(t)))
			t = time.Now()
			index.Build(d)
			b = append(b, ms(time.Since(t)))
			t = time.Now()
			dataguide.Build(d)
			g = append(g, ms(time.Since(t)))
			t = time.Now()
			if _, err := corpus.SplitDocument(d, w.Shards); err != nil {
				return err
			}
			s = append(s, ms(time.Since(t)))
		}
		parse, build, guide, split = parse+median(p), build+median(b), guide+median(g), split+median(s)
		for _, ne := range r.backend.Engines() {
			resident += ne.Engine.CompressionStats().ResidentBytes
		}
	}
	set("xmlparse.parse_ms", parse, "ms", 3)
	set("index.build_ms", build, "ms", 3)
	set("dataguide.build_ms", guide, "ms", 3)
	set("corpus.split_ms", split, "ms", 3)
	set("index.resident_mb", float64(resident)/(1<<20), "MB", len(refs))
	return nil
}
