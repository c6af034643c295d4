// Package ingest is the async ingestion pipeline behind the admin write API:
// a bounded in-memory job queue with a fixed worker pool.  Admin handlers
// spool the request body, enqueue a job and answer 202 immediately; workers
// run the actual split+index+publish (internal/corpus) off the request path,
// and clients poll GET /api/v1/jobs/{id} until the job reaches a terminal
// state.
//
// Concurrent identical submissions coalesce: a job carries a dedup key
// (dataset name + content hash + split arity, computed by the handler), and
// while a job with that key is queued or running, further enqueues return the
// existing job instead of creating a new one — two clients uploading the same
// document index it once and poll the same job.
//
// The queue itself is in-memory, but accepted work survives a crash: the
// admin layer records every accepted ingest in the durable Journal (this
// package) before answering 202, keeps the spooled body until the job
// reaches a terminal state, and replays accepts without a terminal record on
// restart.  Replay is idempotent because corpus publication replaces
// same-name shards and groups.  Terminal jobs are retained in a bounded ring
// for polling, then forgotten — the journal, not the ring, is the durable
// promise.
package ingest

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sort"
	"strings"
	"sync"
	"time"

	"lotusx/internal/faults"
	"lotusx/internal/metrics"
	"lotusx/internal/obs"
)

// FaultJob names the injection site at the head of every job run; the key is
// the job's dataset.  An armed injection fails the job as if its Run had —
// the deterministic path to a failed job for tests.
const FaultJob = "ingest/job"

// ErrQueueFull reports that Enqueue found the queue at capacity.  The admin
// layer maps it to 503 so clients retry with backoff rather than pile on.
var ErrQueueFull = errors.New("ingest: job queue full")

// ErrClosed reports an Enqueue after Close.
var ErrClosed = errors.New("ingest: queue closed")

// ErrUnknownJob reports a Get/Wait for an id that was never enqueued or has
// aged out of retention.
var ErrUnknownJob = errors.New("ingest: unknown job")

// Job states, in lifecycle order.  queued and running are live; done and
// failed are terminal.
const (
	StateQueued  = "queued"
	StateRunning = "running"
	StateDone    = "done"
	StateFailed  = "failed"
)

// Result is what a job's Run reports on success.
type Result struct {
	// Shards counts the shards the job published (0 for jobs that publish
	// none, e.g. a compaction that found nothing to do).
	Shards int
	// Seq is the corpus snapshot sequence the job published, 0 if none.
	Seq uint64
}

// Request describes one unit of work to enqueue.
type Request struct {
	// Kind labels the work: "dataset" (create/replace), "shard" (delta
	// append), "compact" (fold deltas into base shards).
	Kind string
	// Dataset names the corpus the job mutates.
	Dataset string
	// Key is the dedup key; enqueues sharing a Key while one is live coalesce
	// onto the existing job.  Empty disables dedup for this job.
	Key string
	// Bytes is the spooled payload size, for the job's status view.
	Bytes int64
	// Run does the work.  It must honor ctx and is called from a worker
	// goroutine with an obs trace rooted in ctx.
	Run func(ctx context.Context) (Result, error)
	// Cleanup, when non-nil, runs exactly once after Run returns (or, when
	// the queue shuts down before the job starts, when the job is failed) —
	// the hook that deletes the spooled body.
	Cleanup func()
}

// Job is an immutable snapshot of one job's status — the JSON body of the
// jobs API.
type Job struct {
	ID      string `json:"id"`
	Kind    string `json:"kind"`
	Dataset string `json:"dataset"`
	State   string `json:"state"`
	// Error is the failure message; set only in state "failed".
	Error string `json:"error,omitempty"`
	// Bytes is the spooled payload size.
	Bytes int64 `json:"bytes,omitempty"`
	// Shards and Seq report what the job published; set only in state "done".
	Shards int    `json:"shards,omitempty"`
	Seq    uint64 `json:"seq,omitempty"`
	// Deduped counts later identical submissions coalesced onto this job.
	Deduped int64 `json:"deduped,omitempty"`

	EnqueuedAt time.Time  `json:"enqueuedAt"`
	StartedAt  *time.Time `json:"startedAt,omitempty"`
	FinishedAt *time.Time `json:"finishedAt,omitempty"`
	// QueueMS and RunMS are the measured phase durations, milliseconds.
	// QueueMS is set once the job starts; RunMS once it finishes.
	QueueMS float64 `json:"queueMs,omitempty"`
	RunMS   float64 `json:"runMs,omitempty"`
}

// Terminal reports whether the job has finished (successfully or not).
func (j Job) Terminal() bool { return j.State == StateDone || j.State == StateFailed }

// job is the live, mutable record behind a Job snapshot.
type job struct {
	id      string
	kind    string
	dataset string
	key     string
	bytes   int64
	run     func(ctx context.Context) (Result, error)
	cleanup func()

	mu       sync.Mutex
	state    string
	err      string
	res      Result
	deduped  int64
	enqueued time.Time
	started  time.Time
	finished time.Time

	done chan struct{} // closed on terminal state
}

// snapshot materializes the job's public view.
func (j *job) snapshot() Job {
	j.mu.Lock()
	defer j.mu.Unlock()
	s := Job{
		ID:         j.id,
		Kind:       j.kind,
		Dataset:    j.dataset,
		State:      j.state,
		Error:      j.err,
		Bytes:      j.bytes,
		Deduped:    j.deduped,
		EnqueuedAt: j.enqueued,
	}
	if j.state == StateDone {
		s.Shards = j.res.Shards
		s.Seq = j.res.Seq
	}
	if !j.started.IsZero() {
		t := j.started
		s.StartedAt = &t
		s.QueueMS = durMS(j.started.Sub(j.enqueued))
	}
	if !j.finished.IsZero() {
		t := j.finished
		s.FinishedAt = &t
		s.RunMS = durMS(j.finished.Sub(j.started))
	}
	return s
}

func durMS(d time.Duration) float64 {
	return float64(d.Microseconds()) / 1000
}

// Config configures a Queue.  The zero value is usable: 2 workers, a
// 32-deep queue, 64 retained terminal jobs, no metrics, no fault injection.
type Config struct {
	// Workers is the worker-goroutine count (default 2).
	Workers int
	// Capacity bounds the queued-but-not-running backlog (default 32);
	// Enqueue beyond it returns ErrQueueFull.
	Capacity int
	// Retain bounds how many terminal jobs stay pollable (default 64);
	// beyond it the oldest terminal job is forgotten.
	Retain int
	// Metrics, when non-nil, receives job counters and phase latencies.
	Metrics *metrics.IngestMetrics
	// Stages, when non-nil, receives each finished job's span tree folded
	// into per-stage histograms (same scheme as the HTTP layer's traces).
	Stages *metrics.Registry
	// Faults, when non-nil, arms the FaultJob injection site.
	Faults *faults.Registry
	// Logger, when non-nil, logs job completions and failures.
	Logger *slog.Logger
}

// Queue is the bounded worker pool.  All methods are safe for concurrent use.
type Queue struct {
	cfg    Config
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu       sync.Mutex
	closed   bool
	nextID   int64
	jobs     map[string]*job // every retained job, by id
	active   map[string]*job // queued or running jobs, by dedup key
	terminal []string        // terminal job ids, oldest first (retention ring)
	intake   chan *job
}

// New starts a Queue with cfg's worker pool.
func New(cfg Config) *Queue {
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.Capacity <= 0 {
		cfg.Capacity = 32
	}
	if cfg.Retain <= 0 {
		cfg.Retain = 64
	}
	ctx, cancel := context.WithCancel(context.Background())
	q := &Queue{
		cfg:    cfg,
		ctx:    ctx,
		cancel: cancel,
		jobs:   make(map[string]*job),
		active: make(map[string]*job),
		intake: make(chan *job, cfg.Capacity),
	}
	for i := 0; i < cfg.Workers; i++ {
		q.wg.Add(1)
		go q.worker()
	}
	return q
}

// Enqueue submits req.  It returns the job's status snapshot plus created ==
// true for a fresh job, or created == false when the submission coalesced
// onto a live identical job (same non-empty Key).  It fails fast with
// ErrQueueFull at capacity and ErrClosed after Close.
func (q *Queue) Enqueue(req Request) (Job, bool, error) {
	if req.Run == nil {
		return Job{}, false, errors.New("ingest: request without Run")
	}
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return Job{}, false, ErrClosed
	}
	if req.Key != "" {
		if live := q.active[req.Key]; live != nil {
			live.mu.Lock()
			live.deduped++
			live.mu.Unlock()
			q.mu.Unlock()
			if m := q.cfg.Metrics; m != nil {
				m.Deduped.Add(1)
			}
			if req.Cleanup != nil {
				req.Cleanup()
			}
			return live.snapshot(), false, nil
		}
	}
	q.nextID++
	j := &job{
		id:       fmt.Sprintf("j%06d", q.nextID),
		kind:     req.Kind,
		dataset:  req.Dataset,
		key:      req.Key,
		bytes:    req.Bytes,
		run:      req.Run,
		cleanup:  req.Cleanup,
		state:    StateQueued,
		enqueued: time.Now(),
		done:     make(chan struct{}),
	}
	select {
	case q.intake <- j:
	default:
		q.mu.Unlock()
		if m := q.cfg.Metrics; m != nil {
			m.Rejected.Add(1)
		}
		if req.Cleanup != nil {
			req.Cleanup()
		}
		return Job{}, false, ErrQueueFull
	}
	q.jobs[j.id] = j
	if j.key != "" {
		q.active[j.key] = j
	}
	depth := len(q.intake)
	q.mu.Unlock()
	if m := q.cfg.Metrics; m != nil {
		m.Enqueued.Add(1)
		m.SetDepth(depth)
	}
	return j.snapshot(), true, nil
}

// Get returns the status snapshot of the identified job.
func (q *Queue) Get(id string) (Job, error) {
	q.mu.Lock()
	j := q.jobs[id]
	q.mu.Unlock()
	if j == nil {
		return Job{}, ErrUnknownJob
	}
	return j.snapshot(), nil
}

// List returns every retained job, newest enqueue first.
func (q *Queue) List() []Job {
	q.mu.Lock()
	all := make([]*job, 0, len(q.jobs))
	for _, j := range q.jobs {
		all = append(all, j)
	}
	q.mu.Unlock()
	out := make([]Job, len(all))
	for i, j := range all {
		out[i] = j.snapshot()
	}
	sort.Slice(out, func(a, b int) bool {
		if !out[a].EnqueuedAt.Equal(out[b].EnqueuedAt) {
			return out[a].EnqueuedAt.After(out[b].EnqueuedAt)
		}
		return out[a].ID > out[b].ID
	})
	return out
}

// Wait blocks until the identified job reaches a terminal state (returning
// its final snapshot) or ctx is done.  It backs the ?sync=1 escape hatch.
func (q *Queue) Wait(ctx context.Context, id string) (Job, error) {
	q.mu.Lock()
	j := q.jobs[id]
	q.mu.Unlock()
	if j == nil {
		return Job{}, ErrUnknownJob
	}
	select {
	case <-j.done:
		return j.snapshot(), nil
	case <-ctx.Done():
		return j.snapshot(), ctx.Err()
	}
}

// Depth returns the queued-but-not-running backlog.
func (q *Queue) Depth() int { return len(q.intake) }

// Close stops intake, cancels running jobs' contexts, fails still-queued
// jobs and waits for the workers to exit.
func (q *Queue) Close() {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		q.wg.Wait()
		return
	}
	q.closed = true
	close(q.intake)
	q.mu.Unlock()
	q.cancel()
	q.wg.Wait()
}

// Drain stops intake and waits for queued and running jobs to finish, up to
// ctx's deadline.  Unlike Close, running jobs keep their context until the
// deadline expires, so a SIGTERM'd server finishes accepted work instead of
// abandoning it.  On timeout the remaining jobs' contexts are cancelled and
// Drain waits for the workers to exit before returning ctx's error.
func (q *Queue) Drain(ctx context.Context) error {
	q.mu.Lock()
	if !q.closed {
		q.closed = true
		close(q.intake)
	}
	q.mu.Unlock()
	done := make(chan struct{})
	go func() {
		q.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
	}
	q.cancel()
	<-done
	return err
}

// worker drains the intake channel until Close.
func (q *Queue) worker() {
	defer q.wg.Done()
	for j := range q.intake {
		q.runJob(j)
	}
}

// runJob executes one job and drives its state machine.
func (q *Queue) runJob(j *job) {
	m := q.cfg.Metrics
	j.mu.Lock()
	j.state = StateRunning
	j.started = time.Now()
	wait := j.started.Sub(j.enqueued)
	j.mu.Unlock()
	if m != nil {
		m.SetDepth(len(q.intake))
		m.AddRunning(1)
		m.QueueWait.Observe(wait)
	}

	// Every job is traced; the finished tree folds into the per-stage
	// histograms, so ingest stage latencies (split, index, publish, compact)
	// are always-on aggregates just like the query pipeline's.
	tr := obs.New("ingest:" + j.kind)
	tr.Root().Set("dataset", j.dataset)
	ctx := obs.ContextWith(q.ctx, tr.Root())

	var res Result
	err := q.cfg.Faults.Fire(ctx, FaultJob, j.dataset)
	if err == nil {
		// If the queue shut down between dequeue and here, fail fast.
		if err = ctx.Err(); err == nil {
			res, err = j.run(ctx)
		}
	}
	if j.cleanup != nil {
		j.cleanup()
	}
	tr.Root().SetErr(err)
	tr.Finish()
	if st := q.cfg.Stages; st != nil {
		tr.Each(func(sp *obs.Span) {
			name := sp.Name()
			if !strings.HasPrefix(name, "ingest:") {
				name = "ingest:" + name
			}
			st.Stage(name).Observe(sp.Duration())
		})
	}

	j.mu.Lock()
	j.finished = time.Now()
	elapsed := j.finished.Sub(j.started)
	if err != nil {
		j.state = StateFailed
		j.err = err.Error()
	} else {
		j.state = StateDone
		j.res = res
	}
	j.mu.Unlock()
	// Retire before signalling done: a waiter that resubmits the same key
	// the moment Wait returns must not be coalesced into this finished job.
	q.retire(j)
	close(j.done)

	if m != nil {
		m.AddRunning(-1)
		m.Run.Observe(elapsed)
		if err != nil {
			m.Failed.Add(1)
		} else {
			m.Done.Add(1)
		}
	}
	if lg := q.cfg.Logger; lg != nil {
		if err != nil {
			lg.Error("ingest job failed", "job", j.id, "kind", j.kind, "dataset", j.dataset, "elapsed", elapsed.Round(time.Millisecond), "err", err)
		} else {
			lg.Info("ingest job done", "job", j.id, "kind", j.kind, "dataset", j.dataset, "elapsed", elapsed.Round(time.Millisecond), "shards", res.Shards, "seq", res.Seq)
		}
	}
}

// retire moves a terminal job out of the dedup set and enforces retention.
func (q *Queue) retire(j *job) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if j.key != "" && q.active[j.key] == j {
		delete(q.active, j.key)
	}
	q.terminal = append(q.terminal, j.id)
	for len(q.terminal) > q.cfg.Retain {
		old := q.terminal[0]
		q.terminal = q.terminal[1:]
		delete(q.jobs, old)
	}
}
