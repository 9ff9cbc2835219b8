package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"tdac"
	"tdac/internal/obs"
)

// Engine errors, mapped to HTTP statuses by the handlers.
var (
	// ErrQueueFull reports a submit against a saturated queue (429).
	ErrQueueFull = errors.New("job queue is full")
	// ErrShuttingDown reports a submit after shutdown began (503).
	ErrShuttingDown = errors.New("server is shutting down")
	// ErrUnknownJob reports an id with no job (404).
	ErrUnknownJob = errors.New("unknown job")
)

// JobState is one stage of the job lifecycle. Legal transitions:
// queued → running → done|failed|cancelled, and queued → cancelled
// (cancelled before a worker picked it up).
type JobState string

const (
	JobQueued    JobState = "queued"
	JobRunning   JobState = "running"
	JobDone      JobState = "done"
	JobFailed    JobState = "failed"
	JobCancelled JobState = "cancelled"
)

// JobSpec describes one discovery request: the pinned dataset snapshot
// it must run against and how to run it.
type JobSpec struct {
	// Snapshot is the immutable dataset version the job is pinned to;
	// ingestion after submit never changes what the job observes.
	Snapshot *Snapshot
	// Mode is "tdac" (full Algorithm 1) or "base" (the base algorithm
	// alone, tdac.RunContext).
	Mode string
	// Algorithm is the registered base-algorithm name.
	Algorithm string
	// Options are the assembled tdac options (stats are always added by
	// the runner).
	Options []tdac.Option
	// Timeout is the per-job deadline.
	Timeout time.Duration
	// Key is the client-supplied idempotency key: a resubmit carrying
	// the same key returns the existing job instead of enqueuing a new
	// one ("" = no deduplication).
	Key string
	// Request is the originating discover request in wire form, journaled
	// so a restarted server can rebuild the job.
	Request json.RawMessage
	// Incremental asks the runner to reuse the server's per-dataset
	// incremental discovery state (tdac mode only; see Server.runSpec).
	Incremental bool
}

// JobOutcome is what a finished job produced: exactly one of TDAC or
// Base is set, per the spec's Mode.
type JobOutcome struct {
	TDAC *tdac.Result
	Base *tdac.BaseResult
}

// Stats returns the outcome's observation tree.
func (o *JobOutcome) Stats() *obs.RunStats {
	switch {
	case o == nil:
		return nil
	case o.TDAC != nil:
		return o.TDAC.Stats
	case o.Base != nil:
		return o.Base.Stats
	}
	return nil
}

// Job is one unit of work in the engine. All mutable state is guarded by
// mu; accessors return consistent copies.
type Job struct {
	// ID is the engine-assigned identifier ("job-1", "job-2", …).
	ID string
	// Spec is the immutable request.
	Spec JobSpec

	mu         sync.Mutex
	state      JobState
	err        string
	outcome    *JobOutcome
	enqueuedAt time.Time
	startedAt  time.Time
	finishedAt time.Time
	// cancelRequested survives the queued→running race: a DELETE before
	// the worker picks the job up marks it here and the worker skips it.
	cancelRequested bool
	// cancel aborts the running job's context; nil until running.
	cancel context.CancelFunc
	// done is closed when the job reaches a terminal state.
	done chan struct{}
}

// State returns the job's current state.
func (j *Job) State() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Outcome returns the job's result and error message (both zero until
// the job is terminal).
func (j *Job) Outcome() (*JobOutcome, string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.outcome, j.err
}

// Times returns the lifecycle timestamps (zero when not reached yet).
func (j *Job) Times() (enqueued, started, finished time.Time) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.enqueuedAt, j.startedAt, j.finishedAt
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// finish moves the job to a terminal state and wakes waiters.
func (j *Job) finish(state JobState, outcome *JobOutcome, errMsg string) {
	j.mu.Lock()
	j.state = state
	j.outcome = outcome
	j.err = errMsg
	j.finishedAt = time.Now()
	j.mu.Unlock()
	close(j.done)
}

// RunFunc executes one job. The production function dispatches to
// tdac.DiscoverContext / tdac.RunContext; tests substitute controllable
// fakes. events, when non-nil, receives the run's streaming pipeline
// observations (the engine fans them out to attached watchers).
type RunFunc func(ctx context.Context, spec JobSpec, events obs.EventSink) (*JobOutcome, error)

// defaultRun executes the spec against the real pipeline with stats
// collection on, so the engine can aggregate phase timings.
func defaultRun(ctx context.Context, spec JobSpec, events obs.EventSink) (*JobOutcome, error) {
	opts := append(append([]tdac.Option(nil), spec.Options...), tdac.WithStats())
	if events != nil {
		opts = append(opts, tdac.WithEvents(events))
	}
	if spec.Mode == ModeBase {
		res, err := tdac.RunContext(ctx, spec.Snapshot.Data, spec.Algorithm, opts...)
		if err != nil {
			return nil, err
		}
		return &JobOutcome{Base: res}, nil
	}
	res, err := tdac.DiscoverContext(ctx, spec.Snapshot.Data, opts...)
	if err != nil {
		return nil, err
	}
	return &JobOutcome{TDAC: res}, nil
}

// Job modes.
const (
	ModeTDAC = "tdac"
	ModeBase = "base"
)

// jobJournal persists job lifecycle transitions. JournalSubmit gates
// the enqueue — a job is only acknowledged once its submit record is
// durable — while start/terminal records are best-effort (an
// unjournaled terminal state re-runs the job after a restart,
// at-least-once execution). *Store implements it.
type jobJournal interface {
	JournalSubmit(id string, spec JobSpec) error
	JournalStart(id string)
	JournalEnd(id string, state JobState, errMsg string)
}

// EngineConfig sizes the job engine.
type EngineConfig struct {
	// Workers is the worker-pool size (≥ 1).
	Workers int
	// QueueSize bounds the FIFO backlog (≥ 1); submits beyond it fail
	// with ErrQueueFull.
	QueueSize int
	// MaxJobs bounds the finished-job history kept for polling; the
	// oldest terminal jobs are evicted first (0 = keep everything).
	MaxJobs int
	// Run executes one job; nil means the real pipeline.
	Run RunFunc
	// Aggregate receives every finished job's RunStats (may be nil).
	Aggregate *obs.Aggregate
	// Journal receives lifecycle transitions (nil = no persistence).
	Journal jobJournal
	// IDPrefix prefixes generated job IDs ("s0-" → "s0-job-1"); a
	// cluster router routes a job back to its shard by this prefix.
	IDPrefix string
}

// Counters is a point-in-time copy of the engine's lifetime counters.
type Counters struct {
	Enqueued  uint64 `json:"enqueued"`
	Done      uint64 `json:"done"`
	Failed    uint64 `json:"failed"`
	Cancelled uint64 `json:"cancelled"`
	Rejected  uint64 `json:"rejected"`
}

// Engine runs discovery jobs: a bounded FIFO queue drained by a fixed
// worker pool, with per-job deadlines, cancellation and graceful
// shutdown. All methods are safe for concurrent use.
type Engine struct {
	cfg   EngineConfig
	run   RunFunc
	queue chan *Job
	// events is the per-job stream hub behind GET /v1/jobs/{id}/events.
	events *eventHub

	// baseCtx parents every job context; cancelBase aborts all running
	// jobs at the shutdown drain deadline.
	baseCtx    context.Context
	cancelBase context.CancelFunc

	wg     sync.WaitGroup
	closed atomic.Bool

	mu    sync.Mutex
	jobs  map[string]*Job
	order []string          // insertion order, for listing and eviction
	keys  map[string]string // dedupeKey(spec) → job ID, for retained jobs
	next  int

	running atomic.Int64

	enqueued  atomic.Uint64
	completed atomic.Uint64
	failed    atomic.Uint64
	cancelled atomic.Uint64
	rejected  atomic.Uint64
}

// NewEngine starts an engine with cfg's worker pool running.
func NewEngine(cfg EngineConfig) *Engine {
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	if cfg.QueueSize < 1 {
		cfg.QueueSize = 1
	}
	run := cfg.Run
	if run == nil {
		run = defaultRun
	}
	ctx, cancel := context.WithCancel(context.Background())
	e := &Engine{
		cfg:        cfg,
		run:        run,
		queue:      make(chan *Job, cfg.QueueSize),
		events:     newEventHub(),
		baseCtx:    ctx,
		cancelBase: cancel,
		jobs:       make(map[string]*Job),
		keys:       make(map[string]string),
	}
	e.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go e.worker()
	}
	return e
}

// dedupeKey scopes a spec's idempotency key to the dataset it targets.
// Scoping is per dataset, not global: two clients reusing the same key
// against different datasets are independent submissions and must not be
// coalesced (a dataset name cannot contain '\x00', so the join is
// unambiguous). Resubmits against the same dataset dedupe across
// versions deliberately — the point of the key is to make retries of one
// logical request safe, and a retry races ingestion.
func dedupeKey(spec *JobSpec) string {
	if spec.Key == "" {
		return ""
	}
	return spec.Snapshot.Dataset + "\x00" + spec.Key
}

// Submit enqueues a job for spec. It never blocks: a full queue returns
// ErrQueueFull immediately (the HTTP layer's 429), and an engine that
// began shutting down returns ErrShuttingDown. A spec carrying the
// idempotency key of a job retained for the same dataset returns that
// job with created == false instead of enqueuing a duplicate. The
// enqueue happens under the engine mutex so it can never race Shutdown's
// close of the queue.
func (e *Engine) Submit(spec JobSpec) (j *Job, created bool, err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed.Load() {
		return nil, false, ErrShuttingDown
	}
	if dk := dedupeKey(&spec); dk != "" {
		if id, ok := e.keys[dk]; ok {
			if dup, ok := e.jobs[id]; ok {
				return dup, false, nil
			}
			delete(e.keys, dk) // the job was evicted; the key is free
		}
	}
	// Capacity is checked before the submit record is journaled, so an
	// acknowledged (durable) submit can never then be rejected: only
	// workers drain the queue, space can only grow.
	if len(e.queue) == cap(e.queue) {
		e.rejected.Add(1)
		return nil, false, fmt.Errorf("%w (capacity %d)", ErrQueueFull, cap(e.queue))
	}
	e.next++
	j = &Job{
		ID:         fmt.Sprintf("%sjob-%d", e.cfg.IDPrefix, e.next),
		Spec:       spec,
		state:      JobQueued,
		enqueuedAt: time.Now(),
		done:       make(chan struct{}),
	}
	if e.cfg.Journal != nil {
		if err := e.cfg.Journal.JournalSubmit(j.ID, spec); err != nil {
			e.next--
			return nil, false, err
		}
	}
	// Publish the queued frame before a worker can see the job: once it
	// is on the queue, the worker may render and publish "running" first.
	e.publishState(j)
	e.queue <- j
	e.enqueued.Add(1)
	if dk := dedupeKey(&spec); dk != "" {
		e.keys[dk] = j.ID
	}
	e.jobs[j.ID] = j
	e.order = append(e.order, j.ID)
	e.evictLocked()
	return j, true, nil
}

// resume re-enqueues a job recovered from the journal without writing a
// new submit record. Recovery sizes the queue to hold every recovered
// job and calls this before the HTTP surface starts serving, so the
// push cannot block.
func (e *Engine) resume(id string, spec JobSpec) *Job {
	e.mu.Lock()
	defer e.mu.Unlock()
	j := &Job{
		ID:         id,
		Spec:       spec,
		state:      JobQueued,
		enqueuedAt: time.Now(),
		done:       make(chan struct{}),
	}
	if seq, ok := jobSeq(id); ok && seq > e.next {
		e.next = seq
	}
	e.publishState(j) // before the push, as in Submit
	e.queue <- j
	e.enqueued.Add(1)
	if dk := dedupeKey(&spec); dk != "" {
		e.keys[dk] = id
	}
	e.jobs[id] = j
	e.order = append(e.order, id)
	return j
}

// setNextSeq raises the job ID sequence floor (recovery: IDs of
// terminal journaled jobs must not be reused).
func (e *Engine) setNextSeq(n int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if n > e.next {
		e.next = n
	}
}

// evictLocked drops the oldest terminal jobs beyond the history cap.
// Queued and running jobs are never evicted.
func (e *Engine) evictLocked() {
	if e.cfg.MaxJobs <= 0 {
		return
	}
	for len(e.jobs) > e.cfg.MaxJobs {
		evicted := false
		for i, id := range e.order {
			j := e.jobs[id]
			if j == nil {
				e.order = append(e.order[:i], e.order[i+1:]...)
				evicted = true
				break
			}
			switch j.State() {
			case JobDone, JobFailed, JobCancelled:
				delete(e.jobs, id)
				if dk := dedupeKey(&j.Spec); dk != "" && e.keys[dk] == id {
					delete(e.keys, dk)
				}
				e.order = append(e.order[:i], e.order[i+1:]...)
				// Forget the stream with the job: a watcher still
				// attached was published the terminal event before the
				// job could become evictable, so its stream ends with
				// the result rather than hanging on a forgotten id.
				e.events.drop(id)
				evicted = true
			}
			if evicted {
				break
			}
		}
		if !evicted {
			return // everything live; let the map exceed the cap
		}
	}
}

// Get returns the job with the given id.
func (e *Engine) Get(id string) (*Job, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	j, ok := e.jobs[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownJob, id)
	}
	return j, nil
}

// Jobs returns the retained jobs in submission order.
func (e *Engine) Jobs() []*Job {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]*Job, 0, len(e.order))
	for _, id := range e.order {
		if j, ok := e.jobs[id]; ok {
			out = append(out, j)
		}
	}
	return out
}

// Cancel requests cancellation of a job. A queued job is terminally
// cancelled on the spot; a running job has its context cancelled and
// reaches the cancelled state when the pipeline unwinds. Cancelling an
// already-terminal job is a no-op reporting the current state with
// alreadyTerminal set (the HTTP layer's 409).
func (e *Engine) Cancel(id string) (state JobState, alreadyTerminal bool, err error) {
	j, err := e.Get(id)
	if err != nil {
		return "", false, err
	}
	j.mu.Lock()
	switch j.state {
	case JobQueued:
		j.cancelRequested = true
		j.state = JobCancelled
		j.finishedAt = time.Now()
		j.mu.Unlock()
		close(j.done)
		e.cancelled.Add(1)
		e.publishState(j)
		if e.cfg.Journal != nil {
			e.cfg.Journal.JournalEnd(id, JobCancelled, "cancelled by client")
		}
		return JobCancelled, false, nil
	case JobRunning:
		j.cancelRequested = true
		cancel := j.cancel
		state := j.state
		j.mu.Unlock()
		if cancel != nil {
			cancel()
		}
		return state, false, nil
	default:
		state := j.state
		j.mu.Unlock()
		return state, true, nil
	}
}

// QueueDepth returns the number of queued-but-unstarted jobs.
func (e *Engine) QueueDepth() int { return len(e.queue) }

// QueueCapacity returns the queue bound.
func (e *Engine) QueueCapacity() int { return cap(e.queue) }

// Running returns the number of jobs currently executing.
func (e *Engine) Running() int { return int(e.running.Load()) }

// Saturated reports whether the queue is at capacity (readiness gate).
func (e *Engine) Saturated() bool { return len(e.queue) == cap(e.queue) }

// ShuttingDown reports whether Shutdown has begun.
func (e *Engine) ShuttingDown() bool { return e.closed.Load() }

// Counters returns the lifetime job counters.
func (e *Engine) Counters() Counters {
	return Counters{
		Enqueued:  e.enqueued.Load(),
		Done:      e.completed.Load(),
		Failed:    e.failed.Load(),
		Cancelled: e.cancelled.Load(),
		Rejected:  e.rejected.Load(),
	}
}

// worker drains the queue until Shutdown closes it.
func (e *Engine) worker() {
	defer e.wg.Done()
	for j := range e.queue {
		e.runJob(j)
	}
}

// runJob executes one job through its lifecycle.
func (e *Engine) runJob(j *Job) {
	j.mu.Lock()
	if j.state != JobQueued || j.cancelRequested {
		// Cancelled while queued: Cancel already finished it.
		j.mu.Unlock()
		return
	}
	timeout := j.Spec.Timeout
	ctx := e.baseCtx
	var cancel context.CancelFunc
	if timeout > 0 {
		ctx, cancel = context.WithTimeout(e.baseCtx, timeout)
	} else {
		ctx, cancel = context.WithCancel(e.baseCtx)
	}
	j.state = JobRunning
	j.startedAt = time.Now()
	j.cancel = cancel
	j.mu.Unlock()

	if e.cfg.Journal != nil {
		e.cfg.Journal.JournalStart(j.ID)
	}
	e.publishState(j)
	e.running.Add(1)
	outcome, err := e.run(ctx, j.Spec, e.eventSink(j.ID))
	e.running.Add(-1)
	cancel()

	switch {
	case err == nil:
		if e.cfg.Aggregate != nil {
			e.cfg.Aggregate.Add(outcome.Stats())
		}
		e.completed.Add(1)
		e.finishJob(j, JobDone, outcome, "")
	case errors.Is(err, context.Canceled):
		// context.Canceled reaches a job only through Cancel or the
		// shutdown drain deadline — both are cancellations, not failures.
		e.cancelled.Add(1)
		e.finishJob(j, JobCancelled, nil, err.Error())
	case errors.Is(err, context.DeadlineExceeded):
		e.failed.Add(1)
		e.finishJob(j, JobFailed, nil, fmt.Sprintf("deadline exceeded after %s", j.Spec.Timeout))
	default:
		e.failed.Add(1)
		e.finishJob(j, JobFailed, nil, err.Error())
	}
}

// finishJob records the terminal transition in memory and in the
// journal (which releases the job's snapshot pin on disk).
func (e *Engine) finishJob(j *Job, state JobState, outcome *JobOutcome, errMsg string) {
	j.finish(state, outcome, errMsg)
	// The terminal event seals the stream before the journal write and
	// before eviction can consider the job: watchers always see it.
	e.publishState(j)
	if e.cfg.Journal != nil {
		e.cfg.Journal.JournalEnd(j.ID, state, errMsg)
	}
}

// Shutdown gracefully stops the engine: it refuses new submissions,
// lets workers drain the queued and running jobs, and — if ctx expires
// first — cancels every in-flight job and waits for the workers to
// unwind. Remaining queued jobs are terminally cancelled. Shutdown
// returns ctx.Err() when the drain deadline was hit, nil on a clean
// drain. Calls after the first wait for the same drain.
func (e *Engine) Shutdown(ctx context.Context) error {
	e.mu.Lock()
	if !e.closed.Swap(true) {
		close(e.queue)
	}
	e.mu.Unlock()

	drained := make(chan struct{})
	go func() {
		e.wg.Wait()
		close(drained)
	}()

	select {
	case <-drained:
		e.events.closeAll()
		return nil
	case <-ctx.Done():
		// Drain deadline: abort running jobs and flush the queue.
		e.cancelBase()
		e.markQueuedCancelled()
		<-drained
		e.events.closeAll()
		return ctx.Err()
	}
}

// markQueuedCancelled terminally cancels jobs still in the queued state
// (the workers, unwinding on a cancelled base context, may also race to
// do this — transitions are guarded by the job mutex).
func (e *Engine) markQueuedCancelled() {
	e.mu.Lock()
	jobs := make([]*Job, 0, len(e.jobs))
	for _, j := range e.jobs {
		jobs = append(jobs, j)
	}
	e.mu.Unlock()
	for _, j := range jobs {
		j.mu.Lock()
		if j.state == JobQueued {
			j.cancelRequested = true
			j.state = JobCancelled
			j.err = ErrShuttingDown.Error()
			j.finishedAt = time.Now()
			j.mu.Unlock()
			close(j.done)
			e.cancelled.Add(1)
			e.publishState(j)
			// Journal the cancellation: the API reported these jobs
			// cancelled, so a restart must not resurrect them.
			if e.cfg.Journal != nil {
				e.cfg.Journal.JournalEnd(j.ID, JobCancelled, ErrShuttingDown.Error())
			}
			continue
		}
		j.mu.Unlock()
	}
}
