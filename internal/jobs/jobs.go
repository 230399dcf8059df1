// Package jobs is the asynchronous advise layer: a bounded FIFO job
// queue with its own worker pool, per-job progress snapshots,
// cooperative cancellation, single-flight coalescing of identical
// submissions, and TTL'd retention of finished results.
//
// Charles advises interactively, but one advise over a large table
// takes seconds — too long to hold an HTTP request (and a goroutine
// per request) open for. The Manager decouples submission from
// execution: clients enqueue work, poll its progress, cancel it, and
// fetch the result when done, while a fixed worker pool bounds how
// many advises run at once regardless of how many are queued. When
// the queue is full new work is rejected immediately (backpressure
// beats unbounded buffering), and identical concurrent submissions —
// the thundering-herd case of many users opening the same landing
// exploration — coalesce onto one running job.
//
// The Manager is generic over what a job does: it runs RunFuncs and
// threads a context plus a core.ProgressFunc into them. The server
// wraps Advisor.AdviseCtx; tests wrap stubs.
package jobs

import (
	"context"
	"errors"
	"fmt"
	"log"
	"runtime/debug"
	"sync"
	"time"

	"charles/internal/core"
	"charles/internal/fault"
	"charles/internal/obs"
)

// State is a job's lifecycle position: Queued → Running → one of
// Done, Failed, Cancelled, TimedOut. Terminal jobs are retained (with
// their result or error) for Options.TTL, then forgotten.
type State uint8

// Job states.
const (
	StateQueued State = iota
	StateRunning
	StateDone
	StateFailed
	StateCancelled
	// StateTimedOut is a job stopped by its own deadline rather than
	// a caller's cancel — the operator-facing difference between "the
	// client gave up" and "the server's patience ran out".
	StateTimedOut
)

// String names the state for JSON payloads and logs.
func (s State) String() string {
	switch s {
	case StateQueued:
		return "queued"
	case StateRunning:
		return "running"
	case StateDone:
		return "done"
	case StateFailed:
		return "failed"
	case StateCancelled:
		return "cancelled"
	case StateTimedOut:
		return "timed_out"
	default:
		return fmt.Sprintf("state(%d)", uint8(s))
	}
}

// Terminal reports whether the state is final.
func (s State) Terminal() bool { return s >= StateDone }

// Errors returned by Submit and the lookup methods.
var (
	// ErrQueueFull rejects a submission when the FIFO is saturated —
	// the backpressure signal (HTTP 503 at the API layer).
	ErrQueueFull = errors.New("jobs: queue full")
	// ErrClosed rejects submissions after Shutdown began.
	ErrClosed = errors.New("jobs: manager closed")
	// ErrNotFound reports an unknown (or TTL-expired) job id.
	ErrNotFound = errors.New("jobs: no such job")
)

// ErrPanicked is wrapped by the error of a job whose RunFunc panicked
// and was contained by its worker: a bug in the server, where any
// other failure is the advise's own answer to its input. Test with
// errors.Is.
var ErrPanicked = errors.New("jobs: panic recovered")

// RunFunc is the work one job performs. It must honor ctx (return
// promptly with ctx.Err() once cancelled) and may report progress;
// both are threaded straight into Advisor.AdviseCtx by the server.
type RunFunc func(ctx context.Context, progress core.ProgressFunc) (*core.Result, error)

// Options parameterizes a Manager. The zero value gets sensible
// defaults; the queue depth and worker count are deliberately
// independent of the per-advise Config.Workers fan-out — Workers
// here bounds how many advises run at once, Config.Workers bounds
// how many goroutines each of them uses.
type Options struct {
	// QueueDepth bounds the FIFO of jobs waiting for a worker;
	// submissions beyond it fail with ErrQueueFull. Default 64.
	QueueDepth int
	// Workers is the size of the job worker pool. Default 2.
	Workers int
	// TTL is how long a finished job (and its result) stays
	// pollable; expired jobs vanish lazily on the next Manager call.
	// Default 5 minutes.
	TTL time.Duration
	// Timeout is the default deadline applied to every job's run
	// context. Zero means no deadline. A job that exceeds it turns
	// StateTimedOut (not StateCancelled) with a descriptive error.
	Timeout time.Duration
	// Metrics, when set, receives queue-wait and run-duration
	// observations for every executed job. Nil (the default) records
	// nothing.
	Metrics *Metrics
}

// Metrics is the manager's instrumentation hook. All fields are
// nil-safe obs instruments; histograms observe seconds.
type Metrics struct {
	// QueueWait is the time from submission to a worker picking the
	// job up.
	QueueWait *obs.Histogram
	// Run is the time the RunFunc executed (queue wait excluded).
	Run *obs.Histogram
	// PanicsRecovered counts panics a worker contained into a failed
	// job. Any value above zero is a bug report; the point of the
	// counter is that the process was still alive to increment it.
	PanicsRecovered *obs.Counter
}

func (o Options) normalize() Options {
	if o.QueueDepth <= 0 {
		o.QueueDepth = 64
	}
	if o.Workers <= 0 {
		o.Workers = 2
	}
	if o.TTL <= 0 {
		o.TTL = 5 * time.Minute
	}
	return o
}

// Job is one unit of queued work. All mutable fields sit behind its
// own mutex so pollers never contend with the manager lock.
type Job struct {
	id      string
	key     string
	run     RunFunc
	cctx    context.Context
	abort   context.CancelFunc
	done    chan struct{}
	timeout time.Duration // effective deadline; 0 = none

	// trace accumulates per-stage timings for this job: queue wait,
	// total run time, and the advise phases the core layer reports
	// through the context. Created at submission, so even a queued
	// job snapshots a (still empty) trace.
	trace *obs.Trace

	mu       sync.Mutex
	state    State
	prog     core.Progress
	res      *core.Result
	err      error
	created  time.Time
	started  time.Time
	finished time.Time
}

// ID returns the job's manager-unique id.
func (j *Job) ID() string { return j.id }

// Done returns a channel closed when the job reaches a terminal
// state — the no-polling wait for in-process callers.
func (j *Job) Done() <-chan struct{} { return j.done }

// Snapshot returns a consistent copy of the job's current state,
// progress and (when terminal) result or error.
func (j *Job) Snapshot() Snapshot {
	j.mu.Lock()
	defer j.mu.Unlock()
	return Snapshot{
		ID:       j.id,
		Key:      j.key,
		State:    j.state,
		Progress: j.prog,
		Result:   j.res,
		Err:      j.err,
		Created:  j.created,
		Started:  j.started,
		Finished: j.finished,
		Trace:    j.trace.Summary(),
	}
}

// setProgress is the core.ProgressFunc threaded into the RunFunc.
func (j *Job) setProgress(p core.Progress) {
	j.mu.Lock()
	j.prog = p
	j.mu.Unlock()
}

// Snapshot is one point-in-time view of a job.
type Snapshot struct {
	ID       string
	Key      string
	State    State
	Progress core.Progress
	Result   *core.Result
	Err      error
	Created  time.Time
	Started  time.Time
	Finished time.Time
	// Trace is the job's accumulated stage timings: queue_wait and
	// run at the top, advise phases reported by the core layer
	// alongside them. Empty until the job starts moving.
	Trace []obs.StageSummary
}

// Stats summarizes the manager for health endpoints.
type Stats struct {
	// Queued is the number of jobs waiting in the FIFO.
	Queued int
	// QueueCap is the FIFO bound (Options.QueueDepth).
	QueueCap int
	// Running is the number of jobs currently executing.
	Running int
	// Workers is the pool size (Options.Workers).
	Workers int
	// Retained counts every tracked job, terminal ones included.
	Retained int
	// Submitted counts Submit calls that created a new job.
	Submitted int
	// Coalesced counts Submit calls answered by an existing job —
	// the single-flight savings.
	Coalesced int
}

// Manager owns the queue, the worker pool and the job table. The
// FIFO is a slice under the manager lock rather than a channel:
// cancelling a queued job must free its queue slot immediately (a
// channel cannot give a buffered element back), or a client that
// cancels its backlog would keep seeing queue-full until a worker
// happens to drain the corpses.
type Manager struct {
	opt Options
	wg  sync.WaitGroup

	mu        sync.Mutex
	cond      *sync.Cond // signals workers: fifo non-empty or closed
	fifo      []*Job     // jobs awaiting a worker, oldest first
	closed    bool
	seq       int
	jobs      map[string]*Job
	byKey     map[string]*Job // latest live-or-successful job per key
	order     []*Job          // creation order, for List
	running   int
	submitted int
	coalesced int
}

// NewManager starts a manager with its worker pool. Call Shutdown to
// stop it.
func NewManager(opt Options) *Manager {
	opt = opt.normalize()
	m := &Manager{
		opt:   opt,
		jobs:  make(map[string]*Job),
		byKey: make(map[string]*Job),
	}
	m.cond = sync.NewCond(&m.mu)
	m.wg.Add(opt.Workers)
	for i := 0; i < opt.Workers; i++ {
		go m.worker()
	}
	return m
}

// Submit enqueues run under the coalescing key and returns its job.
// If a job with the same key is already queued, running, or done
// within the TTL, that job is returned instead and run never
// executes — M identical concurrent submissions cost exactly one
// execution. Failed and cancelled jobs never coalesce: resubmitting
// after a failure runs fresh. A full queue returns ErrQueueFull, a
// shut-down manager ErrClosed.
func (m *Manager) Submit(key string, run RunFunc) (*Job, error) {
	return m.SubmitTimeout(key, run, 0)
}

// SubmitTimeout is Submit with a per-job deadline override. The
// override can only tighten the manager's Options.Timeout, never
// extend it — a client may ask for less patience than the operator
// configured, not more; zero (or negative) means "use the default".
// A coalesced submission joins the existing job with the existing
// job's deadline.
func (m *Manager) SubmitTimeout(key string, run RunFunc, timeout time.Duration) (*Job, error) {
	if timeout <= 0 || (m.opt.Timeout > 0 && timeout > m.opt.Timeout) {
		timeout = m.opt.Timeout
	}
	now := time.Now()
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, ErrClosed
	}
	m.purgeLocked(now)
	if j, ok := m.byKey[key]; ok {
		m.coalesced++
		return j, nil
	}
	if len(m.fifo) >= m.opt.QueueDepth {
		return nil, ErrQueueFull
	}
	//lint:ctxflow deliberate detach: a queued job outlives its submitting request; cancellation arrives via Job.Cancel/Manager.Shutdown driving abort
	cctx, abort := context.WithCancel(context.Background())
	m.seq++
	j := &Job{
		id:      fmt.Sprintf("job-%d", m.seq),
		key:     key,
		run:     run,
		cctx:    cctx,
		abort:   abort,
		done:    make(chan struct{}),
		timeout: timeout,
		created: now,
		trace:   obs.NewTrace(),
	}
	m.fifo = append(m.fifo, j)
	m.jobs[j.id] = j
	m.byKey[key] = j
	m.order = append(m.order, j)
	m.submitted++
	m.cond.Signal()
	return j, nil
}

// Get returns a snapshot of the job, or ErrNotFound once it expired.
func (m *Manager) Get(id string) (Snapshot, error) {
	m.mu.Lock()
	m.purgeLocked(time.Now())
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return Snapshot{}, ErrNotFound
	}
	return j.Snapshot(), nil
}

// Cancel requests cancellation of the job: a queued job becomes
// Cancelled immediately; a running job's context is cancelled and
// the job turns Cancelled when its RunFunc unwinds (the advise stops
// at its next task boundary). Cancelling a terminal job is a no-op.
func (m *Manager) Cancel(id string) error {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return ErrNotFound
	}
	m.cancelJob(j)
	return nil
}

// cancelJob cancels one non-terminal job: its context is aborted,
// its coalescing entry is dropped at once — new submissions of the
// key must run fresh, not join a doomed job — and, when it never
// started running, it is finalized in place and its queue slot
// freed.
func (m *Manager) cancelJob(j *Job) {
	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		return
	}
	wasQueued := j.state == StateQueued
	if wasQueued {
		j.state = StateCancelled
		j.err = context.Canceled
		j.finished = time.Now()
		close(j.done)
	}
	j.mu.Unlock()
	j.abort()
	m.mu.Lock()
	if wasQueued {
		for i, q := range m.fifo {
			if q == j {
				m.fifo = append(m.fifo[:i], m.fifo[i+1:]...)
				break
			}
		}
	}
	if m.byKey[j.key] == j {
		delete(m.byKey, j.key)
	}
	m.mu.Unlock()
}

// List returns a snapshot of every tracked job in creation order.
func (m *Manager) List() []Snapshot {
	m.mu.Lock()
	m.purgeLocked(time.Now())
	js := make([]*Job, len(m.order))
	copy(js, m.order)
	m.mu.Unlock()
	out := make([]Snapshot, len(js))
	for i, j := range js {
		out[i] = j.Snapshot()
	}
	return out
}

// Stats returns queue and pool gauges for health reporting.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.purgeLocked(time.Now())
	return Stats{
		Queued:    len(m.fifo),
		QueueCap:  m.opt.QueueDepth,
		Running:   m.running,
		Workers:   m.opt.Workers,
		Retained:  len(m.jobs),
		Submitted: m.submitted,
		Coalesced: m.coalesced,
	}
}

// Shutdown stops the manager gracefully: new submissions fail with
// ErrClosed, still-queued jobs are cancelled, and running jobs drain
// — Shutdown returns once every worker is idle, or with ctx's error
// if the deadline expires first (workers keep draining regardless).
func (m *Manager) Shutdown(ctx context.Context) error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
	} else {
		m.closed = true
		pending := make([]*Job, len(m.fifo))
		copy(pending, m.fifo)
		m.cond.Broadcast()
		m.mu.Unlock()
		// Queued jobs are cancelled; running jobs are left to finish
		// (that is the drain).
		for _, j := range pending {
			m.cancelJob(j)
		}
	}
	drained := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(drained)
	}()
	select {
	case <-drained:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// purgeLocked forgets terminal jobs older than the TTL. Caller holds
// m.mu.
func (m *Manager) purgeLocked(now time.Time) {
	kept := m.order[:0]
	for _, j := range m.order {
		s := j.Snapshot()
		if s.State.Terminal() && !s.Finished.IsZero() && now.Sub(s.Finished) > m.opt.TTL {
			delete(m.jobs, j.id)
			if m.byKey[j.key] == j {
				delete(m.byKey, j.key)
			}
			continue
		}
		kept = append(kept, j)
	}
	m.order = kept
}

// worker pops FIFO jobs until the manager is closed and drained.
func (m *Manager) worker() {
	defer m.wg.Done()
	for {
		m.mu.Lock()
		for len(m.fifo) == 0 && !m.closed {
			m.cond.Wait()
		}
		if len(m.fifo) == 0 {
			m.mu.Unlock()
			return
		}
		j := m.fifo[0]
		m.fifo[0] = nil
		m.fifo = m.fifo[1:]
		m.mu.Unlock()
		m.execute(j)
	}
}

// execute runs one job to a terminal state.
func (m *Manager) execute(j *Job) {
	j.mu.Lock()
	if j.state != StateQueued { // cancelled while waiting
		j.mu.Unlock()
		return
	}
	j.state = StateRunning
	j.started = time.Now()
	started, created := j.started, j.created
	j.mu.Unlock()

	wait := started.Sub(created)
	j.trace.Observe("queue_wait", wait)
	if m.opt.Metrics != nil {
		m.opt.Metrics.QueueWait.Observe(wait.Seconds())
	}

	m.mu.Lock()
	m.running++
	m.mu.Unlock()

	// The run context is the job's cancel context, tightened by the
	// job's deadline when one is set. The two are distinguishable
	// afterwards: a fired deadline leaves j.cctx clean.
	rctx := j.cctx
	cancel := context.CancelFunc(func() {})
	if j.timeout > 0 {
		rctx, cancel = context.WithTimeout(rctx, j.timeout)
	}

	// The job's trace rides the run context so the advise core can
	// report its stages (obs.TraceFrom) without the jobs layer
	// knowing what a stage is.
	spRun := j.trace.Start("run")
	res, err := m.runContained(j, obs.ContextWithTrace(rctx, j.trace))
	spRun.End()
	timedOut := j.timeout > 0 && rctx.Err() == context.DeadlineExceeded && j.cctx.Err() == nil
	cancel()
	if m.opt.Metrics != nil {
		m.opt.Metrics.Run.Observe(time.Since(started).Seconds())
	}

	m.mu.Lock()
	m.running--
	if err != nil && m.byKey[j.key] == j {
		// Only successful results may serve future submissions of
		// the same key. Unmap before done closes, so a waiter that
		// resubmits as soon as it wakes runs fresh instead of
		// joining this failed job.
		delete(m.byKey, j.key)
	}
	m.mu.Unlock()

	j.mu.Lock()
	j.finished = time.Now()
	switch {
	case err == nil:
		// A run that completed wins over a cancel that raced in at
		// the finish line: the result exists, discarding it would
		// only desynchronize the job from the caches it already fed.
		j.state = StateDone
		j.res = res
	case timedOut && (errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled)):
		j.state = StateTimedOut
		j.err = fmt.Errorf("jobs: job %s exceeded its %v deadline: %w", j.id, j.timeout, context.DeadlineExceeded)
	case errors.Is(err, context.Canceled) || j.cctx.Err() != nil:
		j.state = StateCancelled
		j.err = err
	default:
		j.state = StateFailed
		j.err = err
	}
	close(j.done)
	j.mu.Unlock()
}

// runContained invokes the job's RunFunc with panic containment: a
// panicking advise marks its own job failed with a descriptive error
// and the worker (and process) live on. The stack goes to the log —
// the panic is still a bug to fix — and PanicsRecovered counts it so
// dashboards see containment events even when nobody reads logs.
func (m *Manager) runContained(j *Job, ctx context.Context) (res *core.Result, err error) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		if m.opt.Metrics != nil {
			m.opt.Metrics.PanicsRecovered.Inc()
		}
		log.Printf("jobs: panic recovered in job %s: %v\n%s", j.id, r, debug.Stack())
		res, err = nil, fmt.Errorf("%w in job %s: %v", ErrPanicked, j.id, r)
	}()
	if ferr := fault.Inject("jobs.run"); ferr != nil {
		return nil, fmt.Errorf("jobs: job %s: %w", j.id, ferr)
	}
	return j.run(ctx, j.setProgress)
}
