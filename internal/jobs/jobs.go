// Package jobs is the asynchronous half of the serving tier: a bounded,
// crash-recoverable work queue for the heavy batch campaigns (full
// conformance sweeps, lockstep fuzz runs, backend-equivalence sweeps) that
// have no business holding an HTTP connection open.
//
// A job is submitted, admitted against a queue bound (the caller gets an
// explicit queue-full error to turn into 429 backpressure, never an
// unbounded buffer), executed chunk by chunk by a single worker loop, and
// observed by polling or by a watch channel (the server's SSE feed).
// Every transition is journaled to an fsynced write-ahead log first, so a
// kill -9 mid-campaign loses at most the chunk in flight: on restart the
// interrupted job re-queues with its completed chunks intact and resumes.
// Because every runner is deterministic, a resumed job's result is
// byte-identical to an uninterrupted run's.
//
// The package is inside the determinism-analyzer scope: no wall-clock
// reads (the clock is injected), no raw goroutines (the caller owns the
// worker goroutine and hands its context to Run), no order-sensitive map
// iteration.
package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// State is a job's lifecycle position.
type State string

// The job lifecycle: queued -> running -> done | failed | cancelled.
// A running job interrupted by a crash or shutdown replays as queued.
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// terminal reports whether no further transitions are possible.
func (s State) terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Job is the client-visible record of one queued campaign.
type Job struct {
	ID   string          `json:"id"`
	Kind string          `json:"kind"`
	Spec json.RawMessage `json:"spec"`
	// TimeoutSec bounds the job's total run time (0 = no deadline).
	TimeoutSec  int        `json:"timeout_sec,omitempty"`
	State       State      `json:"state"`
	SubmittedAt time.Time  `json:"submitted_at"`
	StartedAt   *time.Time `json:"started_at,omitempty"`
	FinishedAt  *time.Time `json:"finished_at,omitempty"`
	// ChunksDone/ChunksTotal are the resumable progress cursor: a job
	// interrupted at chunk k restarts at chunk k, not at zero.
	ChunksDone  int             `json:"chunks_done"`
	ChunksTotal int             `json:"chunks_total,omitempty"`
	Error       string          `json:"error,omitempty"`
	Result      json.RawMessage `json:"result,omitempty"`
}

// Event is one Watch notification: a job snapshot tagged with why it was
// emitted.
type Event struct {
	// Type is "snapshot" (the subscription's opening state), "progress"
	// (a chunk completed) or "state" (a lifecycle transition).
	Type string `json:"type"`
	Job  Job    `json:"job"`
}

// Sentinel errors the serving layer maps onto HTTP statuses.
var (
	// ErrQueueFull rejects a submit past the queue bound (HTTP 429).
	ErrQueueFull = errors.New("jobs: queue is full")
	// ErrUnknownJob rejects operations on absent job ids (HTTP 404).
	ErrUnknownJob = errors.New("jobs: no such job")
	// ErrUnknownKind rejects submits for unregistered kinds (HTTP 400).
	ErrUnknownKind = errors.New("jobs: unknown job kind")
	// ErrTerminal rejects cancelling an already-finished job (HTTP 409).
	ErrTerminal = errors.New("jobs: job already finished")
)

// Config sizes and wires a Manager.
type Config struct {
	// Dir holds the write-ahead log; "" runs the queue in memory only
	// (tests, ephemeral replicas).
	Dir string
	// MaxQueued bounds the number of waiting jobs; submits past it fail
	// with ErrQueueFull. <= 0 means 16.
	MaxQueued int
	// Workers is the parallelism handed to each runner chunk; <= 0 means
	// GOMAXPROCS (the internal/exec convention).
	Workers int
	// Runners are the job kinds this queue can execute.
	Runners []Runner
	// Now is the clock (nil = wall clock). Injected so the package stays
	// inside the determinism-analyzer scope and tests can pin timestamps.
	Now func() time.Time
	// Metrics receives queue counters; nil disables.
	Metrics *Metrics
}

// Metric series names for the job queue.
const (
	MetricSubmitted  = "repro_jobs_submitted_total"
	MetricCompleted  = "repro_jobs_completed_total"
	MetricFailed     = "repro_jobs_failed_total"
	MetricCancelled  = "repro_jobs_cancelled_total"
	MetricRejected   = "repro_jobs_rejected_total"
	MetricRecovered  = "repro_jobs_recovered_total"
	MetricChunks     = "repro_jobs_chunks_total"
	MetricQueueDepth = "repro_jobs_queue_depth"
	MetricRunning    = "repro_jobs_running"
)

// Metrics are the queue's counters, registered on an obs.Registry so they
// surface on /metrics next to the request-path series.
type Metrics struct {
	Submitted  *obs.Counter
	Completed  *obs.Counter
	Failed     *obs.Counter
	Cancelled  *obs.Counter
	Rejected   *obs.Counter
	Recovered  *obs.Counter
	Chunks     *obs.Counter
	QueueDepth *obs.Gauge
	Running    *obs.Gauge
}

// NewMetrics registers the queue series on reg (nil = a private registry,
// for callers that want counters without exposition).
func NewMetrics(reg *obs.Registry) *Metrics {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	return &Metrics{
		Submitted:  reg.MustCounter(MetricSubmitted, "jobs admitted to the queue"),
		Completed:  reg.MustCounter(MetricCompleted, "jobs finished successfully"),
		Failed:     reg.MustCounter(MetricFailed, "jobs failed (runner error or deadline)"),
		Cancelled:  reg.MustCounter(MetricCancelled, "jobs cancelled by the client"),
		Rejected:   reg.MustCounter(MetricRejected, "submits rejected by the queue bound"),
		Recovered:  reg.MustCounter(MetricRecovered, "interrupted jobs re-queued at journal replay"),
		Chunks:     reg.MustCounter(MetricChunks, "job chunks executed"),
		QueueDepth: reg.MustGauge(MetricQueueDepth, "jobs waiting in the queue"),
		Running:    reg.MustGauge(MetricRunning, "jobs currently executing (0 or 1)"),
	}
}

// job is the manager-internal record: the public snapshot plus the chunk
// payloads accumulated so far. The payloads only feed a resume and the
// final Reduce, so every terminal transition (live or replayed) drops
// them: a long-lived server's heap must not grow with the jobs it served.
type job struct {
	Job
	chunks []json.RawMessage
}

// terminate applies a terminal state and releases the chunk payloads.
func (j *job) terminate(s State, at *time.Time) {
	j.State = s
	j.FinishedAt = at
	j.chunks = nil
}

// watcher is one Watch subscription.
type watcher struct {
	ch     chan Event
	closed bool
}

// Manager is the queue: admission, journaling, the worker loop and watch
// fan-out. One Manager serves one replica; replicas do not share queues
// (a campaign runs where it was submitted).
type Manager struct {
	cfg     Config
	runners map[string]Runner

	mu       sync.Mutex
	wal      *wal
	jobs     map[string]*job
	order    []string // every job id, in submit order
	seq      int
	running  string             // id executing now, "" when idle
	stopRun  context.CancelFunc // cancels the running job's context
	watchers map[string][]*watcher

	// wake nudges the worker loop after a submit; buffered so Submit
	// never blocks on it.
	wake chan struct{}
}

// New builds a Manager and, when cfg.Dir is set, replays its journal:
// finished jobs come back queryable, queued jobs come back waiting, and a
// job that was mid-run at the crash re-queues with its completed chunks so
// the worker resumes it rather than restarting it.
func New(cfg Config) (*Manager, error) {
	if cfg.MaxQueued <= 0 {
		cfg.MaxQueued = 16
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	m := &Manager{
		cfg:      cfg,
		runners:  map[string]Runner{},
		jobs:     map[string]*job{},
		watchers: map[string][]*watcher{},
		wake:     make(chan struct{}, 1),
	}
	for _, r := range cfg.Runners {
		if _, dup := m.runners[r.Kind()]; dup {
			return nil, fmt.Errorf("jobs: runner kind %q registered twice", r.Kind())
		}
		m.runners[r.Kind()] = r
	}
	if cfg.Dir != "" {
		w, err := openWAL(cfg.Dir, m.applyRecord)
		if err != nil {
			return nil, err
		}
		m.wal = w
	}
	// Re-queue jobs the crash interrupted mid-run and restore gauges.
	depth := 0
	for _, id := range m.order {
		j := m.jobs[id]
		if j.State == StateRunning {
			j.State = StateQueued
			if m.cfg.Metrics != nil {
				m.cfg.Metrics.Recovered.Inc()
			}
		}
		if j.State == StateQueued {
			depth++
		}
	}
	m.setDepth(depth)
	return m, nil
}

// applyRecord folds one journal record into the in-memory state (replay
// path; the live paths mutate state directly and journal the same record).
func (m *Manager) applyRecord(rec walRecord) error {
	switch rec.T {
	case "submit":
		if rec.Job == nil || rec.Job.ID == "" {
			return fmt.Errorf("submit record without a job")
		}
		j := &job{Job: *rec.Job}
		m.jobs[j.ID] = j
		m.order = append(m.order, j.ID)
		if n, err := strconv.Atoi(strings.TrimPrefix(j.ID, "j-")); err == nil && n > m.seq {
			m.seq = n
		}
	case "start":
		j := m.jobs[rec.ID]
		if j == nil {
			return fmt.Errorf("start record for unknown job %q", rec.ID)
		}
		j.State = StateRunning
		j.StartedAt = rec.At
		j.ChunksTotal = rec.Total
	case "chunk":
		j := m.jobs[rec.ID]
		if j == nil {
			return fmt.Errorf("chunk record for unknown job %q", rec.ID)
		}
		if rec.Idx < len(j.chunks) {
			return nil // duplicate from a resumed attempt; first write wins
		}
		if rec.Idx != len(j.chunks) {
			return fmt.Errorf("job %s chunk %d journaled after only %d chunks", rec.ID, rec.Idx, len(j.chunks))
		}
		j.chunks = append(j.chunks, rec.Payload)
		j.ChunksDone = len(j.chunks)
	case "done":
		j := m.jobs[rec.ID]
		if j == nil {
			return fmt.Errorf("done record for unknown job %q", rec.ID)
		}
		j.Result = rec.Result
		j.terminate(StateDone, rec.At)
	case "fail":
		j := m.jobs[rec.ID]
		if j == nil {
			return fmt.Errorf("fail record for unknown job %q", rec.ID)
		}
		j.Error = rec.Error
		j.terminate(StateFailed, rec.At)
	case "cancel":
		j := m.jobs[rec.ID]
		if j == nil {
			return fmt.Errorf("cancel record for unknown job %q", rec.ID)
		}
		j.terminate(StateCancelled, rec.At)
	default:
		return fmt.Errorf("unknown journal record type %q", rec.T)
	}
	return nil
}

// Close releases the journal. The worker loop must have returned first.
func (m *Manager) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.wal.close()
}

// Kinds lists the registered job kinds, sorted.
func (m *Manager) Kinds() []string {
	var kinds []string
	for k := range m.runners {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	return kinds
}

// Submit validates spec against its kind's runner, admits the job against
// the queue bound, journals it and wakes the worker. The returned snapshot
// carries the assigned id.
func (m *Manager) Submit(kind string, spec json.RawMessage, timeoutSec int) (Job, error) {
	r, ok := m.runners[kind]
	if !ok {
		return Job{}, fmt.Errorf("%w: %q (known: %s)", ErrUnknownKind, kind, strings.Join(m.Kinds(), ", "))
	}
	if _, err := r.Prepare(spec); err != nil {
		return Job{}, err
	}
	if timeoutSec < 0 {
		return Job{}, fmt.Errorf("jobs: timeout_sec must be >= 0, got %d", timeoutSec)
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	if m.queueDepthLocked() >= m.cfg.MaxQueued {
		if m.cfg.Metrics != nil {
			m.cfg.Metrics.Rejected.Inc()
		}
		return Job{}, fmt.Errorf("%w: %d jobs waiting", ErrQueueFull, m.queueDepthLocked())
	}
	m.seq++
	j := &job{Job: Job{
		ID:          fmt.Sprintf("j-%06d", m.seq),
		Kind:        kind,
		Spec:        spec,
		TimeoutSec:  timeoutSec,
		State:       StateQueued,
		SubmittedAt: m.cfg.Now().UTC(),
	}}
	if err := m.wal.append(walRecord{T: "submit", Job: &j.Job}); err != nil {
		return Job{}, err
	}
	m.jobs[j.ID] = j
	m.order = append(m.order, j.ID)
	if m.cfg.Metrics != nil {
		m.cfg.Metrics.Submitted.Inc()
	}
	m.setDepth(m.queueDepthLocked())
	select {
	case m.wake <- struct{}{}:
	default:
	}
	return j.Job, nil
}

// Get returns a snapshot of one job.
func (m *Manager) Get(id string) (Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return Job{}, false
	}
	return j.Job, true
}

// List returns snapshots of every job, in submit order.
func (m *Manager) List() []Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Job, 0, len(m.order))
	for _, id := range m.order {
		out = append(out, m.jobs[id].Job)
	}
	return out
}

// Cancel stops a job: a queued job never runs, a running job's context is
// cancelled and its chunk loop stops at the next check. The cancel is
// journaled immediately, so it survives a crash racing the cancellation.
func (m *Manager) Cancel(id string) (Job, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return Job{}, fmt.Errorf("%w: %q", ErrUnknownJob, id)
	}
	if j.State.terminal() {
		return j.Job, fmt.Errorf("%w: %s is %s", ErrTerminal, id, j.State)
	}
	at := m.cfg.Now().UTC()
	if err := m.wal.append(walRecord{T: "cancel", ID: id, At: &at}); err != nil {
		return Job{}, err
	}
	j.terminate(StateCancelled, &at)
	if m.cfg.Metrics != nil {
		m.cfg.Metrics.Cancelled.Inc()
	}
	if m.running == id && m.stopRun != nil {
		m.stopRun()
	}
	m.setDepth(m.queueDepthLocked())
	m.notifyLocked(j, "state")
	return j.Job, nil
}

// Watch subscribes to a job's lifecycle. The channel opens with a
// "snapshot" event, then receives "progress" and "state" events, and
// closes after the terminal event (or immediately after the snapshot if
// the job already finished). The returned stop function releases the
// subscription; it is safe to call after the channel closed. Events are
// delivered best-effort — a slow consumer may miss intermediate progress
// but never the close, so consumers re-read the final state with Get.
func (m *Manager) Watch(id string) (<-chan Event, func(), error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return nil, nil, fmt.Errorf("%w: %q", ErrUnknownJob, id)
	}
	w := &watcher{ch: make(chan Event, 32)}
	w.ch <- Event{Type: "snapshot", Job: j.Job}
	if j.State.terminal() {
		w.closed = true
		close(w.ch)
		return w.ch, func() {}, nil
	}
	m.watchers[id] = append(m.watchers[id], w)
	stop := func() {
		m.mu.Lock()
		defer m.mu.Unlock()
		if w.closed {
			return
		}
		w.closed = true
		close(w.ch)
		live := m.watchers[id][:0]
		for _, o := range m.watchers[id] {
			if o != w {
				live = append(live, o)
			}
		}
		m.watchers[id] = live
	}
	return w.ch, stop, nil
}

// notifyLocked fans an event out to the job's watchers (best-effort,
// non-blocking) and closes the subscription on terminal states. Callers
// hold m.mu.
func (m *Manager) notifyLocked(j *job, typ string) {
	ws := m.watchers[j.ID]
	if len(ws) == 0 {
		return
	}
	ev := Event{Type: typ, Job: j.Job}
	for _, w := range ws {
		if w.closed {
			continue
		}
		select {
		case w.ch <- ev:
		default: // slow consumer: drop; the close below still lands
		}
		if j.State.terminal() {
			w.closed = true
			close(w.ch)
		}
	}
	if j.State.terminal() {
		delete(m.watchers, j.ID)
	}
}

// queueDepthLocked counts waiting jobs. Callers hold m.mu.
func (m *Manager) queueDepthLocked() int {
	n := 0
	for _, id := range m.order {
		if m.jobs[id].State == StateQueued {
			n++
		}
	}
	return n
}

// setDepth publishes the queue-depth gauge.
func (m *Manager) setDepth(n int) {
	if m.cfg.Metrics != nil {
		m.cfg.Metrics.QueueDepth.Set(float64(n))
	}
}

// Run is the worker loop: it drains the queue one job at a time (each job
// parallelizes internally through internal/exec, so running campaigns
// back-to-back maximizes throughput without oversubscribing the cores) and
// parks on the wake channel when idle. It returns when ctx is cancelled; a
// job running at that moment is left in state running in the journal and
// re-queues with its completed chunks on the next New — exactly the crash
// path, exercised on every graceful shutdown.
//
// The caller owns the goroutine: `go mgr.Run(ctx)` from a package outside
// the determinism scope.
func (m *Manager) Run(ctx context.Context) {
	for {
		j := m.claimNext(ctx)
		if j == nil {
			select {
			case <-ctx.Done():
				return
			case <-m.wake:
				continue
			}
		}
		m.runJob(ctx, j)
	}
}

// claimNext pops the oldest queued job and marks it running, journaling
// the start record. Returns nil when the queue is idle or ctx is done.
func (m *Manager) claimNext(ctx context.Context) *job {
	if ctx.Err() != nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, id := range m.order {
		j := m.jobs[id]
		if j.State != StateQueued {
			continue
		}
		r := m.runners[j.Kind]
		if r == nil {
			// A journal from a binary that knew more kinds than this one:
			// fail explicitly rather than wedging the queue.
			m.finishLocked(j, StateFailed, nil, fmt.Sprintf("no runner for kind %q in this binary", j.Kind))
			continue
		}
		total, err := r.Prepare(j.Spec)
		if err != nil {
			m.finishLocked(j, StateFailed, nil, err.Error())
			continue
		}
		at := m.cfg.Now().UTC()
		if err := m.wal.append(walRecord{T: "start", ID: j.ID, Total: total, At: &at}); err != nil {
			m.finishLocked(j, StateFailed, nil, err.Error())
			continue
		}
		j.State = StateRunning
		j.StartedAt = &at
		j.ChunksTotal = total
		m.running = j.ID
		if m.cfg.Metrics != nil {
			m.cfg.Metrics.Running.Set(1)
		}
		m.setDepth(m.queueDepthLocked())
		m.notifyLocked(j, "state")
		return j
	}
	return nil
}

// runJob executes a claimed job chunk by chunk, journaling each completed
// chunk so a crash resumes rather than restarts. Error disposition:
//
//   - worker shutdown (parent ctx cancelled): the job silently reverts to
//     queued in memory and stays running in the journal — the resume path
//   - client cancel: the cancel record was already journaled by Cancel
//   - deadline or runner error: journaled as fail
func (m *Manager) runJob(parent context.Context, j *job) {
	defer func() {
		m.mu.Lock()
		m.running = ""
		m.stopRun = nil
		if m.cfg.Metrics != nil {
			m.cfg.Metrics.Running.Set(0)
		}
		m.mu.Unlock()
	}()

	jctx, cancel := context.WithCancel(parent)
	if j.TimeoutSec > 0 {
		jctx, cancel = context.WithTimeout(parent, time.Duration(j.TimeoutSec)*time.Second)
	}
	defer cancel()
	m.mu.Lock()
	m.stopRun = cancel
	if j.State == StateCancelled {
		// Cancelled between claim and here.
		m.mu.Unlock()
		return
	}
	r := m.runners[j.Kind]
	start := len(j.chunks)
	total := j.ChunksTotal
	m.mu.Unlock()

	for idx := start; idx < total; idx++ {
		payload, err := r.RunChunk(jctx, j.Spec, idx, m.cfg.Workers)
		m.mu.Lock()
		if j.State == StateCancelled {
			m.mu.Unlock()
			return
		}
		if parent.Err() != nil {
			// Shutdown: revert to queued, journal untouched (resume path).
			j.State = StateQueued
			m.setDepth(m.queueDepthLocked())
			m.mu.Unlock()
			return
		}
		if err == nil && jctx.Err() != nil {
			err = jctx.Err()
		}
		if err != nil {
			msg := err.Error()
			if errors.Is(jctx.Err(), context.DeadlineExceeded) {
				msg = fmt.Sprintf("deadline exceeded after %ds (chunk %d/%d)", j.TimeoutSec, idx, total)
			}
			m.finishLocked(j, StateFailed, nil, msg)
			m.mu.Unlock()
			return
		}
		if werr := m.wal.append(walRecord{T: "chunk", ID: j.ID, Idx: idx, Payload: payload}); werr != nil {
			m.finishLocked(j, StateFailed, nil, werr.Error())
			m.mu.Unlock()
			return
		}
		j.chunks = append(j.chunks, payload)
		j.ChunksDone = len(j.chunks)
		if m.cfg.Metrics != nil {
			m.cfg.Metrics.Chunks.Inc()
		}
		m.notifyLocked(j, "progress")
		m.mu.Unlock()
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	if j.State == StateCancelled {
		return
	}
	result, err := r.Reduce(j.Spec, j.chunks)
	if err != nil {
		m.finishLocked(j, StateFailed, nil, err.Error())
		return
	}
	m.finishLocked(j, StateDone, result, "")
}

// finishLocked journals and applies a terminal transition. Callers hold
// m.mu.
func (m *Manager) finishLocked(j *job, s State, result json.RawMessage, errMsg string) {
	at := m.cfg.Now().UTC()
	rec := walRecord{ID: j.ID, At: &at}
	switch s {
	case StateDone:
		rec.T, rec.Result = "done", result
	case StateFailed:
		rec.T, rec.Error = "fail", errMsg
	default:
		rec.T = "cancel"
	}
	// A journal write failure here leaves the job running on disk; replay
	// re-queues and re-runs it, which is safe (deterministic runners) if
	// the disk recovers.
	_ = m.wal.append(rec)
	j.Result = result
	j.Error = errMsg
	j.terminate(s, &at)
	m.setDepth(m.queueDepthLocked())
	if m.cfg.Metrics != nil {
		switch s {
		case StateDone:
			m.cfg.Metrics.Completed.Inc()
		case StateFailed:
			m.cfg.Metrics.Failed.Inc()
		case StateCancelled:
			m.cfg.Metrics.Cancelled.Inc()
		}
	}
	m.notifyLocked(j, "state")
}
