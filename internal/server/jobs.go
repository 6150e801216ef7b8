package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/dispatch"
	"repro/internal/obs"
	"repro/internal/sweep"
)

// JobStatus classifies a server job's lifecycle state.
type JobStatus string

// Server-level job states. Done means the sweep ran to completion — the
// per-analysis outcomes inside it may still include failures; Canceled jobs
// keep the partial aggregate the engine flushed on interrupt.
const (
	StatusQueued   JobStatus = "queued"
	StatusRunning  JobStatus = "running"
	StatusDone     JobStatus = "done"
	StatusFailed   JobStatus = "failed"
	StatusCanceled JobStatus = "canceled"
)

func (s JobStatus) finished() bool {
	return s == StatusDone || s == StatusFailed || s == StatusCanceled
}

// Event is one progress notification on a job's stream. Seq is dense and
// 1-based per job, so SSE clients resume with Last-Event-ID.
type Event struct {
	Seq  int    `json:"seq"`
	Type string `json:"type"` // queued | start | job_start | job_done | done
	// Job identifies the analysis for job_start/job_done events.
	Job *sweep.Job `json:"job,omitempty"`
	// Done/Total track sweep progress on job_* and done events.
	Done  int `json:"done,omitempty"`
	Total int `json:"total,omitempty"`
	// Status is the analysis outcome on job_done and the server job status
	// on done events.
	Status      string `json:"status,omitempty"`
	NewtonIters int    `json:"newton_iters,omitempty"`
	OK          int    `json:"ok,omitempty"`
	Failed      int    `json:"failed,omitempty"`
	Canceled    int    `json:"canceled,omitempty"`
	Err         string `json:"err,omitempty"`
}

// Submission errors surfaced as HTTP statuses by the handlers.
var (
	errDraining = errors.New("server is draining")
	errBusy     = errors.New("job queue is full")
)

// jobState is one tracked simulation. Attachment counting implements the
// cancellation policy: a job keeps computing while it has at least one
// attached client (synchronous submitter, singleflight joiner, or event
// follower) or was pinned by an asynchronous submit; when the last
// attachment drops on an unpinned unfinished job, its context is canceled
// and the Newton iterations unwind cooperatively.
type jobState struct {
	id  string
	mgr *manager

	mu       sync.Mutex
	status   JobStatus
	name     string
	key      string // result-cache key ("" = uncacheable)
	flight   string // singleflight identity while in-flight
	created  time.Time
	cached   bool // served straight from the result cache
	pinned   bool
	refs     int
	events   []Event
	notify   chan struct{} // closed and replaced on every append
	result   []byte        // timing-free WriteJSON bytes (partial on cancel)
	errMsg   string
	total    int
	ok, fail int
	canc     int
	iters    int

	// rec holds the job's span recorder when the request asked for tracing
	// (Request.Trace); nil otherwise. Served by GET /v1/jobs/{id}/trace.
	rec *obs.Recorder

	cancel    context.CancelFunc
	ctxForRun context.Context
	done      chan struct{}
}

// JobInfo is the status summary served by GET /v1/jobs[/{id}].
type JobInfo struct {
	ID       string    `json:"id"`
	Name     string    `json:"name"`
	Status   JobStatus `json:"status"`
	Cached   bool      `json:"cached,omitempty"`
	Created  time.Time `json:"created"`
	Total    int       `json:"total_jobs,omitempty"`
	OK       int       `json:"ok,omitempty"`
	Failed   int       `json:"failed,omitempty"`
	Canceled int       `json:"canceled,omitempty"`
	Err      string    `json:"err,omitempty"`
	Key      string    `json:"key,omitempty"`
}

func (j *jobState) info() JobInfo {
	j.mu.Lock()
	defer j.mu.Unlock()
	return JobInfo{
		ID: j.id, Name: j.name, Status: j.status, Cached: j.cached,
		Created: j.created, Total: j.total,
		OK: j.ok, Failed: j.fail, Canceled: j.canc,
		Err: j.errMsg, Key: j.key,
	}
}

func (j *jobState) appendEventLocked(ev Event) {
	ev.Seq = len(j.events) + 1
	j.events = append(j.events, ev)
	close(j.notify)
	j.notify = make(chan struct{})
}

func (j *jobState) appendEvent(ev Event) {
	j.mu.Lock()
	j.appendEventLocked(ev)
	j.mu.Unlock()
}

// eventsSince returns the events after seq, plus a channel that closes on
// the next append and whether the job already finished.
func (j *jobState) eventsSince(seq int) (evs []Event, changed <-chan struct{}, finished bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if seq < len(j.events) {
		evs = append(evs, j.events[seq:]...)
	}
	return evs, j.notify, j.status.finished()
}

// attach registers a client interested in the job's outcome and returns the
// matching release. pin marks the job as owned by an asynchronous submit,
// which exempts it from last-client cancellation.
func (j *jobState) attach(pin bool) (release func()) {
	j.mu.Lock()
	j.refs++
	if pin {
		j.pinned = true
	}
	j.mu.Unlock()
	var once sync.Once
	return func() {
		once.Do(func() {
			j.mu.Lock()
			j.refs--
			abandon := j.refs == 0 && !j.pinned && !j.status.finished()
			j.mu.Unlock()
			if abandon {
				j.cancel()
			}
		})
	}
}

// cancelNow cancels the job regardless of attachments (DELETE handler).
func (j *jobState) cancelNow() {
	j.cancel()
}

// finalize records the outcome, emits the terminal event, and wakes every
// waiter. res may be a partial aggregate (cancel/drain); it is serialized
// timing-free so the bytes are cacheable and byte-identical across pool
// shapes.
func (j *jobState) finalize(status JobStatus, res *sweep.Result, errMsg string) {
	var buf bytes.Buffer
	if res != nil {
		if err := res.WriteJSON(&buf, false); err != nil && errMsg == "" {
			status, errMsg = StatusFailed, fmt.Sprintf("serialize result: %v", err)
		}
	}
	m := j.mgr
	var ok, fail, canc, iters int
	if res != nil {
		ok, fail, canc = res.Counts()
		for i := range res.Jobs {
			jr := &res.Jobs[i]
			iters += jr.NewtonIters
			m.srv.metrics.addSolver(&jr.Stats)
			m.srv.metrics.jobDuration.Observe(jr.Wall.Seconds())
			m.srv.metrics.newtonPer.Observe(float64(jr.NewtonIters))
			m.srv.metrics.gmresPer.Observe(float64(jr.LinearIters))
		}
		m.srv.metrics.sweepOK.Add(int64(ok))
		m.srv.metrics.sweepFailed.Add(int64(fail))
		m.srv.metrics.sweepCanc.Add(int64(canc))
	}
	switch status {
	case StatusDone:
		m.srv.metrics.done.Add(1)
	case StatusFailed:
		m.srv.metrics.failed.Add(1)
	case StatusCanceled:
		m.srv.metrics.canceled.Add(1)
	}

	// A complete run is the only thing worth caching: partial aggregates
	// depend on when the cancel landed. Put before the job shows as
	// finished (status, done event, closed done), so a client that sees it
	// finish finds the result in the cache.
	if status == StatusDone && j.key != "" && buf.Len() > 0 {
		m.srv.cache.Put(j.key, buf.Bytes())
	}

	j.mu.Lock()
	j.status = status
	j.errMsg = errMsg
	j.ok, j.fail, j.canc, j.iters = ok, fail, canc, iters
	if buf.Len() > 0 {
		j.result = buf.Bytes()
	}
	j.appendEventLocked(Event{
		Type: "done", Status: string(status),
		OK: ok, Failed: fail, Canceled: canc,
		NewtonIters: iters, Err: errMsg,
	})
	result := j.result
	j.mu.Unlock()

	close(j.done)
	m.spool(j.id, result)
	m.forgetFlight(j)
}

// manager owns the job table, the concurrency bound, and the singleflight
// index.
type manager struct {
	srv *Server

	mu       sync.Mutex
	byID     map[string]*jobState
	byFlight map[string]*jobState // in-flight only
	order    []string             // submission order, for listing/trim
	seq      int
	draining bool
	// lastSpoolErr is the most recent spool write failure, surfaced by
	// /healthz; "" when the spool is healthy (the latest write succeeded).
	lastSpoolErr string

	sem       chan struct{}
	wg        sync.WaitGroup
	baseCtx   context.Context
	cancelAll context.CancelFunc

	// onRunning, when set, runs with the job's context once a job is
	// running and before the engine starts. Tests use it to hold a job at
	// a known point; it is set before the first submit.
	onRunning func(ctx context.Context)
}

func newManager(srv *Server, maxConcurrent int) *manager {
	ctx, cancel := context.WithCancel(context.Background())
	return &manager{
		srv:      srv,
		byID:     map[string]*jobState{},
		byFlight: map[string]*jobState{},
		sem:      make(chan struct{}, maxConcurrent),
		baseCtx:  ctx, cancelAll: cancel,
	}
}

// maxHistory bounds the finished-job table; the oldest finished jobs are
// dropped first, in-flight jobs never.
const maxHistory = 512

func (m *manager) get(id string) (*jobState, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.byID[id]
	return j, ok
}

func (m *manager) list() []JobInfo {
	m.mu.Lock()
	jobs := make([]*jobState, 0, len(m.order))
	for _, id := range m.order {
		if j, ok := m.byID[id]; ok {
			jobs = append(jobs, j)
		}
	}
	m.mu.Unlock()
	out := make([]JobInfo, len(jobs))
	for i, j := range jobs {
		out[i] = j.info()
	}
	return out
}

func (m *manager) forgetFlight(j *jobState) {
	m.mu.Lock()
	if cur, ok := m.byFlight[j.flight]; ok && cur == j {
		delete(m.byFlight, j.flight)
	}
	m.mu.Unlock()
}

// trimLocked drops the oldest finished jobs beyond maxHistory.
func (m *manager) trimLocked() {
	if len(m.order) <= maxHistory {
		return
	}
	keep := m.order[:0]
	excess := len(m.order) - maxHistory
	for _, id := range m.order {
		j := m.byID[id]
		if excess > 0 && j != nil && func() bool {
			j.mu.Lock()
			defer j.mu.Unlock()
			return j.status.finished()
		}() {
			delete(m.byID, id)
			excess--
			continue
		}
		keep = append(keep, id)
	}
	m.order = keep
}

// newJobLocked allocates and registers a job record.
func (m *manager) newJobLocked(rs *runSpec, status JobStatus) *jobState {
	m.seq++
	j := &jobState{
		id:      fmt.Sprintf("j%06d", m.seq),
		mgr:     m,
		status:  status,
		name:    rs.name,
		key:     rs.key,
		flight:  rs.flightKey,
		created: time.Now().UTC(),
		total:   rs.njobs,
		notify:  make(chan struct{}),
		done:    make(chan struct{}),
	}
	jctx, cancel := context.WithCancel(m.baseCtx)
	j.cancel = cancel
	j.ctxForRun = jctx
	m.byID[j.id] = j
	m.order = append(m.order, j.id)
	m.trimLocked()
	return j
}

// submit resolves a request into a tracked job. The returned release MUST
// be called when the caller loses interest; cacheHit reports whether the
// job was served from the result cache without running.
func (m *manager) submit(rs *runSpec, pin bool) (j *jobState, release func(), cacheHit bool, err error) {
	met := &m.srv.metrics
	m.mu.Lock()
	if m.draining {
		m.mu.Unlock()
		return nil, nil, false, errDraining
	}
	met.submitted.Add(1)

	// Content-addressed cache: identical (deck, options) served instantly.
	// A traced submit bypasses the lookup — the whole point is to watch the
	// solve run — but its result bytes are still Put on completion (tracing
	// never changes them), so it refreshes the cache rather than fragmenting
	// it.
	if rs.key != "" && !rs.trace {
		if val, ok := m.srv.cache.Get(rs.key); ok {
			met.cacheHits.Add(1)
			j = m.newJobLocked(rs, StatusDone)
			j.cached = true
			j.result = val
			j.appendEventLocked(Event{Type: "queued"})
			j.appendEventLocked(Event{Type: "done", Status: string(StatusDone)})
			close(j.done)
			met.done.Add(1)
			m.mu.Unlock()
			return j, func() {}, true, nil
		}
		met.cacheMisses.Add(1)
	}

	// Singleflight: identical concurrent submits share one engine run.
	if cur, ok := m.byFlight[rs.flightKey]; ok {
		met.sharedHits.Add(1)
		rel := cur.attach(pin)
		m.mu.Unlock()
		return cur, rel, false, nil
	}

	// Bounded admission: queued+running in-flight jobs.
	if len(m.byFlight) >= m.srv.opt.MaxQueue {
		m.mu.Unlock()
		return nil, nil, false, errBusy
	}

	j = m.newJobLocked(rs, StatusQueued)
	m.byFlight[rs.flightKey] = j
	rel := j.attach(pin)
	j.appendEventLocked(Event{Type: "queued"})
	met.queued.Add(1)
	m.wg.Add(1)
	m.mu.Unlock()

	go m.run(j, rs)
	return j, rel, false, nil
}

// run executes one job under its own context: slot wait, engine run with
// the progress hook wired to the event log, then finalize.
func (m *manager) run(j *jobState, rs *runSpec) {
	defer m.wg.Done()
	met := &m.srv.metrics
	jctx := j.ctxForRun
	if rs.trace {
		rec := obs.NewRecorder()
		j.mu.Lock()
		j.rec = rec
		j.mu.Unlock()
		jctx = obs.WithRecorder(jctx, rec)
	}

	select {
	case m.sem <- struct{}{}:
		met.queued.Add(-1)
	case <-jctx.Done():
		met.queued.Add(-1)
		j.finalize(StatusCanceled, nil, "canceled before start")
		return
	}
	defer func() { <-m.sem }()
	met.running.Add(1)
	defer met.running.Add(-1)
	met.engineRuns.Add(1)

	j.mu.Lock()
	j.status = StatusRunning
	j.appendEventLocked(Event{Type: "start", Total: j.total})
	j.mu.Unlock()
	if m.onRunning != nil {
		m.onRunning(jctx)
	}

	progress := func(ev sweep.ProgressEvent) {
		e := Event{Done: ev.Done, Total: ev.Total}
		job := ev.Job
		e.Job = &job
		switch ev.Kind {
		case sweep.ProgressJobStart:
			e.Type = "job_start"
		case sweep.ProgressJobDone:
			e.Type = "job_done"
			if ev.Result != nil {
				e.Status = string(ev.Result.Status)
				e.NewtonIters = ev.Result.NewtonIters
				e.Err = ev.Result.Err
			}
		default:
			return
		}
		j.appendEvent(e)
	}

	// The coordinator picks the execution path: the in-process sweep engine
	// when no workers are registered (the default — byte-identical to
	// calling sweep.Run here), sharded over HTTP workers otherwise.
	res, err := m.srv.coord.Execute(jctx, &dispatch.ExecRequest{
		JobID:    j.id,
		Wire:     rs.wire,
		Spec:     rs.spec,
		Trace:    rs.trace,
		Progress: progress,
	})
	switch {
	case res == nil:
		j.finalize(StatusFailed, nil, err.Error())
	case err != nil:
		// Interrupted: the engine still returned the partial aggregate,
		// which finalize flushes to the spool and the result endpoint.
		j.finalize(StatusCanceled, res, err.Error())
	default:
		j.finalize(StatusDone, res, "")
	}
}

// spool writes a finished job's (possibly partial) result to SpoolDir.
// Failures are persistent state, not just log lines: they bump
// mpde_spool_errors_total and surface in /healthz until a later spool
// write succeeds.
func (m *manager) spool(id string, result []byte) {
	dir := m.srv.opt.SpoolDir
	if dir == "" || result == nil {
		return
	}
	path := filepath.Join(dir, id+".json")
	err := os.WriteFile(path, result, 0o644)
	if err != nil {
		m.srv.logf("server: spool %s: %v", path, err)
		m.srv.metrics.spoolErrors.Add(1)
	}
	m.mu.Lock()
	if err != nil {
		m.lastSpoolErr = fmt.Sprintf("spool %s: %v", path, err)
	} else {
		m.lastSpoolErr = ""
	}
	m.mu.Unlock()
}

// lastSpoolError reports the most recent spool failure ("" when healthy).
func (m *manager) lastSpoolError() string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.lastSpoolErr
}

// beginDrain rejects further submits.
func (m *manager) beginDrain() {
	m.mu.Lock()
	m.draining = true
	m.mu.Unlock()
}

func (m *manager) isDraining() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.draining
}
