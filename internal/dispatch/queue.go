package dispatch

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Queue errors. ErrLeaseLost is the worker-facing one: the lease expired
// (and the task was requeued or re-leased) or never existed, so whatever
// the worker computes under it will be discarded.
var (
	ErrLeaseLost   = errors.New("dispatch: lease lost")
	ErrCanceled    = errors.New("dispatch: task canceled")
	ErrQueueClosed = errors.New("dispatch: queue closed")
)

// QueueOptions configures a Queue. The zero value is usable.
type QueueOptions struct {
	// LeaseTTL is how long a lease lives without renewal (default 15s).
	// Every event-stream line a worker sends renews; a dead worker stops
	// renewing and the expiry scan requeues its task.
	LeaseTTL time.Duration
	// MaxAttempts bounds executions per task, first try included
	// (default 3). A task failing or expiring on its last attempt
	// terminally fails.
	MaxAttempts int
	// JournalDir, when set, persists every queued task as
	// <dir>/<task-id>.json until it reaches a terminal state — crash
	// forensics plus RecoverPending for re-enqueueing after a restart.
	JournalDir string
	// Logf sinks queue diagnostics (journal write failures and the like).
	Logf func(format string, args ...any)
	// now is the test clock hook.
	now func() time.Time
}

// QueueStats is the queue's observable state, exported as server metrics.
type QueueStats struct {
	// Depth is the number of tasks waiting for a lease (gauge).
	Depth int64
	// LeasesActive is the number of tasks currently leased (gauge).
	LeasesActive int64
	// Expirations counts leases that timed out (worker presumed dead).
	Expirations int64
	// Retries counts re-enqueues after a failed or expired attempt.
	Retries int64
	// Enqueued, Completed, Failed, Canceled are lifetime task counters.
	Enqueued  int64
	Completed int64
	Failed    int64
	Canceled  int64
}

// Task is one unit of queued work.
type Task struct {
	ID    string         `json:"id"`
	Group string         `json:"group,omitempty"`
	Env   *ShardEnvelope `json:"env"`
}

// Outcome is a task's terminal result, delivered once on its handle.
type Outcome struct {
	// Payload is the worker's ShardResult encoding on success.
	Payload []byte
	// Err is the terminal failure message ("" on success).
	Err string
	// Canceled marks group cancellation (Err set too).
	Canceled bool
	// Attempts is how many executions the task consumed.
	Attempts int
}

// Handle is the enqueuer's side of a task: Done delivers the single
// terminal outcome.
type Handle struct {
	ID   string
	Done <-chan Outcome
}

// Lease is a worker's claim on one task. The worker must Renew (directly
// or via event-stream lines) within the TTL or the task is requeued.
type Lease struct {
	TaskID  string         `json:"task"`
	LeaseID string         `json:"lease"`
	Attempt int            `json:"attempt"`
	TTLMS   int64          `json:"ttl_ms"`
	Env     *ShardEnvelope `json:"env"`
}

type taskState struct {
	task     Task
	attempt  int // executions consumed so far
	maxAtt   int
	leaseID  string
	worker   string
	deadline time.Time
	leased   bool
	canceled bool
	done     chan Outcome // buffered 1
}

// Queue is a persistent in-memory job queue with lease/renew/retry
// semantics, safe for concurrent use. It generalises the server's old
// in-process job bookkeeping: work survives the worker executing it —
// a lease that stops renewing (SIGKILLed worker, split network) expires
// and the task is requeued with its attempt counter bumped, until
// MaxAttempts exhausts and the enqueuer gets a terminal failure.
type Queue struct {
	opt QueueOptions

	mu      sync.Mutex
	pending []*taskState // FIFO
	tasks   map[string]*taskState
	wake    chan struct{} // closed+replaced whenever pending grows
	seq     int
	closed  bool
	stop    chan struct{}
	stopped sync.WaitGroup

	depth        atomic.Int64
	leasesActive atomic.Int64
	expirations  atomic.Int64
	retries      atomic.Int64
	enqueued     atomic.Int64
	completed    atomic.Int64
	failed       atomic.Int64
	canceledN    atomic.Int64
}

// NewQueue builds a queue and starts its lease-expiry scanner.
func NewQueue(opt QueueOptions) *Queue {
	if opt.LeaseTTL <= 0 {
		opt.LeaseTTL = 15 * time.Second
	}
	if opt.MaxAttempts <= 0 {
		opt.MaxAttempts = 3
	}
	if opt.Logf == nil {
		opt.Logf = func(string, ...any) {}
	}
	if opt.now == nil {
		opt.now = time.Now
	}
	q := &Queue{
		opt:   opt,
		tasks: map[string]*taskState{},
		wake:  make(chan struct{}),
		stop:  make(chan struct{}),
	}
	q.stopped.Add(1)
	go q.expireLoop()
	return q
}

// Close stops the expiry scanner and fails pending leases' future
// deliveries; outstanding handles receive a canceled outcome.
func (q *Queue) Close() {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return
	}
	q.closed = true
	close(q.stop)
	var all []*taskState
	for _, t := range q.tasks {
		all = append(all, t)
	}
	q.pending = nil
	q.tasks = map[string]*taskState{}
	q.wakeLocked()
	q.mu.Unlock()
	q.stopped.Wait()
	for _, t := range all {
		q.depthOrLeaseDec(t)
		q.deliver(t, Outcome{Err: ErrQueueClosed.Error(), Canceled: true, Attempts: t.attempt})
	}
}

// Stats snapshots the queue's counters.
func (q *Queue) Stats() QueueStats {
	return QueueStats{
		Depth:        q.depth.Load(),
		LeasesActive: q.leasesActive.Load(),
		Expirations:  q.expirations.Load(),
		Retries:      q.retries.Load(),
		Enqueued:     q.enqueued.Load(),
		Completed:    q.completed.Load(),
		Failed:       q.failed.Load(),
		Canceled:     q.canceledN.Load(),
	}
}

// wakeLocked wakes every Lease waiter; they race for the queue head and
// losers re-wait. Caller holds q.mu.
func (q *Queue) wakeLocked() {
	close(q.wake)
	q.wake = make(chan struct{})
}

// Enqueue queues one envelope under group and returns the handle its
// terminal outcome arrives on.
func (q *Queue) Enqueue(group string, env *ShardEnvelope) (*Handle, error) {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return nil, ErrQueueClosed
	}
	q.seq++
	t := &taskState{
		task:   Task{ID: fmt.Sprintf("t%06d", q.seq), Group: group, Env: env},
		maxAtt: q.opt.MaxAttempts,
		done:   make(chan Outcome, 1),
	}
	q.tasks[t.task.ID] = t
	q.pending = append(q.pending, t)
	q.enqueued.Add(1)
	q.depth.Add(1)
	q.wakeLocked()
	q.mu.Unlock()
	q.journalWrite(t.task)
	return &Handle{ID: t.task.ID, Done: t.done}, nil
}

// Lease blocks until a task is available (or ctx ends) and claims it.
func (q *Queue) Lease(ctx context.Context, worker string) (*Lease, error) {
	for {
		q.mu.Lock()
		if q.closed {
			q.mu.Unlock()
			return nil, ErrQueueClosed
		}
		if len(q.pending) > 0 {
			t := q.pending[0]
			q.pending = q.pending[1:]
			q.seq++
			t.leased = true
			t.attempt++
			t.leaseID = fmt.Sprintf("l%06d", q.seq)
			t.worker = worker
			t.deadline = q.opt.now().Add(q.opt.LeaseTTL)
			lease := &Lease{
				TaskID:  t.task.ID,
				LeaseID: t.leaseID,
				Attempt: t.attempt,
				TTLMS:   q.opt.LeaseTTL.Milliseconds(),
				Env:     t.task.Env,
			}
			q.mu.Unlock()
			q.depth.Add(-1)
			q.leasesActive.Add(1)
			return lease, nil
		}
		wake := q.wake
		q.mu.Unlock()
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-q.stop:
			return nil, ErrQueueClosed
		case <-wake:
		}
	}
}

// holder returns the task iff (taskID, leaseID) names the current lease.
// Caller holds q.mu.
func (q *Queue) holderLocked(taskID, leaseID string) *taskState {
	t := q.tasks[taskID]
	if t == nil || !t.leased || t.leaseID != leaseID {
		return nil
	}
	return t
}

// Renew extends the lease's deadline. ErrCanceled tells the worker to
// abandon the shard; ErrLeaseLost that its work will be discarded.
func (q *Queue) Renew(taskID, leaseID string) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	t := q.holderLocked(taskID, leaseID)
	if t == nil {
		return ErrLeaseLost
	}
	if t.canceled {
		return ErrCanceled
	}
	t.deadline = q.opt.now().Add(q.opt.LeaseTTL)
	return nil
}

// Complete delivers the task's success payload and retires it.
func (q *Queue) Complete(taskID, leaseID string, payload []byte) error {
	q.mu.Lock()
	t := q.holderLocked(taskID, leaseID)
	if t == nil {
		q.mu.Unlock()
		return ErrLeaseLost
	}
	delete(q.tasks, taskID)
	canceled := t.canceled
	q.mu.Unlock()
	q.leasesActive.Add(-1)
	q.journalRemove(t.task)
	if canceled {
		q.canceledN.Add(1)
		q.deliver(t, Outcome{Err: ErrCanceled.Error(), Canceled: true, Attempts: t.attempt})
		return ErrCanceled
	}
	q.completed.Add(1)
	q.deliver(t, Outcome{Payload: payload, Attempts: t.attempt})
	return nil
}

// Fail reports a worker-side failure; the task is retried until
// MaxAttempts, then terminally failed.
func (q *Queue) Fail(taskID, leaseID, msg string) error {
	q.mu.Lock()
	t := q.holderLocked(taskID, leaseID)
	if t == nil {
		q.mu.Unlock()
		return ErrLeaseLost
	}
	q.retireOrRetryLocked(t, msg)
	q.mu.Unlock()
	q.leasesActive.Add(-1)
	return nil
}

// retireOrRetryLocked moves a leased task that did not complete: requeue
// while attempts remain, terminal failure otherwise. Caller holds q.mu and
// decrements leasesActive afterwards.
func (q *Queue) retireOrRetryLocked(t *taskState, msg string) {
	t.leased = false
	t.leaseID = ""
	if t.canceled {
		delete(q.tasks, t.task.ID)
		q.canceledN.Add(1)
		q.journalRemove(t.task)
		q.deliver(t, Outcome{Err: ErrCanceled.Error(), Canceled: true, Attempts: t.attempt})
		return
	}
	if t.attempt < t.maxAtt {
		q.retries.Add(1)
		q.depth.Add(1)
		q.pending = append(q.pending, t)
		q.wakeLocked()
		return
	}
	delete(q.tasks, t.task.ID)
	q.failed.Add(1)
	q.journalRemove(t.task)
	q.deliver(t, Outcome{Err: fmt.Sprintf("failed after %d attempts: %s", t.attempt, msg), Attempts: t.attempt})
}

// CancelGroup cancels every task of group: pending tasks terminate
// immediately; leased ones are marked so the worker's next renewal tells
// it to abandon, and any later completion/failure/expiry terminates them
// without retry.
func (q *Queue) CancelGroup(group string) {
	q.mu.Lock()
	keep := q.pending[:0]
	var dropped []*taskState
	for _, t := range q.pending {
		if t.task.Group == group {
			t.canceled = true
			delete(q.tasks, t.task.ID)
			dropped = append(dropped, t)
			continue
		}
		keep = append(keep, t)
	}
	q.pending = keep
	for _, t := range q.tasks {
		if t.task.Group == group {
			t.canceled = true
		}
	}
	q.mu.Unlock()
	for _, t := range dropped {
		q.depth.Add(-1)
		q.canceledN.Add(1)
		q.journalRemove(t.task)
		q.deliver(t, Outcome{Err: ErrCanceled.Error(), Canceled: true, Attempts: t.attempt})
	}
}

// expireLoop requeues tasks whose lease stopped renewing.
func (q *Queue) expireLoop() {
	defer q.stopped.Done()
	tick := q.opt.LeaseTTL / 4
	if tick < 10*time.Millisecond {
		tick = 10 * time.Millisecond
	}
	ticker := time.NewTicker(tick)
	defer ticker.Stop()
	for {
		select {
		case <-q.stop:
			return
		case <-ticker.C:
		}
		now := q.opt.now()
		q.mu.Lock()
		var expired []*taskState
		for _, t := range q.tasks {
			if t.leased && now.After(t.deadline) {
				expired = append(expired, t)
			}
		}
		for _, t := range expired {
			q.expirations.Add(1)
			q.retireOrRetryLocked(t, fmt.Sprintf("lease expired on worker %q", t.worker))
		}
		q.mu.Unlock()
		for range expired {
			q.leasesActive.Add(-1)
		}
	}
}

func (q *Queue) deliver(t *taskState, out Outcome) {
	select {
	case t.done <- out:
	default: // already delivered
	}
}

func (q *Queue) depthOrLeaseDec(t *taskState) {
	if t.leased {
		q.leasesActive.Add(-1)
	} else {
		q.depth.Add(-1)
	}
}

// --- journal ---------------------------------------------------------------

func (q *Queue) journalPath(t Task) string {
	return filepath.Join(q.opt.JournalDir, t.ID+".json")
}

// journalWrite persists t atomically: the entry is written under a name
// RecoverPending skips and renamed into place, so a process killed mid-write
// leaves a stray temp file rather than a torn entry.
func (q *Queue) journalWrite(t Task) {
	if q.opt.JournalDir == "" {
		return
	}
	enc, err := json.Marshal(t)
	if err == nil {
		path := q.journalPath(t)
		tmp := path + ".tmp"
		if err = os.WriteFile(tmp, enc, 0o644); err == nil {
			err = os.Rename(tmp, path)
		}
		if err != nil {
			_ = os.Remove(tmp) // best effort: RecoverPending skips it anyway
		}
	}
	if err != nil {
		q.opt.Logf("dispatch: journal %s: %v", t.ID, err)
	}
}

func (q *Queue) journalRemove(t Task) {
	if q.opt.JournalDir == "" {
		return
	}
	if err := os.Remove(q.journalPath(t)); err != nil && !os.IsNotExist(err) {
		q.opt.Logf("dispatch: journal remove %s: %v", t.ID, err)
	}
}

// RecoverPending reads the journalled tasks a previous process left
// behind. Coordinator.Recover calls it at boot to re-enqueue them (the
// server does so automatically when started with a spool directory);
// operators and tests can also inspect or re-enqueue them explicitly.
func RecoverPending(dir string) ([]Task, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []Task
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		var t Task
		if err := json.Unmarshal(raw, &t); err != nil {
			return nil, fmt.Errorf("dispatch: journal %s: %w", e.Name(), err)
		}
		out = append(out, t)
	}
	return out, nil
}
