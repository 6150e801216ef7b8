package dispatch

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/sweep"
)

// WorkerOptions configures one worker process attached to a coordinator.
type WorkerOptions struct {
	// Coordinator is the base URL, e.g. http://127.0.0.1:8080.
	Coordinator string
	// ID names this worker in lease requests and coordinator metrics.
	// Defaults to host-pid.
	ID string
	// SweepWorkers is the in-shard solve parallelism (sweep.Spec.Workers);
	// 0 means one goroutine per core.
	SweepWorkers int
	// PollWait is the lease long-poll window (default 20s).
	PollWait time.Duration
	// Client issues all coordinator HTTP; defaults to a fresh client with
	// no overall timeout (event streams are long-lived).
	Client *http.Client
	// Logf sinks worker diagnostics.
	Logf func(format string, args ...any)
}

// RunWorker pulls leased shards from the coordinator until ctx is
// canceled. Cancellation is graceful: the current shard runs to
// completion (its lease is still live and its result still wanted);
// only new leases stop. Returns ctx.Err().
func RunWorker(ctx context.Context, opt WorkerOptions) error {
	if opt.Coordinator == "" {
		return fmt.Errorf("dispatch: worker needs a coordinator URL")
	}
	opt.Coordinator = strings.TrimRight(opt.Coordinator, "/")
	if opt.ID == "" {
		host, _ := os.Hostname()
		opt.ID = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	if opt.PollWait <= 0 {
		opt.PollWait = 20 * time.Second
	}
	if opt.Client == nil {
		opt.Client = &http.Client{}
	}
	if opt.Logf == nil {
		opt.Logf = func(string, ...any) {}
	}
	w := &worker{opt: opt}
	backoff := time.Second
	for {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		lease, rawEnv, err := w.lease(ctx)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			opt.Logf("dispatch worker %s: lease: %v", opt.ID, err)
			select {
			case <-time.After(backoff):
			case <-ctx.Done():
				return ctx.Err()
			}
			if backoff < 10*time.Second {
				backoff *= 2
			}
			continue
		}
		backoff = time.Second
		if lease == nil {
			continue // long-poll window expired empty
		}
		w.runShard(ctx, lease, rawEnv)
	}
}

type worker struct {
	opt WorkerOptions
}

func (w *worker) url(path string, q url.Values) string {
	if q == nil {
		q = url.Values{}
	}
	q.Set("worker", w.opt.ID)
	return w.opt.Coordinator + path + "?" + q.Encode()
}

// lease long-polls the coordinator for one shard. nil lease, nil error
// means the window expired with no work. The envelope comes back as raw
// bytes (lease.Env stays nil) for runShard to decode strictly.
func (w *worker) lease(ctx context.Context) (*Lease, json.RawMessage, error) {
	body, _ := json.Marshal(leaseRequest{Worker: w.opt.ID, WaitMS: w.opt.PollWait.Milliseconds()})
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.opt.Coordinator+"/v1/dispatch/lease", bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.opt.Client.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusNoContent:
		io.Copy(io.Discard, resp.Body)
		return nil, nil, nil
	case http.StatusOK:
		// The outer Env field shadows Lease.Env, so the envelope's bytes
		// stay raw.
		var lease struct {
			Lease
			Env json.RawMessage `json:"env"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&lease); err != nil {
			return nil, nil, fmt.Errorf("decoding lease: %w", err)
		}
		return &lease.Lease, lease.Env, nil
	default:
		return nil, nil, httpError(resp)
	}
}

// runShard executes one leased shard end to end. The solve runs under
// context.Background-derived cancellation — a canceled worker loop still
// drains its current shard — and is aborted only when the coordinator
// reports the lease lost (409 on the event stream).
func (w *worker) runShard(ctx context.Context, lease *Lease, rawEnv json.RawMessage) {
	log := w.opt.Logf
	// The strict decode refuses a skewed wire version or unknown field
	// before anything reads the envelope, and fails the task at once
	// rather than letting its lease run out.
	env, err := DecodeShardEnvelope(rawEnv)
	if err != nil {
		log("dispatch worker %s: lease %s: %v", w.opt.ID, lease.TaskID, err)
		w.postFail(ctx, lease, err.Error())
		return
	}
	log("dispatch worker %s: leased %s (shard %d/%d, %d jobs, attempt %d)",
		w.opt.ID, lease.TaskID, env.Shard+1, env.Shards, len(env.JobIDs), lease.Attempt)

	// Shared-cache short circuit: another worker (or a previous run) may
	// already have produced this exact shard.
	var key string
	if env.Req.JobTimeoutMS == 0 {
		if k, err := env.Key(); err == nil {
			key = k
			if raw, ok := w.cacheGet(ctx, key); ok {
				if sr, err := DecodeShardResult(raw); err == nil && shardCovers(sr.Jobs, env.JobIDs) {
					sr.Cached = true
					sr.Spans, sr.DroppedSpans = nil, 0
					if err := w.postResult(ctx, lease, sr); err != nil {
						log("dispatch worker %s: cached result for %s: %v", w.opt.ID, lease.TaskID, err)
					}
					return
				}
			}
		}
	}

	spec, err := env.Req.BuildSpec(w.opt.SweepWorkers)
	if err != nil {
		w.postFail(ctx, lease, fmt.Sprintf("building spec: %v", err))
		return
	}
	jobs, err := env.Jobs()
	if err != nil {
		w.postFail(ctx, lease, err.Error())
		return
	}
	if digest, err := ParamsDigest(&spec, jobs); err != nil || digest != env.ParamsDigest {
		if err == nil {
			err = fmt.Errorf("params digest mismatch (coordinator %s, worker %s): version skew", env.ParamsDigest, digest)
		}
		w.postFail(ctx, lease, err.Error())
		return
	}
	spec.Subset = append([]int(nil), env.JobIDs...)

	// The solve outlives the worker loop's ctx (graceful drain) but dies
	// with the lease.
	solveCtx, cancelSolve := context.WithCancel(context.Background())
	defer cancelSolve()

	stream := newEventStream(w, lease, cancelSolve)
	defer stream.close()
	spec.Progress = func(ev sweep.ProgressEvent) {
		line := ProgressLine{}
		switch ev.Kind {
		case sweep.ProgressJobStart:
			job := ev.Job
			line.Type = "job_start"
			line.Job = &job
		case sweep.ProgressJobDone:
			job := ev.Job
			line.Type = "job_done"
			line.Job = &job
			line.Result = ev.Result
		default:
			return
		}
		stream.send(line)
	}

	var rec *obs.Recorder
	var shardSpan *obs.Span
	if env.Trace {
		rec = obs.NewRecorder()
		solveCtx = obs.WithRecorder(solveCtx, rec)
		solveCtx, shardSpan = obs.Start(solveCtx, "worker.shard")
		shardSpan.SetStr("task", lease.TaskID)
		shardSpan.SetInt("shard", int64(env.Shard))
	}

	res, runErr := sweep.Run(solveCtx, spec)
	// End the shard span before snapshotting — an open span never reaches
	// the snapshot and its children would import as orphans.
	shardSpan.End()
	stream.close() // flush progress and stop heartbeats before settling the task
	if res == nil {
		w.postFail(ctx, lease, fmt.Sprintf("sweep: %v", runErr))
		return
	}
	if stream.leaseLost() {
		// The coordinator already expired or canceled us; nothing to post.
		log("dispatch worker %s: lease lost for %s, dropping shard", w.opt.ID, lease.TaskID)
		return
	}

	sr := &ShardResult{V: WireVersion, Jobs: res.Jobs}
	if rec != nil {
		sr.Spans = rec.Snapshot()
		sr.DroppedSpans = rec.Dropped()
	}
	if err := w.postResult(ctx, lease, sr); err != nil {
		log("dispatch worker %s: posting result for %s: %v", w.opt.ID, lease.TaskID, err)
		return
	}
	if key != "" && runErr == nil && allDone(res.Jobs) {
		// Populate the shared tier directly too: if the coordinator dies
		// before caching, a resubmitted sweep still finds the shard.
		cacheable := *sr
		cacheable.Spans, cacheable.DroppedSpans = nil, 0
		if raw, err := cacheable.Encode(); err == nil {
			w.cachePut(ctx, key, raw)
		}
	}
}

// allDone reports whether every job in the shard converged — only fully
// successful shards enter the shared cache.
func allDone(jobs []sweep.JobResult) bool {
	for i := range jobs {
		if jobs[i].Status != sweep.StatusOK {
			return false
		}
	}
	return len(jobs) > 0
}

// postResult ships the shard payload; a 409 means the lease is gone and
// the result is abandoned.
func (w *worker) postResult(ctx context.Context, lease *Lease, sr *ShardResult) error {
	raw, err := sr.Encode()
	if err != nil {
		return err
	}
	u := w.url("/v1/dispatch/tasks/"+lease.TaskID+"/result", url.Values{"lease": {lease.LeaseID}})
	return w.postRetry(ctx, u, raw)
}

func (w *worker) postFail(ctx context.Context, lease *Lease, msg string) {
	raw, _ := json.Marshal(failRequest{Err: msg})
	u := w.url("/v1/dispatch/tasks/"+lease.TaskID+"/fail", url.Values{"lease": {lease.LeaseID}})
	if err := w.postRetry(ctx, u, raw); err != nil {
		w.opt.Logf("dispatch worker %s: reporting failure for %s: %v", w.opt.ID, lease.TaskID, err)
	}
}

// postRetry POSTs with a couple of retries on transport errors or 5xx; a
// 4xx (lease lost, malformed payload) is terminal.
func (w *worker) postRetry(ctx context.Context, u string, body []byte) error {
	var last error
	for attempt := 0; attempt < 3; attempt++ {
		if attempt > 0 {
			select {
			case <-time.After(time.Duration(attempt) * 500 * time.Millisecond):
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, u, bytes.NewReader(body))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := w.opt.Client.Do(req)
		if err != nil {
			last = err
			continue
		}
		code := resp.StatusCode
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<12))
		if code < 300 {
			resp.Body.Close()
			return nil
		}
		last = httpError(resp)
		resp.Body.Close()
		if code < 500 {
			return last
		}
	}
	return last
}

func (w *worker) cacheGet(ctx context.Context, key string) ([]byte, bool) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.url("/v1/dispatch/cache/"+key, nil), nil)
	if err != nil {
		return nil, false
	}
	resp, err := w.opt.Client.Do(req)
	if err != nil {
		return nil, false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil, false
	}
	raw, err := io.ReadAll(io.LimitReader(resp.Body, maxShardBody))
	if err != nil {
		return nil, false
	}
	return raw, true
}

func (w *worker) cachePut(ctx context.Context, key string, val []byte) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPut, w.url("/v1/dispatch/cache/"+key, nil), bytes.NewReader(val))
	if err != nil {
		return
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.opt.Client.Do(req)
	if err != nil {
		return
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

func httpError(resp *http.Response) error {
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<12))
	msg := strings.TrimSpace(string(raw))
	var decoded struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(raw, &decoded) == nil && decoded.Error != "" {
		msg = decoded.Error
	}
	return fmt.Errorf("%s: %s", resp.Status, msg)
}

// eventStream multiplexes progress lines and heartbeats into a chunked
// NDJSON POST that doubles as the lease keep-alive. The request body is an
// io.Pipe the writer goroutine feeds; if the connection drops, the next
// write reconnects (each events POST is independent), and a 409 response —
// lease lost — cancels the in-flight solve.
type eventStream struct {
	w      *worker
	lease  *Lease
	cancel context.CancelFunc

	lines     chan []byte
	closing   chan struct{}
	closeOnce sync.Once
	done      chan struct{}
	lost      chan struct{}
	lostOnce  sync.Once
}

func newEventStream(w *worker, lease *Lease, cancel context.CancelFunc) *eventStream {
	s := &eventStream{
		w: w, lease: lease, cancel: cancel,
		lines:   make(chan []byte, 256),
		closing: make(chan struct{}),
		done:    make(chan struct{}),
		lost:    make(chan struct{}),
	}
	go s.run()
	return s
}

// send queues one line; progress is advisory, so when the stream is
// backed up the line is dropped rather than stalling the solve.
func (s *eventStream) send(line ProgressLine) {
	raw, err := json.Marshal(line)
	if err != nil {
		return
	}
	raw = append(raw, '\n')
	select {
	case s.lines <- raw:
	default:
	}
}

func (s *eventStream) markLost() {
	s.lostOnce.Do(func() { close(s.lost) })
}

func (s *eventStream) leaseLost() bool {
	select {
	case <-s.lost:
		return true
	default:
		return false
	}
}

// close flushes queued lines, ends the streaming POST, and waits for the
// writer goroutine. Safe to call more than once.
func (s *eventStream) close() {
	s.closeOnce.Do(func() { close(s.closing) })
	<-s.done
}

// run owns the streaming connection. Heartbeats fire at TTL/3 so two can
// be lost before the lease expires.
func (s *eventStream) run() {
	defer close(s.done)
	ttl := time.Duration(s.lease.TTLMS) * time.Millisecond
	if ttl <= 0 {
		ttl = 15 * time.Second
	}
	hb := time.NewTicker(ttl / 3)
	defer hb.Stop()
	heartbeat, _ := json.Marshal(ProgressLine{Type: "heartbeat"})
	heartbeat = append(heartbeat, '\n')

	var pw *io.PipeWriter
	var inflight chan struct{}
	connect := func() bool {
		pr, npw := io.Pipe()
		u := s.w.url("/v1/dispatch/tasks/"+s.lease.TaskID+"/events", url.Values{"lease": {s.lease.LeaseID}})
		req, err := http.NewRequest(http.MethodPost, u, pr)
		if err != nil {
			pr.Close()
			return false
		}
		req.Header.Set("Content-Type", "application/x-ndjson")
		pw = npw
		settled := make(chan struct{})
		inflight = settled
		go func() {
			defer close(settled)
			resp, err := s.w.opt.Client.Do(req)
			if err != nil {
				return // transport closed pr; next write reconnects
			}
			io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<12))
			code := resp.StatusCode
			resp.Body.Close()
			if code == http.StatusConflict {
				s.markLost()
				s.cancel()
			}
		}()
		return true
	}
	// write delivers one line, reconnecting once if the previous stream
	// ended (server response or transport error closes the pipe).
	write := func(raw []byte) {
		if s.leaseLost() {
			return
		}
		if pw == nil && !connect() {
			return
		}
		if _, err := pw.Write(raw); err != nil {
			pw = nil
			if !s.leaseLost() && connect() {
				if _, err := pw.Write(raw); err != nil {
					pw = nil
				}
			}
		}
	}
	connect()
	for {
		select {
		case raw := <-s.lines:
			write(raw)
		case <-hb.C:
			write(heartbeat)
		case <-s.closing:
			for draining := true; draining; {
				select {
				case raw := <-s.lines:
					write(raw)
				default:
					draining = false
				}
			}
			if pw != nil {
				pw.Close() // EOF → server finishes the stream with 200
			}
			if inflight != nil {
				// Wait for the coordinator to acknowledge the stream: once
				// the response lands, every line has been dispatched to the
				// job's event sink, so the shard result posted next cannot
				// overtake its own progress.
				select {
				case <-inflight:
				case <-time.After(5 * time.Second):
				}
			}
			return
		}
	}
}
