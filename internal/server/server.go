// Package server turns the reproduction into a long-running simulation
// service: an HTTP/JSON API that accepts SPICE-ish netlist decks with
// analysis specs and multiplexes them onto the concurrent sweep engine.
//
// Endpoints:
//
//	POST   /v1/jobs             submit a deck asynchronously → 202 {id,...}
//	POST   /v1/simulate         submit and wait; the response is the result
//	GET    /v1/jobs             list job summaries
//	GET    /v1/jobs/{id}        one job's summary
//	GET    /v1/jobs/{id}/result the (possibly partial) sweep result JSON
//	GET    /v1/jobs/{id}/events SSE / NDJSON progress stream
//	GET    /v1/jobs/{id}/trace  span tree + Newton convergence records
//	                            (jobs submitted with "trace": true)
//	DELETE /v1/jobs/{id}        cancel a job
//	GET    /metrics             Prometheus text (or ?format=json)
//	GET    /healthz             liveness + drain state
//
// The service is built for heavy identical traffic: results are cached by
// the SHA-256 of the canonicalised (deck, options) pair in a byte-bounded
// LRU, identical concurrent submits are coalesced onto one engine run
// (singleflight), and every submit is tied to its client — a synchronous
// request whose connection drops cancels the underlying Newton iterations
// cooperatively unless someone else still wants the answer. Shutdown
// drains: new submits are rejected, running jobs get DrainTimeout to
// finish, stragglers are interrupted and their partial aggregates are
// still serialized, spooled, and served.
package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/dispatch"
)

// Options configures the simulation service. The zero value is usable:
// sensible bounds, cache on, no spooling.
type Options struct {
	// MaxConcurrent bounds simulations holding a slot at once
	// (default 2). Each simulation itself fans out on SweepWorkers.
	MaxConcurrent int
	// MaxQueue bounds in-flight (queued + running) jobs; submits beyond it
	// are rejected with 503 (default 64).
	MaxQueue int
	// SweepWorkers is each simulation's worker-pool size (default
	// NumCPU). It never enters cache keys: results are scheduling-free.
	SweepWorkers int
	// CacheBytes bounds the result cache (default 64 MiB; negative
	// disables caching).
	CacheBytes int64
	// DrainTimeout is how long Shutdown lets running jobs finish before
	// interrupting them (default 30s).
	DrainTimeout time.Duration
	// SpoolDir, when set, receives every finished job's result JSON as
	// <id>.json — including the partial aggregates of jobs interrupted by
	// shutdown. A dispatch/ subdirectory journals queued shards.
	SpoolDir string
	// LeaseTTL is the dispatch plane's shard lease lifetime (default 15s):
	// a worker that stops heartbeating for this long loses its shard, which
	// is requeued for another worker.
	LeaseTTL time.Duration
	// Logf sinks server logs (default log.Printf).
	Logf func(format string, args ...any)
}

func (o *Options) withDefaults() Options {
	out := *o
	if out.MaxConcurrent <= 0 {
		out.MaxConcurrent = 2
	}
	if out.MaxQueue <= 0 {
		out.MaxQueue = 64
	}
	if out.SweepWorkers <= 0 {
		out.SweepWorkers = runtime.NumCPU()
	}
	if out.CacheBytes == 0 {
		out.CacheBytes = 64 << 20
	}
	if out.DrainTimeout <= 0 {
		out.DrainTimeout = 30 * time.Second
	}
	if out.Logf == nil {
		out.Logf = log.Printf
	}
	return out
}

// Server is the simulation service: job manager, result cache, metrics,
// and the HTTP handler tying them together.
type Server struct {
	opt     Options
	mux     *http.ServeMux
	mgr     *manager
	cache   resultCache
	coord   *dispatch.Coordinator
	metrics metrics
	start   time.Time
}

// New builds a Server from opt.
func New(opt Options) *Server {
	s := &Server{opt: opt.withDefaults(), start: time.Now()}
	s.metrics.initHistograms()
	s.cache = newResultCache(s.opt.CacheBytes)
	s.mgr = newManager(s, s.opt.MaxConcurrent)
	journal := ""
	if s.opt.SpoolDir != "" {
		journal = filepath.Join(s.opt.SpoolDir, "dispatch")
		if err := os.MkdirAll(journal, 0o755); err != nil {
			s.logf("server: dispatch journal %s: %v", journal, err)
			journal = ""
		}
	}
	s.coord = dispatch.NewCoordinator(dispatch.CoordinatorOptions{
		LeaseTTL:   s.opt.LeaseTTL,
		JournalDir: journal,
		Cache:      s.cache,
		Logf:       s.opt.Logf,
	})
	// Boot recovery: shards a crashed predecessor journalled but never
	// settled go back on the queue; their results land in the shard cache
	// so the re-submitted request after the crash does not recompute.
	if n, err := s.coord.Recover(); err != nil {
		s.logf("server: dispatch recovery: %v", err)
	} else if n > 0 {
		s.logf("server: dispatch recovery re-enqueued %d journalled shard(s)", n)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("POST /v1/simulate", s.handleSimulate)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleTrace)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.coord.RegisterHandlers(mux)
	s.mux = mux
	return s
}

// Handler returns the service's HTTP handler (also what httptest mounts).
func (s *Server) Handler() http.Handler { return s.mux }

func (s *Server) logf(format string, args ...any) { s.opt.Logf(format, args...) }

// Shutdown drains the job manager: no new submits, running jobs get until
// ctx's deadline to finish, stragglers are canceled cooperatively and
// still flush their partial results. It returns ctx.Err() when the
// deadline forced cancellation, nil on a clean drain.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mgr.beginDrain()
	done := make(chan struct{})
	go func() {
		s.mgr.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.coord.Close()
		return nil
	case <-ctx.Done():
	}
	s.mgr.cancelAll()
	// Cancellation is cooperative down to the Newton iterations, so the
	// remaining jobs unwind promptly and flush partial aggregates.
	<-done
	s.coord.Close()
	return ctx.Err()
}

// Serve runs the service on addr until ctx is canceled, then drains with
// Options.DrainTimeout and closes the listener. It is the blocking entry
// point cmd/mpde-serve wraps with signal handling.
func Serve(ctx context.Context, addr string, opt Options) error {
	s := New(opt)
	hs := &http.Server{Addr: addr, Handler: s.Handler()}
	errc := make(chan error, 1)
	//mpde:goroleak-ok one buffered send; the goroutine exits when ListenAndServe returns, which hs.Shutdown below forces
	go func() { errc <- hs.ListenAndServe() }()
	s.logf("server: listening on %s (max %d concurrent, queue %d, cache %d bytes)",
		addr, s.opt.MaxConcurrent, s.opt.MaxQueue, s.opt.CacheBytes)
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	s.logf("server: draining (timeout %v)", s.opt.DrainTimeout)
	dctx, cancel := context.WithTimeout(context.Background(), s.opt.DrainTimeout)
	defer cancel()
	if err := s.Shutdown(dctx); err != nil {
		s.logf("server: drain deadline hit; interrupted remaining jobs")
	}
	hctx, hcancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer hcancel()
	if err := hs.Shutdown(hctx); err != nil {
		hs.Close()
	}
	s.logf("server: stopped")
	return nil
}

// maxBodyBytes bounds request bodies: decks are small; anything bigger is
// hostile.
const maxBodyBytes = 8 << 20

// readRequest decodes a submit body: JSON for json-ish content, otherwise
// the raw bytes are the deck itself.
func readRequest(w http.ResponseWriter, r *http.Request) (*Request, error) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		return nil, badRequestf("read body: %v", err)
	}
	ct := r.Header.Get("Content-Type")
	trimmed := strings.TrimSpace(string(body))
	if strings.Contains(ct, "json") || strings.HasPrefix(trimmed, "{") {
		var req Request
		if err := json.Unmarshal(body, &req); err != nil {
			return nil, badRequestf("request JSON: %v", err)
		}
		return &req, nil
	}
	return &Request{Deck: string(body)}, nil
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeErr(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// submitCommon resolves and submits; it maps the submission errors onto
// HTTP statuses and reports them itself, returning ok=false.
func (s *Server) submitCommon(w http.ResponseWriter, r *http.Request, pin bool) (j *jobState, release func(), cacheHit, ok bool) {
	req, err := readRequest(w, r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return nil, nil, false, false
	}
	rs, err := resolveRequest(req, s.opt.SweepWorkers)
	if err != nil {
		if _, bad := err.(*badRequestError); bad {
			writeErr(w, http.StatusBadRequest, "%v", err)
		} else {
			writeErr(w, http.StatusInternalServerError, "%v", err)
		}
		return nil, nil, false, false
	}
	j, release, cacheHit, err = s.mgr.submit(rs, pin)
	switch err {
	case nil:
	case errDraining:
		writeErr(w, http.StatusServiceUnavailable, "%v", err)
		return nil, nil, false, false
	case errBusy:
		w.Header().Set("Retry-After", "1")
		writeErr(w, http.StatusServiceUnavailable, "%v", err)
		return nil, nil, false, false
	default:
		writeErr(w, http.StatusInternalServerError, "%v", err)
		return nil, nil, false, false
	}
	return j, release, cacheHit, true
}

// handleSubmit is the asynchronous form: the job is pinned (it survives
// every client going away) and the response is its handle.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	j, release, cacheHit, ok := s.submitCommon(w, r, true)
	if !ok {
		return
	}
	defer release()
	info := j.info()
	w.Header().Set("Location", "/v1/jobs/"+info.ID)
	setCacheHeader(w, cacheHit)
	writeJSON(w, http.StatusAccepted, info)
}

// handleSimulate is the synchronous form: the request context owns the
// job. If the client disconnects and no other submit or event stream is
// attached, the simulation is canceled down at the Newton level.
func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	j, release, cacheHit, ok := s.submitCommon(w, r, false)
	if !ok {
		return
	}
	defer release()
	select {
	case <-j.done:
	case <-r.Context().Done():
		// Client gone: release (via defer) cancels the run if it was the
		// last attachment; nothing sensible left to write.
		return
	}
	info := j.info()
	w.Header().Set("X-Job-ID", info.ID)
	w.Header().Set("X-Job-Status", string(info.Status))
	setCacheHeader(w, cacheHit)
	if info.Status != StatusDone && info.Status != StatusCanceled || len(jobResult(j)) == 0 {
		writeErr(w, http.StatusBadGateway, "job %s %s: %s", info.ID, info.Status, info.Err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(jobResult(j))
}

func setCacheHeader(w http.ResponseWriter, hit bool) {
	if hit {
		w.Header().Set("X-Cache", "hit")
	} else {
		w.Header().Set("X-Cache", "miss")
	}
}

func jobResult(j *jobState) []byte {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"jobs": s.mgr.list()})
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.mgr.get(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, "no such job")
		return
	}
	writeJSON(w, http.StatusOK, j.info())
}

// handleResult serves the sweep aggregate: complete for done jobs, the
// flushed partial for canceled ones (X-Job-Status tells them apart).
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.mgr.get(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, "no such job")
		return
	}
	info := j.info()
	w.Header().Set("X-Job-Status", string(info.Status))
	res := jobResult(j)
	switch {
	case !info.Status.finished():
		writeJSON(w, http.StatusAccepted, info)
	case len(res) == 0:
		writeErr(w, http.StatusBadGateway, "job %s %s: %s", info.ID, info.Status, info.Err)
	default:
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		w.Write(res)
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.mgr.get(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, "no such job")
		return
	}
	j.cancelNow()
	writeJSON(w, http.StatusOK, j.info())
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	pts := s.metrics.snapshot(s.cache, s.start, s.coord.Stats())
	hists := s.metrics.histograms()
	if r.URL.Query().Get("format") == "json" {
		w.Header().Set("Content-Type", "application/json")
		writeMetricsJSON(w, pts, hists)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	writeProm(w, pts, hists)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	code := http.StatusOK
	if s.mgr.isDraining() {
		status = "draining"
		code = http.StatusServiceUnavailable
	}
	detail := map[string]any{"status": status}
	// A failing spool is data loss in slow motion: results are served but
	// their on-disk copies are not landing. Surface the last failure here
	// (and count them in mpde_spool_errors_total) instead of only logging.
	if msg := s.mgr.lastSpoolError(); msg != "" {
		detail["spool_error"] = msg
	}
	ds := s.coord.Stats()
	if ds.Workers > 0 || ds.Queue.Enqueued > 0 {
		detail["dispatch"] = map[string]any{
			"workers":       ds.Workers,
			"queue_depth":   ds.Queue.Depth,
			"leases_active": ds.Queue.LeasesActive,
		}
	}
	writeJSON(w, code, detail)
}
