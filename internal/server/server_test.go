package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// fastDeck is an ideal multiplier mixer whose QPSS solve costs tens of
// milliseconds — the workhorse of the happy-path tests. It carries its own
// analysis spec, exercising the .qpss directive end to end.
const fastDeck = `
.title svc-mixer
.tones 1meg 0.9meg
VLO lo 0 SIN 0 1 1meg
VRF rf 0 SIN 0 0.1 0.9meg
RL out 0 1k
CL out 0 5n
X1 out lo rf 1m
.qpss n1=12 n2=8
.end
`

// slowDeck runs a long fixed-step transient (hundreds of thousands of
// Newton solves), slow enough that cancellation reliably lands mid-run and
// must unwind through the solver's Interrupt hook.
const slowDeck = `
.title svc-slow
.tones 1meg 0.998meg
VLO lo 0 SIN 0 1 1meg
VRF rf 0 SIN 0 0.1 0.998meg
RL out 0 1k
CL out 0 100n
X1 out lo rf 1m
.transient periods=30
.end
`

func newTestServer(t *testing.T, opt Options) (*Server, *httptest.Server) {
	t.Helper()
	if opt.Logf == nil {
		opt.Logf = t.Logf
	}
	s := New(opt)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postJSON(t testing.TB, url string, body any) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeJSON[T any](t testing.TB, r io.Reader) T {
	t.Helper()
	var v T
	if err := json.NewDecoder(r).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

func metricsSnapshot(t testing.TB, base string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics?format=json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	return decodeJSON[map[string]float64](t, resp.Body)
}

func jobInfo(t *testing.T, base, id string) JobInfo {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET job %s: %d", id, resp.StatusCode)
	}
	return decodeJSON[JobInfo](t, resp.Body)
}

// waitStatus polls until the job reaches one of the wanted states.
func waitStatus(t *testing.T, base, id string, timeout time.Duration, want ...JobStatus) JobInfo {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		info := jobInfo(t, base, id)
		for _, w := range want {
			if info.Status == w {
				return info
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %q (want %v)", id, info.Status, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// sseEvent is one parsed frame of the event stream.
type sseEvent struct {
	ID   int
	Type string
	Data Event
}

// readSSE consumes a text/event-stream until the terminal done event (or
// EOF) and returns every frame.
func readSSE(t *testing.T, r io.Reader) []sseEvent {
	t.Helper()
	var out []sseEvent
	var cur sseEvent
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if cur.Type != "" {
				out = append(out, cur)
				if cur.Type == "done" {
					return out
				}
			}
			cur = sseEvent{}
		case strings.HasPrefix(line, "id: "):
			fmt.Sscanf(line, "id: %d", &cur.ID)
		case strings.HasPrefix(line, "event: "):
			cur.Type = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &cur.Data); err != nil {
				t.Fatalf("bad SSE data %q: %v", line, err)
			}
		}
	}
	return out
}

// TestSubmitStreamFetch is the canonical session: submit a deck
// asynchronously, follow the SSE progress stream to completion, fetch the
// result, and hit the cache on resubmission.
func TestSubmitStreamFetch(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	resp := postJSON(t, ts.URL+"/v1/jobs", map[string]any{"deck": fastDeck, "rf_amp": 0.1})
	if resp.StatusCode != http.StatusAccepted {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	info := decodeJSON[JobInfo](t, resp.Body)
	resp.Body.Close()
	if info.ID == "" || info.Total != 1 {
		t.Fatalf("submit info = %+v", info)
	}

	// Follow progress to the end.
	sresp, err := http.Get(ts.URL + "/v1/jobs/" + info.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	if ct := sresp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events content-type %q", ct)
	}
	events := readSSE(t, sresp.Body)
	kinds := map[string]int{}
	lastSeq := 0
	for _, ev := range events {
		kinds[ev.Type]++
		if ev.Data.Seq <= lastSeq {
			t.Fatalf("event seq not increasing: %+v", events)
		}
		lastSeq = ev.Data.Seq
	}
	for _, k := range []string{"queued", "start", "job_start", "job_done", "done"} {
		if kinds[k] != 1 {
			t.Fatalf("event kinds %v: want exactly one %q", kinds, k)
		}
	}

	// Fetch the aggregate.
	rresp, err := http.Get(ts.URL + "/v1/jobs/" + info.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(rresp.Body)
	rresp.Body.Close()
	if rresp.StatusCode != http.StatusOK {
		t.Fatalf("result: %d %s", rresp.StatusCode, body)
	}
	var result struct {
		Name string `json:"name"`
		Jobs []struct {
			Status string `json:"status"`
			Job    struct {
				Method string `json:"method"`
				Point  struct {
					N1 int `json:"n1"`
					N2 int `json:"n2"`
				} `json:"point"`
			} `json:"job"`
		} `json:"jobs"`
	}
	if err := json.Unmarshal(body, &result); err != nil {
		t.Fatalf("result JSON: %v\n%s", err, body)
	}
	if result.Name != "svc-mixer" || len(result.Jobs) != 1 {
		t.Fatalf("result = %+v", result)
	}
	j := result.Jobs[0]
	if j.Status != "ok" || j.Job.Method != "qpss" || j.Job.Point.N1 != 12 || j.Job.Point.N2 != 8 {
		t.Fatalf("the deck's .qpss directive did not drive the run: %+v", j)
	}

	// Identical resubmission: served from the content-addressed cache.
	resp2 := postJSON(t, ts.URL+"/v1/jobs", map[string]any{"deck": fastDeck, "rf_amp": 0.1})
	info2 := decodeJSON[JobInfo](t, resp2.Body)
	resp2.Body.Close()
	if resp2.Header.Get("X-Cache") != "hit" || !info2.Cached {
		t.Fatalf("resubmission missed the cache: %+v (X-Cache %q)", info2, resp2.Header.Get("X-Cache"))
	}
	m := metricsSnapshot(t, ts.URL)
	if m["mpde_engine_runs_total"] != 1 {
		t.Fatalf("engine runs = %v, want 1", m["mpde_engine_runs_total"])
	}
	if m["mpde_cache_hits_total"] != 1 || m["mpde_cache_entries"] != 1 {
		t.Fatalf("cache metrics %v", m)
	}
}

// TestSingleflightIdenticalConcurrentPosts is the acceptance scenario: two
// identical concurrent synchronous submits trigger exactly one engine run
// and both clients get byte-identical results.
func TestSingleflightIdenticalConcurrentPosts(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	body := map[string]any{"deck": fastDeck}
	var wg sync.WaitGroup
	results := make([][]byte, 2)
	status := make([]int, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp := postJSON(t, ts.URL+"/v1/simulate", body)
			defer resp.Body.Close()
			status[i] = resp.StatusCode
			results[i], _ = io.ReadAll(resp.Body)
		}(i)
	}
	wg.Wait()
	if status[0] != http.StatusOK || status[1] != http.StatusOK {
		t.Fatalf("statuses %v: %s / %s", status, results[0], results[1])
	}
	if !bytes.Equal(results[0], results[1]) {
		t.Fatal("concurrent identical posts returned different bytes")
	}
	m := metricsSnapshot(t, ts.URL)
	if m["mpde_engine_runs_total"] != 1 {
		t.Fatalf("engine runs = %v, want exactly 1 (singleflight/cache)", m["mpde_engine_runs_total"])
	}
	if m["mpde_singleflight_shared_total"]+m["mpde_cache_hits_total"] < 1 {
		t.Fatalf("neither singleflight nor cache absorbed the duplicate: %v", m)
	}
	if m["mpde_jobs_submitted_total"] != 2 {
		t.Fatalf("submitted = %v, want 2", m["mpde_jobs_submitted_total"])
	}
}

// TestCacheKeyCanonicalization: decks differing only in comments and
// whitespace must hash to the same cache entry.
func TestCacheKeyCanonicalization(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	resp := postJSON(t, ts.URL+"/v1/simulate", map[string]any{"deck": fastDeck})
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first post: %d", resp.StatusCode)
	}
	noisy := "* a new comment\n" + strings.ReplaceAll(fastDeck, "RL out 0 1k", "RL   out 0    1k ; load")
	resp2 := postJSON(t, ts.URL+"/v1/simulate", map[string]any{"deck": noisy})
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if resp2.Header.Get("X-Cache") != "hit" {
		t.Fatalf("whitespace/comment noise defeated canonicalization (X-Cache %q)", resp2.Header.Get("X-Cache"))
	}
	// A semantically different deck must NOT hit.
	other := strings.ReplaceAll(fastDeck, "RL out 0 1k", "RL out 0 2k")
	resp3 := postJSON(t, ts.URL+"/v1/simulate", map[string]any{"deck": other})
	io.Copy(io.Discard, resp3.Body)
	resp3.Body.Close()
	if resp3.Header.Get("X-Cache") != "miss" {
		t.Fatal("different deck served from cache")
	}
}

// TestClientDisconnectCancelsJob: a synchronous submitter that drops its
// connection mid-run must cancel the simulation promptly through the
// solver's Interrupt hook, and the flushed partial result must record the
// interruption.
func TestClientDisconnectCancelsJob(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	b, _ := json.Marshal(map[string]any{"deck": slowDeck})
	req, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/simulate", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	errc := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		errc <- err
	}()

	// Find the job and wait for it to be genuinely computing.
	var id string
	deadline := time.Now().Add(10 * time.Second)
	for id == "" {
		if time.Now().After(deadline) {
			t.Fatal("job never appeared/started")
		}
		resp, err := http.Get(ts.URL + "/v1/jobs")
		if err != nil {
			t.Fatal(err)
		}
		list := decodeJSON[struct{ Jobs []JobInfo }](t, resp.Body)
		resp.Body.Close()
		if len(list.Jobs) > 0 && list.Jobs[0].Status == StatusRunning {
			id = list.Jobs[0].ID
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Give the transient stepper a moment to be mid-integration, then
	// drop the client.
	time.Sleep(100 * time.Millisecond)
	t0 := time.Now()
	cancel()
	if err := <-errc; err == nil {
		t.Fatal("the request should have failed with context canceled")
	}

	info := waitStatus(t, ts.URL, id, 5*time.Second, StatusCanceled, StatusDone)
	if info.Status != StatusCanceled {
		t.Fatalf("job finished before the cancel landed — slowDeck is too fast (status %s)", info.Status)
	}
	if unwound := time.Since(t0); unwound > 3*time.Second {
		t.Fatalf("cancel took %v to unwind — Newton-level interrupt not engaged", unwound)
	}
	// The partial aggregate must be flushed and record the solver
	// interrupt, not vanish.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Job-Status") != "canceled" {
		t.Fatalf("partial result: %d %q %s", resp.StatusCode, resp.Header.Get("X-Job-Status"), body)
	}
	if !bytes.Contains(body, []byte(`"status": "canceled"`)) {
		t.Fatalf("partial result does not record the interrupted analysis:\n%s", body)
	}
	m := metricsSnapshot(t, ts.URL)
	if m["mpde_jobs_canceled_total"] != 1 || m["mpde_sweep_jobs_canceled_total"] < 1 {
		t.Fatalf("cancellation not recorded in metrics: %v", m)
	}
	if m["mpde_cache_entries"] != 0 {
		t.Fatal("a partial result must never enter the cache")
	}
}

// TestEventStreamKeepsJobAlive: with the synchronous submitter gone but an
// event follower still attached, the run must continue; when the follower
// leaves too, it must cancel.
func TestEventStreamKeepsJobAlive(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	ctx, cancelPost := context.WithCancel(context.Background())
	b, _ := json.Marshal(map[string]any{"deck": slowDeck})
	req, _ := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/simulate", bytes.NewReader(b))
	req.Header.Set("Content-Type", "application/json")
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
	}()
	var id string
	deadline := time.Now().Add(10 * time.Second)
	for id == "" && !time.Now().After(deadline) {
		resp, err := http.Get(ts.URL + "/v1/jobs")
		if err != nil {
			t.Fatal(err)
		}
		list := decodeJSON[struct{ Jobs []JobInfo }](t, resp.Body)
		resp.Body.Close()
		if len(list.Jobs) > 0 && list.Jobs[0].Status == StatusRunning {
			id = list.Jobs[0].ID
		}
		time.Sleep(10 * time.Millisecond)
	}
	if id == "" {
		t.Fatal("job never started")
	}

	// Attach a follower, then drop the submitter.
	sctx, cancelStream := context.WithCancel(context.Background())
	defer cancelStream()
	sreq, _ := http.NewRequestWithContext(sctx, "GET", ts.URL+"/v1/jobs/"+id+"/events", nil)
	sresp, err := http.DefaultClient.Do(sreq)
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	cancelPost()
	time.Sleep(200 * time.Millisecond)
	if info := jobInfo(t, ts.URL, id); info.Status != StatusRunning {
		t.Fatalf("job died with a live event follower attached: %s", info.Status)
	}
	// Follower leaves: now the job is unwatched and must cancel.
	cancelStream()
	waitStatus(t, ts.URL, id, 5*time.Second, StatusCanceled)
}

// TestShutdownDrainsAndFlushes: SIGTERM-path semantics via Shutdown — new
// submits rejected, the running job interrupted at the drain deadline, and
// its partial aggregate spooled to disk before Shutdown returns.
func TestShutdownDrainsAndFlushes(t *testing.T) {
	spool := t.TempDir()
	s, ts := newTestServer(t, Options{SpoolDir: spool})
	resp := postJSON(t, ts.URL+"/v1/jobs", map[string]any{"deck": slowDeck})
	info := decodeJSON[JobInfo](t, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	waitStatus(t, ts.URL, info.ID, 10*time.Second, StatusRunning)
	time.Sleep(100 * time.Millisecond)

	dctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	t0 := time.Now()
	err := s.Shutdown(dctx)
	if err == nil {
		t.Fatal("Shutdown with a running slow job should report the forced drain")
	}
	if took := time.Since(t0); took > 5*time.Second {
		t.Fatalf("drain took %v — jobs not interrupted cooperatively", took)
	}

	// Draining is observable and new work is rejected.
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, hresp.Body)
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining: %d", hresp.StatusCode)
	}
	sresp := postJSON(t, ts.URL+"/v1/jobs", map[string]any{"deck": fastDeck})
	io.Copy(io.Discard, sresp.Body)
	sresp.Body.Close()
	if sresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: %d, want 503", sresp.StatusCode)
	}

	// The interrupted job flushed its partial aggregate to the spool.
	if jobInfo(t, ts.URL, info.ID).Status != StatusCanceled {
		t.Fatal("running job not canceled by drain")
	}
	data, err := os.ReadFile(filepath.Join(spool, info.ID+".json"))
	if err != nil {
		t.Fatalf("spooled partial result missing: %v", err)
	}
	if !bytes.Contains(data, []byte(`"status": "canceled"`)) {
		t.Fatalf("spooled aggregate does not record the interruption:\n%s", data)
	}
}

// TestAdmissionControl: MaxQueue bounds in-flight jobs with 503 and
// Retry-After; DELETE frees the slot.
func TestAdmissionControl(t *testing.T) {
	_, ts := newTestServer(t, Options{MaxConcurrent: 1, MaxQueue: 1})
	resp := postJSON(t, ts.URL+"/v1/jobs", map[string]any{"deck": slowDeck})
	info := decodeJSON[JobInfo](t, resp.Body)
	resp.Body.Close()
	waitStatus(t, ts.URL, info.ID, 10*time.Second, StatusRunning)

	resp2 := postJSON(t, ts.URL+"/v1/jobs", map[string]any{"deck": fastDeck})
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusServiceUnavailable || resp2.Header.Get("Retry-After") == "" {
		t.Fatalf("over-queue submit: %d (Retry-After %q), want 503",
			resp2.StatusCode, resp2.Header.Get("Retry-After"))
	}

	dreq, _ := http.NewRequest("DELETE", ts.URL+"/v1/jobs/"+info.ID, nil)
	dresp, err := http.DefaultClient.Do(dreq)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, dresp.Body)
	dresp.Body.Close()
	waitStatus(t, ts.URL, info.ID, 5*time.Second, StatusCanceled)

	resp3 := postJSON(t, ts.URL+"/v1/jobs", map[string]any{"deck": fastDeck})
	info3 := decodeJSON[JobInfo](t, resp3.Body)
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusAccepted {
		t.Fatalf("submit after DELETE: %d", resp3.StatusCode)
	}
	waitStatus(t, ts.URL, info3.ID, 30*time.Second, StatusDone)
}

// TestRequestValidation: hostile or malformed submissions come back as
// 400s with positioned parser errors, never 500s.
func TestRequestValidation(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	cases := []struct {
		name string
		body any
		want string
	}{
		{"empty", map[string]any{"deck": ""}, "deck is required"},
		{"syntax", map[string]any{"deck": "R1 a 0 xx\n"}, "line 1, col 8"},
		{"no tones", map[string]any{"deck": "R1 a 0 1k\n"}, ".tones"},
		{"bad method", map[string]any{"deck": fastDeck, "analyses": []map[string]any{{"method": "spice"}}}, "unknown method"},
		{"bad probe", map[string]any{"deck": fastDeck, "probe": "nope"}, "probe"},
	}
	for _, c := range cases {
		resp := postJSON(t, ts.URL+"/v1/jobs", c.body)
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400 (%s)", c.name, resp.StatusCode, body)
		}
		if !strings.Contains(string(body), c.want) {
			t.Fatalf("%s: %s does not mention %q", c.name, body, c.want)
		}
	}
	// Raw (non-JSON) bodies are treated as the deck itself.
	resp, err := http.Post(ts.URL+"/v1/simulate", "text/plain", strings.NewReader(fastDeck))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Contains(body, []byte(`"status": "ok"`)) {
		t.Fatalf("raw deck post: %d %s", resp.StatusCode, body)
	}
}

// TestRetiredGMRESLinearRejected: the retired "gmres" linear solver is a
// 400 whether it arrives as the request's linear field or as a deck
// directive's linear= parameter.
func TestRetiredGMRESLinearRejected(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	gmresDeck := strings.Replace(fastDeck, ".qpss n1=12 n2=8", ".qpss n1=12 n2=8 linear=gmres", 1)
	if gmresDeck == fastDeck {
		t.Fatal("fixture deck lost its .qpss directive")
	}
	for name, body := range map[string]any{
		"field":     map[string]any{"deck": fastDeck, "linear": "gmres"},
		"directive": map[string]any{"deck": gmresDeck},
	} {
		resp := postJSON(t, ts.URL+"/v1/jobs", body)
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), `unknown linear solver \"gmres\"`) {
			t.Fatalf("%s: %d %s, want 400 naming the solver", name, resp.StatusCode, msg)
		}
	}
}

// TestResultCacheLRU covers the byte-bound and recency order directly.
func TestResultCacheLRU(t *testing.T) {
	c := newResultCache(100)
	val := func(n int) []byte { return bytes.Repeat([]byte{byte(n)}, 40) }
	c.Put("a", val(1))
	c.Put("b", val(2))
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a evicted too early")
	}
	c.Put("c", val(3)) // 120 bytes > 100: evicts LRU = b (a was just touched)
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted (LRU)")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a (recently used) must survive")
	}
	if n, sz := c.Stats(); n != 2 || sz != 80 {
		t.Fatalf("stats = %d entries %d bytes", n, sz)
	}
	c.Put("huge", make([]byte, 200)) // larger than the bound: dropped
	if n, _ := c.Stats(); n != 2 {
		t.Fatal("oversized value must be rejected, not evict the world")
	}
	// Disabled cache.
	d := newResultCache(-1)
	d.Put("x", val(1))
	if _, ok := d.Get("x"); ok {
		t.Fatal("disabled cache stored a value")
	}
}

// TestResourceCaps: hostile grid sizes are rejected at admission, before
// any allocation happens.
func TestResourceCaps(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	huge := strings.Replace(fastDeck, ".qpss n1=12 n2=8", ".qpss n1=40000 n2=40000", 1)
	resp := postJSON(t, ts.URL+"/v1/jobs", map[string]any{"deck": huge})
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "bound") {
		t.Fatalf("oversized grid: %d %s, want 400", resp.StatusCode, body)
	}
	n1s := make([]int, 300)
	for i := range n1s {
		n1s[i] = i + 2
	}
	resp2 := postJSON(t, ts.URL+"/v1/jobs", map[string]any{
		"deck": fastDeck, "methods": []string{"qpss"}, "grid": map[string]any{"n1": n1s},
	})
	body2, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest || !strings.Contains(string(body2), "analyses") {
		t.Fatalf("oversized job list: %d %s, want 400", resp2.StatusCode, body2)
	}
}

// TestAdaptiveAccuracyRequest covers the reltol/abstol request fields: the
// tolerances are part of the content-addressed identity (an adaptive run
// must not be served from a fixed-grid run's cache entry), the final grid
// sizes surface in the result JSON, and the step-rejection/refinement
// counters exist in /metrics.
func TestAdaptiveAccuracyRequest(t *testing.T) {
	_, ts := newTestServer(t, Options{})

	fixed := postJSON(t, ts.URL+"/v1/simulate", map[string]any{"deck": fastDeck})
	fixedBody, _ := io.ReadAll(fixed.Body)
	fixed.Body.Close()
	if fixed.StatusCode != http.StatusOK {
		t.Fatalf("fixed run: %d %s", fixed.StatusCode, fixedBody)
	}

	adaptive := postJSON(t, ts.URL+"/v1/simulate", map[string]any{"deck": fastDeck, "reltol": 1e-3})
	adaptiveBody, _ := io.ReadAll(adaptive.Body)
	adaptive.Body.Close()
	if adaptive.StatusCode != http.StatusOK {
		t.Fatalf("adaptive run: %d %s", adaptive.StatusCode, adaptiveBody)
	}
	if adaptive.Header.Get("X-Cache") == "hit" {
		t.Fatal("adaptive request was served from the fixed-grid cache entry — reltol is missing from the canonical key")
	}
	if !strings.Contains(string(adaptiveBody), `"final_n1"`) {
		t.Errorf("adaptive result JSON lacks final grid sizes:\n%s", adaptiveBody)
	}

	m := metricsSnapshot(t, ts.URL)
	for _, name := range []string{"mpde_solver_step_rejections_total", "mpde_solver_grid_refinements_total"} {
		if _, ok := m[name]; !ok {
			t.Errorf("/metrics missing %s", name)
		}
	}
	if m["mpde_engine_runs_total"] != 2 {
		t.Errorf("engine runs = %v, want 2 (fixed + adaptive must not coalesce)", m["mpde_engine_runs_total"])
	}
}
