// Package dispatch is the server's coordinator/worker job plane: a leased
// shard queue, a canonical wire codec for sweep requests, and the two
// executors — in-process (the default; zero behavior change when no
// workers are registered) and HTTP workers pulling leased shards.
//
// Determinism contract: a sweep distributed over workers must merge to the
// byte-identical timing-free JSON a single-process run produces. Three
// mechanisms carry it:
//
//   - The wire form ships the deck as canonical netlist text plus the
//     request's already-canonicalised job expansion; every node re-derives
//     the identical sweep.Spec from it, and the content-addressed request
//     key is the SHA-256 of the one canonical encoding, so cache and
//     singleflight identity agree across processes.
//   - Shards are split along warm-start group boundaries (sweep.Shards),
//     so seeded Newton trajectories match the single-process run.
//   - Each shard envelope carries a digest of the canonically encoded
//     per-job analysis parameters; a worker whose registry derives
//     different parameters (version skew) refuses the shard instead of
//     merging subtly different numbers.
package dispatch

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/solver"
	"repro/internal/sweep"
)

// WireVersion is the dispatch wire-format version. A node bumps it when
// the encodings below change incompatibly; mixed-version pairs fail fast
// at decode time. Bumping it also licenses `go generate` to rewrite
// wire.lock from scratch — without a bump the lock is append-only and
// mpdewirelock reports any mutation of a locked field.
//
//go:generate go run ./gen
const WireVersion = 3

// RequestWire is the canonical wire form of one resolved sweep request:
// everything that can change the timing-free result bytes, and nothing
// that cannot (worker counts and queueing knobs never enter). Deck is
// canonical netlist text (netlist.Canonical); Jobs is the deterministic
// expansion Spec.Jobs produced on the resolving node. The canonical
// encoding is json.Marshal of this struct — field order is fixed by
// declaration, so encode→decode→encode round-trips byte-exactly and Key
// is identical on every node.
type RequestWire struct {
	V                int         `json:"v"`
	Deck             string      `json:"deck"`
	Name             string      `json:"name"`
	Jobs             []sweep.Job `json:"jobs"`
	OutP             int         `json:"outp"`
	OutM             int         `json:"outm"`
	RFAmp            float64     `json:"rf_amp"`
	WarmStart        bool        `json:"warm_start"`
	SpectrumTop      int         `json:"spectrum_top"`
	TransientPeriods float64     `json:"transient_periods"`
	StepsPerFast     int         `json:"steps_per_fast"`
	RelTol           float64     `json:"reltol,omitempty"`
	AbsTol           float64     `json:"abstol,omitempty"`
	Linear           string      `json:"linear,omitempty"`
	// JobTimeoutMS bounds each analysis job on the executing node. It is
	// part of the encoding (a timeout changes outcomes) but requests with
	// one are uncacheable upstream, so it never poisons cached identities.
	JobTimeoutMS int `json:"job_timeout_ms,omitempty"`
}

// Encode returns the canonical encoding.
//
//mpde:canonical
func (r *RequestWire) Encode() ([]byte, error) {
	if r.V == 0 {
		r.V = WireVersion
	}
	return json.Marshal(r)
}

// Key returns the content-addressed request identity: the hex SHA-256 of
// the canonical encoding. Every node derives the same key for the same
// request, which is what lets the result cache and singleflight identity
// span processes.
//
//mpde:canonical
func (r *RequestWire) Key() (string, error) {
	enc, err := r.Encode()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(enc)
	return hex.EncodeToString(sum[:]), nil
}

// DecodeRequest parses a canonical request encoding strictly: unknown
// fields and version mismatches are errors, so skewed nodes fail fast
// rather than solve a silently different problem.
func DecodeRequest(raw []byte) (*RequestWire, error) {
	var r RequestWire
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&r); err != nil {
		return nil, fmt.Errorf("dispatch: decoding request: %w", err)
	}
	if r.V != WireVersion {
		return nil, fmt.Errorf("dispatch: request wire version %d, this node speaks %d", r.V, WireVersion)
	}
	return &r, nil
}

// BuildSpec reconstitutes the runnable sweep spec on this node: the deck
// is re-parsed (canonical text re-parses to the identical circuit, so the
// probe indices transfer as plain ints) and the wire job list pins the
// expansion. The rebuilt spec's own expansion is verified against the wire
// jobs — a registry that would expand them differently (version skew)
// fails here instead of producing misnumbered results.
func (r *RequestWire) BuildSpec(workers int) (sweep.Spec, error) {
	var spec sweep.Spec
	deck, err := netlist.Parse(strings.NewReader(r.Deck))
	if err != nil {
		return spec, fmt.Errorf("dispatch: wire deck: %w", err)
	}
	sh, err := deck.Shear()
	if err != nil {
		return spec, fmt.Errorf("dispatch: wire deck: %w", err)
	}
	n := deck.Ckt.NumNodes()
	if r.OutP < 0 || r.OutP >= n || r.OutM >= n {
		return spec, fmt.Errorf("dispatch: probe (%d,%d) outside deck's %d nodes", r.OutP, r.OutM, n)
	}
	if len(r.Jobs) == 0 {
		return spec, errors.New("dispatch: wire request has no jobs")
	}
	tgt := &sweep.Target{Ckt: deck.Ckt, Shear: sh, OutP: r.OutP, OutM: r.OutM, RFAmp: r.RFAmp}
	spec = sweep.Spec{
		Name:               r.Name,
		Workers:            workers,
		JobTimeout:         time.Duration(r.JobTimeoutMS) * time.Millisecond,
		WarmStart:          r.WarmStart,
		SpectrumTop:        r.SpectrumTop,
		TransientPeriods:   r.TransientPeriods,
		StepsPerFastPeriod: r.StepsPerFast,
		RelTol:             r.RelTol,
		AbsTol:             r.AbsTol,
		Linear:             r.Linear,
		Build:              func(sweep.Point) (*sweep.Target, error) { return tgt, nil },
	}
	spec.JobList = make([]sweep.JobSpec, len(r.Jobs))
	for i, j := range r.Jobs {
		spec.JobList[i] = sweep.JobSpec{Method: j.Method, Point: j.Point}
	}
	jobs, err := spec.Jobs()
	if err != nil {
		return spec, fmt.Errorf("dispatch: wire jobs: %w", err)
	}
	if len(jobs) != len(r.Jobs) {
		return spec, fmt.Errorf("dispatch: wire jobs re-expand to %d jobs, want %d (registry skew?)", len(jobs), len(r.Jobs))
	}
	for i := range jobs {
		if jobs[i] != r.Jobs[i] {
			return spec, fmt.Errorf("dispatch: wire job %d re-expands as %+v, want %+v (registry skew?)", i, jobs[i], r.Jobs[i])
		}
	}
	return spec, nil
}

// ShardEnvelope is one leased unit of work: a contiguous-identity slice of
// a request's job expansion. Attempt count lives on the queue task, not
// here — the envelope is pure content, so its Key is stable across
// retries.
type ShardEnvelope struct {
	V int `json:"v"`
	// JobID is the coordinator's server-job ID (log correlation only).
	JobID string `json:"job_id,omitempty"`
	// Shard/Shards position this envelope in the split.
	Shard  int `json:"shard"`
	Shards int `json:"shards"`
	// JobIDs lists the expansion IDs this shard executes (sorted).
	JobIDs []int `json:"job_ids"`
	// Trace asks the worker to record spans and ship them back.
	Trace bool `json:"trace,omitempty"`
	// ParamsDigest is the SHA-256 over the canonical encodings of this
	// shard's per-job typed analysis parameters as the coordinator derived
	// them; the worker re-derives and compares before solving.
	ParamsDigest string `json:"params_digest,omitempty"`
	// Req is the full request the shard belongs to.
	Req *RequestWire `json:"req"`
}

// Encode returns the canonical envelope encoding.
//
//mpde:canonical
func (e *ShardEnvelope) Encode() ([]byte, error) {
	if e.V == 0 {
		e.V = WireVersion
	}
	return json.Marshal(e)
}

// DecodeShardEnvelope parses an envelope strictly (unknown fields and
// version mismatches are errors). Workers decode every leased envelope
// with it and fail the task with its message.
func DecodeShardEnvelope(raw []byte) (*ShardEnvelope, error) {
	var e ShardEnvelope
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&e); err != nil {
		return nil, fmt.Errorf("dispatch: decoding shard envelope: %w", err)
	}
	if e.V != WireVersion {
		return nil, fmt.Errorf("dispatch: shard wire version %d, this node speaks %d", e.V, WireVersion)
	}
	if e.Req == nil {
		return nil, errors.New("dispatch: shard envelope has no request")
	}
	if e.Req.V != WireVersion {
		return nil, fmt.Errorf("dispatch: request wire version %d, this node speaks %d", e.Req.V, WireVersion)
	}
	if len(e.JobIDs) == 0 {
		return nil, errors.New("dispatch: shard envelope has no job ids")
	}
	return &e, nil
}

// Jobs resolves the envelope's job-ID subset against the request
// expansion (job IDs are expansion indices).
func (e *ShardEnvelope) Jobs() ([]sweep.Job, error) {
	jobs := make([]sweep.Job, len(e.JobIDs))
	for i, id := range e.JobIDs {
		if id < 0 || id >= len(e.Req.Jobs) {
			return nil, fmt.Errorf("dispatch: shard job id %d outside request's %d jobs", id, len(e.Req.Jobs))
		}
		jobs[i] = e.Req.Jobs[id]
	}
	return jobs, nil
}

// Key returns the shard's content-addressed identity for the shared shard
// cache: the request key plus the shard's job-ID set. The "s:" prefix
// keeps shard entries disjoint from request-level result entries in a
// shared cache tier.
//
//mpde:canonical
func (e *ShardEnvelope) Key() (string, error) {
	rk, err := e.Req.Key()
	if err != nil {
		return "", err
	}
	h := sha256.New()
	fmt.Fprintf(h, "%s/jobs=%v", rk, e.JobIDs)
	return "s:" + hex.EncodeToString(h.Sum(nil)), nil
}

// ParamsDigest hashes the canonical encodings of the given jobs' typed
// analysis parameters, derived from spec with scheduling-dependent tuning
// normalised away (sweep.CanonicalJobParams). Coordinator and worker both
// compute it from their own registries; equality means both nodes would
// hand every analysis the same parameters.
//
//mpde:canonical
func ParamsDigest(spec *sweep.Spec, jobs []sweep.Job) (string, error) {
	h := sha256.New()
	for _, j := range jobs {
		p, err := spec.CanonicalJobParams(j)
		if err != nil {
			return "", err
		}
		enc, err := analysis.EncodeParams(string(j.Method), p)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "%d %s ", j.ID, j.Method)
		h.Write(enc)
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// ShardResult is a worker's payload for one completed shard: the subset
// results plus, when the envelope asked for tracing, the worker's span
// snapshot for grafting into the coordinator's trace.
type ShardResult struct {
	V    int               `json:"v"`
	Jobs []sweep.JobResult `json:"jobs"`
	// Cached marks a payload served from the shared shard cache rather
	// than solved.
	Cached       bool             `json:"cached,omitempty"`
	Spans        []obs.SpanRecord `json:"spans,omitempty"`
	DroppedSpans int64            `json:"dropped_spans,omitempty"`
}

// Encode returns the payload encoding.
//
//mpde:canonical
func (r *ShardResult) Encode() ([]byte, error) {
	if r.V == 0 {
		r.V = WireVersion
	}
	return json.Marshal(r)
}

// DecodeShardResult parses a shard result payload. Span payloads came
// through JSON, so their Data fields are generic; decodeSpanData below
// re-types the solver convergence records.
func DecodeShardResult(raw []byte) (*ShardResult, error) {
	var r ShardResult
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("dispatch: decoding shard result: %w", err)
	}
	if r.V != WireVersion {
		return nil, fmt.Errorf("dispatch: shard result wire version %d, this node speaks %d", r.V, WireVersion)
	}
	retypeSpanData(r.Spans)
	return &r, nil
}

// retypeSpanData restores the typed span payloads that JSON transport
// erased: solver convergence records ([]solver.IterTrace) are what the
// trace endpoint's convergence listing keys on. Payloads that do not
// re-type stay as decoded — the span tree still serves them verbatim.
func retypeSpanData(spans []obs.SpanRecord) {
	for i := range spans {
		if spans[i].Data == nil {
			continue
		}
		enc, err := json.Marshal(spans[i].Data)
		if err != nil {
			continue
		}
		var recs []solver.IterTrace
		dec := json.NewDecoder(bytes.NewReader(enc))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&recs); err == nil && len(recs) > 0 {
			spans[i].Data = recs
		}
	}
}

// ProgressLine is one NDJSON line on a shard's event stream, worker →
// coordinator. Every line renews the shard's lease; heartbeat lines exist
// only to renew.
type ProgressLine struct {
	Type string `json:"type"` // heartbeat | job_start | job_done
	// Job identifies the analysis for job_start/job_done.
	Job *sweep.Job `json:"job,omitempty"`
	// Result is the finished job's outcome on job_done lines.
	Result *sweep.JobResult `json:"result,omitempty"`
}
