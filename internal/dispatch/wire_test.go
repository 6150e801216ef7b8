package dispatch

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/analysis"
	"repro/internal/obs"
	"repro/internal/solver"
	"repro/internal/sweep"
)

// fillValue writes deterministic pseudo-random values into every settable
// field reachable from v: the property inputs for the round-trip tests.
// The seed counter makes distinct fields get distinct values, so a field
// silently dropped by the codec cannot hide behind an identical neighbor.
func fillValue(v reflect.Value, seed *int64) {
	switch v.Kind() {
	case reflect.Bool:
		*seed++
		v.SetBool(*seed%2 == 0)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		*seed++
		v.SetInt(*seed % 97)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		*seed++
		v.SetUint(uint64(*seed % 89))
	case reflect.Float32, reflect.Float64:
		*seed++
		v.SetFloat(float64(*seed) * 0.3125) // exact in binary: round-trips verbatim
	case reflect.String:
		*seed++
		v.SetString(string(rune('a' + *seed%26)))
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Field(i).CanSet() {
				fillValue(v.Field(i), seed)
			}
		}
	case reflect.Slice:
		*seed++
		s := reflect.MakeSlice(v.Type(), 2, 2)
		for i := 0; i < 2; i++ {
			fillValue(s.Index(i), seed)
		}
		v.Set(s)
	case reflect.Ptr:
		p := reflect.New(v.Type().Elem())
		fillValue(p.Elem(), seed)
		v.Set(p)
	}
}

// TestParamsWireRoundTripAllAnalyses is the codec's property test: every
// registered analysis must have a wire form, and arbitrary typed params
// must survive encode→decode with the identical value AND the identical
// canonical encoding — the byte form is a content-addressed identity, so
// re-encoding on another node must reproduce it exactly.
func TestParamsWireRoundTripAllAnalyses(t *testing.T) {
	names := analysis.Names()
	if len(names) < 8 {
		t.Fatalf("registry has %d analyses, expected at least the 8 built-ins", len(names))
	}
	var seed int64
	for _, name := range names {
		d, err := analysis.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		if d.WireParams == nil {
			t.Errorf("%s: no WireParams prototype — the dispatch plane cannot ship it", name)
			continue
		}
		for trial := 0; trial < 4; trial++ {
			proto := d.WireParams()
			fillValue(reflect.ValueOf(proto).Elem(), &seed)
			params := reflect.ValueOf(proto).Elem().Interface()

			enc, err := analysis.EncodeParams(name, params)
			if err != nil {
				t.Fatalf("%s: encode: %v", name, err)
			}
			back, err := analysis.DecodeParams(name, enc)
			if err != nil {
				t.Fatalf("%s: decode: %v", name, err)
			}
			if !reflect.DeepEqual(params, back) {
				t.Fatalf("%s: round-trip changed the value:\n  in:  %+v\n  out: %+v", name, params, back)
			}
			enc2, err := analysis.EncodeParams(name, back)
			if err != nil {
				t.Fatalf("%s: re-encode: %v", name, err)
			}
			if !bytes.Equal(enc, enc2) {
				t.Fatalf("%s: canonical encoding not stable:\n  %s\n  %s", name, enc, enc2)
			}
		}
	}
}

// TestEncodeParamsRejectsWrongType: the encoder must refuse a params value
// whose dynamic type is not the method's registered struct.
func TestEncodeParamsRejectsWrongType(t *testing.T) {
	if _, err := analysis.EncodeParams("qpss", analysis.HBParams{}); err == nil {
		t.Fatal("qpss accepted HBParams")
	}
	if _, err := analysis.EncodeParams("qpss", nil); err == nil {
		t.Fatal("qpss accepted nil params")
	}
	if _, err := analysis.EncodeParams("no-such-analysis", analysis.QPSSParams{}); err == nil {
		t.Fatal("unknown analysis accepted")
	}
}

// TestDecodeParamsStrict: unknown fields mean version skew and must fail
// loudly, not silently drop a knob.
func TestDecodeParamsStrict(t *testing.T) {
	if _, err := analysis.DecodeParams("qpss", []byte(`{"N1":8,"FutureKnob":true}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
	if _, err := analysis.DecodeParams("qpss", []byte(`{"N1":8}{"N1":9}`)); err == nil {
		t.Fatal("trailing data accepted")
	}
}

func testWire() *RequestWire {
	return &RequestWire{
		V:    WireVersion,
		Deck: "* mixer\nr1 n1 0 1k\n",
		Name: "prop",
		Jobs: []sweep.Job{
			{ID: 0, Method: sweep.QPSS, Point: sweep.Point{Fd: 1e5, Amp: 0.25, N1: 8, N2: 8}},
			{ID: 1, Method: sweep.HB, Point: sweep.Point{Fd: 1.25e5, Amp: 0.5, N1: 16, N2: 8}},
		},
		OutP: 3, OutM: -1, RFAmp: 0.125,
		WarmStart: true, SpectrumTop: 5,
		TransientPeriods: 12.5, StepsPerFast: 96,
		RelTol: 1e-4, AbsTol: 1e-9, Linear: "matfree",
		Newton: NewtonFromOptions(solver.Options{
			MaxIter: 42, AbsTol: 1e-10, RelTol: 1e-5, ResidTol: 1e-7,
			MaxStep: 0.5, Damping: true, MaxHalve: 7,
			Linear: solver.MatrixFree, PivotTol: 1e-3,
			GMRESTol: 1e-6, GMRESIter: 33, JacobianRefresh: 3,
		}),
	}
}

// TestRequestWireRoundTripAndKey: encode→decode→encode must be
// byte-identical, and the content-addressed key identical with it — this
// is what lets cache and singleflight identity span processes.
func TestRequestWireRoundTripAndKey(t *testing.T) {
	r := testWire()
	enc, err := r.Encode()
	if err != nil {
		t.Fatal(err)
	}
	key, err := r.Key()
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeRequest(enc)
	if err != nil {
		t.Fatal(err)
	}
	enc2, err := back.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, enc2) {
		t.Fatalf("wire encoding not canonical:\n  %s\n  %s", enc, enc2)
	}
	key2, err := back.Key()
	if err != nil {
		t.Fatal(err)
	}
	if key != key2 {
		t.Fatalf("key changed across the wire: %s vs %s", key, key2)
	}
	// The linear-solver kind travels as its int value; matfree must stay 2.
	if !bytes.Contains(enc, []byte(`"linear":2`)) {
		t.Fatalf("Newton linear kind not encoded as 2: %s", enc)
	}
	if ropts := back.Newton.Options(); ropts.MaxIter != 42 || ropts.Linear != solver.MatrixFree || ropts.JacobianRefresh != 3 {
		t.Fatalf("Newton knobs lost: %+v", ropts)
	}
}

func TestDecodeRequestStrict(t *testing.T) {
	if _, err := DecodeRequest([]byte(`{"v":1,"deck":"x","name":"n","jobs":[],"outp":0,"outm":-1,"rf_amp":0,"warm_start":false,"spectrum_top":0,"transient_periods":0,"steps_per_fast":0,"newton":{},"future":1}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
	r := testWire()
	r.V = WireVersion + 1
	enc, _ := r.Encode()
	if _, err := DecodeRequest(enc); err == nil {
		t.Fatal("future wire version accepted")
	}
}

// TestShardEnvelopeKeyProperties: the shard cache key must depend on the
// request content and the job subset — and on nothing else (shard
// numbering, trace flag, digest are delivery details, not identity).
func TestShardEnvelopeKeyProperties(t *testing.T) {
	e1 := &ShardEnvelope{V: WireVersion, JobID: "j1", Shard: 0, Shards: 2, JobIDs: []int{0}, Req: testWire()}
	e2 := &ShardEnvelope{V: WireVersion, JobID: "j2", Shard: 1, Shards: 3, JobIDs: []int{0}, Trace: true, Req: testWire()}
	k1, err := e1.Key()
	if err != nil {
		t.Fatal(err)
	}
	k2, err := e2.Key()
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Fatalf("identity leaked delivery details: %s vs %s", k1, k2)
	}
	e3 := &ShardEnvelope{V: WireVersion, JobIDs: []int{1}, Req: testWire()}
	if k3, _ := e3.Key(); k3 == k1 {
		t.Fatal("different job subsets share a key")
	}
	other := testWire()
	other.RelTol = 2e-4
	e4 := &ShardEnvelope{V: WireVersion, JobIDs: []int{0}, Req: other}
	if k4, _ := e4.Key(); k4 == k1 {
		t.Fatal("different requests share a key")
	}
	if k1[:2] != "s:" {
		t.Fatalf("shard keys must be namespaced apart from request keys: %s", k1)
	}
}

// FuzzDecodeShardResult hardens the coordinator-facing decoder — the one
// fed by worker-controlled result payloads: arbitrary bytes must never
// panic, and an accepted result must re-encode and re-decode cleanly, span
// retyping included.
func FuzzDecodeShardResult(f *testing.F) {
	sr := &ShardResult{
		V: WireVersion,
		Jobs: []sweep.JobResult{
			{Job: sweep.Job{ID: 0, Method: "qpss"}, Status: sweep.StatusOK, NewtonIters: 7},
			{Job: sweep.Job{ID: 1, Method: "qpss"}, Status: sweep.StatusFailed, Err: "diverged"},
		},
		Spans: []obs.SpanRecord{
			{Name: "sweep.job", Data: []solver.IterTrace{{Iter: 1, Residual: 1e-3}}},
		},
		DroppedSpans: 2,
	}
	seed, err := sr.Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"v":1,"jobs":[]}`))
	f.Add([]byte(`{"v":2,"jobs":[]}`))
	f.Add([]byte(`{"v":1,"jobs":[{"job":{"id":0,"method":"qpss"},"status":"ok"}],"cached":true}`))
	f.Add([]byte(`{"v":1,"spans":[{"name":"x","data":{"not":"a trace"}}]}`))
	f.Add([]byte(`{"v":1,"spans":[{"name":"x","data":[{"iter":1,"residual":"NaN"}]}]}`))
	f.Add([]byte(`not json at all`))
	f.Add(seed[:len(seed)/2])
	f.Fuzz(func(t *testing.T, raw []byte) {
		r, err := DecodeShardResult(raw)
		if err != nil {
			return
		}
		enc, err := r.Encode()
		if err != nil {
			t.Fatalf("accepted shard result failed to re-encode: %v", err)
		}
		if _, err := DecodeShardResult(enc); err != nil {
			t.Fatalf("re-encoded shard result failed to re-decode: %v\n%s", err, enc)
		}
	})
}

// FuzzDecodeShardEnvelope hardens the worker-facing decoder: arbitrary
// bytes must never panic, and an accepted envelope must re-encode and
// re-decode cleanly (the decoder's own output is always canonical input).
func FuzzDecodeShardEnvelope(f *testing.F) {
	env := &ShardEnvelope{
		V: WireVersion, JobID: "j000001", Shard: 1, Shards: 3,
		JobIDs: []int{2, 5, 7}, Trace: true, ParamsDigest: "abc123",
		Req: testWire(),
	}
	seed, err := env.Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"v":1,"job_ids":[0],"req":null}`))
	f.Add([]byte(`{"v":2,"job_ids":[0],"req":{"v":2}}`))
	f.Add([]byte(`{"v":1,"job_ids":[],"req":{"v":1}}`))
	f.Add([]byte(`{"v":1,"job_ids":[0],"req":{"v":1},"unknown_field":true}`))
	f.Add([]byte(`not json at all`))
	f.Add(seed[:len(seed)/2])
	f.Fuzz(func(t *testing.T, raw []byte) {
		e, err := DecodeShardEnvelope(raw)
		if err != nil {
			return
		}
		enc, err := e.Encode()
		if err != nil {
			t.Fatalf("accepted envelope failed to re-encode: %v", err)
		}
		if _, err := DecodeShardEnvelope(enc); err != nil {
			t.Fatalf("re-encoded envelope failed to re-decode: %v\n%s", err, enc)
		}
		if _, err := e.Key(); err != nil {
			t.Fatalf("accepted envelope has no key: %v", err)
		}
	})
}
