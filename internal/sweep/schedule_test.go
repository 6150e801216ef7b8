package sweep_test

import (
	"bytes"
	"context"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/ckts"
	"repro/internal/sweep"
)

// unbalancedTarget is the speedup-vs-disparity sweep's unbalanced mixer at
// F1 = 100 MHz, whose baselines cost O(F1/fd) time steps.
func unbalancedTarget(p sweep.Point) (*sweep.Target, error) {
	m := ckts.NewUnbalancedMixer(ckts.UnbalancedMixerConfig{F1: 100e6, Fd: p.Fd})
	return &sweep.Target{Ckt: m.Ckt, Shear: m.Shear, OutP: m.Drain, OutM: -1, RFAmp: m.Cfg.RFAmp}, nil
}

// startOrder runs spec and returns the job IDs in the order their
// ProgressJobStart events arrived, with the timing-free CSV and JSON.
func startOrder(t *testing.T, spec sweep.Spec) (ids []int, csv, js []byte) {
	t.Helper()
	var mu sync.Mutex
	spec.Progress = func(ev sweep.ProgressEvent) {
		if ev.Kind == sweep.ProgressJobStart {
			mu.Lock()
			ids = append(ids, ev.Job.ID)
			mu.Unlock()
		}
	}
	res, err := sweep.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if ok, _, _ := res.Counts(); ok != len(res.Jobs) {
		t.Fatalf("workers=%d: %d of %d jobs ok: %v", spec.Workers, ok, len(res.Jobs), res.Errors())
	}
	for i, j := range res.Jobs {
		if j.Job.ID != i {
			t.Fatalf("workers=%d: Result.Jobs[%d] holds job %d; want ID order", spec.Workers, i, j.Job.ID)
		}
	}
	var c, j bytes.Buffer
	if err := res.WriteCSV(&c, false); err != nil {
		t.Fatal(err)
	}
	if err := res.WriteJSON(&j, false); err != nil {
		t.Fatal(err)
	}
	return ids, c.Bytes(), j.Bytes()
}

// TestSweepStartsLongestJobFirst runs QPSS, shooting and transient at three
// disparities. Jobs start in descending estimated work, equal estimates in
// ID order: the transient and shooting baselines at the largest disparity
// first, the three equal QPSS jobs last. The exports stay in ID order and
// byte-identical across worker counts.
func TestSweepStartsLongestJobFirst(t *testing.T) {
	spec := sweep.Spec{
		Name:    "longest-first",
		Methods: []sweep.Method{sweep.QPSS, sweep.Shooting, sweep.Transient},
		Points: []sweep.Point{
			{Fd: 100e6 / 20, N1: 16, N2: 12},
			{Fd: 100e6 / 50, N1: 16, N2: 12},
			{Fd: 100e6 / 100, N1: 16, N2: 12},
		},
		Build: unbalancedTarget,
	}
	// IDs: QPSS 0–2, shooting 3–5, transient 6–8, each at disparities 20,
	// 50 and 100. Estimated work: transient 600, 1500, 3000 steps;
	// shooting 400, 1000, 2000; QPSS 288 each.
	want := []int{8, 5, 7, 4, 6, 3, 0, 1, 2}

	spec.Workers = 1
	serial, csv1, json1 := startOrder(t, spec)
	if !slices.Equal(serial, want) {
		t.Fatalf("workers=1 start order %v, want %v", serial, want)
	}
	spec.Workers = 2
	pair, csv2, json2 := startOrder(t, spec)
	if len(pair) != len(want) {
		t.Fatalf("workers=2: %d starts, want %d", len(pair), len(want))
	}
	first := []int{pair[0], pair[1]}
	slices.Sort(first)
	if !slices.Equal(first, []int{5, 8}) {
		t.Fatalf("workers=2 started %v first, want the disparity-100 baselines 5 and 8 (order %v)", first, pair)
	}
	if !bytes.Equal(csv1, csv2) {
		t.Fatalf("CSV differs between workers=1 and workers=2:\n%s\n---\n%s", csv1, csv2)
	}
	if !bytes.Equal(json1, json2) {
		t.Fatal("JSON differs between workers=1 and workers=2")
	}
}

// TestSweepPreparedJobFailures: every target is built before the pool
// starts, yet a builder error or panic still fails only its own job with
// the builder's text, and a sweep canceled before it starts builds nothing
// and reports every job canceled.
func TestSweepPreparedJobFailures(t *testing.T) {
	spec := sweep.Spec{
		Methods: []sweep.Method{sweep.Transient},
		Points:  []sweep.Point{{Fd: 100e6 / 20}, {Fd: 100e6 / 21}, {Fd: 100e6 / 22}},
		Build: func(p sweep.Point) (*sweep.Target, error) {
			switch p.Fd {
			case 100e6 / 21:
				return nil, context.DeadlineExceeded
			case 100e6 / 22:
				panic("builder broke")
			}
			return unbalancedTarget(p)
		},
		Workers: 2,
	}
	res, err := sweep.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if j := res.Jobs[0]; j.Status != sweep.StatusOK {
		t.Fatalf("healthy job: %s (%s)", j.Status, j.Err)
	}
	if j := res.Jobs[1]; j.Status != sweep.StatusFailed || j.Err != context.DeadlineExceeded.Error() {
		t.Fatalf("builder error: %s %q", j.Status, j.Err)
	}
	if j := res.Jobs[2]; j.Status != sweep.StatusFailed || j.Err != "panic: builder broke" {
		t.Fatalf("builder panic: %s %q", j.Status, j.Err)
	}

	var builds atomic.Int64
	spec.Build = func(p sweep.Point) (*sweep.Target, error) {
		builds.Add(1)
		return unbalancedTarget(p)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err = sweep.Run(ctx, spec)
	if err != context.Canceled {
		t.Fatalf("Run must surface ctx.Err(), got %v", err)
	}
	if n := builds.Load(); n != 0 {
		t.Fatalf("a sweep canceled before it started built %d targets", n)
	}
	for _, j := range res.Jobs {
		if j.Status != sweep.StatusCanceled || !strings.Contains(j.Err, "cancel") {
			t.Fatalf("job %d: %s %q, want canceled", j.Job.ID, j.Status, j.Err)
		}
	}
}
