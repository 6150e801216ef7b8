package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/sweep"
)

// namedMetrics are the workload-specific end-to-end metrics each workload
// prints in its table with --trace 0.
var namedMetrics = map[string][]string{
	"mixer-direct":    {"fig3to6_p50_s", "adaptive_p50_s"},
	"mixer-matfree":   {"matfree_p50_s"},
	"disparity-sweep": {"sweep_wall_p50_s"},
	"service":         {"cold_submit_p50_s", "hit_submit_p50_s", "service_req_per_s"},
}

type benchSpec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// TestSmoke runs one short operation per workload in both modes and checks
// that every declared metric is emitted with its declared unit, every
// output check passes, nothing failed and no span was dropped.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, wl := range workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(wl.name+"/trace"+trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				code := benchMain([]string{"--workload", wl.name, "--seed", "1", "--seconds", "0.001",
					"--trace", trace, "--root", "..", "--out", t.TempDir()}, &stdout, &stderr)
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v\n%s%s", err, stdout.String(), stderr.String())
				}
				if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("exit %d, result %+v\n%s", code, res, stderr.String())
				}
				declared := spec.EndToEnd
				if trace == "1" {
					declared = spec.PerLayer
				}
				if len(res.Metrics) != len(declared) {
					t.Errorf("%d metrics, BENCHMARK.json declares %d", len(res.Metrics), len(declared))
				}
				for _, m := range declared {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("metric %s: got %+v, want unit %s", m.Name, got, m.Unit)
					}
				}
				if trace == "1" {
					if d := res.Metrics["obs.dropped_spans"].Value; d != 0 {
						t.Errorf("recorder dropped %v spans", d)
					}
					return
				}
				for _, name := range namedMetrics[wl.name] {
					if !strings.Contains(stdout.String(), "\n"+name+" ") {
						t.Errorf("table lacks %s:\n%s", name, stdout.String())
					}
				}
			})
		}
	}
}

// TestCounterMetricsCoverCounters keeps the service's /metrics mapping in
// step with the counters the other workloads read from Stats.
func TestCounterMetricsCoverCounters(t *testing.T) {
	if len(counterMetrics) != len(counterNames) {
		t.Errorf("%d mapped counters, %d counters", len(counterMetrics), len(counterNames))
	}
	for _, c := range counterNames {
		if _, ok := counterMetrics[c]; !ok {
			t.Errorf("counter %s has no /metrics total", c)
		}
	}
}

// TestChecksRejectWrongOutputs corrupts each kind of reference the output
// checks use and expects the check to fail.
func TestChecksRejectWrongOutputs(t *testing.T) {
	fixed, adaptive, err := loadGoldens("..")
	if err != nil {
		t.Fatal(err)
	}
	f := figures{n1: fixed.N1, n2: fixed.N2, lines: fixed.Nodes, fig6: fixed.Fig6Tail}
	if err := checkFixed(f, fixed); err != nil {
		t.Fatalf("golden against itself: %v", err)
	}
	bad := append([]goldenLine(nil), fixed.Nodes["diff"]...)
	bad[1].Amp *= 1 + 1e-5
	if checkLines("diff", bad, fixed.Nodes["diff"]) == nil {
		t.Error("a line off by 1e-5 relative passed")
	}
	f.fig6 = append([]float64(nil), fixed.Fig6Tail...)
	f.fig6[3] += 1e-3
	if checkFixed(f, fixed) == nil {
		t.Error("a corrupted Fig. 6 sample passed")
	}

	st := analysis.Stats{FinalN1: adaptive.FinalN1, FinalN2: adaptive.FinalN2, Refinements: adaptive.Refinements}
	var lines []analysis.Line
	for _, l := range adaptive.Diff {
		lines = append(lines, analysis.Line{K1: l.K1, K2: l.K2, Freq: l.Freq, Amp: l.Amp})
	}
	if err := checkAdaptive(st, lines, adaptive); err != nil {
		t.Fatalf("adaptive golden against itself: %v", err)
	}
	st.FinalN1 *= 2
	if checkAdaptive(st, lines, adaptive) == nil {
		t.Error("a different adaptive grid passed")
	}

	res := &sweep.Result{}
	for i, m := range []sweep.Method{sweep.QPSS, sweep.Shooting, sweep.Transient} {
		for _, d := range disparities {
			jr := sweep.JobResult{Job: sweep.Job{ID: i, Method: m, Point: sweep.Point{Fd: sweepF1 / d}},
				Status: sweep.StatusOK, GainValid: true}
			jr.Gain.Ratio = 0.7
			res.Jobs = append(res.Jobs, jr)
		}
	}
	if err := checkSweep(res); err != nil {
		t.Fatalf("agreeing gains: %v", err)
	}
	res.Jobs[len(res.Jobs)-1].Gain.Ratio = 0.6
	if checkSweep(res) == nil {
		t.Error("a transient gain 14% off shooting passed")
	}
}
