package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// endToEnd and perLayer are the metrics of the last output line with
// --trace 0 and --trace 1; BENCHMARK.json declares the same names. Every
// workload produces all of them. The workload-specific metrics (the
// paper's per-disparity table, the serving path's layers, ...) are in the
// printed table and the report file only.
var (
	endToEnd = []string{"setup_s", "op_p50_s", "ops_per_s", "alloc_mb_per_op"}
	perLayer = []string{
		"obs.traced_op_s", "la.factor_s", "core.assembly_s", "solver.newton_other_s",
		"core.setup_s", "analysis.self_s", "unaccounted_s", "obs.overhead_frac",
		"device.eval_us_per_point", "fft.spectrum_ms", "fft.reconstruct_ms", "fft.tail_ms",
		"la.factorizations", "la.refactorizations", "la.batch_reuse",
		"solver.newton_iters", "solver.halvings", "solver.linear_iters",
		"solver.operator_applies", "solver.precond_builds", "solver.gmres_fallbacks",
		"core.pattern_reuse", "core.refinements", "obs.dropped_spans",
	}
)

type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// N is the number of samples the value summarises.
	N int `json:"n"`
}

// crossRow is one line of the linear-solver crossover table.
type crossRow struct {
	Grid        string  `json:"grid"`
	Linear      string  `json:"linear"`
	WallS       float64 `json:"wall_s"`
	LinearIters int     `json:"linear_iters"`
	Fallbacks   int     `json:"gmres_fallbacks"`
	NewtonIters int     `json:"newton_iters"`
	Err         string  `json:"err,omitempty"`
}

type report struct {
	Workload  string            `json:"workload"`
	Traced    bool              `json:"traced"`
	Host      map[string]string `json:"host"`
	Metrics   []metric          `json:"metrics"`
	Crossover []crossRow        `json:"crossover,omitempty"`
}

func newReport(workload string, host map[string]string, traced bool) *report {
	return &report{Workload: workload, Traced: traced, Host: host}
}

func (r *report) add(name string, value float64, unit string, n int) {
	r.Metrics = append(r.Metrics, metric{Name: name, Value: value, Unit: unit, N: n})
}

// gated returns the last-line metrics object. A name missing from the
// report is a programming error.
func (r *report) gated(traced bool) map[string]any {
	names := endToEnd
	if traced {
		names = perLayer
	}
	out := map[string]any{}
	for _, name := range names {
		m, ok := r.find(name)
		if !ok {
			panic("perfbench: metric " + name + " was not measured")
		}
		out[name] = map[string]any{"value": m.Value, "unit": m.Unit}
	}
	return out
}

func (r *report) find(name string) (metric, bool) {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m, true
		}
	}
	return metric{}, false
}

// print writes the human-readable table.
func (r *report) print(w io.Writer) {
	keys := make([]string, 0, len(r.Host))
	for k := range r.Host {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var host []string
	for _, k := range keys {
		host = append(host, k+"="+r.Host[k])
	}
	mode := "end-to-end"
	if r.Traced {
		mode = "per-layer (traced)"
	}
	fmt.Fprintf(w, "# perfbench %s, %s\n# host %s\n", r.Workload, mode, strings.Join(host, " "))
	for _, m := range r.Metrics {
		fmt.Fprintf(w, "%-34s %16.6g %-6s n=%d\n", m.Name, m.Value, m.Unit, m.N)
	}
	if len(r.Crossover) > 0 {
		fmt.Fprintf(w, "# linear-solver crossover (balanced mixer, one solve each)\n")
		for _, c := range r.Crossover {
			fmt.Fprintf(w, "# %-6s %-8s wall %8.3fs  newton %2d  linear iters %5d  fallbacks %d %s\n",
				c.Grid, c.Linear, c.WallS, c.NewtonIters, c.LinearIters, c.Fallbacks, c.Err)
		}
	}
}

// write stores the report as JSON in dir.
func (r *report) write(dir string) error {
	dir, err := outDir(dir)
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	mode := 0
	if r.Traced {
		mode = 1
	}
	name := fmt.Sprintf("perfbench-%s-trace%d.json", r.Workload, mode)
	return os.WriteFile(filepath.Join(dir, name), append(data, '\n'), 0o644)
}
