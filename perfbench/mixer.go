package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"repro/internal/analysis"
	"repro/internal/ckts"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/obs"
	"repro/internal/rf"
)

// The golden fixtures of the paper's figures, and the tolerances the
// repository's golden tests apply to them.
const (
	goldenFixedPath    = "testdata/golden_qpss_spectra.json"
	goldenAdaptivePath = "testdata/golden_adaptive_qpss.json"
	goldenRelTol       = 1e-6
	goldenAbsTol       = 1e-12
	// figTol is the figure-level agreement demanded of the 64×48 diff lines
	// above figFloor against the 40×30 golden. The adaptive golden test
	// allows 15% (about 1.2 dB); the finer grid moves the weak (0,11) line
	// by 16% whatever the linear solver, so this check allows 20%.
	figTol   = 0.20
	figFloor = 1e-2
	// residualTol bounds the MPDE residual ∞-norm re-evaluated at a
	// converged matrix-free solution.
	residualTol = 1e-9
	// fig6Start is the start time of the Fig. 6 one-time reconstruction.
	fig6Start = 2.223e-6
)

type goldenLine struct {
	K1   int     `json:"k1"`
	K2   int     `json:"k2"`
	Freq float64 `json:"freq"`
	Amp  float64 `json:"amp"`
}

type goldenCase struct {
	N1       int                     `json:"n1"`
	N2       int                     `json:"n2"`
	Nodes    map[string][]goldenLine `json:"nodes"`
	Fig6Tail []float64               `json:"fig6_tail_onetime"`
}

type adaptiveGolden struct {
	FinalN1     int          `json:"final_n1"`
	FinalN2     int          `json:"final_n2"`
	Refinements int          `json:"refinements"`
	Diff        []goldenLine `json:"diff_lines"`
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, v)
}

// loadGoldens reads the Fig. 3–5 fixed-grid case and the adaptive golden.
func loadGoldens(root string) (goldenCase, adaptiveGolden, error) {
	var fixed struct {
		Cases map[string]goldenCase `json:"cases"`
	}
	var adaptive adaptiveGolden
	if err := readJSON(filepath.Join(root, goldenFixedPath), &fixed); err != nil {
		return goldenCase{}, adaptive, err
	}
	c, ok := fixed.Cases["fig3to5-bitstream"]
	if !ok || len(c.Nodes["diff"]) == 0 {
		return c, adaptive, errors.New("golden fixture lacks the fig3to5-bitstream case")
	}
	err := readJSON(filepath.Join(root, goldenAdaptivePath), &adaptive)
	return c, adaptive, err
}

func closeTo(got, want float64) bool {
	return math.Abs(got-want) <= goldenAbsTol+goldenRelTol*math.Abs(want)
}

// figures are the extracted Fig. 3–6 artifacts of one fixed-grid solve:
// DC plus the 12 dominant mixes of each probe, and the tail node's
// one-time reconstruction over five LO periods.
type figures struct {
	n1, n2 int
	lines  map[string][]goldenLine
	fig6   []float64
}

func extractFigures(ctx context.Context, sol *core.Solution, mix *ckts.BalancedMixer) figures {
	_, span := obs.Start(ctx, spanExtract)
	defer span.End()
	f := figures{n1: sol.N1, n2: sol.N2, lines: map[string][]goldenLine{}}
	for node, s := range map[string]core.GridSpectrum{
		"outp": sol.Spectrum(mix.OutP),
		"outm": sol.Spectrum(mix.OutM),
		"tail": sol.Spectrum(mix.Tail),
		"diff": sol.SpectrumDiff(mix.OutP, mix.OutM),
	} {
		f.lines[node] = dominantLines(s)
	}
	_, f.fig6 = sol.ReconstructOneTime(mix.Tail, fig6Start, fig6Start+5*mix.Shear.T1(), 64)
	return f
}

// dominantLines is DC plus the 12 dominant mixes of a spectrum, the line
// set the golden fixtures pin.
func dominantLines(s core.GridSpectrum) []goldenLine {
	lines := []goldenLine{{Amp: s.MixAmp(0, 0)}}
	for _, m := range s.DominantMixes(12) {
		lines = append(lines, goldenLine{K1: m.K1, K2: m.K2, Freq: s.MixFreq(m.K1, m.K2), Amp: m.Amp})
	}
	return lines
}

// checkLines demands every wanted line among got, at the golden
// tolerances.
func checkLines(node string, got, want []goldenLine) error {
	byMix := map[[2]int]goldenLine{}
	for _, l := range got {
		byMix[[2]int{l.K1, l.K2}] = l
	}
	for _, wl := range want {
		gl, ok := byMix[[2]int{wl.K1, wl.K2}]
		if !ok || !closeTo(gl.Amp, wl.Amp) || !closeTo(gl.Freq, wl.Freq) {
			return fmt.Errorf("%s mix (%d,%d): amp %.12e, want %.12e", node, wl.K1, wl.K2, gl.Amp, wl.Amp)
		}
	}
	return nil
}

// checkFixed compares the figures with the golden case mix by mix, as
// the golden test does.
func checkFixed(f figures, want goldenCase) error {
	if f.n1 != want.N1 || f.n2 != want.N2 {
		return fmt.Errorf("grid %dx%d, golden %dx%d", f.n1, f.n2, want.N1, want.N2)
	}
	for node, wantLines := range want.Nodes {
		if err := checkLines(node, f.lines[node], wantLines); err != nil {
			return err
		}
	}
	if len(f.fig6) < len(want.Fig6Tail) {
		return fmt.Errorf("Fig. 6 reconstruction has %d samples, golden %d", len(f.fig6), len(want.Fig6Tail))
	}
	for i, wv := range want.Fig6Tail {
		if !closeTo(f.fig6[i], wv) {
			return fmt.Errorf("Fig. 6 sample %d = %.12e, golden %.12e", i, f.fig6[i], wv)
		}
	}
	return nil
}

// checkAdaptive compares an adaptive solve with the adaptive golden: the
// same final grid and refinement count, and the same diff lines.
func checkAdaptive(st analysis.Stats, lines []analysis.Line, want adaptiveGolden) error {
	if st.FinalN1 != want.FinalN1 || st.FinalN2 != want.FinalN2 || st.Refinements != want.Refinements {
		return fmt.Errorf("adaptive grid %dx%d after %d refinements, golden %dx%d after %d",
			st.FinalN1, st.FinalN2, st.Refinements, want.FinalN1, want.FinalN2, want.Refinements)
	}
	byMix := map[[2]int]analysis.Line{}
	for _, l := range lines {
		byMix[[2]int{l.K1, l.K2}] = l
	}
	for _, wl := range want.Diff {
		gl, ok := byMix[[2]int{wl.K1, wl.K2}]
		if !ok || !closeTo(gl.Amp, wl.Amp) {
			return fmt.Errorf("adaptive mix (%d,%d): amp %.12e, golden %.12e", wl.K1, wl.K2, gl.Amp, wl.Amp)
		}
	}
	return nil
}

// checkFigureLevel demands that every strong non-DC golden diff line is
// reproduced within figTol by spectrum s.
func checkFigureLevel(s core.GridSpectrum, want []goldenLine) error {
	checked := 0
	for _, wl := range want {
		if wl.Amp < figFloor || (wl.K1 == 0 && wl.K2 == 0) {
			continue
		}
		if amp := s.MixAmp(wl.K1, wl.K2); math.Abs(amp-wl.Amp) > figTol*wl.Amp {
			return fmt.Errorf("diff mix (%d,%d): amp %.6e, fixed golden %.6e", wl.K1, wl.K2, amp, wl.Amp)
		}
		checked++
	}
	if checked < 3 {
		return fmt.Errorf("only %d strong golden lines to compare", checked)
	}
	return nil
}

func qpssRequest(mix *ckts.BalancedMixer, n1, n2 int, linear string) analysis.Request {
	return analysis.Request{Method: "qpss", Circuit: mix.Ckt,
		Params: analysis.QPSSParams{N1: n1, N2: n2, Shear: mix.Shear, Linear: linear}}
}

// mixerEnv runs the Fig. 3–5 bit-modulated balanced mixer.
type mixerEnv struct {
	mix      *ckts.BalancedMixer
	fixed    goldenCase
	adaptive adaptiveGolden
	matfree  bool
	// matfreeRef is the diff spectrum of a direct solve on the matrix-free
	// workload's grid, which the matrix-free solve must reproduce at the
	// golden tolerances.
	matfreeRef []goldenLine
	// last is the most recent converged grid, for the layer probes.
	last *core.Solution
}

// The matrix-free workload's grid.
const matfreeN1, matfreeN2 = 64, 48

func setupMixerDirect(root string, _ int64) (env, error)  { return setupMixer(root, false) }
func setupMixerMatfree(root string, _ int64) (env, error) { return setupMixer(root, true) }

func setupMixer(root string, matfree bool) (env, error) {
	e := &mixerEnv{
		mix:     ckts.NewBalancedMixer(ckts.BalancedMixerConfig{Bits: rf.PRBS7(0x4D, 8)}),
		matfree: matfree,
	}
	var err error
	if e.fixed, e.adaptive, err = loadGoldens(root); err != nil {
		return nil, err
	}
	if matfree {
		res, err := analysis.Run(context.Background(), qpssRequest(e.mix, matfreeN1, matfreeN2, "direct"))
		if err != nil {
			return nil, fmt.Errorf("direct reference: %w", err)
		}
		ref := res.Raw().(*core.Solution)
		e.matfreeRef = dominantLines(ref.SpectrumDiff(e.mix.OutP, e.mix.OutM))
	}
	if s := e.op(context.Background()); s.err != nil {
		return nil, fmt.Errorf("warm-up: %w", s.err)
	}
	return e, nil
}

func (e *mixerEnv) close() {}

func (e *mixerEnv) run(deadline time.Time, traced bool) []sample {
	return runOps(deadline, traced, e.op)
}

func (e *mixerEnv) op(ctx context.Context) sample {
	if e.matfree {
		return e.opMatfree(ctx)
	}
	return e.opDirect(ctx)
}

// opDirect is the paper's figures: the 40×30 direct solve with the
// spectra and the Fig. 6 reconstruction, then the adaptive solve.
func (e *mixerEnv) opDirect(ctx context.Context) sample {
	s := sample{kind: "op", parts: map[string]time.Duration{}, counts: counters{}}
	t0 := time.Now()
	res, err := analysis.Run(ctx, qpssRequest(e.mix, 40, 30, "direct"))
	if err != nil {
		s.err = err
		return s
	}
	sol := res.Raw().(*core.Solution)
	fig := extractFigures(ctx, sol, e.mix)
	t1 := time.Now()
	ares, err := analysis.Run(ctx, analysis.Request{Method: "qpss", Circuit: e.mix.Ckt,
		Params: analysis.QPSSParams{Shear: e.mix.Shear, Accuracy: analysis.Accuracy{RelTol: 1e-3}}})
	if err != nil {
		s.err = err
		return s
	}
	lines, _ := ares.Spectrum(analysis.Probe{P: e.mix.OutP, M: e.mix.OutM}, 12)
	t2 := time.Now()
	s.wall = t2.Sub(t0)
	s.parts["fig3to6"], s.parts["adaptive"] = t1.Sub(t0), t2.Sub(t1)
	for _, st := range []analysis.Stats{res.Stats(), ares.Stats()} {
		s.counts.addStats(st)
		s.mpde.assembly += st.AssemblyTime
		s.mpde.factor += st.FactorTime
	}
	s.err = errors.Join(checkFixed(fig, e.fixed), checkAdaptive(ares.Stats(), lines, e.adaptive))
	e.last = sol
	return s
}

// opMatfree is the 64×48 matrix-free solve with its diff spectrum. The
// spectrum must match the direct reference at the golden tolerances and
// the 40×30 golden at figure level, and the residual must be converged.
func (e *mixerEnv) opMatfree(ctx context.Context) sample {
	s := sample{kind: "op", parts: map[string]time.Duration{}, counts: counters{}}
	t0 := time.Now()
	res, err := analysis.Run(ctx, qpssRequest(e.mix, matfreeN1, matfreeN2, "matfree"))
	if err != nil {
		s.err = err
		return s
	}
	sol := res.Raw().(*core.Solution)
	_, span := obs.Start(ctx, spanExtract)
	diff := sol.SpectrumDiff(e.mix.OutP, e.mix.OutM)
	lines := dominantLines(diff)
	span.End()
	s.wall = time.Since(t0)
	s.parts["matfree"] = s.wall
	st := res.Stats()
	s.counts.addStats(st)
	s.mpde = mpdeStats{assembly: st.AssemblyTime, factor: st.FactorTime}
	s.err = errors.Join(checkLines("diff", lines, e.matfreeRef), checkFigureLevel(diff, e.fixed.Nodes["diff"]))
	if s.err == nil && (st.OperatorApplies == 0 || st.PrecondBuilds == 0) {
		s.err = fmt.Errorf("matrix-free path did not run: %d operator applies, %d preconditioner builds",
			st.OperatorApplies, st.PrecondBuilds)
	}
	if s.err == nil {
		r, err := sol.ResidualCheck(core.Options{N1: matfreeN1, N2: matfreeN2})
		if err != nil || r > residualTol {
			s.err = fmt.Errorf("residual check: %.3e (max %.0e), %v", r, residualTol, err)
		}
	}
	e.last = sol
	return s
}

func (e *mixerEnv) report(r *report, samples []sample, traced bool) {
	if !traced {
		if e.matfree {
			ms := partSeconds(samples, "matfree")
			r.add("matfree_p50_s", median(ms), "s", len(ms))
			return
		}
		fs, as := partSeconds(samples, "fig3to6"), partSeconds(samples, "adaptive")
		r.add("fig3to6_p50_s", median(fs), "s", len(fs))
		r.add("adaptive_p50_s", median(as), "s", len(as))
		return
	}
	layerProbes(r, e.last, e.mix.OutP, e.mix.OutM)
	if e.matfree {
		r.Crossover = crossover(e.mix)
	}
}

// crossover solves the mixer once with each linear solver on two grids.
func crossover(mix *ckts.BalancedMixer) []crossRow {
	var rows []crossRow
	for _, g := range [][2]int{{40, 30}, {64, 48}} {
		for _, linear := range []string{"direct", "gmres", "matfree"} {
			row := crossRow{Grid: fmt.Sprintf("%dx%d", g[0], g[1]), Linear: linear}
			t0 := time.Now()
			res, err := analysis.Run(context.Background(), qpssRequest(mix, g[0], g[1], linear))
			row.WallS = time.Since(t0).Seconds()
			if err != nil {
				row.Err = err.Error()
			} else {
				st := res.Stats()
				row.LinearIters, row.Fallbacks, row.NewtonIters = st.LinearIters, st.GMRESFallbacks, st.NewtonIters
			}
			rows = append(rows, row)
		}
	}
	return rows
}

// layerProbes times the device and FFT layers on a converged grid: one
// Jacobian evaluation of the circuit per grid point, the probe's spectrum
// with its 12 dominant mixes, a 64-point one-time reconstruction over five
// fast periods, and the spectral tail of the whole grid. A negative m
// probes p single-ended.
func layerProbes(r *report, sol *core.Solution, p, m int) {
	points := sol.N1 * sol.N2
	ev := sol.Ckt.NewEval()
	h1, h2 := sol.Shear.T1()/float64(sol.N1), sol.Shear.Td()/float64(sol.N2)
	grid, n := repeatMedian(5, 200*time.Millisecond, func() {
		for j := 0; j < sol.N2; j++ {
			for i := 0; i < sol.N1; i++ {
				ctx := device.EvalCtx{Torus: true, Lambda: 1}
				ctx.Th1, ctx.Th2 = sol.Shear.Phases(float64(i)*h1, float64(j)*h2)
				ev.EvalAt(sol.At(i, j), ctx, true)
			}
		}
	})
	r.add("device.eval_us_per_point", grid/float64(points)*1e6, "us", n)
	spec, n := repeatMedian(10, 100*time.Millisecond, func() {
		s := sol.Spectrum(p)
		if m >= 0 {
			s = sol.SpectrumDiff(p, m)
		}
		s.DominantMixes(12)
	})
	r.add("fft.spectrum_ms", spec*1e3, "ms", n)
	t0 := sol.Shear.Td() / 4
	rec, n := repeatMedian(10, 100*time.Millisecond, func() {
		sol.ReconstructOneTime(p, t0, t0+5*sol.Shear.T1(), 64)
	})
	r.add("fft.reconstruct_ms", rec*1e3, "ms", n)
	tail, n := repeatMedian(5, 100*time.Millisecond, func() {
		core.GridSpectralTail(sol.X, sol.Ckt.Size(), sol.N1, sol.N2, 1e-9)
	})
	r.add("fft.tail_ms", tail*1e3, "ms", n)
	r.add("core.grid_points", float64(points), "count", 1)
	r.add("core.jacobian_nnz", float64(sol.Stats.JacobianNNZ), "count", 1)
	r.add("la.fill_factor", sol.Stats.FillFactor, "ratio", 1)
}
