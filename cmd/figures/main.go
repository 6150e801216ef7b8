// Command figures regenerates every figure and the speedup/gain studies of
// the paper, writing CSV data files plus ASCII previews.
//
// Usage:
//
//	figures -all                  # everything (default)
//	figures -fig 3                # one figure (1..6)
//	figures -speedup -maxdisp 2000
//	figures -gain
//	figures -out results/         # output directory (default out/)
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"path/filepath"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/shooting"
)

var (
	outDir  = flag.String("out", "out", "output directory for CSV files")
	figNum  = flag.Int("fig", 0, "regenerate a single figure (1..6); 0 = none")
	all     = flag.Bool("all", false, "regenerate everything")
	speedup = flag.Bool("speedup", false, "run the MPDE-vs-shooting disparity sweep")
	gain    = flag.Bool("gain", false, "run the conversion gain/distortion sweep")
	maxDisp = flag.Float64("maxdisp", 2000, "largest disparity in the speedup sweep")
	quiet   = flag.Bool("q", false, "suppress ASCII previews")
)

func main() {
	flag.Parse()
	if !*all && *figNum == 0 && !*speedup && !*gain {
		*all = true
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		log.Fatal(err)
	}
	if *all || *figNum == 1 || *figNum == 2 {
		figures12()
	}
	if *all || *figNum >= 3 && *figNum <= 6 {
		figures3456(*figNum)
	}
	if *all || *speedup {
		speedupSweep(*maxDisp)
	}
	if *all || *gain {
		gainSweep()
	}
}

func writeCSV(name string, write func(w io.Writer) error) {
	path := filepath.Join(*outDir, name)
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	if err := write(f); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s\n", path)
}

// productWave is the paper's ẑ_s(θ1, θ2) = cos(2πθ1)cos(2πθ2).
type productWave struct{}

func (productWave) Eval(t float64) float64 {
	return math.Cos(2*math.Pi*1e9*t) * math.Cos(2*math.Pi*(1e9-1e4)*t)
}
func (productWave) EvalTorus(th1, th2 float64) float64 {
	return math.Cos(2*math.Pi*th1) * math.Cos(2*math.Pi*th2)
}

func figures12() {
	sh := repro.NewShear(1e9, 1e9-1e4, 1)
	for _, fig := range []struct {
		name    string
		sheared bool
	}{{"fig1_unsheared", false}, {"fig2_sheared", true}} {
		var s repro.MultiTimeSample
		if fig.sheared {
			s = repro.SampleSheared(productWave{}, sh, 40, 60)
		} else {
			s = repro.SampleUnsheared(productWave{}, sh, 40, 60)
		}
		surf, err := repro.NewSurface(fig.name, s.T1, s.T2, s.Z)
		if err != nil {
			log.Fatal(err)
		}
		surf.XLabel, surf.YLabel = "t1_s", "t2_s"
		writeCSV(fig.name+".csv", surf.WriteCSV)
		if !*quiet {
			fmt.Println(surf.ASCIIHeatmap(16, 60))
		}
	}
}

func figures3456(which int) {
	bits := repro.PRBS7(0x4D, 8)
	mix := repro.NewBalancedMixer(repro.BalancedMixerConfig{Bits: bits})
	start := time.Now()
	sol, err := core.QPSS(context.Background(), mix.Ckt, repro.MPDEOptions{
		N1: 40, N2: 30, Shear: mix.Shear})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("balanced mixer QPSS (40x30 grid, %d unknowns): %v, %d Newton iterations\n",
		sol.Stats.Unknowns, time.Since(start).Round(time.Millisecond), sol.Stats.NewtonIters)

	if which == 0 || which == 3 {
		diff := sol.Differential(mix.OutP, mix.OutM)
		surf, err := repro.NewSurface("fig3_differential_output", sol.T1Axis(), sol.T2Axis(), diff)
		if err != nil {
			log.Fatal(err)
		}
		surf.XLabel, surf.YLabel = "t1_LO_s", "t2_baseband_s"
		writeCSV("fig3_differential_output.csv", surf.WriteCSV)
		if !*quiet {
			fmt.Println(surf.ASCIIHeatmap(16, 60))
		}
	}
	if which == 0 || which == 4 {
		bb := sol.DifferentialBaseband(mix.OutP, mix.OutM)
		s, err := repro.NewSeries("v_baseband", sol.T2Axis(), bb)
		if err != nil {
			log.Fatal(err)
		}
		writeCSV("fig4_baseband_output.csv", s.WriteCSV)
		if !*quiet {
			fmt.Println(s.ASCIIPlot(12, 60))
		}
	}
	if which == 0 || which == 5 {
		surf, err := repro.NewSurface("fig5_source_voltage", sol.T1Axis(), sol.T2Axis(), sol.Surface(mix.Tail))
		if err != nil {
			log.Fatal(err)
		}
		surf.XLabel, surf.YLabel = "t1_LO_s", "t2_baseband_s"
		writeCSV("fig5_source_voltage.csv", surf.WriteCSV)
		if !*quiet {
			fmt.Println(surf.ASCIIHeatmap(16, 60))
		}
	}
	if which == 0 || which == 6 {
		t0 := 2.223e-6
		ts, vs := sol.ReconstructOneTime(mix.Tail, t0, t0+5*mix.Shear.T1(), 400)
		s, err := repro.NewSeries("v_source_onetime", ts, vs)
		if err != nil {
			log.Fatal(err)
		}
		writeCSV("fig6_source_onetime.csv", s.WriteCSV)
		if !*quiet {
			fmt.Println(s.ASCIIPlot(12, 60))
		}
	}
}

func speedupSweep(maxDisparity float64) {
	f1 := 100e6
	type row struct {
		disparity              float64
		mpdeMS, shootMS, ratio float64
	}
	var rows []row
	for _, d := range []float64{20, 50, 100, 200, 500, 1000, 2000, 5000, 10000} {
		if d > maxDisparity {
			break
		}
		fd := f1 / d
		mixA := repro.NewUnbalancedMixer(repro.UnbalancedMixerConfig{F1: f1, Fd: fd})
		t0 := time.Now()
		if _, err := core.QPSS(context.Background(), mixA.Ckt, repro.MPDEOptions{
			N1: 40, N2: 30, Shear: mixA.Shear}); err != nil {
			log.Fatalf("disparity %g MPDE: %v", d, err)
		}
		mpde := time.Since(t0)

		mixB := repro.NewUnbalancedMixer(repro.UnbalancedMixerConfig{F1: f1, Fd: fd})
		t0 = time.Now()
		if _, err := shooting.PSS(context.Background(), mixB.Ckt, shooting.Options{
			Period: 1 / fd, Steps: int(10 * d), Tol: 1e-6}); err != nil {
			log.Fatalf("disparity %g shooting: %v", d, err)
		}
		shoot := time.Since(t0)
		rows = append(rows, row{d, mpde.Seconds() * 1e3, shoot.Seconds() * 1e3,
			shoot.Seconds() / mpde.Seconds()})
	}
	writeCSV("speedup_vs_disparity.csv", func(f io.Writer) error {
		fmt.Fprintln(f, "disparity,mpde_ms,shooting_ms,speedup")
		for _, r := range rows {
			fmt.Fprintf(f, "%.0f,%.2f,%.2f,%.2f\n", r.disparity, r.mpdeMS, r.shootMS, r.ratio)
		}
		return nil
	})
	fmt.Println("disparity | MPDE (ms) | shooting (ms) | speedup")
	for _, r := range rows {
		fmt.Printf("%9.0f | %9.1f | %13.1f | %6.1fx\n", r.disparity, r.mpdeMS, r.shootMS, r.ratio)
	}
}

func gainSweep() {
	type row struct {
		rfAmp, ratio, db, hd2, hd3 float64
	}
	var rows []row
	var warm []float64
	for _, rfAmp := range []float64{0.01, 0.02, 0.05, 0.1, 0.2, 0.4} {
		mix := repro.NewBalancedMixer(repro.BalancedMixerConfig{RFAmp: rfAmp})
		opt := repro.MPDEOptions{N1: 40, N2: 32, Shear: mix.Shear}
		if warm != nil {
			opt.X0 = warm
		}
		sol, err := core.QPSS(context.Background(), mix.Ckt, opt)
		if err != nil {
			log.Fatalf("rfAmp %g: %v", rfAmp, err)
		}
		warm = sol.X
		bb := sol.DifferentialBaseband(mix.OutP, mix.OutM)
		dt := mix.Shear.Td() / float64(len(bb))
		g, err := repro.MeasureConversionGain(bb, dt, math.Abs(mix.Shear.Fd()), rfAmp)
		if err != nil {
			log.Fatalf("rfAmp %g: %v", rfAmp, err)
		}
		rows = append(rows, row{rfAmp, g.Ratio, g.DB, g.HD2, g.HD3})
	}
	writeCSV("downconversion_gain.csv", func(f io.Writer) error {
		fmt.Fprintln(f, "rf_amp_v,gain_ratio,gain_db,hd2,hd3")
		for _, r := range rows {
			fmt.Fprintf(f, "%.3f,%.5f,%.2f,%.5f,%.5f\n", r.rfAmp, r.ratio, r.db, r.hd2, r.hd3)
		}
		return nil
	})
	fmt.Println("rf_amp | gain | dB | HD2 | HD3")
	for _, r := range rows {
		fmt.Printf("%6.3f | %.4f | %6.2f | %.4f | %.4f\n", r.rfAmp, r.ratio, r.db, r.hd2, r.hd3)
	}
}
