// Command mpde-sim runs an analysis on a SPICE-flavoured netlist through
// the unified analysis registry: every analysis known to internal/analysis
// (dc, transient, shooting, hb, qpss, envelope, ac, pac, ...) is resolved
// by name and driven through the one context-first entry point, so the CLI
// needs no per-method code and Ctrl-C cancels an in-flight Newton solve
// cooperatively.
//
// Usage:
//
//	mpde-sim -deck mixer.cir -analysis dc
//	mpde-sim -deck mixer.cir -analysis tran -tstop 1u -step 1n [-method trap]
//	mpde-sim -deck mixer.cir -analysis shooting -period 10n -steps 200
//	mpde-sim -deck mixer.cir -analysis hb  -n1 32 -n2 8
//	mpde-sim -deck mixer.cir -analysis qpss -n1 40 -n2 30 [-order2]
//	mpde-sim -deck mixer.cir -analysis envelope -n1 40 -t2stop 2e-4
//	mpde-sim -deck mixer.cir -analysis ac -source VRF -f0 1k -f1 1g -npts 40
//	mpde-sim -deck mixer.cir -analysis qpss -n1 40 -n2 30 -trace out.json
//	mpde-sim sweep -circuit balanced -fd 10k,15k,20k -methods qpss,shooting
//
// qpss/hb/envelope need a ".tones F1 F2 [K]" card in the deck. Probed node
// waveforms (all nodes, or -probe n1,n2,...) are written as CSV to stdout
// or -out FILE; the abscissa column is the analysis's native axis (t, slow
// time t2, frequency f, or a single operating point). The sweep subcommand
// (see sweepMain) batches whole families of analyses over parameter grids
// on a worker pool.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"strings"

	"repro"
	"repro/internal/analysis"
	"repro/internal/netlist"
	"repro/internal/obs"
)

var (
	deckPath  = flag.String("deck", "", "netlist file (required)")
	analysisF = flag.String("analysis", "dc",
		"analysis name: "+strings.Join(analysis.Names(), " | ")+" (tran = transient)")
	outPath = flag.String("out", "", "output CSV file (default stdout)")
	probes  = flag.String("probe", "", "comma-separated node names (default: all)")

	tstop  = flag.String("tstop", "", "transient stop time (SPICE value)")
	step   = flag.String("step", "", "transient step (SPICE value)")
	method = flag.String("method", "gear2", "be | trap | gear2")

	period = flag.String("period", "", "shooting period (SPICE value)")
	steps  = flag.Int("steps", 200, "shooting steps per period")
	n1     = flag.Int("n1", 40, "fast-axis grid points")
	n2     = flag.Int("n2", 30, "slow-axis grid points")
	order2 = flag.Bool("order2", false, "second-order MPDE differences")
	t2stop = flag.String("t2stop", "", "envelope slow-time horizon (SPICE value)")

	source = flag.String("source", "", "stimulus source name (ac/pac)")
	f0Flag = flag.String("f0", "", "sweep start frequency (ac/pac, SPICE value)")
	f1Flag = flag.String("f1", "", "sweep stop frequency (ac/pac, SPICE value)")
	npts   = flag.Int("npts", 0, "sweep points (ac/pac)")

	linear = flag.String("linear", "", "Newton linear solver: direct | matfree (default: the analysis's choice)")

	relTol   = flag.String("reltol", "", "adaptive accuracy target: LTE tolerance (envelope) / spectral-tail ratio (qpss, hb, transient); empty = fixed grids")
	absTol   = flag.String("abstol", "", "absolute error/amplitude floor of the adaptive control (SPICE value)")
	accuracy = flag.Float64("accuracy", 0, "shorthand for -reltol 1e-<accuracy> (digits of accuracy)")

	traceOut = flag.String("trace", "", "write a Chrome trace_event JSON file of the solve (chrome://tracing / Perfetto) and print the Newton convergence table")
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "sweep" {
		sweepMain(os.Args[2:])
		return
	}
	flag.Parse()
	if *deckPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	f, err := os.Open(*deckPath)
	if err != nil {
		log.Fatal(err)
	}
	deck, err := repro.ParseNetlist(f)
	f.Close()
	if err != nil {
		log.Fatal(err)
	}

	name := strings.ToLower(strings.TrimSpace(*analysisF))
	if name == "tran" {
		name = "transient"
	}
	d, err := analysis.Get(name)
	if err != nil {
		log.Fatal(err)
	}

	params, err := analysis.ParamsFromDirective(name, directiveFromFlags(deck, d))
	if err != nil {
		log.Fatal(err)
	}

	out := io.Writer(os.Stdout)
	if *outPath != "" {
		of, err := os.Create(*outPath)
		if err != nil {
			log.Fatal(err)
		}
		defer of.Close()
		out = of
	}

	names, idxs := selectProbes(deck)
	probeList := make([]analysis.Probe, len(idxs))
	for k, idx := range idxs {
		probeList[k] = analysis.SingleEnded(idx)
	}

	// Ctrl-C cancels the in-flight solve cooperatively through the
	// context-first analysis API.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	var rec *obs.Recorder
	if *traceOut != "" {
		rec = obs.NewRecorder()
		ctx = obs.WithRecorder(ctx, rec)
	}
	res, err := repro.Analyze(ctx, repro.AnalysisRequest{
		Method:  name,
		Circuit: deck.Ckt,
		Params:  params,
		Probes:  probeList,
	})
	// Flush the trace even when the solve failed — a diverged Newton run is
	// exactly when the convergence table matters.
	if rec != nil {
		if werr := writeTrace(*traceOut, rec); werr != nil {
			log.Printf("-trace: %v", werr)
		}
	}
	if err != nil {
		log.Fatal(err)
	}
	st := res.Stats()
	fmt.Fprintf(os.Stderr, "%s: %d Newton iterations, %d unknowns, %d time steps, %d factorizations\n",
		name, st.NewtonIters, st.Unknowns, st.TimeSteps, st.Factorizations)
	if st.Refinements > 0 || st.RejectedSteps > 0 {
		grid := fmt.Sprintf("%d", st.FinalN1)
		if st.FinalN2 > 0 {
			grid = fmt.Sprintf("%dx%d", st.FinalN1, st.FinalN2)
		}
		fmt.Fprintf(os.Stderr, "%s: adaptive: %d grid refinements, %d accepted / %d rejected steps, final grid %s\n",
			name, st.Refinements, st.AcceptedSteps, st.RejectedSteps, grid)
	}
	render(out, res, names, probeList)
}

// directiveFromFlags translates the CLI flag set into the registry's
// generic directive form, passing only the keys the chosen analysis
// accepts so an irrelevant flag default never reaches a method that would
// reject it.
func directiveFromFlags(deck *netlist.Deck, d *analysis.Descriptor) analysis.DirectiveInput {
	explicit := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	adaptive := *relTol != "" || *accuracy > 0
	num := map[string]float64{}
	str := map[string]string{}
	setNum := func(key string, v float64) {
		for _, k := range d.NumKeys {
			if k == key {
				num[key] = v
			}
		}
	}
	setStr := func(key, v string) {
		if v == "" {
			return
		}
		for _, k := range d.StrKeys {
			if k == key {
				str[key] = v
			}
		}
	}
	// Under adaptive accuracy the grid flags' *defaults* must not pin the
	// starting grid — the solver starts coarse and sizes it. An explicit
	// -n1/-n2 still sets the start.
	if !adaptive || explicit["n1"] {
		setNum("n1", float64(*n1))
	}
	if !adaptive || explicit["n2"] {
		setNum("n2", float64(*n2))
	}
	setNum("nsteps", float64(*steps))
	if *order2 {
		setNum("order", 2)
	}
	if *npts > 0 {
		setNum("npts", float64(*npts))
	}
	if *accuracy > 0 {
		setNum("accuracy", *accuracy)
	}
	for _, fv := range []struct {
		key string
		val string
	}{
		{"tstop", *tstop}, {"step", *step}, {"period", *period},
		{"t2stop", *t2stop}, {"f0", *f0Flag}, {"f1", *f1Flag},
		{"reltol", *relTol}, {"abstol", *absTol},
	} {
		if fv.val == "" {
			continue
		}
		v, err := netlist.ParseValue(fv.val)
		if err != nil {
			log.Fatalf("-%s: %v", fv.key, err)
		}
		setNum(fv.key, v)
	}
	setStr("method", strings.ToLower(*method))
	setStr("source", strings.TrimSpace(*source))
	setStr("linear", strings.ToLower(strings.TrimSpace(*linear)))
	in := deck.DirectiveInput(netlist.Analysis{Params: num, Str: str})
	return in
}

// render writes the probed waveforms as CSV, keyed purely off the result's
// shape: a single-sample "op" record prints one value per probe, anything
// else prints the abscissa column plus one column per probe.
func render(out io.Writer, res repro.AnalysisResult, names []string, probeList []analysis.Probe) {
	wfs := make([]analysis.Waveform, 0, len(probeList))
	for _, p := range probeList {
		wf, ok := res.Waveform(p)
		if !ok {
			continue
		}
		wfs = append(wfs, wf)
	}
	if len(wfs) == 0 || len(wfs[0].T) == 0 {
		// No waveform view — fall back to the spectrum table.
		for k, p := range probeList {
			lines, ok := res.Spectrum(p, 10)
			if !ok {
				continue
			}
			if k == 0 {
				fmt.Fprintln(out, "node,k1,k2,freq,amplitude")
			}
			for _, l := range lines {
				fmt.Fprintf(out, "%s,%d,%d,%.6g,%.6e\n", names[k], l.K1, l.K2, l.Freq, l.Amp)
			}
		}
		return
	}
	if wfs[0].Label == "op" && len(wfs[0].T) == 1 {
		for k := range wfs {
			fmt.Fprintf(out, "v(%s) = %.6g\n", names[k], wfs[k].V[0])
		}
		return
	}
	vcol := "v"
	if wfs[0].Label == "t2" {
		vcol = "vbb"
	}
	fmt.Fprint(out, wfs[0].Label)
	for _, n := range names[:len(wfs)] {
		fmt.Fprintf(out, ",%s(%s)", vcol, n)
	}
	fmt.Fprintln(out)
	for j := range wfs[0].T {
		fmt.Fprintf(out, "%.9e", wfs[0].T[j])
		for k := range wfs {
			fmt.Fprintf(out, ",%.9e", wfs[k].V[j])
		}
		fmt.Fprintln(out)
	}
}

func selectProbes(deck *netlist.Deck) ([]string, []int) {
	var names []string
	if *probes != "" {
		names = strings.Split(*probes, ",")
	} else {
		names = deck.Ckt.NodeNames()
	}
	idxs := make([]int, len(names))
	for k, n := range names {
		idx, err := deck.Ckt.NodeIndex(strings.TrimSpace(n))
		if err != nil {
			log.Fatal(err)
		}
		idxs[k] = idx
	}
	return names, idxs
}
