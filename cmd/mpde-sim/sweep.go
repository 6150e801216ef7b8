package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"time"

	"repro"
	"repro/internal/netlist"
)

// sweepMain implements the `mpde-sim sweep` subcommand: a concurrent batch
// of analyses over a parameter grid, exported as CSV or JSON.
//
// Usage:
//
//	mpde-sim sweep -circuit balanced -fd 10k,15k,20k -amp 50m -methods qpss,shooting
//	mpde-sim sweep -circuit unbalanced -f1 100meg -fd 1meg,500k -workers 8 -format json
//	mpde-sim sweep -deck mixer.cir -n1 24,32,40 -n2 16,24 -methods qpss
//
// Built-in circuits retune per point (fd and amp map onto the mixer's tone
// spacing and RF amplitude); deck-driven sweeps keep the deck's tones and
// can only grid over n1/n2.
func sweepMain(args []string) {
	fs := flag.NewFlagSet("sweep", flag.ExitOnError)
	var (
		circuitName = fs.String("circuit", "balanced", "balanced | unbalanced (built-in circuits)")
		deckPath    = fs.String("deck", "", "netlist file (overrides -circuit; needs .tones)")
		methods     = fs.String("methods", "qpss", "comma-separated: qpss,envelope,shooting,transient,hb")
		fdList      = fs.String("fd", "", "tone spacings, comma-separated SPICE values (e.g. 10k,15k,20k)")
		ampList     = fs.String("amp", "", "drive amplitudes, comma-separated SPICE values")
		n1List      = fs.String("n1", "", "fast-axis grid sizes, comma-separated ints")
		n2List      = fs.String("n2", "", "slow-axis grid sizes, comma-separated ints")
		f1Val       = fs.String("f1", "", "LO frequency override for built-in circuits (SPICE value)")
		rfAmpVal    = fs.String("rfamp", "", "drive amplitude the deck's conversion gain is referenced to (SPICE value)")
		workers     = fs.Int("workers", 0, "worker pool size (0 = NumCPU)")
		timeout     = fs.Duration("timeout", 0, "per-job timeout (0 = none)")
		warm        = fs.Bool("warm", false, "warm-start jobs within each (method, grid) group")
		order2      = fs.Bool("order2", false, "second-order MPDE differences for qpss jobs")
		format      = fs.String("format", "csv", "csv | json")
		timing      = fs.Bool("timing", true, "include per-job wall-clock times in the output")
		outPath     = fs.String("out", "", "output file (default stdout)")
		top         = fs.Int("top", 5, "dominant spectrum mixes reported per qpss job")
		linearSel   = fs.String("linear", "", "Newton linear solver for every job: direct | matfree")
		relTol      = fs.String("reltol", "", "adaptive accuracy target for every job (empty = fixed grids)")
		absTol      = fs.String("abstol", "", "absolute error/amplitude floor of the adaptive control (SPICE value)")
	)
	fs.Parse(args)

	if *format != "csv" && *format != "json" {
		log.Fatalf("unknown -format %q (want csv or json)", *format)
	}
	spec := repro.SweepSpec{
		Name:        "mpde-sim",
		Workers:     *workers,
		JobTimeout:  *timeout,
		WarmStart:   *warm,
		SpectrumTop: *top,
		Linear:      strings.ToLower(strings.TrimSpace(*linearSel)),
	}
	if *order2 {
		spec.DiffT1, spec.DiffT2 = repro.Order2, repro.Order2
	}
	for _, tv := range []struct {
		val  string
		dst  *float64
		flag string
	}{{*relTol, &spec.RelTol, "-reltol"}, {*absTol, &spec.AbsTol, "-abstol"}} {
		if tv.val == "" {
			continue
		}
		v, err := netlist.ParseValue(tv.val)
		if err != nil {
			log.Fatalf("%s: %v", tv.flag, err)
		}
		*tv.dst = v
	}
	for _, m := range strings.Split(*methods, ",") {
		spec.Methods = append(spec.Methods, repro.SweepMethod(strings.TrimSpace(m)))
	}
	spec.Grid = repro.SweepGrid{
		Fd:  parseValueList(*fdList, "-fd"),
		Amp: parseValueList(*ampList, "-amp"),
		N1:  parseIntList(*n1List, "-n1"),
		N2:  parseIntList(*n2List, "-n2"),
	}

	if *deckPath != "" {
		if len(spec.Grid.Fd) > 0 || len(spec.Grid.Amp) > 0 {
			log.Fatal("sweep: -fd/-amp grids need a retunable built-in -circuit; a deck fixes its sources, grid over -n1/-n2 instead")
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
		sh, err := deck.Shear()
		if err != nil {
			log.Fatal(err)
		}
		outIdx := deck.Ckt.NumNodes() - 1
		if outIdx < 0 {
			log.Fatal("sweep: deck has no non-ground nodes to probe")
		}
		fmt.Fprintf(os.Stderr, "sweep: probing node %q (last declared)\n", deck.Ckt.NodeNames()[outIdx])
		rfAmp := 0.0
		if *rfAmpVal != "" {
			v, verr := netlist.ParseValue(*rfAmpVal)
			if verr != nil {
				log.Fatalf("-rfamp: %v", verr)
			}
			rfAmp = v
		}
		// One parsed deck serves every job: the engine finalises it once
		// and analyses only read it afterwards.
		tgt := &repro.SweepTarget{Ckt: deck.Ckt, Shear: sh, OutP: outIdx, OutM: -1, RFAmp: rfAmp}
		spec.Name = *deckPath
		spec.Build = func(repro.SweepPoint) (*repro.SweepTarget, error) { return tgt, nil }
	} else {
		f1 := 0.0
		if *f1Val != "" {
			v, err := netlist.ParseValue(*f1Val)
			if err != nil {
				log.Fatalf("-f1: %v", err)
			}
			f1 = v
		}
		spec.Name = *circuitName
		switch *circuitName {
		case "balanced":
			spec.Build = func(p repro.SweepPoint) (*repro.SweepTarget, error) {
				mix := repro.NewBalancedMixer(repro.BalancedMixerConfig{F1: f1, Fd: p.Fd, RFAmp: p.Amp})
				return &repro.SweepTarget{
					Ckt: mix.Ckt, Shear: mix.Shear,
					OutP: mix.OutP, OutM: mix.OutM, RFAmp: mix.Cfg.RFAmp,
				}, nil
			}
		case "unbalanced":
			if f1 == 0 {
				f1 = 100e6 // the speedup-study operating point
			}
			spec.Build = func(p repro.SweepPoint) (*repro.SweepTarget, error) {
				fd := p.Fd
				if fd == 0 {
					fd = f1 / 100
				}
				mix := repro.NewUnbalancedMixer(repro.UnbalancedMixerConfig{F1: f1, Fd: fd, RFAmp: p.Amp})
				return &repro.SweepTarget{
					Ckt: mix.Ckt, Shear: mix.Shear,
					OutP: mix.Drain, OutM: -1, RFAmp: mix.Cfg.RFAmp,
				}, nil
			}
		default:
			log.Fatalf("unknown -circuit %q (want balanced or unbalanced)", *circuitName)
		}
	}

	// Ctrl-C cancels the sweep but still flushes the partial aggregate.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	start := time.Now()
	res, err := repro.Sweep(ctx, spec)
	if res == nil {
		log.Fatal(err)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "sweep: interrupted (%v), writing partial results\n", err)
	}

	out := io.Writer(os.Stdout)
	if *outPath != "" {
		of, cerr := os.Create(*outPath)
		if cerr != nil {
			log.Fatal(cerr)
		}
		defer of.Close()
		out = of
	}
	if *format == "csv" {
		err = res.WriteCSV(out, *timing)
	} else {
		err = res.WriteJSON(out, *timing)
	}
	if err != nil {
		log.Fatal(err)
	}
	ok, failed, canceled := res.Counts()
	fmt.Fprintf(os.Stderr, "sweep: %d jobs on %d workers in %v — %d ok, %d failed, %d canceled\n",
		len(res.Jobs), res.Workers, time.Since(start).Round(time.Millisecond), ok, failed, canceled)
	for _, msg := range res.Errors() {
		fmt.Fprintf(os.Stderr, "sweep:   %s\n", msg)
	}
}

func parseValueList(s, flagName string) []float64 {
	if s == "" {
		return nil
	}
	var out []float64
	for _, part := range strings.Split(s, ",") {
		v, err := netlist.ParseValue(strings.TrimSpace(part))
		if err != nil {
			log.Fatalf("%s: %v", flagName, err)
		}
		out = append(out, v)
	}
	return out
}

func parseIntList(s, flagName string) []int {
	if s == "" {
		return nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			log.Fatalf("%s: %v", flagName, err)
		}
		out = append(out, v)
	}
	return out
}
