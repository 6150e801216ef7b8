package main

import (
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/obs"
)

// budget maps a layer to the seconds of one traced operation charged to
// it. Layer times plus unaccounted_s sum to the operation's wall time.
type budget map[string]float64

// budgetLayers lists every layer a budget can hold, in report order.
var budgetLayers = []string{
	"la.factor_s", "core.assembly_s", "solver.newton_other_s", "core.setup_s",
	"core.adaptive_self_s", "analysis.self_s", "fft.extract_s",
	"shooting.self_s", "transient.self_s", "sweep.self_s",
	"dispatch.self_s", "dispatch.queue_wait_s", "dispatch.codec_s",
	"netlist.self_s", "server.http_overhead_s",
}

// wholeSubtree charges a span and everything below it to one layer: the
// baselines' inner per-step Newton solves are theirs, not the MPDE solver's.
var wholeSubtree = map[string]string{
	"analysis.shooting":  "shooting.self_s",
	"analysis.transient": "transient.self_s",
}

// layerOf names the layer a span's self time is charged to.
func layerOf(name string) string {
	switch {
	case name == "qpss.solve":
		return "core.setup_s"
	case name == "qpss.adaptive.round":
		return "core.adaptive_self_s"
	case name == "sweep.run", name == "sweep.job":
		return "sweep.self_s"
	case name == "dispatch.execute", name == "worker.shard":
		return "dispatch.self_s"
	case name == "dispatch.shard":
		return "dispatch.queue_wait_s"
	case name == spanExtract:
		return "fft.extract_s"
	case strings.HasPrefix(name, "analysis."):
		return "analysis.self_s"
	}
	return "unaccounted_s"
}

// The benchmark's own spans.
const (
	spanOp      = "bench.op"
	spanExtract = "bench.extract"
)

// Budget entries that are not layers: a top-level sweep's summed job time
// and lane capacity (workers × wall), the dispatch.execute wall, and the
// newton.solve self time before and after lane scaling.
const (
	auxSweepBusy  = "aux.sweep_busy_s"
	auxSweepLanes = "aux.sweep_lanes_s"
	auxExecute    = "aux.dispatch_execute_s"
	auxNewtonRaw  = "aux.newton_raw_s"
	auxNewton     = "aux.newton_s"
)

// mpdeStats is the Newton work of one operation's MPDE solves, which the
// budget splits out of the newton.solve spans.
type mpdeStats struct {
	assembly, factor time.Duration
}

// chargeTree charges every span of the forest by self time. Children of a
// span that fans out over a pool (an attribute "workers") share its lanes:
// each is charged 1/workers of its time, and the parent keeps the idle
// lane time. Where children overlap more than that (shards waiting in a
// queue), they are scaled down to the parent's duration, so the total
// charged never exceeds the roots' wall time. The newton.solve time is
// held back until splitNewton divides it.
func (b budget) chargeTree(roots []*obs.SpanNode) {
	var walk func(n *obs.SpanNode, w float64)
	walk = func(n *obs.SpanNode, w float64) {
		d := n.Duration.Seconds()
		if l, ok := wholeSubtree[n.Name]; ok {
			b[l] += d * w
			return
		}
		var kids float64
		for _, c := range n.Children {
			kids += c.Duration.Seconds()
		}
		f := 1.0
		if k := attrFloat(n.Attrs["workers"]); k > 1 {
			f = 1 / k
		}
		if kids*f > d {
			f = d / kids
		}
		self := d - kids*f
		if n.Name == "sweep.run" && w == 1 {
			b[auxSweepBusy] += kids
			b[auxSweepLanes] += d * max(attrFloat(n.Attrs["workers"]), 1)
		}
		if n.Name == "dispatch.execute" {
			b[auxExecute] += d * w
		}
		if n.Name == "newton.solve" {
			b[auxNewtonRaw] += self
			b[auxNewton] += self * w
		} else {
			b[layerOf(n.Name)] += self * w
		}
		for _, c := range n.Children {
			walk(c, w*f)
		}
	}
	for _, r := range roots {
		walk(r, 1)
	}
}

// splitNewton divides the charged newton.solve time into factorisation,
// assembly and the rest of Newton. Assembly and factorisation run inside
// newton.solve, so they are scaled by the share the Newton spans were
// charged at.
func (b budget) splitNewton(st mpdeStats) {
	share := 1.0
	if b[auxNewtonRaw] > 0 {
		share = b[auxNewton] / b[auxNewtonRaw]
	}
	la := st.factor.Seconds() * share
	asm := st.assembly.Seconds() * share
	b["la.factor_s"] += la
	b["core.assembly_s"] += asm
	b["solver.newton_other_s"] += b[auxNewton] - la - asm
}

// attrFloat reads a numeric span attribute: int64 in a local recorder,
// float64 after a JSON round trip.
func attrFloat(v any) float64 {
	switch x := v.(type) {
	case int64:
		return float64(x)
	case float64:
		return x
	}
	return 0
}

// addBudget reports the mean per-layer budget of the traced samples, the
// unaccounted remainder, the mean per-operation counters and the tracing
// overhead against the untraced samples of the same kind.
func addBudget(r *report, samples []sample) {
	var traced []sample
	for _, s := range samples {
		if s.traced && s.err == nil {
			traced = append(traced, s)
		}
	}
	n := len(traced)
	mean := func(get func(sample) float64) float64 {
		if n == 0 {
			return 0
		}
		var sum float64
		for _, s := range traced {
			sum += get(s)
		}
		return sum / float64(n)
	}
	wall := mean(func(s sample) float64 { return s.wall.Seconds() })
	r.add("obs.traced_op_s", wall, "s", n)
	rest := wall
	for _, l := range budgetLayers {
		v := mean(func(s sample) float64 { return s.budget[l] })
		rest -= v
		r.add(l, v, "s", n)
	}
	r.add("unaccounted_s", rest, "s", n)

	kind := ""
	if n > 0 {
		kind = traced[0].kind
	}
	tw := secondsOf(traced, func(sample) bool { return true })
	uw := secondsOf(samples, func(s sample) bool { return !s.traced && s.kind == kind && s.err == nil })
	overhead := 0.0
	if len(uw) > 0 && len(tw) > 0 {
		overhead = median(tw)/median(uw) - 1
	}
	r.add("obs.overhead_frac", overhead, "frac", len(tw)+len(uw))

	for _, c := range counterNames {
		r.add(c, mean(func(s sample) float64 { return s.counts[c] }), "count", n)
	}
	var dropped int64
	for _, s := range samples {
		dropped += s.dropped
	}
	r.add("obs.dropped_spans", float64(dropped), "count", len(samples))
}

// flatten turns a span forest back into records.
func flatten(nodes []*obs.SpanNode) []obs.SpanRecord {
	var out []obs.SpanRecord
	var walk func([]*obs.SpanNode)
	walk = func(ns []*obs.SpanNode) {
		for _, n := range ns {
			out = append(out, n.SpanRecord)
			walk(n.Children)
		}
	}
	walk(nodes)
	return out
}

// writeChromeTrace writes the first traced operation's spans as Chrome
// trace JSON into dir. The baselines' per-time-step Newton spans (about
// 10^5 in a sweep) are left out; their analysis spans stay.
func writeChromeTrace(dir, workload string, samples []sample) error {
	for _, s := range samples {
		if len(s.spans) == 0 {
			continue
		}
		var keep []obs.SpanRecord
		var walk func([]*obs.SpanNode)
		walk = func(ns []*obs.SpanNode) {
			for _, n := range ns {
				keep = append(keep, n.SpanRecord)
				if _, whole := wholeSubtree[n.Name]; !whole {
					walk(n.Children)
				}
			}
		}
		walk(obs.Tree(s.spans))
		dir, err := outDir(dir)
		if err != nil {
			return err
		}
		f, err := os.Create(filepath.Join(dir, "perfbench-"+workload+".trace.json"))
		if err != nil {
			return err
		}
		if err := obs.WriteChromeTrace(f, keep); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	return nil
}
