package analysis

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/circuit"
	"repro/internal/core"
)

// Target is the circuit under test as a dispatcher sees it: the circuit,
// its difference-frequency shear, the probed output and the drive
// amplitude conversion gain is referenced to. The sweep engine re-exports
// it; deck resolution (HTTP service, CLI) builds it from parsed netlists.
type Target struct {
	Ckt   *circuit.Circuit
	Shear core.Shear
	// OutP is the probed output unknown; OutM, when ≥ 0, selects
	// differential probing of OutP − OutM.
	OutP, OutM int
	// RFAmp is the input drive amplitude the conversion gain is referenced
	// to; 0 disables gain measurement (swing is still reported).
	RFAmp float64
}

// Probe returns the target's output probe.
func (t *Target) Probe() Probe { return Probe{P: t.OutP, M: t.OutM} }

// GridPoint is one vertex of a sweep grid. Zero-valued fields mean "the
// builder's / analysis's default": Fd=0 lets the circuit builder pick its
// default tone spacing, N1=N2=0 the analysis's default grid.
type GridPoint struct {
	// Fd is the requested tone spacing (difference frequency) in Hz.
	Fd float64 `json:"fd,omitempty"`
	// Amp is the requested drive amplitude in volts.
	Amp float64 `json:"amp,omitempty"`
	// N1, N2 are the grid sizes along the fast and slow axes.
	N1 int `json:"n1,omitempty"`
	N2 int `json:"n2,omitempty"`
}

// Tuning carries the engine-level knobs that shape per-method parameters
// but are not grid axes: difference orders for QPSS, integration horizons
// and time resolution for the baselines, and intra-job assembly
// parallelism.
type Tuning struct {
	// DiffT1, DiffT2 select the finite-difference order of QPSS (zero →
	// first order).
	DiffT1, DiffT2 core.DiffOrder
	// TransientPeriods is the integration horizon in difference periods
	// (default 3; the last period is measured).
	TransientPeriods float64
	// StepsPerFastPeriod sets the time resolution of shooting and
	// transient per period of the fastest retained harmonic (default 10).
	StepsPerFastPeriod int
	// AssemblyWorkers bounds QPSS intra-job assembly parallelism (0 = the
	// assembler default).
	AssemblyWorkers int
	// Linear selects the Newton linear solver for methods that support it
	// ("direct", "matfree"; empty = direct).
	Linear string
	// Accuracy is the uniform adaptive-control tolerance pair; descriptors
	// of adaptive analyses copy it into their typed parameters.
	Accuracy Accuracy
}

// BuildInput is everything a descriptor needs to derive typed parameters
// for one sweep job.
type BuildInput struct {
	Target Target
	Point  GridPoint
	Tune   Tuning
}

// DirectiveInput is a parsed `.analysis` directive (or the CLI's flag set)
// in primitive form: the deck's shear plus the normalised numeric and
// string parameters. It deliberately avoids netlist types so the netlist
// package can depend on this registry for validation without a cycle.
type DirectiveInput struct {
	// Shear is the deck's .tones declaration (zero when absent; methods
	// that need it validate it).
	Shear core.Shear
	Num   map[string]float64
	Str   map[string]string
}

// Float returns a numeric parameter or def when absent.
func (in DirectiveInput) Float(key string, def float64) float64 {
	if v, ok := in.Num[key]; ok {
		return v
	}
	return def
}

// Int returns a numeric parameter truncated to int, or def when absent.
func (in DirectiveInput) Int(key string, def int) int {
	if v, ok := in.Num[key]; ok {
		return int(v)
	}
	return def
}

// Text returns a string parameter or def when absent.
func (in DirectiveInput) Text(key, def string) string {
	if v, ok := in.Str[key]; ok {
		return v
	}
	return def
}

// Descriptor registers one analysis: its runner plus the hooks dispatchers
// use to build typed parameters from their own vocabularies.
type Descriptor struct {
	// Name is the registry key and the `.analysis` directive method name.
	Name string
	// Doc is a one-line description for listings.
	Doc string
	// Run executes the analysis (required).
	Run func(ctx context.Context, req Request) (Result, error)
	// SweepParams derives typed parameters from a sweep job; nil marks the
	// method as not sweepable (it still runs through Run/directives).
	SweepParams func(BuildInput) (any, error)
	// DirectiveParams derives typed parameters from a deck directive or
	// CLI flag set (required for registry round-trips).
	DirectiveParams func(DirectiveInput) (any, error)
	// UsesGridAxes reports whether the method reads GridPoint.N1/N2 (the
	// integration baselines derive their resolution from the shear alone,
	// so the engine canonicalises their grid axes away).
	UsesGridAxes bool
	// Seedable marks methods whose Result.Seed warm-starts same-shaped
	// requests (full-grid X0 in the (j·N1+i)·n+k layout).
	Seedable bool
	// WireParams returns a pointer to a fresh zero value of the method's
	// typed parameter struct — the decode target of the wire codec
	// (EncodeParams/DecodeParams). nil marks the method's parameters as
	// not wire-codable.
	WireParams func() any
	// NumKeys and StrKeys are the accepted `.analysis` directive parameter
	// keys (normalised spellings; the netlist layer adds its aliases).
	NumKeys []string
	StrKeys []string
}

var (
	regMu    sync.RWMutex
	registry = map[string]*Descriptor{}
)

// Register adds an analysis to the registry. It panics on a duplicate or
// malformed descriptor — registration happens at init time and a broken
// table should fail loudly.
func Register(d Descriptor) {
	if d.Name == "" || d.Run == nil {
		panic("analysis: Register needs a Name and a Run hook")
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[d.Name]; dup {
		panic("analysis: duplicate registration of " + d.Name)
	}
	registry[d.Name] = &d
}

// Lookup returns the descriptor for name.
func Lookup(name string) (*Descriptor, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	d, ok := registry[name]
	return d, ok
}

// Get returns the descriptor for name or an error listing the known names.
func Get(name string) (*Descriptor, error) {
	if d, ok := Lookup(name); ok {
		return d, nil
	}
	return nil, fmt.Errorf("analysis: unknown analysis %q (want %s)", name, strings.Join(Names(), ", "))
}

// Names returns the registered analysis names, sorted.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Registered reports whether name is a known analysis.
func Registered(name string) bool {
	_, ok := Lookup(name)
	return ok
}

// Sweepable reports whether name is registered and can run as a sweep job.
func Sweepable(name string) bool {
	d, ok := Lookup(name)
	return ok && d.SweepParams != nil
}

// DirectiveKeys returns the accepted numeric and string parameter keys of
// a method's `.analysis` directive.
func DirectiveKeys(name string) (num, str []string, ok bool) {
	d, found := Lookup(name)
	if !found {
		return nil, nil, false
	}
	return d.NumKeys, d.StrKeys, true
}

// ParamsFromDirective builds the method's typed parameters from a parsed
// directive. This is the single translation the netlist-driven dispatchers
// (HTTP deck handling, CLI, round-trip tests) share.
func ParamsFromDirective(name string, in DirectiveInput) (any, error) {
	d, err := Get(name)
	if err != nil {
		return nil, err
	}
	if d.DirectiveParams == nil {
		return nil, fmt.Errorf("analysis: %s has no directive form", name)
	}
	return d.DirectiveParams(in)
}
