package sweep_test

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/sweep"
)

// acceptanceSpec is the 20-job QPSS grid of the acceptance criterion: the
// balanced mixer over tone spacing × drive amplitude.
func acceptanceSpec(workers int) sweep.Spec {
	return sweep.Spec{
		Name:    "bench",
		Methods: []sweep.Method{sweep.QPSS},
		Grid: sweep.Grid{
			Fd:  []float64{60e3, 80e3, 100e3, 120e3, 140e3},
			Amp: []float64{0.04, 0.05, 0.06, 0.07},
			N1:  []int{24},
			N2:  []int{16},
		},
		Build:   balancedTarget,
		Workers: workers,
	}
}

func benchSweep(b *testing.B, workers int) {
	for i := 0; i < b.N; i++ {
		res, err := sweep.Run(context.Background(), acceptanceSpec(workers))
		if err != nil {
			b.Fatal(err)
		}
		if ok, failed, canceled := res.Counts(); failed+canceled != 0 {
			b.Fatalf("ok=%d failed=%d canceled=%d", ok, failed, canceled)
		}
	}
	b.ReportMetric(float64(workers), "workers")
}

// BenchmarkSweepWorkers1 vs BenchmarkSweepWorkersNumCPU measures the
// speedup of the pool precisely (the loose correctness assertion lives in
// TestSweepDeterministicAndFasterParallel).
func BenchmarkSweepWorkers1(b *testing.B) { benchSweep(b, 1) }

// BenchmarkSweepWorkersNumCPU is the parallel counterpart.
func BenchmarkSweepWorkersNumCPU(b *testing.B) { benchSweep(b, runtime.NumCPU()) }

// BenchmarkSingleJobSpecAssembly measures the assemblyWorkers bugfix: a
// single-job spec with a multi-slot pool (the common "one deck, one
// analysis" service request) now keeps the assembler's parallel default
// instead of serializing QPSS assembly. Compare against GOMAXPROCS=1 to see
// the headroom; on an 8-core host the 40×30 balanced-mixer job drops from
// ~serial assembly time to the internal/core parallel-assembly numbers
// (BenchmarkQPSSSolve).
func BenchmarkSingleJobSpecAssembly(b *testing.B) {
	spec := sweep.Spec{
		Name:    "single-job",
		Methods: []sweep.Method{sweep.QPSS},
		Grid:    sweep.Grid{Fd: []float64{100e3}, N1: []int{40}, N2: []int{30}},
		Build:   balancedTarget,
		Workers: 8, // pool slots sit idle; the one job may still fan out
	}
	for i := 0; i < b.N; i++ {
		res, err := sweep.Run(context.Background(), spec)
		if err != nil {
			b.Fatal(err)
		}
		if ok, _, _ := res.Counts(); ok != 1 {
			b.Fatalf("job failed: %v", res.Errors())
		}
	}
}
