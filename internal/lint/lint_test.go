package lint_test

import (
	"strings"
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/analysis"
	"repro/internal/lint/analysistest"
)

func TestDeterminism(t *testing.T) {
	analysistest.Run(t, lint.DeterminismAnalyzer, "testdata/src/determinism")
}

func TestHotpath(t *testing.T) {
	analysistest.Run(t, lint.HotpathAnalyzer, "testdata/src/hotpath")
}

func TestCtxFirst(t *testing.T) {
	analysistest.Run(t, lint.CtxFirstAnalyzer, "testdata/src/ctxfirst")
}

func TestLockSafe(t *testing.T) {
	analysistest.Run(t, lint.LockSafeAnalyzer, "testdata/src/locksafe")
}

func TestLifecycle(t *testing.T) {
	analysistest.Run(t, lint.LifecycleAnalyzer, "testdata/src/lifecycle")
}

func TestGoroLeak(t *testing.T) {
	analysistest.Run(t, lint.GoroLeakAnalyzer, "testdata/src/goroleak")
}

func TestFloatDet(t *testing.T) {
	analysistest.Run(t, lint.FloatDetAnalyzer, "testdata/src/floatdet")
}

func TestWireLock(t *testing.T) {
	defer func(pkgs []string) { lint.WireLockPackages = pkgs }(lint.WireLockPackages)
	lint.WireLockPackages = []string{"testdata"}
	analysistest.Run(t, lint.WireLockAnalyzer, "testdata/src/wirelock")
}

func TestSuiteIsWellFormed(t *testing.T) {
	if err := analysis.Validate(lint.All()); err != nil {
		t.Fatal(err)
	}
	if got := len(lint.All()); got < 8 {
		t.Fatalf("suite has %d analyzers, want at least 8", got)
	}
}

// TestRepoIsClean is the meta-test: the full suite over the whole module
// must report nothing. A failure here is a real finding — fix the code or
// add a reasoned //mpde: suppression, exactly as CI would demand.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and typechecks the entire module")
	}
	findings, err := analysis.RunDir("../..", []string{"./..."}, lint.All())
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Error(f)
	}
	if len(findings) > 0 {
		t.Logf("%d finding(s); run `go run ./cmd/mpde-vet ./...` to reproduce outside the test", len(findings))
	}
}

// TestStandaloneDriverSeesTestdataViolations pins the driver end to end:
// loading a real package (this one's testdata is not loadable by go list,
// so use the lint package itself) must succeed and stay clean.
func TestStandaloneDriverSeesTestdataViolations(t *testing.T) {
	findings, err := analysis.RunDir("../..", []string{"./internal/lint/..."}, lint.All())
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 0 {
		t.Errorf("lint packages should be clean, got:\n%s", strings.Join(findings, "\n"))
	}
}
