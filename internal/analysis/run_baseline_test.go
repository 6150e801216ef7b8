package analysis

import "testing"

func TestInterpolateGridKeepsCoincidentPoints(t *testing.T) {
	const n, N1, N2 = 2, 4, 3
	x := make([]float64, N1*N2*n)
	for i := range x {
		x[i] = float64(i*i%17) - 8
	}
	out := interpolateGrid(x, n, N1, N2, 2*N1, 2*N2)
	if len(out) != 2*N1*2*N2*n {
		t.Fatalf("interpolated length %d", len(out))
	}
	// Doubling keeps every coarse point at its even-even fine index.
	for j := 0; j < N2; j++ {
		for i := 0; i < N1; i++ {
			for k := 0; k < n; k++ {
				got := out[((2*j)*(2*N1)+2*i)*n+k]
				want := x[(j*N1+i)*n+k]
				if got != want {
					t.Fatalf("fine(%d,%d,%d) = %v, want coarse value %v", 2*i, 2*j, k, got, want)
				}
			}
		}
	}
	// Identity shape returns a copy, not an alias.
	same := interpolateGrid(x, n, N1, N2, N1, N2)
	same[0]++
	if same[0] == x[0] {
		t.Fatal("identity interpolation aliased its input")
	}
}
