// Package wave provides small waveform/surface containers and the CSV /
// ASCII-art exporters used by cmd/figures to regenerate the paper's plots in
// a terminal- and spreadsheet-friendly form.
package wave

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// Series is a sampled scalar waveform.
type Series struct {
	Name string
	T    []float64
	V    []float64
}

// NewSeries pairs time and value slices (which must have equal length).
func NewSeries(name string, t, v []float64) (Series, error) {
	if len(t) != len(v) {
		return Series{}, fmt.Errorf("wave: length mismatch %d vs %d", len(t), len(v))
	}
	return Series{Name: name, T: t, V: v}, nil
}

// MinMax returns the value extrema (0, 0 for an empty series).
func (s Series) MinMax() (lo, hi float64) {
	if len(s.V) == 0 {
		return 0, 0
	}
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, v := range s.V {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}

// WriteCSV emits "t,<name>" rows.
func (s Series) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "t,%s\n", s.Name); err != nil {
		return err
	}
	for i := range s.T {
		if _, err := fmt.Fprintf(w, "%.9e,%.9e\n", s.T[i], s.V[i]); err != nil {
			return err
		}
	}
	return nil
}

// ASCIIPlot renders the series as a rows×cols character plot.
func (s Series) ASCIIPlot(rows, cols int) string {
	if rows < 3 {
		rows = 3
	}
	if cols < 8 {
		cols = 8
	}
	if len(s.V) == 0 {
		return "(empty)\n"
	}
	lo, hi := s.MinMax()
	if hi == lo {
		hi = lo + 1
	}
	grid := make([][]byte, rows)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", cols))
	}
	n := len(s.V)
	for c := 0; c < cols; c++ {
		idx := c * (n - 1) / max(cols-1, 1)
		frac := (s.V[idx] - lo) / (hi - lo)
		r := rows - 1 - int(frac*float64(rows-1)+0.5)
		if r < 0 {
			r = 0
		}
		if r >= rows {
			r = rows - 1
		}
		grid[r][c] = '*'
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s  [%.4g .. %.4g]\n", s.Name, lo, hi)
	for _, row := range grid {
		b.WriteString(string(row))
		b.WriteByte('\n')
	}
	return b.String()
}

// Surface is a sampled bivariate function (e.g. a multi-time solution).
type Surface struct {
	Name   string
	XLabel string // axis along Z rows (t1)
	YLabel string // axis along Z columns (t2)
	X, Y   []float64
	Z      [][]float64 // Z[i][j] at (X[i], Y[j])
}

// NewSurface validates axis/grid consistency.
func NewSurface(name string, x, y []float64, z [][]float64) (Surface, error) {
	if len(z) != len(x) {
		return Surface{}, fmt.Errorf("wave: surface rows %d vs x %d", len(z), len(x))
	}
	for _, row := range z {
		if len(row) != len(y) {
			return Surface{}, fmt.Errorf("wave: surface cols %d vs y %d", len(row), len(y))
		}
	}
	return Surface{Name: name, X: x, Y: y, Z: z}, nil
}

// MinMax returns the extrema of Z.
func (s Surface) MinMax() (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, row := range s.Z {
		for _, v := range row {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
	}
	if lo > hi {
		return 0, 0
	}
	return lo, hi
}

// WriteCSV emits a matrix with x down the first column and y across the
// first row — directly loadable for surface plotting.
func (s Surface) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "%s\\%s", s.XLabel, s.YLabel); err != nil {
		return err
	}
	for _, y := range s.Y {
		if _, err := fmt.Fprintf(w, ",%.9e", y); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintln(w); err != nil {
		return err
	}
	for i, x := range s.X {
		if _, err := fmt.Fprintf(w, "%.9e", x); err != nil {
			return err
		}
		for j := range s.Y {
			if _, err := fmt.Fprintf(w, ",%.9e", s.Z[i][j]); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}

const shades = " .:-=+*#%@"

// ASCIIHeatmap renders the surface as a character heat map (rows = t1).
func (s Surface) ASCIIHeatmap(maxRows, maxCols int) string {
	if maxRows < 2 {
		maxRows = 2
	}
	if maxCols < 2 {
		maxCols = 2
	}
	lo, hi := s.MinMax()
	span := hi - lo
	if span == 0 {
		span = 1
	}
	n1, n2 := len(s.X), len(s.Y)
	rows := min(maxRows, n1)
	cols := min(maxCols, n2)
	var b strings.Builder
	fmt.Fprintf(&b, "%s  rows=%s cols=%s  [%.4g .. %.4g]\n", s.Name, s.XLabel, s.YLabel, lo, hi)
	for r := 0; r < rows; r++ {
		i := r * (n1 - 1) / max(rows-1, 1)
		for c := 0; c < cols; c++ {
			j := c * (n2 - 1) / max(cols-1, 1)
			frac := (s.Z[i][j] - lo) / span
			idx := int(frac * float64(len(shades)-1))
			if idx < 0 {
				idx = 0
			}
			if idx >= len(shades) {
				idx = len(shades) - 1
			}
			b.WriteByte(shades[idx])
		}
		b.WriteByte('\n')
	}
	return b.String()
}
