package stats

import (
	"fmt"
	"io"
)

// Point is one sample of a time series: a value observed at a simulation
// time.
type Point struct {
	T float64
	V float64
}

// TimeSeries records (time, value) samples, e.g. mean provider satisfaction
// measured every sampling interval. Samples are expected to arrive in
// non-decreasing time order (the simulator guarantees this).
type TimeSeries struct {
	Name   string
	Points []Point
}

// NewTimeSeries returns an empty named series.
func NewTimeSeries(name string) *TimeSeries { return &TimeSeries{Name: name} }

// Add appends a sample.
func (ts *TimeSeries) Add(t, v float64) { ts.Points = append(ts.Points, Point{T: t, V: v}) }

// Len returns the number of samples.
func (ts *TimeSeries) Len() int { return len(ts.Points) }

// Last returns the most recent sample, or a zero Point if empty.
func (ts *TimeSeries) Last() Point {
	if len(ts.Points) == 0 {
		return Point{}
	}
	return ts.Points[len(ts.Points)-1]
}

// TailMean returns the mean of the last fraction frac (0,1] of samples —
// the steady-state estimate the experiment tables report.
func (ts *TimeSeries) TailMean(frac float64) float64 {
	n := len(ts.Points)
	if n == 0 {
		return 0
	}
	if frac <= 0 || frac > 1 {
		frac = 1
	}
	start := n - int(float64(n)*frac)
	if start >= n {
		start = n - 1
	}
	var sum float64
	for _, p := range ts.Points[start:] {
		sum += p.V
	}
	return sum / float64(n-start)
}

// WriteCSVMulti writes multiple series sharing a time axis as a single CSV
// table. Series are aligned by sample index; they must have equal lengths
// (the scenario samplers guarantee this). It returns an error on length
// mismatch.
func WriteCSVMulti(w io.Writer, series ...*TimeSeries) error {
	if len(series) == 0 {
		return nil
	}
	n := series[0].Len()
	header := "t"
	for _, s := range series {
		if s.Len() != n {
			return fmt.Errorf("stats: series %q has %d points, want %d", s.Name, s.Len(), n)
		}
		header += "," + s.Name
	}
	if _, err := fmt.Fprintln(w, header); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		if _, err := fmt.Fprintf(w, "%.6f", series[0].Points[i].T); err != nil {
			return err
		}
		for _, s := range series {
			if _, err := fmt.Fprintf(w, ",%.6f", s.Points[i].V); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}
