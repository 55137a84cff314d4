package stats

import (
	"math"
	"strings"
	"testing"
)

func TestTimeSeriesBasics(t *testing.T) {
	ts := NewTimeSeries("sat")
	if ts.Len() != 0 {
		t.Error("new series not empty")
	}
	if p := ts.Last(); p.T != 0 || p.V != 0 {
		t.Error("Last on empty series should be zero Point")
	}
	ts.Add(0, 0.5)
	ts.Add(1, 0.6)
	ts.Add(2, 0.7)
	if ts.Len() != 3 {
		t.Errorf("Len = %d", ts.Len())
	}
	if p := ts.Last(); p.T != 2 || p.V != 0.7 {
		t.Errorf("Last = %+v", p)
	}
}

func TestTailMean(t *testing.T) {
	ts := NewTimeSeries("x")
	for i := 1; i <= 10; i++ {
		ts.Add(float64(i), float64(i))
	}
	if got := ts.TailMean(0.5); math.Abs(got-8) > 1e-12 { // mean of 6..10
		t.Errorf("TailMean(0.5) = %v, want 8", got)
	}
	if got := ts.TailMean(1); math.Abs(got-5.5) > 1e-12 {
		t.Errorf("TailMean(1) = %v, want 5.5", got)
	}
	// Degenerate fractions fall back to full mean; tiny fraction = last point.
	if got := ts.TailMean(-1); math.Abs(got-5.5) > 1e-12 {
		t.Errorf("TailMean(-1) = %v, want 5.5", got)
	}
	if got := ts.TailMean(0.01); math.Abs(got-10) > 1e-12 {
		t.Errorf("TailMean(0.01) = %v, want 10", got)
	}
	empty := NewTimeSeries("e")
	if empty.TailMean(0.5) != 0 {
		t.Error("TailMean on empty series should be 0")
	}
}

func TestWriteCSV(t *testing.T) {
	ts := NewTimeSeries("sat")
	ts.Add(0, 1)
	ts.Add(1, 2)
	var sb strings.Builder
	if err := WriteCSVMulti(&sb, ts); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.HasPrefix(out, "t,sat\n") {
		t.Errorf("missing header: %q", out)
	}
	if !strings.Contains(out, "1.000000,2.000000") {
		t.Errorf("missing row: %q", out)
	}
}

func TestWriteCSVMulti(t *testing.T) {
	a := NewTimeSeries("a")
	b := NewTimeSeries("b")
	a.Add(0, 1)
	a.Add(1, 2)
	b.Add(0, 3)
	b.Add(1, 4)
	var sb strings.Builder
	if err := WriteCSVMulti(&sb, a, b); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.HasPrefix(out, "t,a,b\n") {
		t.Errorf("bad header: %q", out)
	}
	if !strings.Contains(out, "1.000000,2.000000,4.000000") {
		t.Errorf("bad row: %q", out)
	}
	b.Add(2, 5)
	if err := WriteCSVMulti(&sb, a, b); err == nil {
		t.Error("mismatched lengths should error")
	}
	if err := WriteCSVMulti(&sb); err != nil {
		t.Errorf("no series should be a no-op, got %v", err)
	}
}
