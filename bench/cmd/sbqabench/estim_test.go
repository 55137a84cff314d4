package main

import (
	"math"
	"testing"
)

// driftingPhase builds a measured phase on a box whose speed swings between
// full and half (a 2x drift) with a period of several slices, plus a little
// deterministic per-window jitter. At reference speed the target would do
// trueQPS with the given latencies.
func driftingPhase(slices int, trueQPS, p50, p99 float64) phase {
	speed := func(i int) float64 { // i counts windows, control and target alike
		return 0.75 + 0.25*math.Sin(float64(i)/7)
	}
	jitter := func(i int) float64 { return 1 + 0.02*math.Sin(float64(i)*2.3) }
	var ph phase
	win := func(i int, secs, qps, p50, p99 float64) winStat {
		s := speed(i) * jitter(i)
		ok := int(qps * s * secs)
		return winStat{elapsed: secs, ok: ok, attempted: ok, lat: latStat{n: ok, p50: p50 / s, p99: p99 / s}}
	}
	for i := 0; i <= slices; i++ {
		ph.control = append(ph.control, win(2*i, 0.25, nominal.qps, nominal.p50MS, nominal.p99MS))
		if i < slices {
			ph.target = append(ph.target, win(2*i+1, 0.5, trueQPS, p50, p99))
		}
	}
	return ph
}

func within(t *testing.T, what string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want)/want > tol {
		t.Errorf("%s = %.6g, want %.6g within %.0f%%", what, got, want, tol*100)
	}
}

func TestEstimatorsHoldADriftingSeries(t *testing.T) {
	const trueQPS, p50, p99 = 8000.0, 0.2, 0.9
	ph := driftingPhase(40, trueQPS, p50, p99)

	var raw []float64
	for _, w := range ph.target {
		raw = append(raw, w.qps())
	}
	lo, hi := raw[0], raw[0]
	for _, v := range raw {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	if hi/lo < 1.8 {
		t.Fatalf("the synthetic series only drifts %.2fx; the test wants about 2x", hi/lo)
	}

	within(t, "ratio-of-sums throughput", calibratedRate(ph.target, ph.control), trueQPS, 0.03)
	p50s, dropped := sliceRatios(ph.target, ph.control, func(l latStat) float64 { return l.p50 }, nominal.p50MS, minP99Samples)
	if dropped != 0 {
		t.Errorf("dropped %d slices of a series with thousands of samples each", dropped)
	}
	within(t, "per-slice-ratio p50", median(p50s), p50, 0.03)
	p99s, _ := sliceRatios(ph.target, ph.control, func(l latStat) float64 { return l.p99 }, nominal.p99MS, minP99Samples)
	within(t, "per-slice-ratio p99", median(p99s), p99, 0.03)
	within(t, "median of per-slice throughput", median(sliceRates(ph.target, ph.control)), trueQPS, 0.03)

	// cpu_us_per_query and setup_s are raw values times the speed factor of
	// their own control windows.
	s := speedFactor(ph.control)
	var cpuNS, ok float64
	for _, w := range ph.target {
		sp := float64(w.ok) / (trueQPS * w.elapsed) // the speed the window ran at
		cpuNS += 80e3 / sp * float64(w.ok)
		ok += float64(w.ok)
	}
	within(t, "calibrated cpu per query", cpuNS/ok/1e3*s, 80, 0.03)
}

func TestPercentileNearestRank(t *testing.T) {
	v := make([]float64, 100)
	for i := range v {
		v[i] = float64(i + 1)
	}
	for _, c := range []struct{ q, want float64 }{{0.5, 50}, {0.99, 99}, {1, 100}, {0, 1}, {0.001, 1}} {
		if got := percentile(v, c.q); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of nothing should be NaN")
	}
	st := summarize([]float64{5, 1, 4, 2, 3})
	if st.n != 5 || st.p50 != 3 || st.p99 != 5 {
		t.Errorf("summarize = %+v", st)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median of an even count = %v", m)
	}
	if q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8}); q1 != 2 || q3 != 6 {
		t.Errorf("quartiles = %v, %v", q1, q3)
	}
}

func TestSliceDropRule(t *testing.T) {
	full := latStat{n: 2000, p50: 1, p99: 2}
	thin := latStat{n: minP99Samples - 1, p50: 1, p99: 2}
	control := []winStat{{lat: full}, {lat: full}, {lat: thin}, {lat: latStat{}}}
	target := []winStat{{lat: full}, {lat: thin}, {lat: full}}
	vals, dropped := sliceRatios(target, control, func(l latStat) float64 { return l.p99 }, 2, minP99Samples)
	// slice 0 counts; slice 1 is thin itself; slice 2's flanks are a thin
	// window (which still has a p99) and an empty one: its flank mean is 1.
	if len(vals) != 2 || dropped != 1 || vals[0] != 2 || vals[1] != 4 {
		t.Errorf("kept %v, dropped %d; want 2 and 4 kept and one dropped", vals, dropped)
	}
	if vals, dropped = sliceRatios(target, control, func(l latStat) float64 { return l.p50 }, 1, 1); len(vals) != 3 || dropped != 0 {
		t.Errorf("with no minimum: kept %d, dropped %d", len(vals), dropped)
	}
	empty := []winStat{{}, {}}
	if vals, dropped = sliceRatios(target[:1], empty, func(l latStat) float64 { return l.p99 }, 1, 1); len(vals) != 0 || dropped != 1 {
		t.Errorf("with empty flanks: kept %d, dropped %d; want the slice dropped", len(vals), dropped)
	}
}

// allocs_per_query must not move with the box's speed: what the clock
// charges (fetch tails, idle background) is the same on a slow box, the
// queries to spread it over are fewer.
func TestQueryMallocsTakesOutTheClock(t *testing.T) {
	const perQuery, perFetch, idleRate, seconds, intervals = 160.0, 9600.0, 7000.0, 30.0, 10
	for _, queries := range []float64{110000, 55000} {
		total := perQuery*queries + intervals*perFetch + seconds*idleRate
		raw := total / queries
		got := queryMallocs(total, intervals, seconds, perFetch, idleRate) / queries
		if math.Abs(got-perQuery) > 1e-9 || raw < perQuery+2 {
			t.Errorf("%v queries: %v allocs per query (uncorrected %v), want %v", queries, got, raw, perQuery)
		}
	}
	if got := queryMallocs(100, 1, 1, 200, 0); got != 0 {
		t.Errorf("a correction larger than the total gives %v, want 0", got)
	}
}
