package main

// The calibration. This box's raw speed drifts by up to 2x on every
// timescale from seconds to minutes (README "Noise study"), so no raw
// timing is reported. Target windows alternate with windows against the
// frozen control server; each timing is the ratio to the control's matching
// statistic, multiplied by a nominal constant recorded once from a quiet
// run. The result reads as "what this would measure at reference speed".

import (
	"math"
	"sort"
)

// nominal holds the control's nominal statistics: the reference speed.
// Recorded once from a quiet run of bench/control on the 2-vCPU box the
// benchmark was built on (two closed-loop connections), and never changed:
// they only fix the scale of the reported numbers. BENCHMARK.json fixes them
// as arguments of its command (-control-qps, -control-p50-ms,
// -control-p99-ms); the values here are the flags' defaults, for a run by
// hand, and manifest_test.go holds the two equal. Editing them, like editing
// bench/control, is a re-baseline.
var nominal = struct {
	qps   float64 // requests per second
	p50MS float64 // milliseconds
	p99MS float64 // milliseconds
}{13500, 0.120, 0.50}

// minP99Samples is the fewest latency samples a slice needs for its p99 to
// have ten samples beyond it.
const minP99Samples = 1000

// latStat summarises one window's latency samples.
type latStat struct {
	n        int
	p50, p99 float64 // milliseconds
}

// winStat is what one load window (target or control) measured.
type winStat struct {
	elapsed   float64 // seconds
	ok        int     // OK query submits (target) or OK requests (control)
	attempted int     // every op
	failed    int     // every op that was refused or errored
	lat       latStat
	cpuNS     int64   // server on-CPU time across the window (target only)
	clientCPU float64 // generator CPU seconds across the window
}

func (w winStat) qps() float64 { return float64(w.ok) / w.elapsed }

// percentile returns the nearest-rank q-quantile of sorted (ascending).
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// summarize sorts samples (milliseconds) in place and returns their stats.
func summarize(samples []float64) latStat {
	if len(samples) == 0 {
		return latStat{}
	}
	sort.Float64s(samples)
	return latStat{n: len(samples), p50: percentile(samples, 0.50), p99: percentile(samples, 0.99)}
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quartiles returns the first and third quartile (nearest rank).
func quartiles(v []float64) (q1, q3 float64) {
	if len(v) == 0 {
		return math.NaN(), math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return percentile(s, 0.25), percentile(s, 0.75)
}

// sumRate is Σ ok / Σ elapsed over a set of windows.
func sumRate(ws []winStat) float64 {
	var ok int
	var el float64
	for _, w := range ws {
		ok += w.ok
		el += w.elapsed
	}
	if el == 0 {
		return math.NaN()
	}
	return float64(ok) / el
}

// speedFactor is how fast the box ran relative to reference speed while the
// given control windows were measured (1 = reference, 0.5 = half speed).
// Durations and CPU times multiplied by it read as at reference speed.
func speedFactor(control []winStat) float64 {
	return sumRate(control) / nominal.qps
}

// calibratedRate is the ratio-of-sums throughput estimator:
// (Σ target OK / Σ target time) / (Σ control OK / Σ control time) × C_qps.
// Of the forms tried it was the tightest (README).
func calibratedRate(target, control []winStat) float64 {
	return sumRate(target) / sumRate(control) * nominal.qps
}

// sliceRatios returns, per target slice i, pick(target[i]) divided by the
// mean pick of its two flanking control windows control[i] and control[i+1],
// times scale. Slices with fewer than minSamples samples are dropped and
// counted. control must hold len(target)+1 windows.
func sliceRatios(target, control []winStat, pick func(latStat) float64, scale float64, minSamples int) (vals []float64, dropped int) {
	for i, t := range target {
		flank := (pick(control[i].lat) + pick(control[i+1].lat)) / 2
		if t.lat.n < minSamples || !(flank > 0) {
			dropped++
			continue
		}
		vals = append(vals, pick(t.lat)/flank*scale)
	}
	return vals, dropped
}

// sliceRates is the per-slice form of calibratedRate, kept for the
// quartiles in result.json and for harness.speed_spread.
func sliceRates(target, control []winStat) []float64 {
	vals := make([]float64, 0, len(target))
	for i, t := range target {
		flank := (control[i].qps() + control[i+1].qps()) / 2
		vals = append(vals, t.qps()/flank*nominal.qps)
	}
	return vals
}

// iqrShare is (Q3 − Q1) / median.
func iqrShare(v []float64) float64 {
	q1, q3 := quartiles(v)
	return (q3 - q1) / median(v)
}
