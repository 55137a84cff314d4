package main

// runWorkload strings the phases of one workload together and turns what
// they measured into named metrics.

import (
	"fmt"
	"math"
	"path/filepath"
	"sort"
	"time"
)

// metricDef names one metric of BENCHMARK.json.
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end only
}

// endToEnd lists the gated metrics. The bounds are shares of the parent's
// median (the contract's form): ok_share's 0.001 stands for the issue's
// absolute −0.001 and provider_sat_mean's 0.06 for its ±0.02 (the mean sits
// between 0.28 and 0.39).
//
// The timing bounds are wider than the issue's 10 %. The driver refuses a
// benchmark whose spread over ten seeds exceeds a metric's bound or whose
// medians move by more than it between two sets, and its time limit caps a
// run at 40 slices. At that length this box, in an hour at 0.7 x reference
// speed, spread throughput 6 %, p50 and CPU 13 % and p99 18 %, and moved the
// set-up medians by 16 % against an hour at 1.25 x: 10 % would have been
// refused on eight counts (README, "What the calibration achieves").
// setup_s has the widest bound the contract allows, as the contract asks.
//
// The issue's tenth, consumer_sat_mean, is reported in the ledger as
// satisfaction.consumer_mean and not gated: on these fixtures it cannot see
// an allocation change (README, "End-to-end metrics").
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_qps", "1/s", "higher", 0.15},
	{"latency_p50_ms", "ms", "lower", 0.20},
	{"latency_p99_ms", "ms", "lower", 0.25},
	{"cpu_us_per_query", "us", "lower", 0.20},
	{"allocs_per_query", "count", "lower", 0.03},
	{"ok_share", "share", "higher", 0.001},
	{"rss_mb", "MB", "lower", 0.10},
	{"provider_sat_mean", "share", "higher", 0.06},
}

// metric is one reported number with the spread of what it summarises.
type metric struct {
	Value   float64  `json:"value"`
	Unit    string   `json:"unit"`
	Samples int      `json:"samples"`
	Q1      float64  `json:"q1"`
	Q3      float64  `json:"q3"`
	Bound   *float64 `json:"bound,omitempty"`
}

type workloadResult struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *workloadResult) set(name, unit string, value float64, from []float64) {
	m := metric{Value: value, Unit: unit, Samples: len(from), Q1: value, Q3: value}
	if len(from) > 0 {
		m.Q1, m.Q3 = quartiles(from)
	} else {
		m.Samples = 1
	}
	r.Metrics[name] = m
}

// runOpts selects what a run measures.
type runOpts struct {
	slices int  // measured (untraced) slices
	e2e    bool // full set-up cycles and the end-to-end metrics
	layers bool // traced phase, probes and the per-layer ledger
	traced int  // traced slices (layers only)
	quick  bool // one set-up cycle
}

func runWorkload(bin binaries, name string, seed uint64, o runOpts) (res *workloadResult, err error) {
	fx, err := newFixture(name, seed)
	if err != nil {
		return nil, err
	}
	res = &workloadResult{Workload: name, Seed: seed, Metrics: map[string]metric{}}

	ctrlProc, ctrl, err := startControl(bin)
	if err != nil {
		return nil, err
	}
	defer ctrlProc.kill()

	t, setup, err := runSetup(bin, fx, seed, ctrl, o.e2e && !o.quick)
	if err != nil {
		return nil, err
	}
	defer func() {
		if t != nil {
			t.kill()
		}
	}()

	if _, err := runWindow(t.ep, warmup); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	sampler := &satisfactionSampler{t: t}
	if err := sampler.start(); err != nil {
		return nil, err
	}
	out0, in0 := t.ep.wireBytes()
	ph, err := runSlices(t.ep, ctrl, o.slices, sampler.read)
	if err != nil {
		return nil, fmt.Errorf("measured phase: %w", err)
	}
	out1, in1 := t.ep.wireBytes()
	if err := sampler.finish(ctrl); err != nil {
		return nil, err
	}
	var admin adminTimes
	if o.layers {
		if admin, err = measureAdmin(t, ctrl); err != nil {
			return nil, err
		}
	}
	stats, err := verifyTarget(t)
	if err != nil {
		return nil, err
	}
	rss, err := t.rssMB()
	if err != nil {
		return nil, err
	}
	metricsDocs := make([][]byte, len(t.procs))
	for i := range t.procs {
		if metricsDocs[i], err = t.get(i, "/v1/metrics"); err != nil {
			return nil, err
		}
	}
	runTally := t.tally
	tmpfs := onTmpfs(filepath.Join(bin.out, "state")) // every -state-dir is created under it
	stopErr := t.stop()
	t = nil
	if stopErr != nil {
		return nil, stopErr
	}

	var okQ, attempted, failed int
	var cpuNS int64
	var targetTime, clientCPU float64
	for _, w := range ph.target {
		okQ += w.ok
		attempted += w.attempted
		failed += w.failed
		cpuNS += w.cpuNS
		targetTime += w.elapsed
		clientCPU += w.clientCPU
	}
	if okQ == 0 {
		return nil, fmt.Errorf("measured phase completed no query")
	}
	res.Attempted, res.Failed = attempted, failed
	s := speedFactor(ph.control)
	rates := sliceRates(ph.target, ph.control)
	p50s, _ := sliceRatios(ph.target, ph.control, func(l latStat) float64 { return l.p50 }, nominal.p50MS, 1)
	p99s, dropped := sliceRatios(ph.target, ph.control, func(l latStat) float64 { return l.p99 }, nominal.p99MS, minP99Samples)
	if len(p99s) == 0 {
		// A box so slow that no slice reaches 1,000 samples (a fifth of
		// reference speed on wide_directory) still owes the driver a number:
		// the run reports over every slice, and slices_dropped, equal to the
		// slice count, says so.
		p99s, _ = sliceRatios(ph.target, ph.control, func(l latStat) float64 { return l.p99 }, nominal.p99MS, 1)
	}
	rawCPU := float64(cpuNS) / 1e3 / float64(okQ)
	var rawP50, rawP99 []float64
	samples := 0
	for _, w := range ph.target {
		rawP50 = append(rawP50, w.lat.p50)
		rawP99 = append(rawP99, w.lat.p99)
		samples += w.lat.n
	}
	sampler.add(stats)
	satC, satP := sampler.means()
	allocsPerQuery := sampler.queryMallocs() / float64(okQ)

	if o.e2e {
		res.set("setup_s", "s", median(setup.cycles), setup.cycles)
		res.set("throughput_qps", "1/s", calibratedRate(ph.target, ph.control), rates)
		res.set("latency_p50_ms", "ms", median(p50s), p50s)
		res.set("latency_p99_ms", "ms", median(p99s), p99s)
		res.set("cpu_us_per_query", "us", rawCPU*s, nil)
		res.set("allocs_per_query", "count", allocsPerQuery, nil)
		res.set("ok_share", "share", float64(attempted-failed)/float64(attempted), nil)
		res.set("rss_mb", "MB", rss, nil)
		res.set("provider_sat_mean", "share", satP, nil)
		for _, d := range endToEnd {
			m := res.Metrics[d.name]
			if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				return nil, fmt.Errorf("%s/%s is not a number", name, d.name)
			}
			b := d.bound
			m.Bound = &b
			res.Metrics[d.name] = m
		}
	}

	// The harness's own diagnostics ride with either group: they explain a
	// surprising run and are never gated.
	var ctlRates []float64
	for _, w := range ph.control {
		ctlRates = append(ctlRates, w.qps())
	}
	res.set("satisfaction.consumer_mean", "share", satC, nil)
	res.set("harness.speed_factor", "ratio", s, nil)
	res.set("harness.speed_spread", "share", iqrShare(ctlRates), ctlRates)
	res.set("harness.raw_setup_s", "s", median(setup.raw), setup.raw)
	res.set("harness.raw_throughput_qps", "1/s", float64(okQ)/targetTime, nil)
	res.set("harness.raw_latency_p50_ms", "ms", median(rawP50), rawP50)
	res.set("harness.raw_latency_p99_ms", "ms", median(rawP99), rawP99)
	res.set("harness.raw_cpu_us_per_query", "us", rawCPU, nil)
	res.set("harness.client_cpu_share", "share", clientCPU/(clientCPU+float64(cpuNS)/1e9), nil)
	res.set("harness.samples", "count", float64(samples), nil)
	res.set("harness.slices_dropped", "count", float64(dropped), nil)
	res.set("harness.tmpfs", "count", b2f(tmpfs), nil)

	if o.layers {
		ut := untraced{
			phase: ph, setup: setup, admin: admin, stats: stats, metricsDocs: metricsDocs, tally: runTally,
			allocsPerQuery: allocsPerQuery,
			p50ms:          median(p50s),
			reqBytes:       float64(out1-out0) / float64(attempted),
			respBytes:      float64(in1-in0) / float64(attempted),
		}
		if err := runLayers(bin, fx, seed, ctrl, o, ut, res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// adminTimes holds the calibrated cost of the two control-plane calls the
// gateway ledger reports.
type adminTimes struct {
	statsScrapeMS, policyPutMS, reconfigureMS float64
}

// measureAdmin times GET /v1/stats and PUT /v1/policy against the warm
// target, between two control windows. The PUT re-asserts the boot policy's
// tunables, so it changes no behaviour; reconfigure is the PUT plus the wait
// until every shard reports the new generation (shards adopt lazily, so a
// query per consumer shard is pushed through).
func measureAdmin(t *target, ctrl *endpoint) (adminTimes, error) {
	var at adminTimes
	c0, err := runWindow(ctrl, controlWindow)
	if err != nil {
		return at, err
	}
	const reps = 5
	var scrape, put, reconf []float64
	policy := []byte(`{"name":"bench","kind":"sbqa","k":20,"kn":10,"seed":1}`)
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if _, err := t.get(0, "/v1/stats"); err != nil {
			return at, err
		}
		scrape = append(scrape, msSince(t0))
		t0 = time.Now()
		status, body, err := t.admin[0].do("PUT", "/v1/policy", policy)
		if err != nil || status != 200 {
			return at, fmt.Errorf("PUT /v1/policy: status %d %.120q %v", status, body, err)
		}
		put = append(put, msSince(t0))
		if err := t.awaitGeneration(); err != nil {
			return at, err
		}
		reconf = append(reconf, msSince(t0))
	}
	c1, err := runWindow(ctrl, controlWindow)
	if err != nil {
		return at, err
	}
	s := speedFactor([]winStat{c0, c1})
	at.statsScrapeMS = median(scrape) * s
	at.policyPutMS = median(put) * s
	at.reconfigureMS = median(reconf) * s
	return at, nil
}

func msSince(t0 time.Time) float64 { return float64(time.Since(t0)) / float64(time.Millisecond) }

// awaitGeneration pushes one query per generator stream through n0 until
// every shard of n0 runs the latest policy generation.
func (t *target) awaitGeneration() error {
	deadline := time.Now().Add(5 * time.Second)
	for {
		body, err := t.get(0, "/v1/stats")
		if err != nil {
			return err
		}
		st, err := parseStats(body)
		if err != nil {
			return err
		}
		adopted := true
		for _, sh := range st.Shards {
			adopted = adopted && sh.PolicyGen == st.PolicyGeneration
		}
		if adopted {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("shards did not adopt policy generation %d", st.PolicyGeneration)
		}
		if _, err := runWindow(t.ep, 2*time.Millisecond); err != nil {
			return err
		}
	}
}

// sortedNames returns the metric names of r: end-to-end first in their
// declared order, then the rest alphabetically.
func (r *workloadResult) sortedNames() []string {
	var names []string
	seen := map[string]bool{}
	for _, d := range endToEnd {
		if _, ok := r.Metrics[d.name]; ok {
			names = append(names, d.name)
			seen[d.name] = true
		}
	}
	var rest []string
	for n := range r.Metrics {
		if !seen[n] {
			rest = append(rest, n)
		}
	}
	sort.Strings(rest)
	return append(names, rest...)
}
