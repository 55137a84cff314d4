package main

// The layer ledger: everything the benchmark reports about single layers.
// It has two sources, both outside sbqad's code: the daemon's existing HTTP
// surfaces (/v1/stats, /v1/metrics, /v1/debug/traces) read around a second,
// traced run, and the in-process probes of bench/layers.

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"sort"
	"time"

	"sbqa/bench/layers"
)

// perLayer lists the ledger's metrics with their units, in report order.
// BENCHMARK.json's per_layer block names the same set.
var perLayer = []metricDef{
	{name: "gateway.wire_overhead_us", unit: "us", better: "lower"},
	{name: "gateway.allocs_per_query", unit: "count", better: "lower"},
	{name: "gateway.request_bytes", unit: "B", better: "lower"},
	{name: "gateway.response_bytes", unit: "B", better: "lower"},
	{name: "gateway.decode_floor_ns", unit: "ns", better: "lower"},
	{name: "gateway.encode_floor_ns", unit: "ns", better: "lower"},
	{name: "gateway.register_worker_us", unit: "us", better: "lower"},
	{name: "gateway.stats_scrape_ms", unit: "ms", better: "lower"},
	{name: "gateway.policy_put_ms", unit: "ms", better: "lower"},
	{name: "qos.allow_ns", unit: "ns", better: "lower"},
	{name: "qos.push_pop_ns", unit: "ns", better: "lower"},
	{name: "qos.queue_high_water", unit: "count", better: "lower"},
	{name: "qos.shed_count", unit: "count", better: "lower"},
	{name: "qos.admission_rejected", unit: "count", better: "lower"},
	{name: "live.submit_await_us", unit: "us", better: "lower"},
	{name: "live.submit_allocs", unit: "count", better: "lower"},
	{name: "live.submit_bytes", unit: "B", better: "lower"},
	{name: "directory.candidates_ns", unit: "ns", better: "lower"},
	{name: "directory.candidates_mean", unit: "count", better: "lower"},
	{name: "directory.register_ns", unit: "ns", better: "lower"},
	{name: "directory.unregister_ns", unit: "ns", better: "lower"},
	{name: "directory.candidates_after_write_ns", unit: "ns", better: "lower"},
	{name: "mediator.mediate_ns", unit: "ns", better: "lower"},
	{name: "mediator.mediate_allocs", unit: "count", better: "lower"},
	{name: "mediator.snapshots_ns", unit: "ns", better: "lower"},
	{name: "mediator.fanout_ns", unit: "ns", better: "lower"},
	{name: "mediator.unattributed_share", unit: "share", better: "lower"},
	{name: "knbest.select_ns", unit: "ns", better: "lower"},
	{name: "knbest.select_allocs", unit: "count", better: "lower"},
	{name: "score.score_rank_ns", unit: "ns", better: "lower"},
	{name: "satisfaction.record_ns", unit: "ns", better: "lower"},
	{name: "satisfaction.read_ns", unit: "ns", better: "lower"},
	{name: "satisfaction.scan_ms", unit: "ms", better: "lower"},
	{name: "satisfaction.consumer_mean", unit: "share", better: "higher"},
	{name: "persist.append_ns", unit: "ns", better: "lower"},
	{name: "persist.append_allocs", unit: "count", better: "lower"},
	{name: "persist.bytes_per_record", unit: "B", better: "lower"},
	{name: "persist.fsyncs_per_kquery", unit: "count", better: "lower"},
	{name: "persist.records_dropped", unit: "count", better: "lower"},
	{name: "persist.snapshot_ms", unit: "ms", better: "lower"},
	{name: "persist.restore_ms", unit: "ms", better: "lower"},
	{name: "cluster.owner_ns", unit: "ns", better: "lower"},
	{name: "cluster.forwarded_share", unit: "share", better: "lower"},
	{name: "cluster.forward_hop_us", unit: "us", better: "lower"},
	{name: "cluster.forward_errors", unit: "count", better: "lower"},
	{name: "cluster.replicated_segments", unit: "count", better: "higher"},
	{name: "trace.overhead_share", unit: "share", better: "lower"},
	{name: "trace.stage.admission_us", unit: "us", better: "lower"},
	{name: "trace.stage.queue_us", unit: "us", better: "lower"},
	{name: "trace.stage.fanout_us", unit: "us", better: "lower"},
	{name: "trace.stage.scoring_us", unit: "us", better: "lower"},
	{name: "trace.stage.dispatch_us", unit: "us", better: "lower"},
	{name: "trace.stage.forward_us", unit: "us", better: "lower"},
	{name: "policy.build_ns", unit: "ns", better: "lower"},
	{name: "policy.reconfigure_ms", unit: "ms", better: "lower"},
	{name: "harness.speed_factor", unit: "ratio", better: "higher"},
	{name: "harness.speed_spread", unit: "share", better: "lower"},
	{name: "harness.raw_setup_s", unit: "s", better: "lower"},
	{name: "harness.raw_throughput_qps", unit: "1/s", better: "higher"},
	{name: "harness.raw_latency_p50_ms", unit: "ms", better: "lower"},
	{name: "harness.raw_latency_p99_ms", unit: "ms", better: "lower"},
	{name: "harness.raw_cpu_us_per_query", unit: "us", better: "lower"},
	{name: "harness.client_cpu_share", unit: "share", better: "lower"},
	{name: "harness.samples", unit: "count", better: "higher"},
	{name: "harness.slices_dropped", unit: "count", better: "lower"},
	{name: "harness.tmpfs", unit: "count", better: "lower"},
}

// untraced carries what the measured (untraced) phase learned into the
// ledger.
type untraced struct {
	phase          phase
	setup          setupResult
	admin          adminTimes
	stats          []*statsDoc
	metricsDocs    [][]byte // per node
	tally          tally
	allocsPerQuery float64
	p50ms          float64
	reqBytes       float64 // mean HTTP request bytes per op
	respBytes      float64
}

// traceDoc is the part of GET /v1/debug/traces the ledger reads.
type traceDoc struct {
	Traces []struct {
		Spans []struct {
			Name    string `json:"name"`
			StartNS int64  `json:"start_ns"`
			EndNS   int64  `json:"end_ns"`
		} `json:"spans"`
	} `json:"traces"`
}

// sbqad's own stage names, keyed by the ledger's.
var traceStages = [][2]string{
	{"admission", "admission"}, {"queue", "queue"}, {"fanout", "fanout"},
	{"scoring", "score"}, {"dispatch", "dispatch"}, {"forward", "forward"},
}

const traceBuffer = 8192

func runLayers(bin binaries, fx *fixture, seed uint64, ctrl *endpoint, o runOpts, ut untraced, res *workloadResult) error {
	epoch := time.Now()

	// The traced run: a second sbqad, tracing every query.
	t, err := bootTarget(bin, fx, seed, "traced", "-trace-sample", "1", "-trace-buffer", fmt.Sprint(traceBuffer))
	if err != nil {
		return err
	}
	defer func() {
		if t != nil {
			t.kill()
		}
	}()
	if _, err := runWindow(t.ep, tracedWarmup); err != nil {
		return fmt.Errorf("traced warm-up: %w", err)
	}
	var spans []span
	var hop [2][]float64
	t.ep.spans, t.ep.epoch, t.ep.fwdLat = &spans, epoch, &hop
	ph, err := runSlices(t.ep, ctrl, o.traced, nil)
	if err != nil {
		return fmt.Errorf("traced phase: %w", err)
	}
	t.ep.spans, t.ep.fwdLat = nil, nil
	stage := map[string][]float64{}
	for i := range t.procs {
		body, err := t.get(i, fmt.Sprintf("/v1/debug/traces?limit=%d", traceBuffer))
		if err != nil {
			return err
		}
		var doc traceDoc
		if err := json.Unmarshal(body, &doc); err != nil {
			return fmt.Errorf("n%d /v1/debug/traces: %w", i, err)
		}
		for _, tr := range doc.Traces {
			for _, sp := range tr.Spans {
				stage[sp.Name] = append(stage[sp.Name], float64(sp.EndNS-sp.StartNS)/1e3)
			}
		}
	}
	if len(stage["score"]) == 0 {
		return fmt.Errorf("traced sbqad recorded no score span")
	}
	if _, err := verifyTarget(t); err != nil {
		return fmt.Errorf("traced run: %w", err)
	}
	stopErr := t.stop()
	t = nil
	if stopErr != nil {
		return stopErr
	}
	sTraced := speedFactor(ph.control)

	// The in-process probes, calibrated by their own control windows.
	spec := layers.Spec{
		Workload: fx.name, Classes: fx.classes, Shards: fx.shards, QoS: fx.qos, Nodes: fx.nodeIDs,
		Durable: fx.durable, Capacity: workerCapacity, QueueCap: workerQueueCap, Dir: filepath.Join(bin.out, "state"),
	}
	for _, w := range fx.workers {
		if w.Node == 0 {
			spec.Workers = append(spec.Workers, layers.Worker{ID: w.ID, Class: w.Class, Intention: w.Intention})
		}
	}
	for _, c := range fx.consumers {
		spec.Consumers = append(spec.Consumers, layers.Consumer{ID: c.ID, Intention: c.Intention})
	}
	probes, shadow, err := layers.Run(spec, seed, func() (float64, error) {
		w, err := runWindow(ctrl, controlWindow)
		return w.qps() / nominal.qps, err
	}, epoch)
	if err != nil {
		return fmt.Errorf("layer probes: %w", err)
	}
	for name, m := range probes {
		res.set(name, m.Unit, m.Value, m.Batches)
	}
	for _, s := range shadow {
		spans = append(spans, span{Trace: s.Trace, Name: s.Name, Parent: s.Parent, Start: s.Start, End: s.End})
	}
	if err := writeSpans(filepath.Join(bin.out, fx.name+".trace.jsonl"), spans); err != nil {
		return err
	}

	// gateway: what the wire adds on top of the engine.
	res.set("gateway.wire_overhead_us", "us", ut.p50ms*1e3-probes["live.submit_await_us"].Value, nil)
	res.set("gateway.allocs_per_query", "count", ut.allocsPerQuery-probes["live.submit_allocs"].Value, nil)
	res.set("gateway.request_bytes", "B", ut.reqBytes, nil)
	res.set("gateway.response_bytes", "B", ut.respBytes, nil)
	res.set("gateway.register_worker_us", "us", median(ut.setup.regUS), ut.setup.regUS)
	res.set("gateway.stats_scrape_ms", "ms", ut.admin.statsScrapeMS, nil)
	res.set("gateway.policy_put_ms", "ms", ut.admin.policyPutMS, nil)
	res.set("policy.reconfigure_ms", "ms", ut.admin.reconfigureMS, nil)

	// qos, persist, cluster: the daemon's own counters at the end of the
	// untraced run (0 where the workload leaves the layer off).
	var highWater int
	var shed, syncs, dropped, mediations uint64
	for _, st := range ut.stats {
		mediations += st.mediations()
		for _, sh := range st.Shards {
			highWater = max(highWater, sh.QueueHighWater)
			shed += sh.QueueShed
		}
		if st.Persistence != nil {
			syncs += st.Persistence.Syncs
			dropped += st.Persistence.RecordsDropped
		}
	}
	res.set("qos.queue_high_water", "count", float64(highWater), nil)
	res.set("qos.shed_count", "count", float64(shed), nil)
	res.set("qos.admission_rejected", "count", float64(ut.stats[0].AdmissionRejected), nil)
	res.set("persist.fsyncs_per_kquery", "count", 1000*float64(syncs)/float64(max(mediations, 1)), nil)
	res.set("persist.records_dropped", "count", float64(dropped), nil)
	var shipped, fwdErrors float64
	for _, doc := range ut.metricsDocs {
		shipped += promSum(doc, "sbqa_cluster_shipped_segments_total")
		fwdErrors += promSum(doc, "sbqa_cluster_forward_errors_total")
	}
	res.set("cluster.forwarded_share", "share", float64(ut.tally.forwarded)/float64(max(ut.tally.okQueries, 1)), nil)
	res.set("cluster.forward_errors", "count", fwdErrors, nil)
	res.set("cluster.replicated_segments", "count", shipped, nil)
	hopUS := 0.0
	if len(hop[0]) > 0 && len(hop[1]) > 0 {
		sort.Float64s(hop[0])
		sort.Float64s(hop[1])
		hopUS = (percentile(hop[1], 0.5) - percentile(hop[0], 0.5)) * 1e3 * sTraced
	}
	res.set("cluster.forward_hop_us", "us", hopUS, nil)

	// trace: what observing costs, and sbqad's own stage split.
	res.set("trace.overhead_share", "share", 1-calibratedRate(ph.target, ph.control)/calibratedRate(ut.phase.target, ut.phase.control), nil)
	for _, names := range traceStages {
		v := stage[names[1]]
		sort.Float64s(v)
		p50 := 0.0
		if len(v) > 0 {
			p50 = percentile(v, 0.5) * sTraced
		}
		res.set("trace.stage."+names[0]+"_us", "us", p50, nil)
	}
	for _, d := range perLayer {
		if _, ok := res.Metrics[d.name]; !ok {
			return fmt.Errorf("ledger is missing %s", d.name)
		}
	}
	return nil
}
