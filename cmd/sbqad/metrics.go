package main

// GET /v1/metrics — the engine's counters in Prometheus text exposition
// format (version 0.0.4), so the daemon is scrapeable without parsing the
// JSON stats endpoint. Hand-rolled writer: the format is three line shapes
// (# HELP, # TYPE, sample), not worth a client-library dependency.

import (
	"fmt"
	"net/http"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"

	"sbqa"
)

// buildVersion resolves the daemon's version from the embedded module build
// info once at startup: the module version when built from a tagged module,
// else the VCS revision, else "dev".
var buildVersion = func() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "dev"
	}
	if v := bi.Main.Version; v != "" && v != "(devel)" {
		return v
	}
	for _, s := range bi.Settings {
		if s.Key == "vcs.revision" && s.Value != "" {
			if len(s.Value) > 12 {
				return s.Value[:12]
			}
			return s.Value
		}
	}
	return "dev"
}()

// metricsWriter accumulates one exposition document.
type metricsWriter struct {
	b strings.Builder
}

// header emits the HELP/TYPE preamble of one metric family.
func (m *metricsWriter) header(name, help, typ string) {
	fmt.Fprintf(&m.b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// labelEscaper escapes a label value the way the text exposition format
// defines: backslash, double quote and line feed, nothing else. (Go's %q
// would also write \t, \x7f or \u00e9, which no Prometheus parser accepts,
// and QoS class names reach the labels unvalidated from PUT /v1/policy.)
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// sample emits one sample line; labels come as alternating key, value.
func (m *metricsWriter) sample(name string, value float64, labels ...string) {
	m.b.WriteString(name)
	if len(labels) > 0 {
		m.b.WriteByte('{')
		for i := 0; i+1 < len(labels); i += 2 {
			if i > 0 {
				m.b.WriteByte(',')
			}
			m.b.WriteString(labels[i])
			m.b.WriteString(`="`)
			_, _ = labelEscaper.WriteString(&m.b, labels[i+1])
			m.b.WriteByte('"')
		}
		m.b.WriteByte('}')
	}
	// %g renders integral values without a decimal point and large
	// counters without loss until 2^53 — fine for scrape counters.
	fmt.Fprintf(&m.b, " %g\n", value)
}

// scalar is one unlabelled metric family — a row of the table a scrape
// renders: every family with exactly one sample is declared as one.
type scalar struct {
	name, help, typ string
	value           float64
}

// scalars emits each row's HELP/TYPE preamble and its sample, in order.
func (m *metricsWriter) scalars(rows ...scalar) {
	for _, r := range rows {
		m.header(r.name, r.help, r.typ)
		m.sample(r.name, r.value)
	}
}

func b2f(v bool) float64 {
	if v {
		return 1
	}
	return 0
}

func (g *gateway) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	m := &metricsWriter{}
	eng := g.engine()
	m.scalars(scalar{"sbqa_ready", "1 once the engine is built and any persisted state is restored.", "gauge", b2f(eng != nil)})
	m.header("sbqa_build_info", "Build identity as labels; the value is always 1.", "gauge")
	m.sample("sbqa_build_info", 1, "version", buildVersion, "go_version", runtime.Version())
	writeRuntimeMetrics(m)
	if eng == nil {
		// Liveness-only document during the restore window: a scraper sees
		// the daemon up but not ready.
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_, _ = w.Write([]byte(m.b.String()))
		return
	}
	st := eng.Stats()

	m.scalars(
		scalar{"sbqa_queries_submitted_total", "Query IDs assigned (including failed mediations).", "counter", float64(st.QueriesSubmitted)},
		scalar{"sbqa_providers", "Providers currently registered in the directory.", "gauge", float64(st.Providers)},
		scalar{"sbqa_consumers", "Consumers currently registered in the directory.", "gauge", float64(st.Consumers)},
		scalar{"sbqa_policy_generation", "Latest accepted policy generation.", "gauge", float64(st.PolicyGeneration)},
		scalar{"sbqa_events_dropped_total", "SSE events dropped for slow subscribers.", "counter", float64(g.hub.droppedEvents())},
	)

	for _, f := range shardFamilies {
		m.header(f.name, f.help, f.typ)
		for i, sh := range st.Shards {
			m.sample(f.name, f.value(sh), "shard", strconv.Itoa(i))
		}
	}

	g.writeQoSMetrics(m, st)

	m.header("sbqa_worker_queue_depth", "Tasks queued per registered worker.", "gauge")
	workerIDs := make([]int, 0, len(st.WorkerQueueDepths))
	for id := range st.WorkerQueueDepths {
		workerIDs = append(workerIDs, int(id))
	}
	sort.Ints(workerIDs)
	for _, id := range workerIDs {
		m.sample("sbqa_worker_queue_depth", float64(st.WorkerQueueDepths[sbqa.ProviderID(id)]), "worker", strconv.Itoa(id))
	}

	if ps := st.Persistence; ps != nil {
		m.scalars(
			scalar{"sbqa_persist_records_appended_total", "Journal records appended.", "counter", float64(ps.RecordsAppended)},
			scalar{"sbqa_persist_records_dropped_total", "Events dropped by the full recorder queue.", "counter", float64(ps.RecordsDropped)},
			scalar{"sbqa_persist_append_errors_total", "Journal records lost to write errors.", "counter", float64(ps.AppendErrors)},
			scalar{"sbqa_persist_syncs_total", "Journal fsyncs.", "counter", float64(ps.Syncs)},
			scalar{"sbqa_persist_snapshots_written_total", "Snapshots written (compactions and the Close flush).", "counter", float64(ps.SnapshotsWritten)},
			scalar{"sbqa_persist_compactions_total", "Background compactions.", "counter", float64(ps.Compactions)},
			scalar{"sbqa_persist_sealed_segments", "Sealed journal segments awaiting compaction.", "gauge", float64(ps.SealedSegments)},
			scalar{"sbqa_persist_queue_depth", "Recorder queue backlog.", "gauge", float64(ps.QueueDepth)},
			scalar{"sbqa_persist_restore_replayed_records", "Journal records replayed by the boot restore.", "gauge", float64(ps.Restore.ReplayedRecords)},
			scalar{"sbqa_persist_restore_snapshot_loaded", "1 when the boot restore loaded a snapshot.", "gauge", b2f(ps.Restore.SnapshotLoaded)},
			scalar{"sbqa_persist_restore_torn_tail", "1 when the boot restore found a torn final journal record.", "gauge", b2f(ps.Restore.TornTail)},
		)
	}

	if tr := eng.Tracer(); tr != nil {
		writeTraceMetrics(m, tr)
	}

	if g.node != nil {
		g.writeClusterMetrics(m)
	}

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write([]byte(m.b.String()))
}

// shardFamilies are the metric families with one sample per shard, in
// document order: each reads one ShardStats field.
var shardFamilies = [...]struct {
	name, help, typ string
	value           func(sbqa.ShardStats) float64
}{
	{"sbqa_shard_mediations_total", "Successful mediations per shard.", "counter",
		func(sh sbqa.ShardStats) float64 { return float64(sh.Mediations) }},
	{"sbqa_shard_rejections_total", "Failed mediations per shard.", "counter",
		func(sh sbqa.ShardStats) float64 { return float64(sh.Rejections) }},
	{"sbqa_shard_dispatch_failures_total", "Allocations not fully delivered per shard.", "counter",
		func(sh sbqa.ShardStats) float64 { return float64(sh.DispatchFailures) }},
	{"sbqa_shard_imputations_total", "Intentions imputed for silent participants per shard.", "counter",
		func(sh sbqa.ShardStats) float64 { return float64(sh.Imputations) }},
	{"sbqa_shard_intention_timeouts_total", "Imputations caused by missed participant deadlines per shard.", "counter",
		func(sh sbqa.ShardStats) float64 { return float64(sh.IntentionTimeouts) }},
	{"sbqa_shard_policy_swaps_total", "Policy generations adopted per shard.", "counter",
		func(sh sbqa.ShardStats) float64 { return float64(sh.PolicySwaps) }},
	{"sbqa_shard_queue_depth", "Asynchronous submission queue backlog per shard.", "gauge",
		func(sh sbqa.ShardStats) float64 { return float64(sh.QueueDepth) }},
	{"sbqa_shard_queue_high_water", "Deepest submission queue backlog observed per shard.", "gauge",
		func(sh sbqa.ShardStats) float64 { return float64(sh.QueueHighWater) }},
	{"sbqa_queue_enqueued_total", "Queries accepted into the submission queue per shard.", "counter",
		func(sh sbqa.ShardStats) float64 { return float64(sh.QueueEnqueued) }},
	{"sbqa_queue_dequeued_total", "Queries handed to mediation from the submission queue per shard.", "counter",
		func(sh sbqa.ShardStats) float64 { return float64(sh.QueueDequeued) }},
	{"sbqa_shard_mean_candidates", "Mean candidate-set size per successful mediation.", "gauge",
		func(sh sbqa.ShardStats) float64 { return sh.MeanCandidates }},
}

// writeRuntimeMetrics appends the Go runtime health gauges — present even
// during the restore window, since runtime pressure is exactly what an
// operator wants to see while a large journal replays.
func writeRuntimeMetrics(m *metricsWriter) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.scalars(
		scalar{"sbqa_go_goroutines", "Goroutines currently running.", "gauge", float64(runtime.NumGoroutine())},
		scalar{"sbqa_go_heap_inuse_bytes", "Heap bytes in in-use spans.", "gauge", float64(ms.HeapInuse)},
		scalar{"sbqa_go_gc_pause_seconds_total", "Cumulative stop-the-world GC pause time.", "counter", float64(ms.PauseTotalNs) / 1e9},
		scalar{"sbqa_runtime_procs", "Ps (GOMAXPROCS) the runtime schedules goroutines on.", "gauge", float64(runtime.GOMAXPROCS(0))},
		scalar{"sbqa_runtime_procs_changes_total", "P count changes made by the daemon's controller.", "counter", float64(daemonProcs.changeCount())},
	)
}

// writeTraceMetrics appends the tracing families: per-stage latency
// histograms fed from the very span endpoints the flight recorder retains
// (metrics and traces share one clock and cannot disagree), plus the
// recorder's own counters.
func writeTraceMetrics(m *metricsWriter, tr *sbqa.TraceRecorder) {
	buckets := sbqa.TraceStageBuckets()
	m.header("sbqa_stage_seconds", "Mediation pipeline stage latency, by stage, from sampled traces.", "histogram")
	for _, s := range tr.StageSnapshots() {
		for i, le := range buckets {
			m.sample("sbqa_stage_seconds_bucket", float64(s.Buckets[i]),
				"stage", s.Stage, "le", strconv.FormatFloat(le, 'g', -1, 64))
		}
		m.sample("sbqa_stage_seconds_bucket", float64(s.Count), "stage", s.Stage, "le", "+Inf")
		m.sample("sbqa_stage_seconds_sum", s.Sum, "stage", s.Stage)
		m.sample("sbqa_stage_seconds_count", float64(s.Count), "stage", s.Stage)
	}

	st := tr.StatsSnapshot()
	m.scalars(
		scalar{"sbqa_traces_started_total", "Traces started (sampled locally or adopted from a forward).", "counter", float64(st.Started)},
		scalar{"sbqa_traces_finished_total", "Traces finished and published to the flight recorder.", "counter", float64(st.Finished)},
		scalar{"sbqa_traces_active", "Traces currently in flight.", "gauge", float64(st.Active)},
		scalar{"sbqa_trace_spans_dropped_total", "Spans dropped past a trace's span cap.", "counter", float64(st.SpansDropped)},
		scalar{"sbqa_traces_evicted_total", "Finished traces evicted from the full flight-recorder ring.", "counter", float64(st.Evicted)},
	)
}

// writeQoSMetrics appends the overload-survival families: sheds by class
// and reason (summed across shards — the class is the operational unit, the
// shard an implementation detail), gateway admission rejections, and the
// current brownout level (every shard runs the same one). Both come from the
// scheduler ledgers the scrape's Stats snapshot already took.
func (g *gateway) writeQoSMetrics(m *metricsWriter, st sbqa.EngineStats) {
	type key struct{ class, reason string }
	shed := make(map[key]uint64)
	for _, sh := range st.Shards {
		for _, cs := range sh.QoS.Classes {
			for reason, n := range cs.Shed {
				shed[key{cs.Name, reason}] += n
			}
		}
	}
	keys := make([]key, 0, len(shed))
	for k := range shed {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].class != keys[j].class {
			return keys[i].class < keys[j].class
		}
		return keys[i].reason < keys[j].reason
	})
	m.header("sbqa_shed_total", "Queries shed by admission control, by class and reason.", "counter")
	for _, k := range keys {
		m.sample("sbqa_shed_total", float64(shed[k]), "class", k.class, "reason", k.reason)
	}
	m.scalars(
		scalar{"sbqa_admission_rejected_total", "Submissions refused by the gateway token buckets (HTTP 429).", "counter", float64(g.admissionRejected.Load())},
		scalar{"sbqa_brownout_level", "Current brownout shed-widening level (0 = none).", "gauge", float64(st.Shards[0].QoS.Brownout)},
	)
}

// writeClusterMetrics appends the sbqa_cluster_* families: peer health as
// a one-hot state gauge, the gateway's forwarding counters and latency,
// and per-follower replication lag.
func (g *gateway) writeClusterMetrics(m *metricsWriter) {
	st := g.node.Status()

	m.scalars(
		scalar{"sbqa_cluster_nodes", "Nodes in the configured (full) ring.", "gauge", float64(len(st.Nodes))},
		scalar{"sbqa_cluster_live_nodes", "Nodes in the live routing ring (Down peers excluded).", "gauge", float64(len(st.Live))},
	)

	m.header("sbqa_cluster_peer_health", "Peer health as seen by this node: 1 for the current state, 0 otherwise.", "gauge")
	for _, p := range st.Peers {
		for _, state := range []string{"alive", "suspect", "down"} {
			m.sample("sbqa_cluster_peer_health", b2f(p.Health == state), "peer", p.ID, "state", state)
		}
	}

	m.header("sbqa_cluster_forwarded_total", "Requests forwarded to their owning node.", "counter")
	m.sample("sbqa_cluster_forwarded_total", float64(g.cmx.fwdQueries.Load()), "kind", "query")
	m.sample("sbqa_cluster_forwarded_total", float64(g.cmx.fwdConsumers.Load()), "kind", "consumer")
	m.scalars(
		scalar{"sbqa_cluster_forward_errors_total", "Forwards that failed in transport.", "counter", float64(g.cmx.fwdErrors.Load())},
		scalar{"sbqa_cluster_forward_seconds_sum", "Total round-trip time of completed forwards.", "counter", float64(g.cmx.fwdLatencyMicro.Load()) / 1e6},
		scalar{"sbqa_cluster_forward_seconds_count", "Completed forwards with a latency observation.", "counter", float64(g.cmx.fwdCompleted.Load())},
		scalar{"sbqa_cluster_not_owner_total", "Forwarded hops refused because this node does not own the consumer.", "counter", float64(g.cmx.notOwner.Load())},
		scalar{"sbqa_cluster_peer_down_total", "Requests refused because the owning peer is down.", "counter", float64(g.cmx.peerDown.Load())},
	)

	// One family per follower counter, each header followed by its samples:
	// the text format wants a family's lines as one group.
	perFollower := func(name, help, typ string, value func(i int) float64) {
		m.header(name, help, typ)
		for i, p := range st.Peers {
			if p.Follower {
				m.sample(name, value(i), "peer", p.ID)
			}
		}
	}
	perFollower("sbqa_cluster_replication_lag_segments", "Sealed WAL segments not yet shipped to a follower.", "gauge",
		func(i int) float64 { return float64(st.Peers[i].LagSegments) })
	perFollower("sbqa_cluster_replication_lag_bytes", "Bytes of WAL (sealed backlog plus active tail) a follower is behind.", "gauge",
		func(i int) float64 { return float64(st.Peers[i].LagBytes) })
	perFollower("sbqa_cluster_shipped_segments_total", "WAL segments shipped to a follower.", "counter",
		func(i int) float64 { return float64(st.Peers[i].Shipped) })
}
