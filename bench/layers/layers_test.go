package layers

import (
	"strings"
	"testing"
	"time"
)

// TestRunSmallFixture runs every probe against a small two-class fixture
// with a stub calibration (no server anywhere) and checks the ledger's
// in-process half for shape: every figure present, sane, and scaled by the
// speed factor the stub reports.
func TestRunSmallFixture(t *testing.T) {
	spec := Spec{Workload: "unit", Classes: 2, Shards: 1, QoS: true, Durable: true,
		Nodes: []string{"n0", "n1", "n2"}, Capacity: 100000, QueueCap: 64, Dir: t.TempDir()}
	for i := 0; i < 40; i++ {
		spec.Workers = append(spec.Workers, Worker{ID: i + 1, Class: i % 2, Intention: -0.2 + 0.03*float64(i)})
	}
	for i := 0; i < 8; i++ {
		spec.Consumers = append(spec.Consumers, Consumer{ID: i + 1, Intention: 0.2 + 0.1*float64(i)})
	}
	calls := 0
	epoch := time.Now()
	out, spans, err := Run(spec, 1, func() (float64, error) { calls++; return 0.5, nil }, epoch)
	if err != nil {
		t.Fatal(err)
	}
	if calls < 2 {
		t.Errorf("calibrated %d times; every probe needs a window before and after", calls)
	}
	for _, name := range []string{
		"gateway.decode_floor_ns", "gateway.encode_floor_ns", "qos.allow_ns", "qos.push_pop_ns",
		"live.submit_await_us", "live.submit_allocs", "live.submit_bytes",
		"directory.candidates_ns", "directory.candidates_mean", "directory.register_ns", "directory.unregister_ns",
		"directory.candidates_after_write_ns", "mediator.mediate_ns", "mediator.mediate_allocs", "mediator.snapshots_ns",
		"mediator.fanout_ns", "mediator.unattributed_share", "knbest.select_ns", "knbest.select_allocs",
		"score.score_rank_ns", "satisfaction.record_ns", "satisfaction.read_ns", "satisfaction.scan_ms",
		"persist.append_ns", "persist.append_allocs", "persist.bytes_per_record", "persist.snapshot_ms", "persist.restore_ms",
		"cluster.owner_ns", "policy.build_ns",
	} {
		m, ok := out[name]
		if !ok {
			t.Errorf("missing %s", name)
			continue
		}
		timed := strings.HasSuffix(name, "_ns") || strings.HasSuffix(name, "_us") || strings.HasSuffix(name, "_ms")
		if timed && (m.Value <= 0 || len(m.Batches) < batches) {
			t.Errorf("%s = %v from %d batches", name, m.Value, len(m.Batches))
		}
	}
	if got := out["directory.candidates_mean"].Value; got != 20 {
		t.Errorf("candidates_mean = %v, want the 20 workers of one class", got)
	}
	if got := out["mediator.mediate_allocs"].Value; got < 1 || got > 20 {
		t.Errorf("mediate_allocs = %v", got)
	}
	if u := out["mediator.unattributed_share"].Value; u >= 1 {
		t.Errorf("unattributed_share = %v", u)
	}
	// One shadow trace is eleven sequential spans with no gaps.
	byTrace := map[string][]Span{}
	for _, s := range spans {
		byTrace[s.Trace] = append(byTrace[s.Trace], s)
	}
	if len(byTrace) != shadowTraces {
		t.Fatalf("%d shadow traces, want %d", len(byTrace), shadowTraces)
	}
	want := []string{"decode", "qos.Allow", "cluster.Owner", "directory.Candidates", "snapshots", "knbest.Select",
		"fan-out", "score+rank", "satisfaction.Record", "persist.Append", "encode"}
	tr := byTrace["shadow-1"]
	if len(tr) != len(want) {
		t.Fatalf("shadow-1 has %d spans, want %d", len(tr), len(want))
	}
	for i, s := range tr {
		if s.Name != want[i] || s.End < s.Start || (i > 0 && s.Start != tr[i-1].End) {
			t.Errorf("span %d = %+v, want %s starting where the last ended", i, s, want[i])
		}
	}
}
