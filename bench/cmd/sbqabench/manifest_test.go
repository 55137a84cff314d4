package main

import (
	"encoding/json"
	"os"
	"slices"
	"strconv"
	"testing"
)

// TestBenchmarkJSONMatchesTheHarness keeps BENCHMARK.json (the contract the
// driver reads) and the harness's own tables from drifting apart.
func TestBenchmarkJSONMatchesTheHarness(t *testing.T) {
	data, err := os.ReadFile("../../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name   string   `json:"name"`
		Why    string   `json:"why"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []entry  `json:"workloads"`
		EndToEnd   []entry  `json:"end_to_end"`
		PerLayer   []entry  `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, harness has %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: %+v, harness has %+v", i, doc.Workloads[i], w)
		}
	}
	compare := func(what string, got []entry, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics, harness has %d", what, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s %d: %+v, harness has %+v", what, i, g, d)
			}
			if bounded && (g.Bound == nil || *g.Bound != d.bound || d.bound <= 0 || d.bound > 0.25) {
				t.Errorf("%s: bound mismatch or out of (0, 0.25]", d.name)
			}
			if !bounded && g.Bound != nil {
				t.Errorf("%s: a per-layer metric has no bound", d.name)
			}
		}
	}
	compare("end_to_end", doc.EndToEnd, endToEnd, true)
	compare("per_layer", doc.PerLayer, perLayer, false)
	if len(doc.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics; the contract allows 128", len(doc.PerLayer))
	}
	if doc.RunSeconds*1000 < int(12*2*sliceLen.Milliseconds()) {
		t.Errorf("run_seconds %d leaves a --trace 1 run fewer than 12+12 slices", doc.RunSeconds)
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "bench" || len(doc.Command) < 2 || doc.Command[1] != "bench/run.sh" {
		t.Errorf("command %v paths %v", doc.Command, doc.Paths)
	}
	// The control nominals are fixed in BENCHMARK.json, as arguments of the
	// command; the harness's defaults must be the same numbers.
	want := []string{
		"--control-qps", strconv.FormatFloat(nominal.qps, 'g', -1, 64),
		"--control-p50-ms", strconv.FormatFloat(nominal.p50MS, 'g', -1, 64),
		"--control-p99-ms", strconv.FormatFloat(nominal.p99MS, 'g', -1, 64),
	}
	if !slices.Equal(doc.Command[2:], want) {
		t.Errorf("command carries the nominals %v, harness defaults are %v", doc.Command[2:], want)
	}
}
