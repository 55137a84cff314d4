package metrics

import (
	"math"
	"strings"
	"testing"

	"sbqa/internal/model"
)

func TestCollectorCounters(t *testing.T) {
	c := NewCollector()
	c.Issued = 10
	c.Completed = 8
	c.Unallocated = 2
	if got := c.Throughput(4); got != 2 {
		t.Errorf("Throughput = %v", got)
	}
	if got := c.Throughput(0); got != 0 {
		t.Errorf("Throughput(0) = %v", got)
	}
}

func TestCollectorDepartures(t *testing.T) {
	c := NewCollector()
	c.RecordDeparture(Departure{Time: 5, Provider: 3, Consumer: model.NoConsumer, Satisfaction: 0.2})
	c.RecordDeparture(Departure{Time: 2, Consumer: 1, Provider: model.NoProvider, Satisfaction: 0.4})
	c.RecordDeparture(Departure{Time: 9, Provider: 7, Consumer: model.NoConsumer, Satisfaction: 0.1})
	if got := c.ProviderDepartures(); got != 2 {
		t.Errorf("ProviderDepartures = %d", got)
	}
	if got := c.ConsumerDepartures(); got != 1 {
		t.Errorf("ConsumerDepartures = %d", got)
	}
	SortDepartures(c.Departures)
	if c.Departures[0].Time != 2 || c.Departures[2].Time != 9 {
		t.Errorf("not sorted: %+v", c.Departures)
	}
}

func TestAddSampleAndSummarize(t *testing.T) {
	c := NewCollector()
	c.ResponseTime.Add(1)
	c.ResponseTime.Add(3)
	c.MediationContacts.Add(10)
	c.Completed = 2
	c.Issued = 2
	for i := 0; i < 4; i++ {
		c.AddSample(Sample{
			T:               float64(i * 10),
			ConsumerSats:    []float64{0.5, 0.7},
			ProviderSats:    []float64{0.4, 0.6, 0.8},
			Utilizations:    []float64{0.3, 0.5},
			PendingWork:     []float64{1, 1},
			OnlineProviders: 3,
			OnlineConsumers: 2,
		})
	}
	r := c.Summarize("SbQA", 40, 0.25)
	if r.Technique != "SbQA" {
		t.Errorf("Technique = %q", r.Technique)
	}
	if math.Abs(r.MeanResponseTime-2) > 1e-12 {
		t.Errorf("MeanResponseTime = %v", r.MeanResponseTime)
	}
	if math.Abs(r.ConsumerSat-0.6) > 1e-12 {
		t.Errorf("ConsumerSat = %v", r.ConsumerSat)
	}
	if math.Abs(r.ProviderSat-0.6) > 1e-12 {
		t.Errorf("ProviderSat = %v", r.ProviderSat)
	}
	if cmin, pmin := c.ConsumerSatMin.TailMean(0.25), c.ProviderSatMin.TailMean(0.25); math.Abs(cmin-0.5) > 1e-12 || math.Abs(pmin-0.4) > 1e-12 {
		t.Errorf("mins = %v/%v", cmin, pmin)
	}
	if r.OnlineAtEnd != 3 {
		t.Errorf("OnlineAtEnd = %v", r.OnlineAtEnd)
	}
	if math.Abs(r.Throughput-0.05) > 1e-12 {
		t.Errorf("Throughput = %v", r.Throughput)
	}
	if r.MeanContacts != 10 {
		t.Errorf("MeanContacts = %v", r.MeanContacts)
	}
	// Degenerate tail repaired.
	r2 := c.Summarize("x", 40, 0)
	if r2.ConsumerSat == 0 {
		t.Error("tail repair failed")
	}
}

func TestWriteSeriesCSV(t *testing.T) {
	c := NewCollector()
	c.AddSample(Sample{T: 0, ConsumerSats: []float64{1}, ProviderSats: []float64{1}})
	c.AddSample(Sample{T: 1, ConsumerSats: []float64{0.5}, ProviderSats: []float64{0.5}})
	var sb strings.Builder
	if err := c.WriteSeriesCSV(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "consumer_sat") || !strings.Contains(out, "online_providers") {
		t.Errorf("missing headers: %q", out)
	}
	if len(strings.Split(strings.TrimSpace(out), "\n")) != 3 {
		t.Errorf("want header + 2 rows, got %q", out)
	}
}

func TestResultTableRender(t *testing.T) {
	results := []Result{
		{Technique: "Capacity", MeanResponseTime: 1.5, ConsumerSat: 0.5},
		{Technique: "SbQA", MeanResponseTime: 1.8, ConsumerSat: 0.8},
	}
	table := ResultTable("Scenario 3", results)
	out := table.String()
	if !strings.Contains(out, "Scenario 3") {
		t.Errorf("missing title: %q", out)
	}
	if !strings.Contains(out, "Capacity") || !strings.Contains(out, "SbQA") {
		t.Errorf("missing rows: %q", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Errorf("want 5 lines, got %d: %q", len(lines), out)
	}
	// Columns aligned: header and separator equal length.
	if len(lines[1]) != len(lines[2]) {
		t.Errorf("misaligned table:\n%s", out)
	}
}

func TestEmptyTableRender(t *testing.T) {
	table := &Table{Columns: []string{"a", "b"}}
	out := table.String()
	if !strings.Contains(out, "a") {
		t.Errorf("header missing: %q", out)
	}
}
