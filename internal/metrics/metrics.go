// Package metrics collects the measurements the SbQA experiments report:
// response times, throughput, participants' satisfaction over time, load
// balance, fairness, and departures — and renders them as the tables and
// CSV series EXPERIMENTS.md records.
package metrics

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"sbqa/internal/model"
	"sbqa/internal/stats"
)

// Departure records one participant leaving the system by dissatisfaction.
type Departure struct {
	Time         float64
	Consumer     model.ConsumerID // NoConsumer if a provider left
	Provider     model.ProviderID // NoProvider if a consumer left
	Satisfaction float64          // δs at the moment of departure
}

// Collector accumulates one run's measurements. It is not safe for
// concurrent use (the simulator is single-threaded).
type Collector struct {
	// ResponseTime records end-to-end query response times (first issue to
	// n-th result received).
	ResponseTime *stats.Summary

	// MediationContacts records, per query, how many providers the
	// mediator contacted (the proposed-set size) — the communication-cost
	// measure KnBest bounds.
	MediationContacts *stats.Summary

	// Completed counts fully served queries; Unallocated counts queries
	// the mediator could not place (no eligible online provider);
	// Issued counts all queries that reached the mediator.
	Completed   int64
	Unallocated int64
	Issued      int64

	// ValidationFailures counts queries whose replicas all responded
	// without reaching the validation quorum (malicious results).
	ValidationFailures int64

	// Departures lists participants that left, in time order.
	Departures []Departure

	// Time series sampled every SampleEvery simulated seconds.
	ConsumerSat     *stats.TimeSeries // mean δs over online consumers
	ProviderSat     *stats.TimeSeries // mean δs over online providers
	ConsumerSatMin  *stats.TimeSeries
	ProviderSatMin  *stats.TimeSeries
	ProviderSatGini *stats.TimeSeries
	Utilization     *stats.TimeSeries // mean provider utilization
	UtilizationStd  *stats.TimeSeries // stddev across providers (balance)
	OnlineProviders *stats.TimeSeries
	OnlineConsumers *stats.TimeSeries
	QueueGini       *stats.TimeSeries // inequality of pending work
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{
		ResponseTime:      stats.NewSummary(),
		MediationContacts: stats.NewSummary(),
		ConsumerSat:       stats.NewTimeSeries("consumer_sat"),
		ProviderSat:       stats.NewTimeSeries("provider_sat"),
		ConsumerSatMin:    stats.NewTimeSeries("consumer_sat_min"),
		ProviderSatMin:    stats.NewTimeSeries("provider_sat_min"),
		ProviderSatGini:   stats.NewTimeSeries("provider_sat_gini"),
		Utilization:       stats.NewTimeSeries("utilization"),
		UtilizationStd:    stats.NewTimeSeries("utilization_std"),
		OnlineProviders:   stats.NewTimeSeries("online_providers"),
		OnlineConsumers:   stats.NewTimeSeries("online_consumers"),
		QueueGini:         stats.NewTimeSeries("queue_gini"),
	}
}

// RecordDeparture appends a departure.
func (c *Collector) RecordDeparture(d Departure) {
	c.Departures = append(c.Departures, d)
}

// ProviderDepartures counts departed providers.
func (c *Collector) ProviderDepartures() int {
	n := 0
	for _, d := range c.Departures {
		if d.Provider != model.NoProvider {
			n++
		}
	}
	return n
}

// ConsumerDepartures counts departed consumers.
func (c *Collector) ConsumerDepartures() int {
	n := 0
	for _, d := range c.Departures {
		if d.Consumer != model.NoConsumer {
			n++
		}
	}
	return n
}

// Sample records one row of the per-interval gauges.
type Sample struct {
	T               float64
	ConsumerSats    []float64
	ProviderSats    []float64
	Utilizations    []float64
	PendingWork     []float64
	OnlineProviders int
	OnlineConsumers int
}

// AddSample folds one sampling instant into the time series.
func (c *Collector) AddSample(s Sample) {
	c.ConsumerSat.Add(s.T, stats.MeanOf(s.ConsumerSats))
	c.ProviderSat.Add(s.T, stats.MeanOf(s.ProviderSats))
	c.ConsumerSatMin.Add(s.T, stats.MinOf(s.ConsumerSats))
	c.ProviderSatMin.Add(s.T, stats.MinOf(s.ProviderSats))
	c.ProviderSatGini.Add(s.T, stats.Gini(s.ProviderSats))
	c.Utilization.Add(s.T, stats.MeanOf(s.Utilizations))
	c.UtilizationStd.Add(s.T, stats.StdDevOf(s.Utilizations))
	c.OnlineProviders.Add(s.T, float64(s.OnlineProviders))
	c.OnlineConsumers.Add(s.T, float64(s.OnlineConsumers))
	c.QueueGini.Add(s.T, stats.Gini(s.PendingWork))
}

// Throughput returns completed queries per simulated second over duration.
func (c *Collector) Throughput(duration float64) float64 {
	if duration <= 0 {
		return 0
	}
	return float64(c.Completed) / duration
}

// Result condenses one run into the row the experiment tables print.
type Result struct {
	Technique string

	MeanResponseTime float64
	P99ResponseTime  float64
	Throughput       float64
	Unallocated      int64
	Completed        int64

	// ValidationFailures counts queries that failed redundancy checking.
	ValidationFailures int64

	// Steady-state satisfaction (tail mean of the series).
	ConsumerSat     float64
	ProviderSat     float64
	ProviderSatGini float64

	UtilizationMean float64
	UtilizationStd  float64

	ProvidersLeft int // departures
	ConsumersLeft int
	OnlineAtEnd   float64 // providers still online at the end

	MeanContacts float64 // mediation communication cost
}

// Summarize produces the Result for a run of the given technique name and
// duration, using the tail fraction of the series as the steady-state
// estimate (0 < tail ≤ 1; typical 0.25).
func (c *Collector) Summarize(technique string, duration, tail float64) Result {
	if tail <= 0 || tail > 1 {
		tail = 0.25
	}
	return Result{
		Technique:          technique,
		MeanResponseTime:   c.ResponseTime.Mean(),
		P99ResponseTime:    c.ResponseTime.Percentile(99),
		Throughput:         c.Throughput(duration),
		Unallocated:        c.Unallocated,
		Completed:          c.Completed,
		ValidationFailures: c.ValidationFailures,
		ConsumerSat:        c.ConsumerSat.TailMean(tail),
		ProviderSat:        c.ProviderSat.TailMean(tail),
		ProviderSatGini:    c.ProviderSatGini.TailMean(tail),
		UtilizationMean:    c.Utilization.TailMean(tail),
		UtilizationStd:     c.UtilizationStd.TailMean(tail),
		ProvidersLeft:      c.ProviderDepartures(),
		ConsumersLeft:      c.ConsumerDepartures(),
		OnlineAtEnd:        c.OnlineProviders.Last().V,
		MeanContacts:       c.MediationContacts.Mean(),
	}
}

// WriteSeriesCSV writes all time series as one aligned CSV table.
func (c *Collector) WriteSeriesCSV(w io.Writer) error {
	return stats.WriteCSVMulti(w,
		c.ConsumerSat, c.ProviderSat, c.ConsumerSatMin, c.ProviderSatMin,
		c.ProviderSatGini, c.Utilization, c.UtilizationStd,
		c.OnlineProviders, c.OnlineConsumers, c.QueueGini)
}

// Table renders results as an aligned text table, one row per technique —
// the experiment harness's paper-style output.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// ResultTable builds the standard comparison table from per-technique
// results.
func ResultTable(title string, results []Result) *Table {
	t := &Table{
		Title: title,
		Columns: []string{
			"technique", "RTmean", "RTp99", "thrpt", "sat(C)", "sat(P)",
			"giniP", "util", "utilSD", "left(P)", "left(C)", "contacts",
		},
	}
	for _, r := range results {
		t.Rows = append(t.Rows, []string{
			r.Technique,
			fmt.Sprintf("%.2f", r.MeanResponseTime),
			fmt.Sprintf("%.2f", r.P99ResponseTime),
			fmt.Sprintf("%.2f", r.Throughput),
			fmt.Sprintf("%.3f", r.ConsumerSat),
			fmt.Sprintf("%.3f", r.ProviderSat),
			fmt.Sprintf("%.3f", r.ProviderSatGini),
			fmt.Sprintf("%.2f", r.UtilizationMean),
			fmt.Sprintf("%.3f", r.UtilizationStd),
			fmt.Sprintf("%d", r.ProvidersLeft),
			fmt.Sprintf("%d", r.ConsumersLeft),
			fmt.Sprintf("%.1f", r.MeanContacts),
		})
	}
	return t
}

// Render writes the table with aligned columns.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	if t.Title != "" {
		if _, err := fmt.Fprintf(w, "== %s ==\n", t.Title); err != nil {
			return err
		}
	}
	line := func(cells []string) string {
		parts := make([]string, len(cells))
		for i, cell := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], cell)
		}
		return strings.Join(parts, "  ")
	}
	if _, err := fmt.Fprintln(w, line(t.Columns)); err != nil {
		return err
	}
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	if _, err := fmt.Fprintln(w, line(sep)); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if _, err := fmt.Fprintln(w, line(row)); err != nil {
			return err
		}
	}
	return nil
}

// String renders the table to a string.
func (t *Table) String() string {
	var sb strings.Builder
	_ = t.Render(&sb)
	return sb.String()
}

// SortDepartures orders departures by time (stable); useful before
// rendering.
func SortDepartures(ds []Departure) {
	sort.SliceStable(ds, func(i, j int) bool { return ds[i].Time < ds[j].Time })
}
