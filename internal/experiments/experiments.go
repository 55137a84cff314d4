// Package experiments reproduces the evaluation of the SbQA demo paper.
// The paper's evaluation section defines seven demonstration scenarios
// rather than numbered tables; each function here regenerates one scenario's
// observable output as a text table (plus CSV-able time series), using the
// BOINC-like world in internal/boinc.
//
// Scenario map (see DESIGN.md §5):
//
//	S1 — satisfaction model compares Capacity vs Economic, captive
//	S2 — the same baselines under autonomy; departure prediction
//	S3 — SbQA vs baselines, captive (performance not far from baselines)
//	S4 — SbQA vs baselines, autonomous (SbQA preserves volunteers)
//	S5 — participants care only about performance; SbQA adapts
//	S6 — application adaptability: sweeping kn and ω
//	S7 — a probe participant reaches its objectives only under SbQA
package experiments

import (
	"fmt"
	"io"

	"sbqa/internal/alloc"
	"sbqa/internal/boinc"
	"sbqa/internal/metrics"
	"sbqa/internal/policy"
	"sbqa/internal/stats"
)

// Options sizes an experiment run. The zero value is repaired to the paper-
// scale defaults (100 volunteers, 2000 simulated seconds); tests use smaller
// values.
type Options struct {
	// Volunteers is the provider population size.
	Volunteers int

	// Duration is the simulated run length (seconds).
	Duration float64

	// Seed drives every random draw; runs are bit-reproducible under it.
	Seed uint64

	// Load is the offered load factor ρ; 0 = 0.7.
	Load float64

	// Out, when non-nil, receives progress lines.
	Out io.Writer
}

func (o Options) withDefaults() Options {
	if o.Volunteers < 1 {
		o.Volunteers = 100
	}
	if o.Duration <= 0 {
		o.Duration = 2000
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
	if o.Load <= 0 {
		o.Load = 0.7
	}
	return o
}

func (o Options) logf(format string, args ...any) {
	if o.Out != nil {
		fmt.Fprintf(o.Out, format+"\n", args...)
	}
}

// baseConfig builds the world configuration shared by all scenarios.
func (o Options) baseConfig(mode boinc.Mode) boinc.Config {
	cfg := boinc.DefaultConfig(o.Volunteers, o.Seed)
	cfg.Mode = mode
	cfg.Duration = o.Duration
	cfg.SampleEvery = 0 // Duration/100
	cfg.Workload.LoadFactor = o.Load
	cfg.AnalyzeBest = true
	return cfg
}

// The techniques the paper compares are points of the declarative policy
// space the engine, the control plane and the lab share: a policy.Spec whose
// Name is the row label the tables print. runOne sets Seed per run.
var (
	sbqaSpec     = policy.Spec{Name: "SbQA", Kind: policy.SbQA}
	capacitySpec = policy.Spec{Name: "Capacity", Kind: policy.Capacity}
	economicSpec = policy.Spec{Name: "Economic", Kind: policy.Economic}
)

// baselines returns the two techniques the demo compares in Scenarios 1-2.
func baselines() []policy.Spec { return []policy.Spec{capacitySpec, economicSpec} }

// allTechniques returns the full head-to-head cast of Scenarios 3-4.
func allTechniques() []policy.Spec { return []policy.Spec{capacitySpec, economicSpec, sbqaSpec} }

// build constructs the spec's allocator the way the engine does for its
// shard 0, seeded with seed (allocators carry private RNG state, so every
// run needs its own).
func build(spec policy.Spec, seed uint64) (alloc.Allocator, error) {
	spec.Seed = seed
	return spec.Build(0)
}

// ScenarioResult is one scenario's regenerated output.
type ScenarioResult struct {
	Name        string
	Description string

	// Table is the paper-style summary table.
	Table *metrics.Table

	// Extra holds scenario-specific secondary tables (departures,
	// satisfaction analysis, sweeps).
	Extra []*metrics.Table

	// Results holds the per-technique summaries backing Table.
	Results []metrics.Result

	// Collectors gives access to the full time series per technique row
	// (keyed by row label) for CSV export.
	Collectors map[string]*metrics.Collector

	// Notes records qualitative findings (e.g. departure predictions).
	Notes []string
}

// Render writes the scenario's tables and notes to w.
func (s *ScenarioResult) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "%s — %s\n\n", s.Name, s.Description); err != nil {
		return err
	}
	if s.Table != nil {
		if err := s.Table.Render(w); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	for _, t := range s.Extra {
		if err := t.Render(w); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	for _, n := range s.Notes {
		if _, err := fmt.Fprintf(w, "note: %s\n", n); err != nil {
			return err
		}
	}
	return nil
}

// runOne builds a world for the spec's technique, applies the optional
// customizer, runs it, and returns the result together with the world for
// post-analysis.
func runOne(spec policy.Spec, cfg boinc.Config, seed uint64, customize func(*boinc.World)) (metrics.Result, *boinc.World, error) {
	a, err := build(spec, seed)
	if err != nil {
		return metrics.Result{}, nil, err
	}
	w, err := boinc.NewWorld(a, cfg)
	if err != nil {
		return metrics.Result{}, nil, err
	}
	if customize != nil {
		customize(w)
	}
	r := w.Run()
	r.Technique = spec.Name
	return r, w, nil
}

// compare runs every technique on identically seeded worlds.
func compare(techniques []policy.Spec, cfg boinc.Config, customize func(*boinc.World)) ([]metrics.Result, map[string]*boinc.World, error) {
	results := make([]metrics.Result, 0, len(techniques))
	worlds := make(map[string]*boinc.World, len(techniques))
	for i, t := range techniques {
		r, w, err := runOne(t, cfg, cfg.Seed+uint64(i)*7919, customize)
		if err != nil {
			return nil, nil, fmt.Errorf("experiments: %s: %w", t.Name, err)
		}
		results = append(results, r)
		worlds[t.Name] = w
	}
	return results, worlds, nil
}

// collectorsOf extracts each world's collector keyed by technique name.
func collectorsOf(worlds map[string]*boinc.World) map[string]*metrics.Collector {
	out := make(map[string]*metrics.Collector, len(worlds))
	for name, w := range worlds {
		out[name] = w.Collector()
	}
	return out
}

// satisfactionAnalysisTable summarizes the full satisfaction model per
// technique: satisfaction, adequation, and allocation satisfaction on both
// sides — the Scenario 1 demonstration that the model can analyze any
// technique.
func satisfactionAnalysisTable(title string, worlds map[string]*boinc.World, order []policy.Spec) *metrics.Table {
	t := &metrics.Table{
		Title: title,
		Columns: []string{
			"technique", "δs(C)", "δa(C)", "δal(C)", "δs(P)", "δa(P)", "δal(P)", "δs(P)<0.35",
		},
	}
	for _, tech := range order {
		w, ok := worlds[tech.Name]
		if !ok {
			continue
		}
		reg := w.Mediator().Registry()
		var sc, ac, alc stats.Welford
		for _, p := range w.Projects() {
			tr := reg.Consumer(p.ConsumerID())
			sc.Add(tr.Satisfaction())
			ac.Add(tr.Adequation())
			alc.Add(tr.AllocationSatisfaction())
		}
		var sp, ap, alp stats.Welford
		below := 0
		for _, v := range w.Volunteers() {
			if !v.Online() {
				below++ // departed by dissatisfaction
				continue
			}
			tr := reg.Provider(v.ProviderID())
			sp.Add(tr.Satisfaction())
			ap.Add(tr.Adequation())
			alp.Add(tr.AllocationSatisfaction())
			if tr.Satisfaction() < 0.35 {
				below++
			}
		}
		t.Rows = append(t.Rows, []string{
			tech.Name,
			fmt.Sprintf("%.3f", sc.Mean()),
			fmt.Sprintf("%.3f", ac.Mean()),
			fmt.Sprintf("%.3f", alc.Mean()),
			fmt.Sprintf("%.3f", sp.Mean()),
			fmt.Sprintf("%.3f", ap.Mean()),
			fmt.Sprintf("%.3f", alp.Mean()),
			fmt.Sprintf("%d/%d", below, len(w.Volunteers())),
		})
	}
	return t
}
