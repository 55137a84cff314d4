package lab

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"sbqa/internal/model"
	"sbqa/internal/policy"
	"sbqa/internal/stats"
)

// The paper's evaluation — its seven demo scenarios and the extension
// studies — regenerated as lab scenarios on the BOINC and advertising
// presets, each run mediated by the real engine.
//
//	S1 — satisfaction model compares Capacity vs Economic, captive
//	S2 — the same baselines under autonomy; departure prediction
//	S3 — SbQA vs baselines, captive (performance not far from baselines)
//	S4 — SbQA vs baselines, autonomous (SbQA preserves volunteers)
//	S5 — participants care only about performance; SbQA adapts
//	S6 — application adaptability: sweeping kn and ω
//	S7 — a probe participant reaches its objectives only under SbQA
//	m, v, r, a — §IV's resource shares, malicious volunteers, adaptive
//	             replication, §I's keyword advertising

// Volunteering returns the BOINC preset at the given scale: the demo's
// three projects over volunteers volunteers at ρ = 0.7, satisfaction window
// 100, gauges sampled every duration/100, captive. The paper's tables run
// at Volunteering(100, 2000, 42).
func Volunteering(volunteers int, duration float64, seed uint64) Scenario {
	return Scenario{
		Name:        "boinc",
		Seed:        seed,
		Duration:    duration,
		SampleEvery: duration / 100,
		Window:      100,
		Policy:      policy.Spec{Kind: policy.SbQA},
		Workload:    Workload{Volunteers: &VolunteerSpec{Volunteers: volunteers, Load: 0.7}},
	}
}

// Study is one regenerated piece of the evaluation: its tables, the
// reports of its runs (each named by its row label) and its findings.
type Study struct {
	Name        string
	Description string
	Table       *Table
	Extra       []*Table
	Reports     []*Report
	Notes       []string
}

// Render writes the study's tables and notes.
func (s *Study) Render(w io.Writer) {
	fmt.Fprintf(w, "%s — %s\n\n", s.Name, s.Description)
	for _, t := range append([]*Table{s.Table}, s.Extra...) {
		if t != nil {
			t.Render(w)
			fmt.Fprintln(w)
		}
	}
	for _, n := range s.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
}

// Table is an aligned text table.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// Render writes the table with aligned columns.
func (t *Table) Render(w io.Writer) {
	widths := make([]int, len(t.Columns))
	for _, row := range append([][]string{t.Columns}, t.Rows...) {
		for i, cell := range row {
			if i < len(widths) {
				widths[i] = max(widths[i], len(cell))
			}
		}
	}
	if t.Title != "" {
		fmt.Fprintf(w, "== %s ==\n", t.Title)
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, cell := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], cell)
		}
		fmt.Fprintln(w, strings.Join(parts, "  "))
	}
	line(t.Columns)
	sep := make([]string, len(widths))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
}

// PaperStudy is one entry of the registry `sbqalab paper` runs: the key its
// -scenario flag names and the study, run on a Volunteering base.
type PaperStudy struct {
	Key string
	Run func(base Scenario) (*Study, error)
}

// PaperStudies lists the seven demo scenarios, then the extension studies,
// in the order `-scenario all` prints them.
func PaperStudies() []PaperStudy {
	return []PaperStudy{
		{"1", Scenario1}, {"2", Scenario2}, {"3", Scenario3}, {"4", Scenario4},
		{"5", Scenario5}, {"6", Scenario6}, {"7", Scenario7},
		{"m", MotivatingExample}, {"v", MaliciousStudy}, {"r", ReplicationStudy}, {"a", AdWordsStudy},
	}
}

// The techniques the paper compares, as points of the policy space the
// engine runs; Name is the row label.
var (
	sbqaSpec     = policy.Spec{Name: "SbQA", Kind: policy.SbQA}
	capacitySpec = policy.Spec{Name: "Capacity", Kind: policy.Capacity}
	economicSpec = policy.Spec{Name: "Economic", Kind: policy.Economic}
)

// runTechnique runs base under spec seeded with seed, its volunteer preset
// copied and adjusted by mod, and setup applied to the built world, with
// the AnalyzeBest round on.
func runTechnique(base Scenario, spec policy.Spec, seed uint64, mod func(*VolunteerSpec), setup func(*world)) (*world, *Report, error) {
	v := *base.Workload.Volunteers
	if mod != nil {
		mod(&v)
	}
	spec.Seed = seed
	base.Name, base.Policy, base.Workload.Volunteers = spec.Name, spec, &v
	w, r, err := run(base, true, setup)
	if err != nil {
		return nil, nil, fmt.Errorf("lab: %s: %w", spec.Name, err)
	}
	return w, r, nil
}

// runEach runs every technique on identically seeded worlds (technique i's
// allocator seeded base.Seed + 7919·i).
func runEach(base Scenario, techs []policy.Spec, mod func(*VolunteerSpec), setup func(*world)) ([]*world, []*Report, error) {
	var worlds []*world
	var reports []*Report
	for i, t := range techs {
		w, r, err := runTechnique(base, t, base.Seed+uint64(i)*7919, mod, setup)
		if err != nil {
			return nil, nil, err
		}
		worlds, reports = append(worlds, w), append(reports, r)
	}
	return worlds, reports, nil
}

func autonomous(v *VolunteerSpec) { v.Autonomous = true }

// resultTable is the standard comparison table, one row per run.
func resultTable(title string, reports []*Report) *Table {
	t := &Table{
		Title: title,
		Columns: []string{
			"technique", "RTmean", "RTp99", "thrpt", "sat(C)", "sat(P)",
			"giniP", "util", "utilSD", "left(P)", "left(C)", "contacts",
		},
	}
	for _, r := range reports {
		v := r.Volunteers
		t.Rows = append(t.Rows, []string{
			r.Scenario.Name,
			fmt.Sprintf("%.2f", r.MeanResponse),
			fmt.Sprintf("%.2f", r.P99Response),
			fmt.Sprintf("%.2f", float64(r.Completed)/r.Scenario.Duration),
			fmt.Sprintf("%.3f", v.ConsumerSat),
			fmt.Sprintf("%.3f", v.ProviderSat),
			fmt.Sprintf("%.3f", v.ProviderSatGini),
			fmt.Sprintf("%.2f", v.Utilization),
			fmt.Sprintf("%.3f", v.UtilizationSD),
			fmt.Sprintf("%d", v.ProvidersLeft),
			fmt.Sprintf("%d", v.ConsumersLeft),
			fmt.Sprintf("%.1f", v.Contacts),
		})
	}
	return t
}

// satisfactionAnalysisTable applies the whole satisfaction model to each
// run — satisfaction, adequation and allocation satisfaction on both sides
// — Scenario 1's demonstration that the model analyzes any technique.
func satisfactionAnalysisTable(title string, worlds []*world) *Table {
	t := &Table{
		Title: title,
		Columns: []string{
			"technique", "δs(C)", "δa(C)", "δal(C)", "δs(P)", "δa(P)", "δal(P)", "δs(P)<0.35",
		},
	}
	for _, w := range worlds {
		reg := w.live.Registry()
		var sc, ac, alc stats.Welford
		for _, p := range w.projects {
			tr := reg.Consumer(p.id)
			sc.Add(tr.Satisfaction())
			ac.Add(tr.Adequation())
			alc.Add(tr.AllocationSatisfaction())
		}
		var sp, ap, alp stats.Welford
		below := 0
		for _, v := range w.providers {
			if !v.online {
				below++ // departed by dissatisfaction
				continue
			}
			tr := reg.Provider(v.id)
			sp.Add(tr.Satisfaction())
			ap.Add(tr.Adequation())
			alp.Add(tr.AllocationSatisfaction())
			if tr.Satisfaction() < ProviderLeaveThreshold {
				below++
			}
		}
		t.Rows = append(t.Rows, []string{
			w.sc.Name,
			fmt.Sprintf("%.3f", sc.Mean()),
			fmt.Sprintf("%.3f", ac.Mean()),
			fmt.Sprintf("%.3f", alc.Mean()),
			fmt.Sprintf("%.3f", sp.Mean()),
			fmt.Sprintf("%.3f", ap.Mean()),
			fmt.Sprintf("%.3f", alp.Mean()),
			fmt.Sprintf("%d/%d", below, len(w.providers)),
		})
	}
	return t
}

// Scenario1 — Satisfaction model, captive environment. The demo compares
// the way BOINC allocates queries (the capacity-based technique) with an
// economic one from a satisfaction point of view: the two allocate by
// different principles, yet the model scores both.
func Scenario1(base Scenario) (*Study, error) {
	worlds, reports, err := runEach(base, []policy.Spec{capacitySpec, economicSpec}, nil, nil)
	if err != nil {
		return nil, err
	}
	return &Study{
		Name:        "Scenario 1",
		Description: "satisfaction model analyzes heterogeneous techniques (captive)",
		Table:       resultTable("Scenario 1 — performance & satisfaction (captive)", reports),
		Extra:       []*Table{satisfactionAnalysisTable("Scenario 1 — satisfaction model analysis", worlds)},
		Reports:     reports,
		Notes: []string{
			"both techniques are analyzable by the same model despite allocating by different principles",
			fmt.Sprintf("capacity-based favours load balance (util σ %.3f) while the economic mediation favours cheap/fast hosts",
				reports[0].Volunteers.UtilizationSD),
		},
	}, nil
}

// Scenario2 — Baselines under autonomy; departure prediction. A provider
// quits below δs = 0.35, a consumer below 0.5, and the providers below
// threshold in a captive twin run are the ones that leave.
func Scenario2(base Scenario) (*Study, error) {
	techs := []policy.Spec{capacitySpec, economicSpec}
	captive, _, err := runEach(base, techs, nil, nil)
	if err != nil {
		return nil, err
	}
	worlds, reports, err := runEach(base, techs, autonomous, nil)
	if err != nil {
		return nil, err
	}
	res := &Study{
		Name:        "Scenario 2",
		Description: "baselines under autonomy: dissatisfaction costs capacity",
		Table:       resultTable("Scenario 2 — performance & departures (autonomous)", reports),
		Reports:     reports,
	}
	dt := &Table{
		Title:   "Scenario 2 — departures",
		Columns: []string{"technique", "providers left", "consumers left", "first departure", "capacity lost"},
	}
	for i, w := range worlds {
		v := reports[i].Volunteers
		first := "-"
		if len(v.Departures) > 0 {
			first = fmt.Sprintf("t=%.0f", v.Departures[0].T)
		}
		var lost, total float64
		for _, vol := range w.providers {
			total += vol.capacity
			if !vol.online {
				lost += vol.capacity
			}
		}
		dt.Rows = append(dt.Rows, []string{
			w.sc.Name,
			fmt.Sprintf("%d", v.ProvidersLeft),
			fmt.Sprintf("%d", v.ConsumersLeft),
			first,
			fmt.Sprintf("%.0f%%", 100*lost/total),
		})

		predicted := map[model.ProviderID]bool{}
		for _, vol := range captive[i].providers {
			if captive[i].live.ProviderSatisfaction(vol.id) < ProviderLeaveThreshold {
				predicted[vol.id] = true
			}
		}
		hit := 0
		for _, d := range v.Departures {
			if d.Provider != model.NoProvider && predicted[d.Provider] {
				hit++
			}
		}
		precision := 1.0
		if v.ProvidersLeft > 0 {
			precision = float64(hit) / float64(v.ProvidersLeft)
		}
		res.Notes = append(res.Notes, fmt.Sprintf(
			"%s: captive-twin dissatisfaction predicts %d providers at risk; %d actually left; %.0f%% of leavers were predicted",
			w.sc.Name, len(predicted), v.ProvidersLeft, 100*precision))
	}
	res.Extra = append(res.Extra, dt)
	return res, nil
}

// Scenario3 — SbQA vs baselines, captive. SbQA's response time is not far
// from the baselines' while it also satisfies participants, so it is usable
// even in captive environments it was not designed for.
func Scenario3(base Scenario) (*Study, error) {
	worlds, reports, err := runEach(base, []policy.Spec{capacitySpec, economicSpec, sbqaSpec}, nil, nil)
	if err != nil {
		return nil, err
	}
	res := &Study{
		Name:        "Scenario 3",
		Description: "SbQA trades little performance for much satisfaction (captive)",
		Table:       resultTable("Scenario 3 — SbQA vs baselines (captive)", reports),
		Extra:       []*Table{satisfactionAnalysisTable("Scenario 3 — satisfaction analysis", worlds)},
		Reports:     reports,
	}
	if capR, sbqaR := reports[0], reports[2]; capR.MeanResponse > 0 {
		res.Notes = []string{fmt.Sprintf(
			"SbQA response time is %.2fx capacity-based while provider satisfaction is %.2fx (%.3f vs %.3f)",
			sbqaR.MeanResponse/capR.MeanResponse, sbqaR.Volunteers.ProviderSat/capR.Volunteers.ProviderSat,
			sbqaR.Volunteers.ProviderSat, capR.Volunteers.ProviderSat)}
	}
	return res, nil
}

// Scenario4 — SbQA vs baselines, autonomous. The headline: by satisfying
// participants SbQA preserves volunteers, hence total capacity, while the
// interest-blind baselines' dissatisfied volunteers leave.
func Scenario4(base Scenario) (*Study, error) {
	_, reports, err := runEach(base, []policy.Spec{capacitySpec, economicSpec, sbqaSpec}, autonomous, nil)
	if err != nil {
		return nil, err
	}
	res := &Study{
		Name:        "Scenario 4",
		Description: "SbQA preserves volunteers and hence performance (autonomous)",
		Table:       resultTable("Scenario 4 — SbQA vs baselines (autonomous)", reports),
		Reports:     reports,
	}
	for _, r := range reports {
		res.Notes = append(res.Notes, fmt.Sprintf(
			"%s: %d providers left, %d online at end", r.Scenario.Name, r.Volunteers.ProvidersLeft, r.Volunteers.OnlineAtEnd))
	}
	return res, nil
}

// Scenario5 — Adaptation to participants' expectations. Intentions flip to
// pure performance — projects care only about response times, volunteers
// only about their load — and SbQA must then behave like a load balancer.
func Scenario5(base Scenario) (*Study, error) {
	var reports []*Report
	for _, variant := range []struct {
		label string
		setup func(*world)
	}{
		{"/interests", nil},
		{"/perf-only", performanceOnly},
	} {
		techs := []policy.Spec{capacitySpec, sbqaSpec}
		for i := range techs {
			techs[i].Name += variant.label
		}
		_, rs, err := runEach(base, techs, nil, variant.setup)
		if err != nil {
			return nil, err
		}
		reports = append(reports, rs...)
	}
	def, perf := reports[1], reports[3]
	return &Study{
		Name:        "Scenario 5",
		Description: "SbQA adapts to what participants care about",
		Table:       resultTable("Scenario 5 — intention policies flipped to performance", reports),
		Reports:     reports,
		Notes: []string{fmt.Sprintf(
			"with performance-only intentions SbQA cuts mean response time from %.2f to %.2f and utilization σ from %.3f to %.3f",
			def.MeanResponse, perf.MeanResponse, def.Volunteers.UtilizationSD, perf.Volunteers.UtilizationSD)},
	}, nil
}

// performanceOnly gives every project the response-time policy and every
// volunteer the load-only one.
func performanceOnly(w *world) {
	for _, p := range w.projects {
		p.policy = responseTimeConsumer
	}
	for _, v := range w.providers {
		v.vol.policy = loadOnlyProvider
	}
}

// Scenario6 — Application adaptability: sweeping kn and ω. The sweep shows
// the trade between response time and provider satisfaction, with the
// adaptive ω near the knee.
func Scenario6(base Scenario) (*Study, error) {
	res := &Study{Name: "Scenario 6", Description: "tuning SbQA to the application via kn and ω"}
	knTable := &Table{
		Title:   "Scenario 6a — varying kn (k=20, ω adaptive, autonomous)",
		Columns: []string{"kn", "RTmean", "sat(C)", "sat(P)", "left(P)", "contacts"},
	}
	for _, kn := range []int{1, 2, 5, 10, 20} {
		tech := policy.Spec{Name: fmt.Sprintf("SbQA(kn=%d)", kn), Kind: policy.SbQA, K: 20, Kn: kn}
		_, r, err := runTechnique(base, tech, base.Seed+uint64(kn)*104729, autonomous, nil)
		if err != nil {
			return nil, err
		}
		res.Reports = append(res.Reports, r)
		knTable.Rows = append(knTable.Rows, []string{
			fmt.Sprintf("%d", kn),
			fmt.Sprintf("%.2f", r.MeanResponse),
			fmt.Sprintf("%.3f", r.Volunteers.ConsumerSat),
			fmt.Sprintf("%.3f", r.Volunteers.ProviderSat),
			fmt.Sprintf("%d", r.Volunteers.ProvidersLeft),
			fmt.Sprintf("%.1f", r.Volunteers.Contacts),
		})
	}
	omegaTable := &Table{
		Title:   "Scenario 6b — varying ω (k=20, kn=10, autonomous)",
		Columns: []string{"ω", "RTmean", "sat(C)", "sat(P)", "left(P)"},
	}
	const adaptive = -1 // stands for Equation 2's rule in the sweep
	for i, omega := range []float64{0, 0.25, 0.5, 0.75, 1, adaptive} {
		label := "adaptive"
		tech := policy.Spec{Kind: policy.SbQA}
		if omega >= 0 {
			label = fmt.Sprintf("%.2f", omega)
			tech.OmegaMode, tech.Omega = policy.OmegaFixed, omega
		}
		tech.Name = fmt.Sprintf("SbQA(ω=%s)", label)
		_, r, err := runTechnique(base, tech, base.Seed+uint64(i+1)*224737, autonomous, nil)
		if err != nil {
			return nil, err
		}
		res.Reports = append(res.Reports, r)
		omegaTable.Rows = append(omegaTable.Rows, []string{
			label,
			fmt.Sprintf("%.2f", r.MeanResponse),
			fmt.Sprintf("%.3f", r.Volunteers.ConsumerSat),
			fmt.Sprintf("%.3f", r.Volunteers.ProviderSat),
			fmt.Sprintf("%d", r.Volunteers.ProvidersLeft),
		})
	}
	res.Extra = []*Table{knTable, omegaTable}
	res.Notes = []string{
		"small kn ⇒ load balancing (low response time, dissatisfied providers); large kn ⇒ interest matching",
		"ω→0 favours consumers, ω→1 favours providers; the adaptive rule needs no per-application tuning",
	}
	return res, nil
}

// Probe is Scenario 7's planted pair of participants: a probe volunteer
// (provider 0) with its own project preferences and a probe project
// (Einstein@home, the unpopular one) with its own host preferences, each
// with a satisfaction objective. DefaultProbe returns the paper's values;
// `sbqalab play` fills one in from the terminal.
type Probe struct {
	// VolunteerPrefs is the probe volunteer's preference per project.
	VolunteerPrefs []float64
	// FastHostPref and SlowHostPref are the probe project's preferences
	// for the fastest quartile of volunteers and for the rest.
	FastHostPref, SlowHostPref float64
	// The volunteer wants δs ≥ ProviderObjective and to stay online; the
	// project wants δs ≥ ConsumerObjective.
	ProviderObjective, ConsumerObjective float64
}

// DefaultProbe returns the demo's probe: a fan of the unpopular project who
// wants δs ≥ 0.55, and a project that strongly prefers the fastest quartile
// of volunteers, is lukewarm about the rest, and wants δs ≥ 0.60.
func DefaultProbe() Probe {
	return Probe{
		VolunteerPrefs:    []float64{-0.8, -0.8, 0.9},
		FastHostPref:      0.9,
		SlowHostPref:      0.1,
		ProviderObjective: 0.55,
		ConsumerObjective: 0.60,
	}
}

// Scenario7 — Playing a BOINC-participant role: the probe participants
// reach their objectives only under SbQA.
func Scenario7(base Scenario) (*Study, error) { return Scenario7Probe(base, DefaultProbe()) }

// Scenario7Probe is Scenario 7 with the caller's probe planted.
func Scenario7Probe(base Scenario, probe Probe) (*Study, error) {
	const probeProject = 2 // Einstein@home, the unpopular one
	plant := func(w *world) {
		w.providers[0].vol.setPrefs(probe.VolunteerPrefs)
		// The probe project's preferences split the volunteers at the
		// fastest quartile of capacity.
		var caps []float64
		for _, v := range w.providers {
			caps = append(caps, v.capacity)
		}
		sort.Float64s(caps)
		cut := stats.Percentile(caps, 75)
		hostPrefs := make([]float64, len(w.providers))
		for i, v := range w.providers {
			hostPrefs[i] = probe.SlowHostPref
			if v.capacity >= cut {
				hostPrefs[i] = probe.FastHostPref
			}
		}
		w.projects[probeProject].prefs = clampPrefs(hostPrefs)
	}
	table := &Table{
		Title: "Scenario 7 — probe participants' objectives",
		Columns: []string{
			"technique", "probe δs(P)", "P online", "P objective",
			"probe δs(C)", "C objective", "both met",
		},
	}
	res := &Study{
		Name:        "Scenario 7",
		Description: "a participant reaches its objectives only under SbQA",
		Table:       table,
	}
	techs := []policy.Spec{capacitySpec, economicSpec, sbqaSpec}
	meets := map[string]bool{}
	for i, tech := range techs {
		w, r, err := runTechnique(base, tech, base.Seed+uint64(i)*15485863, autonomous, plant)
		if err != nil {
			return nil, err
		}
		res.Reports = append(res.Reports, r)
		vol, proj := w.providers[0], w.projects[probeProject]
		pSat := vol.satisfaction()
		if !vol.online {
			// Satisfaction memory is wiped on departure; a volunteer that
			// left was by definition below threshold.
			pSat = 0
		}
		cSat := proj.satisfaction()
		pOK := vol.online && pSat >= probe.ProviderObjective
		cOK := proj.online && cSat >= probe.ConsumerObjective
		meets[tech.Name] = pOK && cOK
		table.Rows = append(table.Rows, []string{
			tech.Name,
			fmt.Sprintf("%.3f", pSat),
			fmt.Sprintf("%v", vol.online),
			fmt.Sprintf("%v", pOK),
			fmt.Sprintf("%.3f", cSat),
			fmt.Sprintf("%v", cOK),
			fmt.Sprintf("%v", pOK && cOK),
		})
	}
	if meets["SbQA"] {
		res.Notes = append(res.Notes, "SbQA meets both probe objectives")
	}
	for _, tech := range techs {
		if tech.Name != "SbQA" && !meets[tech.Name] {
			res.Notes = append(res.Notes, fmt.Sprintf("%s fails at least one probe objective", tech.Name))
		}
	}
	return res, nil
}
