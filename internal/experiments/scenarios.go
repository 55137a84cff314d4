package experiments

import (
	"fmt"

	"sbqa/internal/boinc"
	"sbqa/internal/intention"
	"sbqa/internal/metrics"
	"sbqa/internal/model"
	"sbqa/internal/policy"
	"sbqa/internal/stats"
	"sbqa/internal/workload"
)

// Scenario1 — Satisfaction model, captive environment.
//
// The demo compares the way BOINC allocates queries (equivalent to the
// capacity-based technique) with an economic technique from a satisfaction
// point of view, in a captive environment (participants cannot leave). The
// deliverable is the full satisfaction-model analysis: the two techniques
// allocate by completely different principles yet the model scores both.
func Scenario1(opt Options) (*ScenarioResult, error) {
	opt = opt.withDefaults()
	opt.logf("scenario 1: baselines under the satisfaction model (captive)")
	cfg := opt.baseConfig(boinc.Captive)
	techs := baselines()
	results, worlds, err := compare(techs, cfg, nil)
	if err != nil {
		return nil, err
	}
	res := &ScenarioResult{
		Name:        "Scenario 1",
		Description: "satisfaction model analyzes heterogeneous techniques (captive)",
		Table:       metrics.ResultTable("Scenario 1 — performance & satisfaction (captive)", results),
		Extra: []*metrics.Table{
			satisfactionAnalysisTable("Scenario 1 — satisfaction model analysis", worlds, techs),
		},
		Results:    results,
		Collectors: collectorsOf(worlds),
	}
	res.Notes = append(res.Notes,
		"both techniques are analyzable by the same model despite allocating by different principles",
		fmt.Sprintf("capacity-based favours load balance (util σ %.3f) while the economic mediation favours cheap/fast hosts",
			results[0].UtilizationStd))
	return res, nil
}

// Scenario2 — Baselines under autonomy; departure prediction.
//
// Same techniques, but participants may leave: a provider quits below
// δs = 0.35, a consumer below 0.5. The scenario also demonstrates that the
// satisfaction model predicts departures: participants below threshold in a
// captive twin run are the ones that leave when autonomy is enabled.
func Scenario2(opt Options) (*ScenarioResult, error) {
	opt = opt.withDefaults()
	opt.logf("scenario 2: baselines under autonomy; departure prediction")
	techs := baselines()

	// Captive twin runs for the prediction.
	captive := opt.baseConfig(boinc.Captive)
	_, captiveWorlds, err := compare(techs, captive, nil)
	if err != nil {
		return nil, err
	}

	auto := opt.baseConfig(boinc.Autonomous)
	results, worlds, err := compare(techs, auto, nil)
	if err != nil {
		return nil, err
	}

	res := &ScenarioResult{
		Name:        "Scenario 2",
		Description: "baselines under autonomy: dissatisfaction costs capacity",
		Table:       metrics.ResultTable("Scenario 2 — performance & departures (autonomous)", results),
		Results:     results,
		Collectors:  collectorsOf(worlds),
	}

	// Departure detail table.
	dt := &metrics.Table{
		Title:   "Scenario 2 — departures",
		Columns: []string{"technique", "providers left", "consumers left", "first departure", "capacity lost"},
	}
	for _, tech := range techs {
		w := worlds[tech.Name]
		col := w.Collector()
		metrics.SortDepartures(col.Departures)
		first := "-"
		if len(col.Departures) > 0 {
			first = fmt.Sprintf("t=%.0f", col.Departures[0].Time)
		}
		var lost, total float64
		for _, v := range w.Volunteers() {
			total += v.Capacity()
			if !v.Online() {
				lost += v.Capacity()
			}
		}
		dt.Rows = append(dt.Rows, []string{
			tech.Name,
			fmt.Sprintf("%d", col.ProviderDepartures()),
			fmt.Sprintf("%d", col.ConsumerDepartures()),
			first,
			fmt.Sprintf("%.0f%%", 100*lost/total),
		})
	}
	res.Extra = append(res.Extra, dt)

	// Departure prediction: captive-twin participants below threshold vs
	// actual leavers in the autonomous run.
	for _, tech := range techs {
		cw := captiveWorlds[tech.Name]
		aw := worlds[tech.Name]
		predicted := map[model.ProviderID]bool{}
		for _, v := range cw.Volunteers() {
			if cw.Mediator().Registry().ProviderSatisfaction(v.ProviderID()) < boinc.ProviderLeaveThreshold {
				predicted[v.ProviderID()] = true
			}
		}
		actual := map[model.ProviderID]bool{}
		for _, d := range aw.Collector().Departures {
			if d.Provider != model.NoProvider {
				actual[d.Provider] = true
			}
		}
		hit := 0
		for id := range actual {
			if predicted[id] {
				hit++
			}
		}
		precision := 1.0
		if len(actual) > 0 {
			precision = float64(hit) / float64(len(actual))
		}
		res.Notes = append(res.Notes, fmt.Sprintf(
			"%s: captive-twin dissatisfaction predicts %d providers at risk; %d actually left; %.0f%% of leavers were predicted",
			tech.Name, len(predicted), len(actual), 100*precision))
	}
	return res, nil
}

// Scenario3 — SbQA vs baselines, captive.
//
// The demo's claim: SbQA's performance (response time) is not far from the
// baselines' even though it also satisfies participants — so it is usable
// even in captive environments it was not designed for.
func Scenario3(opt Options) (*ScenarioResult, error) {
	opt = opt.withDefaults()
	opt.logf("scenario 3: SbQA vs baselines (captive)")
	cfg := opt.baseConfig(boinc.Captive)
	techs := allTechniques()
	results, worlds, err := compare(techs, cfg, nil)
	if err != nil {
		return nil, err
	}
	res := &ScenarioResult{
		Name:        "Scenario 3",
		Description: "SbQA trades little performance for much satisfaction (captive)",
		Table:       metrics.ResultTable("Scenario 3 — SbQA vs baselines (captive)", results),
		Extra: []*metrics.Table{
			satisfactionAnalysisTable("Scenario 3 — satisfaction analysis", worlds, techs),
		},
		Results:    results,
		Collectors: collectorsOf(worlds),
	}
	var capRT, sbqaRT, capPS, sbqaPS float64
	for _, r := range results {
		switch r.Technique {
		case "Capacity":
			capRT, capPS = r.MeanResponseTime, r.ProviderSat
		case "SbQA":
			sbqaRT, sbqaPS = r.MeanResponseTime, r.ProviderSat
		}
	}
	if capRT > 0 {
		res.Notes = append(res.Notes, fmt.Sprintf(
			"SbQA response time is %.2fx capacity-based while provider satisfaction is %.2fx (%.3f vs %.3f)",
			sbqaRT/capRT, sbqaPS/capPS, sbqaPS, capPS))
	}
	return res, nil
}

// Scenario4 — SbQA vs baselines, autonomous.
//
// The headline result: by satisfying participants SbQA preserves volunteers
// (hence total capacity) and ends up with better performance than the
// interest-blind baselines, whose dissatisfied volunteers leave.
func Scenario4(opt Options) (*ScenarioResult, error) {
	opt = opt.withDefaults()
	opt.logf("scenario 4: SbQA vs baselines (autonomous)")
	cfg := opt.baseConfig(boinc.Autonomous)
	techs := allTechniques()
	results, worlds, err := compare(techs, cfg, nil)
	if err != nil {
		return nil, err
	}
	res := &ScenarioResult{
		Name:        "Scenario 4",
		Description: "SbQA preserves volunteers and hence performance (autonomous)",
		Table:       metrics.ResultTable("Scenario 4 — SbQA vs baselines (autonomous)", results),
		Results:     results,
		Collectors:  collectorsOf(worlds),
	}
	for _, r := range results {
		res.Notes = append(res.Notes, fmt.Sprintf(
			"%s: %d providers left, %.0f online at end", r.Technique, r.ProvidersLeft, r.OnlineAtEnd))
	}
	return res, nil
}

// Scenario5 — Adaptation to participants' expectations.
//
// Participants' intentions flip to pure performance: projects care only
// about response times, volunteers only about their load. SbQA must behave
// like a load balancer — improving response times and balancing queries —
// because that is what the participants now want.
func Scenario5(opt Options) (*ScenarioResult, error) {
	opt = opt.withDefaults()
	opt.logf("scenario 5: performance-only intentions")
	techs := []policy.Spec{capacitySpec, sbqaSpec}

	// Run SbQA under default (interest-driven) intentions…
	defCfg := opt.baseConfig(boinc.Captive)
	defResults, defWorlds, err := compare(techs, defCfg, nil)
	if err != nil {
		return nil, err
	}

	// …and under performance-only intentions.
	perfCfg := opt.baseConfig(boinc.Captive)
	perfCfg.ConsumerPolicy = func(workload.Project) intention.ConsumerPolicy {
		return intention.ResponseTimeConsumer{}
	}
	perfCfg.ProviderPolicy = func(workload.Volunteer) intention.ProviderPolicy {
		return intention.LoadOnlyProvider{}
	}
	perfResults, perfWorlds, err := compare(techs, perfCfg, nil)
	if err != nil {
		return nil, err
	}

	// Merge rows with labelled variants.
	rows := make([]metrics.Result, 0, 4)
	for _, r := range defResults {
		r.Technique += "/interests"
		rows = append(rows, r)
	}
	for _, r := range perfResults {
		r.Technique += "/perf-only"
		rows = append(rows, r)
	}
	collectors := map[string]*metrics.Collector{}
	for n, w := range defWorlds {
		collectors[n+"/interests"] = w.Collector()
	}
	for n, w := range perfWorlds {
		collectors[n+"/perf-only"] = w.Collector()
	}

	res := &ScenarioResult{
		Name:        "Scenario 5",
		Description: "SbQA adapts to what participants care about",
		Table:       metrics.ResultTable("Scenario 5 — intention policies flipped to performance", rows),
		Results:     rows,
		Collectors:  collectors,
	}
	var sbqaDef, sbqaPerf metrics.Result
	for _, r := range rows {
		switch r.Technique {
		case "SbQA/interests":
			sbqaDef = r
		case "SbQA/perf-only":
			sbqaPerf = r
		}
	}
	res.Notes = append(res.Notes, fmt.Sprintf(
		"with performance-only intentions SbQA cuts mean response time from %.2f to %.2f and utilization σ from %.3f to %.3f",
		sbqaDef.MeanResponseTime, sbqaPerf.MeanResponseTime,
		sbqaDef.UtilizationStd, sbqaPerf.UtilizationStd))
	return res, nil
}

// Scenario6 — Application adaptability: sweeping kn and ω.
//
// The demo adapts the allocation process to the application by varying the
// KnBest kn parameter and the scoring balance ω. The sweep shows the
// monotone trade between response time and provider satisfaction, with the
// adaptive ω sitting near the knee.
func Scenario6(opt Options) (*ScenarioResult, error) {
	opt = opt.withDefaults()
	opt.logf("scenario 6: kn and ω sweeps")
	cfg := opt.baseConfig(boinc.Autonomous)

	res := &ScenarioResult{
		Name:        "Scenario 6",
		Description: "tuning SbQA to the application via kn and ω",
		Collectors:  map[string]*metrics.Collector{},
	}

	// Sweep 1: kn with adaptive ω (k = 20).
	knTable := &metrics.Table{
		Title:   "Scenario 6a — varying kn (k=20, ω adaptive, autonomous)",
		Columns: []string{"kn", "RTmean", "sat(C)", "sat(P)", "left(P)", "contacts"},
	}
	for _, kn := range []int{1, 2, 5, 10, 20} {
		tech := policy.Spec{Name: fmt.Sprintf("SbQA(kn=%d)", kn), Kind: policy.SbQA, K: 20, Kn: kn}
		r, w, err := runOne(tech, cfg, cfg.Seed+uint64(kn)*104729, nil)
		if err != nil {
			return nil, err
		}
		res.Results = append(res.Results, r)
		res.Collectors[tech.Name] = w.Collector()
		knTable.Rows = append(knTable.Rows, []string{
			fmt.Sprintf("%d", kn),
			fmt.Sprintf("%.2f", r.MeanResponseTime),
			fmt.Sprintf("%.3f", r.ConsumerSat),
			fmt.Sprintf("%.3f", r.ProviderSat),
			fmt.Sprintf("%d", r.ProvidersLeft),
			fmt.Sprintf("%.1f", r.MeanContacts),
		})
	}
	res.Extra = append(res.Extra, knTable)

	// Sweep 2: ω with kn = 10.
	omegaTable := &metrics.Table{
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
		r, w, err := runOne(tech, cfg, cfg.Seed+uint64(i+1)*224737, nil)
		if err != nil {
			return nil, err
		}
		res.Results = append(res.Results, r)
		res.Collectors[tech.Name] = w.Collector()
		omegaTable.Rows = append(omegaTable.Rows, []string{
			label,
			fmt.Sprintf("%.2f", r.MeanResponseTime),
			fmt.Sprintf("%.3f", r.ConsumerSat),
			fmt.Sprintf("%.3f", r.ProviderSat),
			fmt.Sprintf("%d", r.ProvidersLeft),
		})
	}
	res.Extra = append(res.Extra, omegaTable)

	res.Notes = append(res.Notes,
		"small kn ⇒ load balancing (low response time, dissatisfied providers); large kn ⇒ interest matching",
		"ω→0 favours consumers, ω→1 favours providers; the adaptive rule needs no per-application tuning")
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

// Scenario7 — Playing a BOINC-participant role.
//
// A probe volunteer (a fan of the unpopular project) and a probe project
// (with pronounced host preferences) are planted in the population with
// explicit objectives. The demo's claim: only the SQLB mediation used by
// SbQA lets the participant reach its objectives under every technique
// comparison.
func Scenario7(opt Options) (*ScenarioResult, error) {
	return Scenario7Probe(opt, DefaultProbe())
}

// Scenario7Probe is Scenario 7 with the caller's probe planted.
func Scenario7Probe(opt Options, probe Probe) (*ScenarioResult, error) {
	opt = opt.withDefaults()
	opt.logf("scenario 7: probe participants")
	cfg := opt.baseConfig(boinc.Autonomous)
	techs := allTechniques()

	probeVolunteer := model.ProviderID(0)
	probeProject := model.ConsumerID(2) // Einstein@home, the unpopular one

	customize := func(w *boinc.World) {
		w.SetVolunteerPrefs(probeVolunteer, probe.VolunteerPrefs)
		// The probe project's preferences split the volunteers at the
		// fastest quartile of capacity.
		vols := w.Volunteers()
		caps := make([]float64, len(vols))
		for i, v := range vols {
			caps[i] = v.Capacity()
		}
		cut := quantile(caps, 0.75)
		hostPrefs := make([]float64, len(vols))
		for i, v := range vols {
			if v.Capacity() >= cut {
				hostPrefs[i] = probe.FastHostPref
			} else {
				hostPrefs[i] = probe.SlowHostPref
			}
		}
		w.SetProjectPrefs(probeProject, hostPrefs)
	}

	table := &metrics.Table{
		Title: "Scenario 7 — probe participants' objectives",
		Columns: []string{
			"technique", "probe δs(P)", "P online", "P objective",
			"probe δs(C)", "C objective", "both met",
		},
	}
	res := &ScenarioResult{
		Name:        "Scenario 7",
		Description: "a participant reaches its objectives only under SbQA",
		Collectors:  map[string]*metrics.Collector{},
	}
	meets := map[string]bool{}
	for i, tech := range techs {
		r, w, err := runOne(tech, cfg, cfg.Seed+uint64(i)*15485863, customize)
		if err != nil {
			return nil, err
		}
		res.Results = append(res.Results, r)
		res.Collectors[tech.Name] = w.Collector()

		vol := w.Volunteers()[probeVolunteer]
		proj := w.Projects()[probeProject]
		pSat := vol.Satisfaction()
		if !vol.Online() {
			// Satisfaction memory is wiped on departure; a volunteer
			// that left was by definition below threshold.
			pSat = 0
		}
		cSat := proj.Satisfaction()
		pOK := vol.Online() && pSat >= probe.ProviderObjective
		cOK := proj.Online() && cSat >= probe.ConsumerObjective
		meets[tech.Name] = pOK && cOK
		table.Rows = append(table.Rows, []string{
			tech.Name,
			fmt.Sprintf("%.3f", pSat),
			fmt.Sprintf("%v", vol.Online()),
			fmt.Sprintf("%v", pOK),
			fmt.Sprintf("%.3f", cSat),
			fmt.Sprintf("%v", cOK),
			fmt.Sprintf("%v", pOK && cOK),
		})
	}
	res.Table = table
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

// quantile returns the q-th quantile (0..1) of values (copied, not mutated).
func quantile(values []float64, q float64) float64 {
	s := stats.NewSummary()
	for _, v := range values {
		s.Add(v)
	}
	return s.Percentile(q * 100)
}

// Scenario is one entry of the registry `sbqalab paper` runs: the key its
// -scenario flag names and the function that regenerates the output.
type Scenario struct {
	Key string
	Run func(Options) (*ScenarioResult, error)
}

// Scenarios lists the paper's seven demo scenarios, then the extension
// studies, in the order `-scenario all` prints them.
func Scenarios() []Scenario {
	return []Scenario{
		{"1", Scenario1}, {"2", Scenario2}, {"3", Scenario3}, {"4", Scenario4},
		{"5", Scenario5}, {"6", Scenario6}, {"7", Scenario7},
		{"m", MotivatingExample}, {"v", MaliciousStudy}, {"r", ReplicationStudy}, {"a", AdWordsStudy},
	}
}
