package lab

import (
	"strconv"
	"strings"
	"testing"
)

// testOptions returns a small, fast study base. The qualitative shapes
// asserted below are those EXPERIMENTS.md records at paper scale; the small
// populations here preserve them (verified against full-scale runs).
func testOptions() Scenario { return Volunteering(40, 400, 7) }

// fullerOptions is used where the effect needs more simulated time to appear
// (departure dynamics under slowly-judging techniques).
func fullerOptions() Scenario { return Volunteering(60, 900, 7) }

func findResult(t *testing.T, rs *Study, technique string) (out struct {
	RT, SatC, SatP float64
	Left           int
}) {
	t.Helper()
	for _, r := range rs.Reports {
		if r.Scenario.Name == technique {
			out.RT = r.MeanResponse
			out.SatC = r.Volunteers.ConsumerSat
			out.SatP = r.Volunteers.ProviderSat
			out.Left = r.Volunteers.ProvidersLeft
			return out
		}
	}
	t.Fatalf("technique %q missing from results %v", technique, rs.Reports)
	return out
}

func TestScenario1Shapes(t *testing.T) {
	rs, err := Scenario1(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Reports) != 2 {
		t.Fatalf("want 2 techniques, got %d", len(rs.Reports))
	}
	for _, r := range rs.Reports {
		if r.Completed == 0 {
			t.Errorf("%s completed nothing", r.Scenario.Name)
		}
		// Captive: no departures possible.
		if r.Volunteers.ProvidersLeft != 0 || r.Volunteers.ConsumersLeft != 0 {
			t.Errorf("%s: departures in captive mode", r.Scenario.Name)
		}
		// Interest-blind techniques leave providers mediocre at best.
		if r.Volunteers.ProviderSat > 0.65 {
			t.Errorf("%s: provider satisfaction %v suspiciously high for an interest-blind technique",
				r.Scenario.Name, r.Volunteers.ProviderSat)
		}
	}
	// The analysis table must cover both techniques with all model notions.
	if len(rs.Extra) == 0 || len(rs.Extra[0].Rows) != 2 {
		t.Fatal("satisfaction analysis table missing")
	}
	if got := len(rs.Extra[0].Columns); got != 8 {
		t.Errorf("analysis columns = %d", got)
	}
}

func TestScenario2Shapes(t *testing.T) {
	rs, err := Scenario2(fullerOptions())
	if err != nil {
		t.Fatal(err)
	}
	totalLeft := 0
	for _, r := range rs.Reports {
		totalLeft += r.Volunteers.ProvidersLeft
	}
	if totalLeft == 0 {
		t.Error("no departures under interest-blind baselines; autonomy dynamics broken")
	}
	// The departure-prediction notes must be present for both techniques.
	preds := 0
	for _, n := range rs.Notes {
		if strings.Contains(n, "predicted") {
			preds++
		}
	}
	if preds != 2 {
		t.Errorf("prediction notes = %d, want 2", preds)
	}
	if len(rs.Extra) == 0 {
		t.Fatal("departure table missing")
	}
}

func TestScenario3Shapes(t *testing.T) {
	rs, err := Scenario3(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	capR := findResult(t, rs, "Capacity")
	sbqaR := findResult(t, rs, "SbQA")
	// SbQA's response time stays within 1.5x of the load balancer…
	if sbqaR.RT > capR.RT*1.5 {
		t.Errorf("SbQA RT %.2f too far from capacity %.2f", sbqaR.RT, capR.RT)
	}
	// …while provider satisfaction is clearly higher.
	if sbqaR.SatP < capR.SatP+0.15 {
		t.Errorf("SbQA provider sat %.3f not clearly above capacity %.3f", sbqaR.SatP, capR.SatP)
	}
	// Consumers are at least as satisfied.
	if sbqaR.SatC < capR.SatC-0.02 {
		t.Errorf("SbQA consumer sat %.3f below capacity %.3f", sbqaR.SatC, capR.SatC)
	}
}

func TestScenario4Shapes(t *testing.T) {
	rs, err := Scenario4(fullerOptions())
	if err != nil {
		t.Fatal(err)
	}
	capR := findResult(t, rs, "Capacity")
	ecoR := findResult(t, rs, "Economic")
	sbqaR := findResult(t, rs, "SbQA")
	// The headline: SbQA retains more volunteers than both baselines.
	if sbqaR.Left >= capR.Left+ecoR.Left && sbqaR.Left > 0 {
		t.Errorf("SbQA lost %d vs capacity %d + economic %d", sbqaR.Left, capR.Left, ecoR.Left)
	}
	if sbqaR.Left > capR.Left || sbqaR.Left > ecoR.Left {
		t.Errorf("SbQA lost %d providers; capacity %d, economic %d", sbqaR.Left, capR.Left, ecoR.Left)
	}
}

func TestScenario5Shapes(t *testing.T) {
	rs, err := Scenario5(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	var def, perf float64
	var defStd, perfStd float64
	for _, r := range rs.Reports {
		switch r.Scenario.Name {
		case "SbQA/interests":
			def, defStd = r.MeanResponse, r.Volunteers.UtilizationSD
		case "SbQA/perf-only":
			perf, perfStd = r.MeanResponse, r.Volunteers.UtilizationSD
		}
	}
	if def == 0 || perf == 0 {
		t.Fatal("scenario 5 rows missing")
	}
	// Performance-only intentions must improve response time and balance.
	if perf >= def {
		t.Errorf("perf-only RT %.2f not better than interest-driven %.2f", perf, def)
	}
	if perfStd >= defStd {
		t.Errorf("perf-only util σ %.3f not better than %.3f", perfStd, defStd)
	}
}

func TestScenario6Shapes(t *testing.T) {
	rs, err := Scenario6(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Extra) != 2 {
		t.Fatalf("want kn and ω sweep tables, got %d", len(rs.Extra))
	}
	knRows := rs.Extra[0].Rows
	if len(knRows) != 5 {
		t.Fatalf("kn sweep rows = %d", len(knRows))
	}
	// Mean contacts must track kn exactly (KnBest bounds communication).
	if knRows[0][5] != "1.0" || knRows[4][5] != "20.0" {
		t.Errorf("contacts don't track kn: %v", knRows)
	}
	// Provider satisfaction grows with kn (more interest matching): compare
	// kn=2 with kn=20 via the Reports (rows are formatted strings).
	var satKn2, satKn20 float64
	for _, r := range rs.Reports {
		switch r.Scenario.Name {
		case "SbQA(kn=2)":
			satKn2 = r.Volunteers.ProviderSat
		case "SbQA(kn=20)":
			satKn20 = r.Volunteers.ProviderSat
		}
	}
	if satKn20 <= satKn2 {
		t.Errorf("provider sat should grow with kn: kn2=%.3f kn20=%.3f", satKn2, satKn20)
	}
	omegaRows := rs.Extra[1].Rows
	if len(omegaRows) != 6 {
		t.Fatalf("ω sweep rows = %d", len(omegaRows))
	}
}

func TestScenario7Shapes(t *testing.T) {
	rs, err := Scenario7(fullerOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Table.Rows) != 3 {
		t.Fatalf("probe table rows = %d", len(rs.Table.Rows))
	}
	// Only SbQA meets both objectives.
	for _, row := range rs.Table.Rows {
		both := row[len(row)-1]
		if row[0] == "SbQA" && both != "true" {
			t.Errorf("SbQA failed the probe objectives: %v", row)
		}
		if row[0] == "Capacity" && both == "true" {
			t.Errorf("Capacity unexpectedly met both objectives: %v", row)
		}
	}
}

func TestRenderProducesTables(t *testing.T) {
	rs, err := Scenario1(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	rs.Render(&sb)
	out := sb.String()
	for _, want := range []string{"Scenario 1", "technique", "Capacity", "Economic", "note:"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

// TestVolunteeringPreset pins the BOINC preset to the demo's parameters.
func TestVolunteeringPreset(t *testing.T) {
	sc, err := Volunteering(100, 2000, 42).normalized()
	if err != nil {
		t.Fatal(err)
	}
	v := sc.Workload.Volunteers
	if v.Volunteers != 100 || sc.Duration != 2000 || sc.Seed != 42 || v.Load != 0.7 ||
		sc.Window != 100 || sc.SampleEvery != 20 || v.Autonomous || v.Malicious != 0 {
		t.Errorf("preset wrong: %+v %+v", sc, *v)
	}
}

func TestDeterministicScenario(t *testing.T) {
	a, err := Scenario3(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Scenario3(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Reports {
		if a.Reports[i].MeanResponse != b.Reports[i].MeanResponse ||
			a.Reports[i].Volunteers.ProviderSat != b.Reports[i].Volunteers.ProviderSat {
			t.Fatalf("scenario 3 not deterministic at row %d", i)
		}
	}
}

func TestMotivatingExampleShapes(t *testing.T) {
	rs, err := MotivatingExample(Volunteering(60, 1200, 7))
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Table.Rows) != 2 {
		t.Fatalf("rows = %d", len(rs.Table.Rows))
	}
	parse := func(s string) float64 {
		v, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
		if err != nil {
			t.Fatalf("parse %q: %v", s, err)
		}
		return v
	}
	var shareP2, sbqaP2, shareP1, sbqaP1 float64
	for _, row := range rs.Table.Rows {
		switch {
		case strings.HasPrefix(row[0], "ShareBased"):
			shareP1, shareP2 = parse(row[1]), parse(row[2])
		case row[0] == "SbQA":
			sbqaP1, sbqaP2 = parse(row[1]), parse(row[2])
		}
	}
	// The paper's claim: cb cannot use the idle 80% under shares; SbQA can.
	if shareP2 < sbqaP2*3 {
		t.Errorf("share-enforced phase-2 RT %.1f should dwarf SbQA's %.1f", shareP2, sbqaP2)
	}
	// Shares must hurt in phase 2 more than in phase 1 (the burst).
	if shareP2 <= shareP1 {
		t.Errorf("share-enforced RT should grow across phases: %.1f -> %.1f", shareP1, shareP2)
	}
	// SbQA absorbs the burst: phase-2 RT within 2x of phase 1.
	if sbqaP2 > sbqaP1*2 {
		t.Errorf("SbQA should absorb the burst: %.1f -> %.1f", sbqaP1, sbqaP2)
	}
	// ShareBased must have refused queries (budget exhaustion).
	for _, r := range rs.Reports {
		if strings.HasPrefix(r.Scenario.Name, "ShareBased") && r.Rejected == 0 {
			t.Error("share enforcement should exhaust budgets and refuse queries")
		}
		if r.Scenario.Name == "SbQA" && r.Rejected != 0 {
			t.Errorf("SbQA refused %d queries", r.Rejected)
		}
	}
}

func TestMaliciousStudyShapes(t *testing.T) {
	rs, err := MaliciousStudy(Volunteering(60, 1500, 7))
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Table.Rows) != 3 {
		t.Fatalf("rows = %d", len(rs.Table.Rows))
	}
	parse := func(s string) float64 {
		v, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
		if err != nil {
			t.Fatalf("parse %q: %v", s, err)
		}
		return v
	}
	rates := map[string][2]float64{}
	for _, row := range rs.Table.Rows {
		rates[row[0]] = [2]float64{parse(row[1]), parse(row[2])}
	}
	capRate := rates["Capacity"]
	repRate := rates["SbQA/reputation"]
	// Reputation-blended intentions must clearly beat the blind baseline in
	// steady state.
	if repRate[1] >= capRate[1]*0.75 {
		t.Errorf("reputation steady-state failure %.1f%% not clearly below capacity %.1f%%",
			repRate[1], capRate[1])
	}
	// And the reputation variant should improve (or at worst hold) over
	// time, while capacity does not improve.
	if repRate[1] > repRate[0] {
		t.Errorf("reputation failures grew: %.1f%% -> %.1f%%", repRate[0], repRate[1])
	}
	// Validation failures are recorded in the results.
	totalFailures := 0
	for _, r := range rs.Reports {
		totalFailures += r.Failed
	}
	if totalFailures == 0 {
		t.Error("no validation failures recorded despite 20% malicious volunteers")
	}
}

func TestMaliciousFractionZeroMeansNoFailures(t *testing.T) {
	// Default worlds have no malicious volunteers: quorum always reached.
	rs, err := Scenario3(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rs.Reports {
		if r.Failed != 0 {
			t.Errorf("%s: %d validation failures without malicious volunteers",
				r.Scenario.Name, r.Failed)
		}
	}
}

func TestReplicationStudyShapes(t *testing.T) {
	rs, err := ReplicationStudy(Volunteering(60, 1500, 7))
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Table.Rows) != 3 {
		t.Fatalf("rows = %d", len(rs.Table.Rows))
	}
	parse := func(s string) float64 {
		v, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
		if err != nil {
			t.Fatalf("parse %q: %v", s, err)
		}
		return v
	}
	row := map[string][]string{}
	for _, r := range rs.Table.Rows {
		row[r[0]] = r
	}
	fail1 := parse(row["fixed n=1"][1])
	fail3 := parse(row["fixed n=3"][1])
	failA := parse(row["adaptive"][1])
	repl3 := parse(row["fixed n=3"][2])
	replA := parse(row["adaptive"][2])
	rt1 := parse(row["fixed n=1"][3])
	rt3 := parse(row["fixed n=3"][3])
	rtA := parse(row["adaptive"][3])
	// Adaptive replication is the robustness winner: fixed-3's extra load
	// saturates the honest hosts, so KnBest's utilization stage recycles
	// idle malicious ones into Kn — tripling replicas does NOT buy the
	// theoretical 2-of-3 tolerance. Adaptive stays at or below both.
	if failA > fail1 || failA > fail3 {
		t.Errorf("adaptive %.1f%% should be ≤ fixed-1 %.1f%% and fixed-3 %.1f%%", failA, fail1, fail3)
	}
	// At clearly fewer replicas than fixed-3…
	if replA >= repl3-0.3 {
		t.Errorf("adaptive replicas/query = %.2f, want clearly under %.2f", replA, repl3)
	}
	// …and response time near fixed-1, not fixed-3.
	if rtA > (rt1+rt3)/2 {
		t.Errorf("adaptive RT %.2f should sit near fixed-1's %.2f, not fixed-3's %.2f", rtA, rt1, rt3)
	}
}

func TestAdWordsStudyShapes(t *testing.T) {
	rs, err := AdWordsStudy(Volunteering(100, 1200, 7))
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Table.Rows) != 3 {
		t.Fatalf("rows = %d", len(rs.Table.Rows))
	}
	parse := func(s string) float64 {
		v, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
		if err != nil {
			t.Fatalf("parse %q: %v", s, err)
		}
		return v
	}
	row := map[string][]string{}
	for _, r := range rs.Table.Rows {
		row[r[0]] = r
	}
	// Pacing-only mediation never reacts to the campaign.
	capDuring := parse(row["Capacity(pacing)"][1])
	capAfter := parse(row["Capacity(pacing)"][2])
	if diff := capDuring - capAfter; diff > 15 || diff < -15 {
		t.Errorf("pacing shares should not move with the campaign: %v%% -> %v%%", capDuring, capAfter)
	}
	// The application-tuned ω tracks the campaign window.
	tunedDuring := parse(row["SbQA(ω=0.75)"][1])
	tunedAfter := parse(row["SbQA(ω=0.75)"][2])
	if tunedDuring < 80 {
		t.Errorf("tuned SbQA should dominate insect queries during the campaign: %v%%", tunedDuring)
	}
	if tunedAfter > tunedDuring/4 {
		t.Errorf("tuned SbQA share should collapse after the campaign: %v%% -> %v%%", tunedDuring, tunedAfter)
	}
}

func TestTableRender(t *testing.T) {
	table := &Table{
		Title:   "Scenario 3",
		Columns: []string{"technique", "RTmean"},
		Rows:    [][]string{{"Capacity", "1.50"}, {"SbQA", "1.80"}},
	}
	var sb strings.Builder
	table.Render(&sb)
	out := sb.String()
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
	var sb strings.Builder
	table.Render(&sb)
	if !strings.Contains(sb.String(), "a") {
		t.Errorf("header missing: %q", sb.String())
	}
}
