package lab

import (
	"fmt"

	"sbqa/internal/model"
	"sbqa/internal/policy"
	"sbqa/internal/stats"
)

// MotivatingExample reproduces the paper's §IV example of BOINC's native
// resource shares:
//
//	"a provider may donate its computational resources to two consumers ca
//	and cb in a fraction of 80% and 20%, respectively. In this case, cb
//	cannot use more than the assigned 20% of computational resources even
//	if ca is not generating queries."
//
// Two projects; every volunteer devotes 80% to ca and 20% to cb. At half
// time ca stops and cb triples its demand. Under the share-based technique
// volunteers enforce their shares and cb stays capped at 20% of every host;
// under SbQA the same affinities are intentions, so idle capacity absorbs
// the burst.
func MotivatingExample(base Scenario) (*Study, error) {
	const ca, cb = 0, 1
	table := &Table{
		Title: "motivating example — ca stops at half-time, cb triples its demand",
		Columns: []string{
			"technique", "cb RT (phase 1)", "cb RT (phase 2)", "phase-2 util",
			"unallocated", "sat(P)",
		},
	}
	res := &Study{
		Name:        "Motivating example (§IV)",
		Description: "resource-share rigidity wastes idle capacity; intentions do not",
		Table:       table,
	}
	mod := func(v *VolunteerSpec) {
		v.Load = 0.6
		v.Projects = []ProjectSpec{
			{Name: "ca", Popularity: Popular, ArrivalShare: 0.8, Replication: 1, DelayTarget: 30},
			{Name: "cb", Popularity: Unpopular, ArrivalShare: 0.2, Replication: 1, DelayTarget: 30},
		}
	}
	half := base.Duration / 2
	for i, tc := range []policy.Spec{{Name: "ShareBased(80/20)", Kind: policy.ShareBased}, sbqaSpec} {
		var phase1, phase2 []float64
		setup := func(w *world) {
			w.vol.onComplete = func(q model.Query, rt float64) {
				if q.Consumer != cb {
					return
				}
				if q.IssuedAt < half {
					phase1 = append(phase1, rt)
				} else {
					phase2 = append(phase2, rt)
				}
			}
			for _, v := range w.providers {
				// Volunteers trade preference for utilization the SQLB way
				// (the flexibility the paper says BOINC lacks) and devote
				// exactly 80/20.
				v.vol.policy = adaptiveProvider
				v.vol.setPrefs([]float64{0.75, 0.15})
			}
			cbRate := w.projects[cb].arrivalRate
			w.eng.Schedule(half, func() {
				w.setArrivalRate(w.projects[ca], 0)
				w.setArrivalRate(w.projects[cb], cbRate*3)
			})
		}
		_, r, err := runTechnique(base, tc, base.Seed+uint64(i)*7919, mod, setup)
		if err != nil {
			return nil, err
		}
		res.Reports = append(res.Reports, r)
		table.Rows = append(table.Rows, []string{
			tc.Name,
			fmt.Sprintf("%.2f", stats.MeanOf(phase1)),
			fmt.Sprintf("%.2f", stats.MeanOf(phase2)),
			fmt.Sprintf("%.2f", tailMean(r.Trajectory, 0.4, func(p TrajectoryPoint) float64 { return p.Utilization })),
			fmt.Sprintf("%d", r.Rejected),
			fmt.Sprintf("%.3f", r.Volunteers.ProviderSat),
		})
	}
	res.Notes = []string{
		"with enforced shares cb stays capped at 20% of every host even though 80% of the donated capacity idles in phase 2",
		"SbQA expresses the same 80/20 affinity as intentions, so cb's burst is absorbed by otherwise-idle capacity",
	}
	return res, nil
}

// MaliciousStudy exercises the validation the paper motivates replication
// with ("as providers may be malicious, consumers may create several
// instances of a query so as to validate results"): 20% of the volunteers
// return invalid results, and an invalid result destroys the sender's
// reputation. Capacity is blind to it; SbQA with preference-only consumers
// cannot use it; SbQA with reputation-blended consumers learns to route
// around the malicious hosts — the intention channel is how consumers use
// reputation.
func MaliciousStudy(base Scenario) (*Study, error) {
	table := &Table{
		Title: "malicious volunteers (20% of the population), captive",
		Columns: []string{
			"technique", "fail% (first ¼)", "fail% (rest)", "RTmean", "sat(C)",
		},
	}
	res := &Study{
		Name:        "Malicious study",
		Description: "reputation-blended intentions quarantine malicious volunteers",
		Table:       table,
	}
	// Reputation converges fast; split early so the learning transient
	// shows.
	split := base.Duration / 4
	for i, variant := range []struct {
		tech   policy.Spec
		policy consumerPolicy // nil keeps the preset's γ = 0.7
	}{
		{capacitySpec, nil},
		{policy.Spec{Name: "SbQA/pref-only", Kind: policy.SbQA}, preferenceConsumer},
		{policy.Spec{Name: "SbQA/reputation", Kind: policy.SbQA}, reputationBlend(0.4)},
	} {
		var issued, done [2]int
		phase := func(q model.Query) int {
			if q.IssuedAt < split {
				return 0
			}
			return 1
		}
		setup := func(w *world) {
			w.vol.onIssue = func(q model.Query) { issued[phase(q)]++ }
			w.vol.onComplete = func(q model.Query, _ float64) { done[phase(q)]++ }
			if variant.policy != nil {
				for _, p := range w.projects {
					p.policy = variant.policy
				}
			}
		}
		mod := func(v *VolunteerSpec) { v.Malicious = 0.2 }
		_, r, err := runTechnique(base, variant.tech, base.Seed+uint64(i)*7919, mod, setup)
		if err != nil {
			return nil, err
		}
		res.Reports = append(res.Reports, r)
		failPct := func(p int) float64 {
			if issued[p] == 0 {
				return 0
			}
			return max(float64(issued[p]-done[p])/float64(issued[p])*100, 0)
		}
		table.Rows = append(table.Rows, []string{
			variant.tech.Name,
			fmt.Sprintf("%.1f%%", failPct(0)),
			fmt.Sprintf("%.1f%%", failPct(1)),
			fmt.Sprintf("%.2f", r.MeanResponse),
			fmt.Sprintf("%.3f", r.Volunteers.ConsumerSat),
		})
	}
	res.Notes = []string{
		"failure% counts queries whose replicas could not reach the validation quorum (plus in-flight stragglers)",
		"only reputation-blended intentions learn to route around malicious hosts; blind techniques fail at a constant rate",
	}
	return res, nil
}

// ReplicationStudy evaluates satisfaction-adaptive replication (SbQR-style):
// fixed q.n = 1 is cheap but fails every query a malicious host takes;
// fixed q.n = 3 is robust but triples the offered load; adaptive widens to
// 3 only while recent queries have been failing validation. All three run
// the same poisoned population (20% malicious) under SbQA with
// reputation-blended intentions, so the comparison isolates the rule.
func ReplicationStudy(base Scenario) (*Study, error) {
	table := &Table{
		Title: "replication policies, 20% malicious volunteers, SbQA + reputation",
		Columns: []string{
			"policy", "fail%", "replicas/query", "RTmean", "throughput",
		},
	}
	res := &Study{
		Name:        "Replication study",
		Description: "adaptive replication beats both fixed policies at intermediate cost",
		Table:       table,
	}
	// With a majority quorum even replication buys no tolerance (2-of-2
	// fails if either replica is bad), so the rules move between 1 and 3.
	for i, variant := range []struct {
		name string
		fn   func(base int, sat, failRate float64) int
	}{
		{"fixed n=1", func(int, float64, float64) int { return 1 }},
		{"fixed n=3", func(int, float64, float64) int { return 3 }},
		{"adaptive", func(_ int, _, failRate float64) int {
			if failRate < 0.03 {
				return 1
			}
			return 3
		}},
	} {
		var issued, replicas int
		setup := func(w *world) {
			w.vol.replication = variant.fn
			w.vol.onIssue = func(q model.Query) { issued, replicas = issued+1, replicas+q.N }
			for _, p := range w.projects {
				p.policy = reputationBlend(0.2)
			}
		}
		// The base load leaves even n = 3 under capacity (offered load
		// scales with the replication factor).
		mod := func(v *VolunteerSpec) { v.Load, v.Malicious = 0.4, 0.2 }
		tech := sbqaSpec
		tech.Name = variant.name
		_, r, err := runTechnique(base, tech, base.Seed+uint64(i)*7919, mod, setup)
		if err != nil {
			return nil, err
		}
		res.Reports = append(res.Reports, r)
		// Failures over resolved queries, so stragglers still in flight do
		// not count.
		failPct := 0.0
		if resolved := r.Completed + r.Failed; resolved > 0 {
			failPct = float64(r.Failed) / float64(resolved) * 100
		}
		meanRepl := 0.0
		if issued > 0 {
			meanRepl = float64(replicas) / float64(issued)
		}
		table.Rows = append(table.Rows, []string{
			variant.name,
			fmt.Sprintf("%.1f%%", failPct),
			fmt.Sprintf("%.2f", meanRepl),
			fmt.Sprintf("%.2f", r.MeanResponse),
			fmt.Sprintf("%.2f", float64(r.Completed)/r.Scenario.Duration),
		})
	}
	res.Notes = []string{
		"adaptive replication widens q.n only while validation failures are fresh, then relaxes as reputation quarantines the malicious hosts",
		"fixed n=3 underdelivers on its theoretical 2-of-3 tolerance: its extra load saturates honest hosts, so KnBest's utilization stage keeps recycling idle malicious ones into Kn",
	}
	return res, nil
}

// adWordsMarket is the §I population: four topics [health, sports, insects,
// electronics] and four advertisers wanting 2 impressions per second each.
func adWordsMarket() *AdSpec {
	return &AdSpec{Rate: 4, Advertisers: []AdvertiserSpec{
		{Name: "pharma", Interests: []float64{1, 0, 0.15, 0}, TargetRate: 2},
		{Name: "sports", Interests: []float64{0.2, 1, 0.4, 0}, TargetRate: 2},
		{Name: "electro", Interests: []float64{0, 0, 0, 1}, TargetRate: 2},
		{Name: "grocer", Interests: []float64{0.4, 0.2, 0.2, 0.1}, TargetRate: 2},
	}}
}

// AdWordsStudy reproduces the paper's §I keyword-advertising motivation: a
// pharmaceutical advertiser runs an insect-repellent campaign for the first
// half of the run ("during the promotion, it is more interested in treating
// the queries related to mosquitoes or insect bites than general queries.
// Once the advertising campaign is over, its intentions may change").
// Capacity is pure pacing, blind to relevance and campaigns; SbQA balances
// user relevance against the advertisers' current interests. The
// observable is pharma's share of insect-query placements during and after
// its campaign.
func AdWordsStudy(base Scenario) (*Study, error) {
	const insectTopic = 2
	switchAt := base.Duration / 2
	table := &Table{
		Title: "adwords — pharma campaign on 'insects' for the first half",
		Columns: []string{
			"mediation", "insect share (campaign)", "insect share (after)",
			"pharma δs", "placements",
		},
	}
	res := &Study{
		Name:        "AdWords study (§I)",
		Description: "allocation follows advertisers' dynamic intentions under SbQA",
		Table:       table,
	}
	for i, tc := range []policy.Spec{
		{Name: "Capacity(pacing)", Kind: policy.Capacity},
		{Name: "SbQA(adaptive ω)", Kind: policy.SbQA},
		// Ad platforms weight advertiser goals heavily; the paper notes ω
		// "can be set in accordance to the kind of application".
		{Name: "SbQA(ω=0.75)", Kind: policy.SbQA, OmegaMode: policy.OmegaFixed, Omega: 0.75},
	} {
		seed := base.Seed + uint64(i)*7919
		tc.Seed = seed
		sc := Scenario{Name: tc.Name, Seed: seed, Duration: base.Duration, Window: 100, Policy: tc,
			Workload: Workload{Ads: adWordsMarket()}}
		var insect, pharmaWins [2]int
		w, r, err := run(sc, false, func(w *world) {
			pharma := w.ads.advertisers[0]
			pharma.interests.addCampaign(campaign{boost: vector{0, 0, 5, 0}, until: switchAt})
			w.ads.onWin = func(q model.Query, topic vector, winner *advertiser) {
				if dominantTopic(topic) != insectTopic {
					return
				}
				phase := 0
				if q.IssuedAt >= switchAt {
					phase = 1
				}
				insect[phase]++
				if winner == pharma {
					pharmaWins[phase]++
				}
			}
		})
		if err != nil {
			return nil, fmt.Errorf("lab: adwords: %w", err)
		}
		res.Reports = append(res.Reports, r)
		share := func(p int) float64 {
			if insect[p] == 0 {
				return 0
			}
			return float64(pharmaWins[p]) / float64(insect[p]) * 100
		}
		table.Rows = append(table.Rows, []string{
			tc.Name,
			fmt.Sprintf("%.0f%%", share(0)),
			fmt.Sprintf("%.0f%%", share(1)),
			fmt.Sprintf("%.3f", w.live.ProviderSatisfaction(0)),
			fmt.Sprintf("%d", r.Mediated),
		})
	}
	res.Notes = []string{
		"with the application-tuned ω=0.75 the pharma advertiser's insect share tracks its campaign window; pacing-only mediation never moves",
		"the adaptive ω instead deprioritizes pharma's campaign because pharma is already the best-satisfied advertiser — Equation 2's fairness at work; ad platforms want the fixed, provider-leaning balance",
	}
	return res, nil
}
