package experiments

import (
	"fmt"

	"sbqa/internal/boinc"
	"sbqa/internal/intention"
	"sbqa/internal/metrics"
	"sbqa/internal/model"
	"sbqa/internal/policy"
	"sbqa/internal/workload"
)

// MaliciousStudy exercises the validation substrate the paper motivates
// replication with ("as providers may be malicious, consumers may create
// several instances of a query so as to validate results"): a fraction of
// volunteers return invalid results, queries are validated by a quorum of
// matching results, and invalid results destroy the sender's reputation.
//
// The study compares three mediations on the same poisoned population:
//
//   - Capacity — interest- and reputation-blind: malicious hosts keep
//     receiving work, so validation failures persist for the whole run;
//   - SbQA with preference-only consumers — intentions ignore reputation,
//     so SbQA cannot shield consumers either;
//   - SbQA with reputation-blended consumers — invalid results lower the
//     sender's reputation, intentions turn against it, and the failure
//     rate decays as the system learns.
//
// This is an extension experiment (the demo only hints at the mechanism);
// it demonstrates that the intention channel is how consumers actually
// *use* reputation in SbQA.
func MaliciousStudy(opt Options) (*ScenarioResult, error) {
	opt = opt.withDefaults()
	opt.logf("malicious study: reputation-driven intentions vs poisoned volunteers")

	const maliciousFraction = 0.2

	type variant struct {
		name string
		tech policy.Spec
		pol  func(workload.Project) intention.ConsumerPolicy
	}
	variants := []variant{
		{"Capacity", capacitySpec, nil},
		{"SbQA/pref-only", sbqaSpec, func(workload.Project) intention.ConsumerPolicy {
			return intention.PreferenceConsumer{}
		}},
		{"SbQA/reputation", sbqaSpec, func(workload.Project) intention.ConsumerPolicy {
			return intention.ReputationBlendConsumer{Gamma: 0.4}
		}},
	}

	table := &metrics.Table{
		Title: "malicious volunteers (20% of the population), captive",
		Columns: []string{
			"technique", "fail% (first ¼)", "fail% (rest)", "RTmean", "sat(C)",
		},
	}
	res := &ScenarioResult{
		Name:        "Malicious study",
		Description: "reputation-blended intentions quarantine malicious volunteers",
		Collectors:  map[string]*metrics.Collector{},
	}

	for i, v := range variants {
		cfg := opt.baseConfig(boinc.Captive)
		cfg.Workload.MaliciousFraction = maliciousFraction
		if v.pol != nil {
			cfg.ConsumerPolicy = v.pol
		}
		// Reputation converges fast (EWMA); split early so the learning
		// transient is visible.
		half := cfg.Duration / 4
		// Track per-phase completions; failures are inferred from issue
		// counts per phase at the end via the completion ratio.
		var done1, done2 int64
		cfg.OnComplete = func(q model.Query, _ float64) {
			if q.IssuedAt < half {
				done1++
			} else {
				done2++
			}
		}
		var issued1, issued2 int64
		cfg.OnIssue = func(q model.Query) {
			if q.IssuedAt < half {
				issued1++
			} else {
				issued2++
			}
		}

		r, w, err := runOne(v.tech, cfg, cfg.Seed+uint64(i)*7919, nil)
		if err != nil {
			return nil, fmt.Errorf("experiments: malicious: %w", err)
		}
		r.Technique = v.name
		res.Results = append(res.Results, r)
		res.Collectors[v.name] = w.Collector()

		failPct := func(issued, done int64) float64 {
			if issued == 0 {
				return 0
			}
			f := float64(issued-done) / float64(issued) * 100
			if f < 0 {
				return 0
			}
			return f
		}
		table.Rows = append(table.Rows, []string{
			v.name,
			fmt.Sprintf("%.1f%%", failPct(issued1, done1)),
			fmt.Sprintf("%.1f%%", failPct(issued2, done2)),
			fmt.Sprintf("%.2f", r.MeanResponseTime),
			fmt.Sprintf("%.3f", r.ConsumerSat),
		})
	}
	res.Table = table
	res.Notes = append(res.Notes,
		"failure% counts queries whose replicas could not reach the validation quorum (plus in-flight stragglers)",
		"only reputation-blended intentions learn to route around malicious hosts; blind techniques fail at a constant rate")
	return res, nil
}
