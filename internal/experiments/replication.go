package experiments

import (
	"fmt"

	"sbqa/internal/boinc"
	"sbqa/internal/intention"
	"sbqa/internal/metrics"
	"sbqa/internal/model"
	"sbqa/internal/workload"
)

// ReplicationStudy evaluates satisfaction-adaptive query replication — the
// SbQR-style extension of the framework. The demo motivates replication
// ("consumers may create several instances of a query so as to validate
// results returned by providers") but fixes q.n; here the consumer adapts
// it to the observed risk:
//
//   - fixed q.n = 1: cheapest, but every query landing on a malicious host
//     fails validation;
//   - fixed q.n = 3: robust, but triples the offered load;
//   - adaptive: start at the project's default and widen only while recent
//     queries have been failing validation.
//
// All three variants run the same arrival process on the same poisoned
// population (20% malicious volunteers) under SbQA with reputation-blended
// intentions, so the comparison isolates the replication policy.
func ReplicationStudy(opt Options) (*ScenarioResult, error) {
	opt = opt.withDefaults()
	opt.logf("replication study: fixed vs satisfaction-adaptive q.n")

	type variant struct {
		name string
		fn   func(base int, sat, failRate float64) int
	}
	// With a majority quorum, even replication buys no tolerance (2-of-2
	// fails if either replica is bad), so the policies move between 1 and
	// 3 replicas — as BOINC deployments do.
	variants := []variant{
		{"fixed n=1", func(int, float64, float64) int { return 1 }},
		{"fixed n=3", func(int, float64, float64) int { return 3 }},
		{"adaptive", func(_ int, _, failRate float64) int {
			if failRate < 0.03 {
				return 1
			}
			return 3
		}},
	}

	table := &metrics.Table{
		Title: "replication policies, 20% malicious volunteers, SbQA + reputation",
		Columns: []string{
			"policy", "fail%", "replicas/query", "RTmean", "throughput",
		},
	}
	res := &ScenarioResult{
		Name:        "Replication study",
		Description: "adaptive replication beats both fixed policies at intermediate cost",
		Collectors:  map[string]*metrics.Collector{},
	}

	for i, v := range variants {
		cfg := opt.baseConfig(boinc.Captive)
		// Size the base load so even the n=3 policy stays under capacity
		// (offered load scales with the replication factor).
		cfg.Workload.LoadFactor = 0.4
		cfg.Workload.MaliciousFraction = 0.2
		cfg.ConsumerPolicy = func(workload.Project) intention.ConsumerPolicy {
			return intention.ReputationBlendConsumer{Gamma: 0.2}
		}
		cfg.ReplicationFn = v.fn

		var issued, replicas int64
		cfg.OnIssue = func(q model.Query) {
			issued++
			replicas += int64(q.N)
		}

		r, w, err := runOne(sbqaSpec, cfg, cfg.Seed+uint64(i)*7919, nil)
		if err != nil {
			return nil, fmt.Errorf("experiments: replication: %w", err)
		}
		r.Technique = v.name
		res.Results = append(res.Results, r)
		res.Collectors[v.name] = w.Collector()

		// Failure rate over *resolved* queries (completed or failed), so
		// congestion stragglers still in flight do not count as failures.
		resolved := r.Completed + r.ValidationFailures
		failPct := 0.0
		if resolved > 0 {
			failPct = float64(r.ValidationFailures) / float64(resolved) * 100
		}
		meanRepl := 0.0
		if issued > 0 {
			meanRepl = float64(replicas) / float64(issued)
		}
		table.Rows = append(table.Rows, []string{
			v.name,
			fmt.Sprintf("%.1f%%", failPct),
			fmt.Sprintf("%.2f", meanRepl),
			fmt.Sprintf("%.2f", r.MeanResponseTime),
			fmt.Sprintf("%.2f", r.Throughput),
		})
	}
	res.Table = table
	res.Notes = append(res.Notes,
		"adaptive replication widens q.n only while validation failures are fresh, then relaxes as reputation quarantines the malicious hosts",
		"fixed n=3 underdelivers on its theoretical 2-of-3 tolerance: its extra load saturates honest hosts, so KnBest's utilization stage keeps recycling idle malicious ones into Kn")
	return res, nil
}
