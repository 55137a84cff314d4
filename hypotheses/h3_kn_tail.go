package hypotheses

import (
	"fmt"

	"sbqa/internal/lab"
)

// H3: KnBest's sampling width under heavy-tailed work. With kn=2 the
// mediator concentrates on the top-scored providers, so one Pareto-sized
// query parks a hot provider and the queue behind it eats the tail. Wider
// sampling (kn=8 of k=12) should spread those boulders.
func init() {
	lab.Register(lab.Hypothesis{
		ID: "H3-kn-heavy-tail",
		Claim: "Under Pareto(alpha=1.7) query cost, widening KnBest sampling from kn=2 " +
			"to kn=8 (k=12) cuts p99 response time by at least 20%.",
		Rationale: "Heavy-tailed service times punish deterministic best-first routing: " +
			"the best-scored provider is repeatedly chosen while it digests a boulder. " +
			"Randomizing across a wider kn trades a little score for queue diversity.",
		Scenarios: func(scale lab.Scale) []lab.Scenario {
			// Pareto(1.7) mean ≈ 1.46; rate 50 over 100 providers puts the
			// class near ρ ≈ 0.73, where a single boulder behind a hot
			// provider is felt in the tail.
			duration := pick(scale, 400, 80)
			wl := lab.Workload{
				Classes: uniformClasses(
					2,
					int(pick(scale, 10, 4)),
					int(pick(scale, 100, 25)),
					pick(scale, 50, 12),
					lab.CostSpec{Kind: "pareto", Xm: 0.6, Alpha: 1.7},
				),
			}
			return duel("h3", scale, wl, duration, sbqa(12, 8, 1), sbqa(12, 2, 1))
		},
		Judge: func(reports []*lab.Report) lab.Outcome {
			wide, narrow := reports[0], reports[1]
			change := pct(wide.P99Response, narrow.P99Response)
			o := lab.Outcome{
				Detail: fmt.Sprintf("kn=8 p99 %.2fs vs kn=2 %.2fs (%+.1f%%, threshold -20%%); "+
					"mean %.2fs vs %.2fs; gini %.3f vs %.3f",
					wide.P99Response, narrow.P99Response, change,
					wide.MeanResponse, narrow.MeanResponse,
					wide.GiniUtilization, narrow.GiniUtilization),
				Metrics: map[string]float64{
					"kn8_p99_s":      wide.P99Response,
					"kn2_p99_s":      narrow.P99Response,
					"p99_change_pct": change,
					"kn8_mean_s":     wide.MeanResponse,
					"kn2_mean_s":     narrow.MeanResponse,
					"kn8_gini":       wide.GiniUtilization,
					"kn2_gini":       narrow.GiniUtilization,
				},
				Verdict: lab.Refuted,
			}
			if change <= -20 {
				o.Verdict = lab.Confirmed
			}
			return o
		},
	})
}
