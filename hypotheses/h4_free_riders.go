package hypotheses

import (
	"fmt"

	"sbqa/internal/lab"
	"sbqa/internal/policy"
)

// H4: the adaptation loop as a defense. Free-riders accept work and drop
// it; consumers observe the failures, their learned intentions sour, and
// sbqa's scoring should squeeze the free-riders out of the allocation —
// something seed-blind random allocation cannot do.
func init() {
	lab.Register(lab.Hypothesis{
		ID: "H4-free-riders",
		Claim: "With 25% free-riding providers, sbqa completes at least 5% more queries " +
			"than random allocation and cuts the free-riders' allocation share by at " +
			"least 25% relative to random.",
		Rationale: "Every query a free-rider wins is lost work. Random allocation keeps " +
			"feeding them ~25% of traffic forever; sbqa folds consumer intentions (EWMA of " +
			"observed quality) into the score, so repeat offenders stop being proposed. " +
			"The ceiling is structural: only ~25% of allocations are savable at all, and " +
			"each lesson costs one timed-out query first.",
		Scenarios: func(scale lab.Scale) []lab.Scenario {
			// Free-riders contribute zero real capacity, so the honest 75% of
			// a 60-provider class must carry the load: rate 18 ⇒ ρ ≈ 0.8 over
			// the honest fleet. Small enough pools that consumers re-encounter
			// offenders and the intention EWMA can actually learn.
			duration := pick(scale, 900, 90)
			wl := lab.Workload{
				Classes: uniformClasses(
					3,
					int(pick(scale, 12, 5)),
					int(pick(scale, 60, 20)),
					pick(scale, 18, 6),
					lab.CostSpec{Kind: "exp", Mean: 2},
				),
				Adversaries:  lab.AdversarySpec{FreeRiders: 0.25},
				QueryTimeout: 20,
			}
			return duel("h4", scale, wl, duration, sbqa(8, 3, 1), policy.Spec{Kind: policy.Random, Seed: 1})
		},
		Judge: func(reports []*lab.Report) lab.Outcome {
			s, rnd := reports[0], reports[1]
			completedGain := pct(float64(s.Completed), float64(rnd.Completed))
			shareRatio := 0.0
			if rnd.Shares.FreeRider > 0 {
				shareRatio = s.Shares.FreeRider / rnd.Shares.FreeRider
			}
			o := lab.Outcome{
				Detail: fmt.Sprintf("sbqa completed %d vs random %d (%+.1f%%, threshold +5%%); "+
					"free-rider share %.3f vs %.3f (ratio %.2f, threshold <= 0.75)",
					s.Completed, rnd.Completed, completedGain,
					s.Shares.FreeRider, rnd.Shares.FreeRider, shareRatio),
				Metrics: map[string]float64{
					"sbqa_completed":         float64(s.Completed),
					"random_completed":       float64(rnd.Completed),
					"completed_gain_pct":     completedGain,
					"sbqa_freerider_share":   s.Shares.FreeRider,
					"random_freerider_share": rnd.Shares.FreeRider,
					"share_ratio":            shareRatio,
				},
				Verdict: lab.Refuted,
			}
			if completedGain >= 5 && shareRatio <= 0.75 {
				o.Verdict = lab.Confirmed
			}
			return o
		},
	})
}
