package hypotheses

import (
	"fmt"

	"sbqa/internal/lab"
	"sbqa/internal/policy"
)

// H2: the adaptive balance ω (ICDE'09 Eq. 2) exists to re-weight consumer
// vs provider interest as conditions shift. A churn storm that knocks out
// 40% of the fleet mid-run is exactly such a shift — adaptation should pay.
func init() {
	lab.Register(lab.Hypothesis{
		ID: "H2-churn-storm",
		Claim: "After a storm takes 40% of providers offline for a third of the run, " +
			"adaptive omega finishes with mean consumer satisfaction at least 3% higher " +
			"than a fixed omega of 0.9.",
		Rationale: "Fixed omega = 0.9 keeps betting on consumer interest even while the " +
			"shrunken fleet saturates; the adaptive rule shifts weight toward provider " +
			"state when imbalance grows, spreading load over the survivors.",
		Scenarios: func(scale lab.Scale) []lab.Scenario {
			// ρ ≈ 0.7 before the storm; losing 40% of the fleet pushes the
			// survivors past saturation (ρ ≈ 1.17), which is where the
			// balance rule has to make a real trade-off.
			duration := pick(scale, 600, 60)
			wl := lab.Workload{
				Classes: uniformClasses(
					4,
					int(pick(scale, 12, 5)),
					int(pick(scale, 60, 20)),
					pick(scale, 21, 7),
					lab.CostSpec{Kind: "exp", Mean: 2},
				),
				Storm: &lab.StormSpec{At: duration * 0.3, Duration: duration / 3, Fraction: 0.4},
			}
			adaptive := sbqa(8, 3, 1)
			fixed := sbqa(8, 3, 1)
			fixed.OmegaMode = policy.OmegaFixed
			fixed.Omega = 0.9
			return duel("h2", scale, wl, duration, adaptive, fixed)
		},
		Judge: func(reports []*lab.Report) lab.Outcome {
			ad, fx := reports[0], reports[1]
			gain := pct(ad.ConsumerSatisfaction, fx.ConsumerSatisfaction)
			o := lab.Outcome{
				Detail: fmt.Sprintf("adaptive ω consumer δs %.4f vs fixed ω=0.9 %.4f (%+.1f%%, threshold +3%%); "+
					"provider δs %.4f vs %.4f",
					ad.ConsumerSatisfaction, fx.ConsumerSatisfaction, gain,
					ad.ProviderSatisfaction, fx.ProviderSatisfaction),
				Metrics: map[string]float64{
					"adaptive_consumer_ds": ad.ConsumerSatisfaction,
					"fixed_consumer_ds":    fx.ConsumerSatisfaction,
					"ds_gain_pct":          gain,
					"adaptive_provider_ds": ad.ProviderSatisfaction,
					"fixed_provider_ds":    fx.ProviderSatisfaction,
				},
				Verdict: lab.Refuted,
			}
			if gain >= 3 {
				o.Verdict = lab.Confirmed
			}
			return o
		},
	})
}
