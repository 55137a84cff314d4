package hypotheses

import (
	"fmt"

	"sbqa/internal/lab"
	"sbqa/internal/policy"
)

// H1: the paper's central behavioral claim under sudden skew — when one
// class is hit by a flash crowd, satisfaction-based allocation should hold
// consumer satisfaction above a pure load balancer's, because it keeps
// weighing participant intentions while the balancer chases queue depth.
func init() {
	lab.Register(lab.Hypothesis{
		ID: "H1-flash-crowd",
		Claim: "Under a 6x flash crowd on one of four classes, sbqa ends the run with " +
			"the flash-hit class's mean consumer satisfaction at least 5% higher than " +
			"capacity-only allocation's.",
		Rationale: "Capacity-only mediation is interest-blind: under pressure it feeds " +
			"consumers whichever providers are idle, and satisfaction collapses even when " +
			"response times hold. SbQA's score keeps intentions in the loop (ICDE'09 §4).",
		Scenarios: func(scale lab.Scale) []lab.Scenario {
			// Sized for offered load ρ = λ·E[work]/providers ≈ 0.7 per class,
			// so the 6x flash actually saturates c0 instead of vanishing into
			// idle capacity.
			duration := pick(scale, 300, 60)
			wl := lab.Workload{
				Classes: uniformClasses(
					4,
					int(pick(scale, 16, 6)),
					int(pick(scale, 60, 20)),
					pick(scale, 21, 7),
					lab.CostSpec{Kind: "exp", Mean: 2},
				),
				Flash: []lab.FlashSpec{{
					Class: "c0", At: duration * 0.3, Duration: duration * 0.2, Factor: 6,
				}},
			}
			return duel("h1", scale, wl, duration, sbqa(8, 3, 1), policy.Spec{Kind: policy.Capacity})
		},
		Judge: func(reports []*lab.Report) lab.Outcome {
			s, c := reports[0], reports[1]
			sc0, cc0 := classByName(s, "c0"), classByName(c, "c0")
			gain := pct(sc0.ConsumerDS, cc0.ConsumerDS)
			o := lab.Outcome{
				Detail: fmt.Sprintf("flash class δs: sbqa %.4f vs capacity %.4f (%+.1f%%, threshold +5%%); "+
					"fleet-wide δs %.4f vs %.4f; flash-class p99 %.2fs vs %.2fs",
					sc0.ConsumerDS, cc0.ConsumerDS, gain,
					s.ConsumerSatisfaction, c.ConsumerSatisfaction,
					sc0.P99Response, cc0.P99Response),
				Metrics: map[string]float64{
					"sbqa_flash_ds":        sc0.ConsumerDS,
					"capacity_flash_ds":    cc0.ConsumerDS,
					"ds_gain_pct":          gain,
					"sbqa_fleet_ds":        s.ConsumerSatisfaction,
					"capacity_fleet_ds":    c.ConsumerSatisfaction,
					"sbqa_flash_p99_s":     sc0.P99Response,
					"capacity_flash_p99_s": cc0.P99Response,
				},
				Verdict: lab.Refuted,
			}
			if gain >= 5 {
				o.Verdict = lab.Confirmed
			}
			return o
		},
	})
}
