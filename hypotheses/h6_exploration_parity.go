package hypotheses

import (
	"fmt"
	"math"

	"sbqa/internal/lab"
)

// H6: a null hypothesis the catalog keeps on purpose — does KnBest's
// randomized exploration matter at all when the workload is stationary and
// a tenth of the fleet free-rides? The claim is the skeptic's position
// (kn=1 pure exploitation is just as good), stated with a tight 2% band so
// the engine gets a fair chance to falsify it.
func init() {
	lab.Register(lab.Hypothesis{
		ID: "H6-exploration-parity",
		Claim: "Under a stationary Poisson workload with 10% free-riders, pure " +
			"exploitation (kn=1) matches kn=3 on mean consumer satisfaction within 2% — " +
			"exploration adds nothing.",
		Rationale: "Devil's advocate for KnBest: if scores converge quickly, always " +
			"taking the argmax should be as good as sampling. But kn=1 also never " +
			"re-probes providers whose learned intentions went sour, so a persistent " +
			"adversary population may pin it in a worse equilibrium.",
		Scenarios: func(scale lab.Scale) []lab.Scenario {
			// ρ ≈ 0.75 over the honest 90% of a 45-provider class — stationary
			// but loaded, so always-argmax has to live with its choices.
			duration := pick(scale, 300, 60)
			wl := lab.Workload{
				Classes: uniformClasses(
					3,
					int(pick(scale, 12, 5)),
					int(pick(scale, 45, 15)),
					pick(scale, 14, 5),
					lab.CostSpec{Kind: "exp", Mean: 2},
				),
				Adversaries:  lab.AdversarySpec{FreeRiders: 0.1},
				QueryTimeout: 20,
			}
			return duel("h6", scale, wl, duration, sbqa(8, 1, 1), sbqa(8, 3, 1))
		},
		Judge: func(reports []*lab.Report) lab.Outcome {
			exploit, explore := reports[0], reports[1]
			gap := pct(exploit.ConsumerSatisfaction, explore.ConsumerSatisfaction)
			o := lab.Outcome{
				Detail: fmt.Sprintf("kn=1 consumer δs %.4f vs kn=3 %.4f (%+.1f%%, parity band ±2%%); "+
					"free-rider share %.3f vs %.3f",
					exploit.ConsumerSatisfaction, explore.ConsumerSatisfaction, gap,
					exploit.Shares.FreeRider, explore.Shares.FreeRider),
				Metrics: map[string]float64{
					"kn1_consumer_ds":     exploit.ConsumerSatisfaction,
					"kn3_consumer_ds":     explore.ConsumerSatisfaction,
					"ds_gap_pct":          gap,
					"kn1_freerider_share": exploit.Shares.FreeRider,
					"kn3_freerider_share": explore.Shares.FreeRider,
				},
				Verdict: lab.Refuted,
			}
			if math.Abs(gap) <= 2 {
				o.Verdict = lab.Confirmed
			}
			return o
		},
	})
}
