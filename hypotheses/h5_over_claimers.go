package hypotheses

import (
	"fmt"

	"sbqa/internal/lab"
	"sbqa/internal/policy"
)

// H5: the flip side of H4 — a self-reported-state allocator is the one
// that adversaries can game. Over-claimers report no backlog at all (and 8x
// an honest capacity, which the Capacity allocator never reads: it ranks by
// the reported backlog); capacity-only mediation takes the empty queue at
// face value, while sbqa's satisfaction feedback discounts the lie.
func init() {
	lab.Register(lab.Hypothesis{
		ID: "H5-over-claimers",
		Claim: "With 20% over-claiming providers, capacity-only allocation routes at " +
			"least twice the allocation share to over-claimers that sbqa does, and its " +
			"p99 response time is at least 25% worse than sbqa's.",
		Rationale: "Capacity scoring trusts the snapshot: an inflated capacity and an " +
			"understated queue make an over-claimer look like the best host in the class. " +
			"SbQA blends consumer intentions learned from slow deliveries, so the same " +
			"lie stops paying after a few windows.",
		Scenarios: func(scale lab.Scale) []lab.Scenario {
			// Over-claimers run at a quarter of their true speed while
			// reporting an idle 8x machine. Rate 14 over 60 providers keeps
			// the honest fleet comfortable (ρ ≈ 0.55), so the outcome gap is
			// attributable to who takes the bait, not to global collapse.
			duration := pick(scale, 300, 60)
			wl := lab.Workload{
				Classes: uniformClasses(
					3,
					int(pick(scale, 12, 5)),
					int(pick(scale, 60, 20)),
					pick(scale, 14, 5),
					lab.CostSpec{Kind: "exp", Mean: 2},
				),
				Adversaries: lab.AdversarySpec{OverClaimers: 0.2},
			}
			return duel("h5", scale, wl, duration, policy.Spec{Kind: policy.Capacity}, sbqa(8, 3, 1))
		},
		Judge: func(reports []*lab.Report) lab.Outcome {
			cap, s := reports[0], reports[1]
			shareRatio := 0.0
			if s.Shares.OverClaimer > 0 {
				shareRatio = cap.Shares.OverClaimer / s.Shares.OverClaimer
			}
			p99Penalty := pct(cap.P99Response, s.P99Response)
			o := lab.Outcome{
				Detail: fmt.Sprintf("over-claimer share: capacity %.3f vs sbqa %.3f (ratio %.2f, threshold >= 2); "+
					"p99: capacity %.2fs vs sbqa %.2fs (%+.1f%%, threshold >= +25%%)",
					cap.Shares.OverClaimer, s.Shares.OverClaimer, shareRatio,
					cap.P99Response, s.P99Response, p99Penalty),
				Metrics: map[string]float64{
					"capacity_overclaimer_share": cap.Shares.OverClaimer,
					"sbqa_overclaimer_share":     s.Shares.OverClaimer,
					"share_ratio":                shareRatio,
					"capacity_p99_s":             cap.P99Response,
					"sbqa_p99_s":                 s.P99Response,
					"p99_penalty_pct":            p99Penalty,
				},
				Verdict: lab.Refuted,
			}
			if shareRatio >= 2 && p99Penalty >= 25 {
				o.Verdict = lab.Confirmed
			}
			return o
		},
	})
}
