// Package hypotheses is the repo's catalog of falsifiable claims about the
// SbQA engine, each registered as a lab.Hypothesis: a numeric claim, the
// scenario pair that pits it (differing in exactly one dimension), and a
// judge that renders CONFIRMED / REFUTED / INCONCLUSIVE from the reports.
//
// FINDINGS.md in this directory is the generated record of full-scale
// outcomes — regenerate it with `go run ./cmd/sbqalab report` after any
// engine or generator change. Refuted hypotheses stay in the catalog and
// in the findings: a claim the engine falsifies is a result, not a bug in
// the harness.
package hypotheses

import (
	"fmt"

	"sbqa/internal/lab"
	"sbqa/internal/policy"
)

// pick returns full at Full scale and short at Short scale.
func pick(scale lab.Scale, full, short float64) float64 {
	if scale == lab.Short {
		return short
	}
	return full
}

// duel builds the standard pitted pair: one workload (same seed, same
// traffic), two policies. Judges receive reports in [a, b] order.
func duel(name string, scale lab.Scale, wl lab.Workload, duration float64, a, b policy.Spec) []lab.Scenario {
	mk := func(spec policy.Spec, suffix string) lab.Scenario {
		return lab.Scenario{
			Name:     fmt.Sprintf("%s/%s-%s", name, suffix, scale),
			Seed:     1041,
			Duration: duration,
			Window:   8,
			Policy:   spec,
			Workload: wl,
		}
	}
	return []lab.Scenario{mk(a, string(a.Kind)+"-a"), mk(b, string(b.Kind)+"-b")}
}

// uniformClasses builds n identical classes named c0..cn-1.
func uniformClasses(n, consumers, providers int, rate float64, cost lab.CostSpec) []lab.ClassSpec {
	out := make([]lab.ClassSpec, n)
	for i := range out {
		out[i] = lab.ClassSpec{
			Name:      fmt.Sprintf("c%d", i),
			Consumers: consumers,
			Providers: providers,
			Rate:      rate,
			Cost:      cost,
		}
	}
	return out
}

func sbqa(k, kn int, seed uint64) policy.Spec {
	return policy.Spec{Kind: policy.SbQA, K: k, Kn: kn, Seed: seed}
}

// pct returns the relative change of got against base in percent
// (negative = got is lower).
func pct(got, base float64) float64 {
	if base == 0 {
		return 0
	}
	return (got - base) / base * 100
}

// classByName finds a per-class report; judges use it to zoom in on the
// class a disturbance targets. Returns a zero report if absent.
func classByName(r *lab.Report, name string) lab.ClassReport {
	for _, c := range r.Classes {
		if c.Name == name {
			return c
		}
	}
	return lab.ClassReport{}
}
