// Benchmark for the workload lab: one op runs a complete small lab
// scenario — world construction, the full virtual-clock event stream, and
// report finalization — against the real mediation engine. It gates the
// lab's end-to-end throughput in CI (BENCH_core.json) and reports the
// simulated mediation rate so a slowdown in either the generators or the
// engine hot path is visible as both ns/op and mediations/sec.
package sbqa

import (
	"testing"

	"sbqa/internal/lab"
)

func benchLabScenario() lab.Scenario {
	return lab.Scenario{
		Name:     "bench-lab-throughput",
		Seed:     17,
		Duration: 30,
		Window:   8,
		Policy:   PolicySpec{Kind: PolicySbQA, K: 8, Kn: 3, Seed: 17},
		Workload: lab.Workload{
			QueryTimeout: 20,
			Classes: []lab.ClassSpec{
				{
					Name: "steady", Consumers: 6, Providers: 40,
					Rate: 10,
					Cost: lab.CostSpec{Kind: "exp", Mean: 2},
				},
				{
					Name: "bursty", Consumers: 4, Providers: 30,
					Rate: 2,
					Cost: lab.CostSpec{Kind: "pareto", Xm: 0.5, Alpha: 2.2},
				},
			},
			// The burst: 15 queries/s for 8 of the 30 seconds.
			Flash:       []lab.FlashSpec{{Class: "bursty", At: 10, Duration: 8, Factor: 7.5}},
			Adversaries: lab.AdversarySpec{FreeRiders: 0.1},
		},
	}
}

func BenchmarkLabMediationThroughput(b *testing.B) {
	var mediated int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := lab.Run(benchLabScenario())
		if err != nil {
			b.Fatal(err)
		}
		mediated += r.Mediated
	}
	b.StopTimer()
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(mediated)/s, "mediations/sec")
	}
}
