package hypotheses

import (
	"fmt"

	"sbqa/internal/lab"
	"sbqa/internal/qos"
)

// H7: overload survival. A 10x flash crowd on the batch class drives the
// mediation station to ~5x its capacity. With QoS classes — strict-priority
// interactive, weight-fair batch bounded at a shallow queue — the scheduler
// sheds batch overflow (loudly, by reason) while interactive queue waits
// barely move. A FIFO station given the identical traffic makes interactive
// queries wait behind the flood.
func init() {
	lab.Register(lab.Hypothesis{
		ID: "H7-overload-shedding",
		Claim: "Under a 10x flash crowd on the batch class (station offered load ~5x capacity), " +
			"class-aware scheduling with deadline-aware shedding keeps the interactive class's " +
			"p99 queue wait within 2x of the calm baseline while batch absorbs the loss as " +
			"counted sheds; the same traffic through a FIFO station does not (p99 > 2x baseline).",
		Rationale: "Strict-priority + weighted-fair picking isolates interactive from batch " +
			"backlog, and the bounded batch queue converts overload into typed queue_full sheds " +
			"instead of unbounded wait. FIFO has no isolation: every interactive query queues " +
			"behind the flood. Conservation (issued == mediated + rejected + shed + queued) " +
			"must hold exactly in all three runs — shedding is never silent.",
		Scenarios: h7Scenarios,
		Judge: func(reports []*lab.Report) lab.Outcome {
			flash, calm, fifo := reports[0], reports[1], reports[2]
			base := classByName(calm, "interactive").QueueWaitP99
			qosP99 := classByName(flash, "interactive").QueueWaitP99
			fifoP99 := classByName(fifo, "interactive").QueueWaitP99
			batchShed := classByName(flash, "batch").Shed

			conserved := true
			for _, r := range reports {
				if r.Issued != r.Mediated+r.Rejected+r.Shed+r.Queued {
					conserved = false
				}
			}

			o := lab.Outcome{
				Detail: fmt.Sprintf("interactive p99 queue wait: calm %.3fs, qos+flash %.3fs (%.2fx), "+
					"fifo+flash %.3fs (%.2fx); threshold 2x; batch sheds under qos %d of %d issued; "+
					"conservation (issued == mediated+rejected+shed+queued) holds in all runs: %v",
					base, qosP99, ratio(qosP99, base), fifoP99, ratio(fifoP99, base),
					batchShed, classByName(flash, "batch").Issued, conserved),
				Metrics: map[string]float64{
					"calm_interactive_p99_wait_s": base,
					"qos_interactive_p99_wait_s":  qosP99,
					"fifo_interactive_p99_wait_s": fifoP99,
					"qos_wait_ratio":              ratio(qosP99, base),
					"fifo_wait_ratio":             ratio(fifoP99, base),
					"qos_batch_shed":              float64(batchShed),
					"fifo_queued_at_horizon":      float64(fifo.Queued),
					"conservation_ok":             b2f(conserved),
				},
				Verdict: lab.Refuted,
			}
			if !conserved {
				// A leaked query is a harness bug, not evidence either way.
				o.Verdict = lab.Inconclusive
				return o
			}
			if ratio(qosP99, base) <= 2 && ratio(fifoP99, base) > 2 && batchShed > 0 {
				o.Verdict = lab.Confirmed
			}
			return o
		},
	})
}

// h7Scenarios builds the pitted triple: [qos+flash, qos+calm, fifo+flash].
// All three share the seed, the population, the arrival processes, and the
// station rate; they differ only in the flash (present/absent) and in the
// scheduling discipline (classed vs single-class FIFO).
func h7Scenarios(scale lab.Scale) []lab.Scenario {
	duration := pick(scale, 240, 40)
	rate := 50.0 // station mediations/sec; calm offered load is 35/s (ρ = 0.7)

	classes := func(qosMapped bool) []lab.ClassSpec {
		interactive := lab.ClassSpec{
			Name: "interactive", Consumers: 6, Providers: 40,
			Rate: 10,
			Cost: lab.CostSpec{Kind: "exp", Mean: 2},
		}
		batch := lab.ClassSpec{
			Name: "batch", Consumers: 6, Providers: 60,
			Rate: 25,
			Cost: lab.CostSpec{Kind: "exp", Mean: 2},
		}
		if qosMapped {
			interactive.QoS = qos.Interactive
			// Generous deadline: exercises the EDF + feasibility path
			// without biting before the queue bound does.
			interactive.DeadlineS = 5
			batch.QoS = qos.Batch
		}
		return []lab.ClassSpec{interactive, batch}
	}
	flash := []lab.FlashSpec{{
		Class: "batch", At: duration * 0.3, Duration: duration * 0.25, Factor: 10,
	}}
	classedSpec := &qos.Spec{
		Classes: []qos.ClassSpec{
			{Name: qos.Interactive, Weight: 8, Priority: true},
			{Name: qos.Batch, Weight: 1, MaxQueueDepth: 64},
		},
		DefaultClass: qos.Interactive,
	}
	fifoSpec := &qos.Spec{Classes: []qos.ClassSpec{{Name: "fifo", Weight: 1}}}

	mk := func(suffix string, spec *qos.Spec, qosMapped bool, fl []lab.FlashSpec) lab.Scenario {
		pol := sbqa(8, 3, 1)
		pol.QoS = spec
		return lab.Scenario{
			Name:          fmt.Sprintf("h7/%s-%s", suffix, scale),
			Seed:          1041,
			Duration:      duration,
			Window:        8,
			Policy:        pol,
			MediationRate: rate,
			Workload:      lab.Workload{Classes: classes(qosMapped), Flash: fl},
		}
	}
	return []lab.Scenario{
		mk("qos-flash", classedSpec, true, flash),
		mk("qos-calm", classedSpec, true, nil),
		mk("fifo-flash", fifoSpec, false, flash),
	}
}

func ratio(got, base float64) float64 {
	if base == 0 {
		return 0
	}
	return got / base
}

func b2f(v bool) float64 {
	if v {
		return 1
	}
	return 0
}
