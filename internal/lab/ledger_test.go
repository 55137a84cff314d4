package lab

import (
	"testing"

	"sbqa/internal/qos"
)

// TestLedgersBalance holds each population's query ledger to its identity:
// every issued query ends up in exactly one bucket of its report. Each case
// is shaped so that its rarer buckets (shed, rejected, failed) are not
// empty.
func TestLedgersBalance(t *testing.T) {
	classes := smallScenario("ledger-classes", 3, sbqaPolicy(3))
	classes.Policy.QoS = &qos.Spec{Classes: []qos.ClassSpec{{Name: "fifo", Weight: 1, MaxQueueDepth: 8}}}
	classes.MediationRate = 4 // below the offered rate: the station sheds and queues
	classes.Workload.Storm = &StormSpec{At: 40, Duration: 20, Fraction: 1}

	volunteers := smallVolunteers(true, 3)
	volunteers.Workload.Volunteers.Malicious = 0.3

	for _, tc := range []struct {
		name  string
		sc    Scenario
		setup func(*world)
		// sides returns the ledger's two sides, and the bucket that must
		// not be empty for the case to test anything.
		sides func(r *Report) (issued, accounted, rare int)
	}{
		{"classes", classes, nil, func(r *Report) (int, int, int) {
			return r.Issued, r.Mediated + r.Rejected + r.Shed + r.Queued, r.Shed * r.Rejected
		}},
		{"volunteers", volunteers, nil, func(r *Report) (int, int, int) {
			return r.Issued, r.Completed + r.Rejected + r.Failed + r.InFlight, r.Failed
		}},
		{"ads", adScenario(), func(w *world) {
			// Every advertiser withdraws halfway: the slots that follow
			// stay empty.
			w.eng.Schedule(300, func() {
				for _, a := range w.ads.advertisers {
					w.live.UnregisterWorker(a.id)
				}
			})
		}, func(r *Report) (int, int, int) {
			return r.Issued, r.Mediated + r.Rejected, r.Rejected
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, r := runWorld(t, tc.sc, tc.setup)
			issued, accounted, rare := tc.sides(r)
			if issued == 0 || issued != accounted {
				t.Errorf("issued %d, accounted for %d", issued, accounted)
			}
			if rare == 0 {
				t.Error("the case leaves a bucket empty, so it checks less than it claims")
			}
		})
	}
}
