package lab

import (
	"testing"
	"time"

	"sbqa/internal/policy"
)

// HeadlineScenario is the acceptance-scale world: ≥ 1M simulated
// participants driving the real engine under the virtual clock. Class
// partitioning is what makes this tractable — candidate discovery stays
// class-local (≈250 providers), so mediation cost is independent of the
// fleet size. At Short scale the same shape shrinks ~100×.
func HeadlineScenario(scale Scale) Scenario {
	classes, perClassProviders, perClassConsumers := 4000, 250, 13
	duration, rate := 40.0, 0.6
	if scale == Short {
		classes = 40
		duration = 20
		rate = 3
	}
	specs := make([]ClassSpec, classes)
	for i := range specs {
		specs[i] = ClassSpec{
			Consumers: perClassConsumers,
			Providers: perClassProviders,
			Rate:      rate,
			Cost:      CostSpec{Kind: "exp", Mean: 2},
		}
	}
	return Scenario{
		Name:     "headline-1m-" + scale.String(),
		Seed:     1,
		Duration: duration,
		Window:   8,
		Policy:   policy.Spec{Kind: policy.SbQA, K: 8, Kn: 3, Seed: 1},
		Workload: Workload{
			Classes:      specs,
			Adversaries:  AdversarySpec{FreeRiders: 0.05, OverClaimers: 0.05},
			QueryTimeout: 30,
		},
	}
}

// TestHeadlineMillionParticipants is the scale acceptance: the full
// headline world (≥ 1M participants) must complete in bounded wall time
// with a healthy mediation stream. -short runs the same shape 100× smaller.
func TestHeadlineMillionParticipants(t *testing.T) {
	scale := Full
	if testing.Short() {
		scale = Short
	}
	sc := HeadlineScenario(scale)
	start := time.Now()
	r, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	t.Logf("scale=%v participants=%d issued=%d mediated=%d wall=%v (%.0f simulated mediations/sec of wall time)",
		scale, r.Participants, r.Issued, r.Mediated, elapsed.Round(time.Millisecond),
		float64(r.Mediated)/elapsed.Seconds())

	wantParticipants := 1_000_000
	if scale == Short {
		wantParticipants = 10_000
	}
	if r.Participants < wantParticipants {
		t.Fatalf("participants = %d, want >= %d", r.Participants, wantParticipants)
	}
	if r.Mediated < r.Issued*9/10 {
		t.Fatalf("mediated %d of %d issued — the engine should keep up with the stream", r.Mediated, r.Issued)
	}
	if r.Issued < 1000 {
		t.Fatalf("issued %d, want a real stream", r.Issued)
	}
	// Bounded wall time: generous ceiling so slow CI hardware passes, but
	// a quadratic regression (e.g. candidate discovery going fleet-global)
	// cannot hide.
	limit := 5 * time.Minute
	if scale == Short {
		limit = 30 * time.Second
	}
	if elapsed > limit {
		t.Fatalf("wall time %v exceeds %v", elapsed, limit)
	}
}
