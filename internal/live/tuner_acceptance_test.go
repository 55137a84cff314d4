package live

import (
	"context"
	"testing"
	"time"

	"sbqa/internal/model"
	"sbqa/internal/policy"
)

// TestTunerRecoversStarvedConsumer is the control plane's acceptance test:
// an engine starts with a pathologically narrow policy (KnBest k=2, kn=1 —
// the score barely matters, so the consumer's strong preference for one
// provider is ignored and its satisfaction starves), and the autonomic
// tuner — fed only by the engine's own satisfaction snapshots — must widen
// the KnBest funnel until the preferred provider wins mediations and the
// consumer's satisfaction recovers. No manual Reconfigure, no test
// intervention: the MAPE-K loop does all of it.
func TestTunerRecoversStarvedConsumer(t *testing.T) {
	const favorite = model.ProviderID(0)
	spec := policy.Spec{Name: "narrow", Kind: policy.SbQA, K: 2, Kn: 1, Seed: 3}
	eng, err := NewEngine(
		WithWindow(25),
		WithPolicy(spec),
		WithSnapshotInterval(2*time.Millisecond),
		WithTuner(policy.TunerConfig{
			MinInterval: time.Millisecond,
			Hysteresis:  1,
			MaxK:        16,
			MaxKn:       8,
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	// The consumer wants exactly one provider; everything else is nearly
	// unacceptable. Its satisfaction is therefore a direct measure of how
	// often the mediation honors the preference.
	eng.RegisterConsumer(FuncConsumer{ID: 0, Fn: func(_ model.Query, snap model.ProviderSnapshot) model.Intention {
		if snap.ID == favorite {
			return 1
		}
		return -0.9
	}})
	// Eight providers, all willing; the favorite is the *most* utilized,
	// so a narrow utilization-driven funnel essentially never picks it.
	for i := 0; i < 8; i++ {
		util := 0.1 * float64(8-i) / 8
		if model.ProviderID(i) == favorite {
			util = 0.9
		}
		eng.RegisterProvider(&constProvider{id: model.ProviderID(i), pi: 0.5, util: util})
	}

	// Phase 1: establish starvation under the narrow policy. The tuner is
	// already running and on a slow run widens kn before the 40th query, so
	// the reading is the trough, not the last value: the tuner acts only on
	// a snapshot below 0.25, and δs moves only with these submissions.
	starved := 1.0
	for i := 0; i < 40; i++ {
		if _, err := submit(context.Background(), eng, model.Query{Consumer: 0, N: 1, Work: 1}, nil); err != nil {
			t.Fatal(err)
		}
		starved = min(starved, eng.ConsumerSatisfaction(0))
	}
	if starved >= 0.25 {
		t.Fatalf("setup failed: consumer not starved under the narrow policy (δs = %.3f)", starved)
	}

	// Phase 2: keep submitting and let the loop close itself. The snapshot
	// ticker feeds the tuner, the tuner widens kn, satisfaction recovers.
	deadline := time.Now().Add(10 * time.Second)
	recovered := false
	for time.Now().Before(deadline) {
		for i := 0; i < 10; i++ {
			if _, err := submit(context.Background(), eng, model.Query{Consumer: 0, N: 1, Work: 1}, nil); err != nil {
				t.Fatal(err)
			}
		}
		if eng.ConsumerSatisfaction(0) > 0.6 {
			recovered = true
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if !recovered {
		t.Fatalf("consumer never recovered: δs = %.3f after autonomous tuning window (tuner stats %+v)",
			eng.ConsumerSatisfaction(0), eng.Tuner().Stats())
	}

	// The recovery must have come from the tuner, not luck: the policy
	// was rewritten with a wider funnel and at least one action fired.
	final := eng.Policy()
	if final.Kn <= spec.Kn {
		t.Fatalf("tuner never widened kn: %+v", final)
	}
	if st := eng.Tuner().Stats(); st.Actions == 0 {
		t.Fatalf("recovery without tuner actions? stats %+v", st)
	}
	if gen := eng.PolicyGeneration(); gen == 0 {
		t.Fatal("policy generation never advanced")
	}
	t.Logf("recovered: δs(c) %.3f → %.3f, policy %s, tuner %+v",
		starved, eng.ConsumerSatisfaction(0), final, eng.Tuner().Stats())
}
