package policy

import (
	"context"
	"sync"
	"testing"
	"time"

	"sbqa/internal/event"
	"sbqa/internal/model"
)

// fakeEngine records the Reconfigure calls a Tuner issues and holds its
// brownout level.
type fakeEngine struct {
	mu    sync.Mutex
	spec  Spec
	calls []Spec
	level int
	steps int // SetBrownout calls
}

func (f *fakeEngine) Policy() Spec {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.spec
}

func (f *fakeEngine) Reconfigure(_ context.Context, spec Spec) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.spec = spec
	f.calls = append(f.calls, spec)
	return nil
}

func (f *fakeEngine) SetBrownout(level int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.level = max(level, 0)
	f.steps++
}

func (f *fakeEngine) Brownout() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.level
}

func (f *fakeEngine) callCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.calls)
}

func (f *fakeEngine) lastCall() Spec {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.calls[len(f.calls)-1]
}

// snap builds a satisfaction snapshot from flat consumer/provider values.
func snap(consumers, providers []float64) event.SatisfactionSnapshot {
	s := event.SatisfactionSnapshot{
		Consumers: make(map[model.ConsumerID]float64),
		Providers: make(map[model.ProviderID]float64),
	}
	for i, v := range consumers {
		s.Consumers[model.ConsumerID(i)] = v
	}
	for i, v := range providers {
		s.Providers[model.ProviderID(i)] = v
	}
	return s
}

func TestTunerWidensKnUnderStarvation(t *testing.T) {
	eng := &fakeEngine{spec: Spec{Kind: SbQA, K: 20, Kn: 2, OmegaMode: OmegaAdaptive, Epsilon: 1, Seed: 1}}
	now := time.Unix(0, 0)
	tu := NewTuner(eng, TunerConfig{Hysteresis: 2, MinInterval: time.Second, MaxKn: 8, MaxK: 20})

	starving := snap([]float64{0.8, 0.1}, []float64{0.6})
	tu.analyze(now, starving)
	if eng.callCount() != 0 {
		t.Fatal("acted before hysteresis was met")
	}
	tu.analyze(now, starving)
	if eng.callCount() != 1 {
		t.Fatalf("calls = %d, want 1 after hysteresis", eng.callCount())
	}
	got := eng.lastCall()
	if got.Kn != 4 {
		t.Fatalf("kn = %d, want doubled to 4", got.Kn)
	}
	if got.K < got.Kn {
		t.Fatalf("k = %d < kn = %d", got.K, got.Kn)
	}

	// Still starved, but MinInterval gates the next step.
	tu.analyze(now, starving)
	tu.analyze(now, starving)
	if eng.callCount() != 1 {
		t.Fatalf("calls = %d, want 1 (min-interval not elapsed)", eng.callCount())
	}
	now = now.Add(2 * time.Second)
	tu.analyze(now, starving)
	tu.analyze(now, starving)
	if eng.callCount() != 2 {
		t.Fatalf("calls = %d, want 2 after min-interval", eng.callCount())
	}
	if got := eng.lastCall(); got.Kn != 8 {
		t.Fatalf("kn = %d, want 8", got.Kn)
	}

	// Hard bound: kn is at MaxKn — no further action however starved.
	now = now.Add(2 * time.Second)
	tu.analyze(now, starving)
	tu.analyze(now, starving)
	tu.analyze(now, starving)
	if eng.callCount() != 2 {
		t.Fatalf("calls = %d, want 2 (MaxKn reached)", eng.callCount())
	}
}

func TestTunerNudgesFixedOmegaTowardAdaptive(t *testing.T) {
	eng := &fakeEngine{spec: Spec{Kind: SbQA, K: 20, Kn: 10, OmegaMode: OmegaFixed, Omega: 1, Epsilon: 1, Seed: 1}}
	now := time.Unix(0, 0)
	tu := NewTuner(eng, TunerConfig{Hysteresis: 1, MinInterval: time.Second})

	// Providers far happier than consumers: imbalance, nobody starved.
	imbalanced := snap([]float64{0.5, 0.55}, []float64{0.95, 0.9})
	tu.analyze(now, imbalanced)
	if eng.callCount() != 1 {
		t.Fatalf("calls = %d, want 1", eng.callCount())
	}
	if got := eng.lastCall(); got.OmegaMode != OmegaFixed || got.Omega != 0.75 {
		t.Fatalf("got ω %q/%g, want fixed 0.75", got.OmegaMode, got.Omega)
	}
	now = now.Add(2 * time.Second)
	tu.analyze(now, imbalanced)
	if got := eng.lastCall(); got.OmegaMode != OmegaAdaptive || got.Omega != 0 {
		t.Fatalf("got ω %q/%g, want adaptive", got.OmegaMode, got.Omega)
	}
	// Adaptive policies need no nudge: no further actions.
	now = now.Add(2 * time.Second)
	tu.analyze(now, imbalanced)
	if eng.callCount() != 2 {
		t.Fatalf("calls = %d, want 2 (already adaptive)", eng.callCount())
	}
}

func TestTunerIgnoresBalancedSystemAndNonTunablePolicies(t *testing.T) {
	now := time.Unix(0, 0)
	balanced := snap([]float64{0.7, 0.8}, []float64{0.75})

	eng := &fakeEngine{spec: Spec{Kind: SbQA, K: 20, Kn: 10, OmegaMode: OmegaAdaptive, Epsilon: 1}}
	tu := NewTuner(eng, TunerConfig{Hysteresis: 1})
	for i := 0; i < 5; i++ {
		tu.analyze(now, balanced)
	}
	if eng.callCount() != 0 {
		t.Fatalf("acted on a balanced system: %d calls", eng.callCount())
	}

	cap := &fakeEngine{spec: Spec{Kind: Capacity}}
	tuCap := NewTuner(cap, TunerConfig{Hysteresis: 1})
	starving := snap([]float64{0.05}, []float64{0.9})
	for i := 0; i < 5; i++ {
		tuCap.analyze(now, starving)
	}
	if cap.callCount() != 0 {
		t.Fatalf("tuned a non-tunable policy: %d calls", cap.callCount())
	}

	none := &fakeEngine{}
	tuNone := NewTuner(none, TunerConfig{Hysteresis: 1})
	for i := 0; i < 5; i++ {
		tuNone.analyze(now, starving)
	}
	if none.callCount() != 0 {
		t.Fatalf("tuned an engine with no policy: %d calls", none.callCount())
	}
}

// TestTunerLeavesDisabledUtilizationFilterAlone: Kn <= 0 means "keep every
// sampled provider" — already the widest setting; the tuner must not
// "widen" it to kn=1 (a drastic narrowing).
func TestTunerLeavesDisabledUtilizationFilterAlone(t *testing.T) {
	eng := &fakeEngine{spec: Spec{Kind: SbQA, K: 40, Kn: 0, OmegaMode: OmegaAdaptive, Epsilon: 1, Seed: 1}}
	now := time.Unix(0, 0)
	tu := NewTuner(eng, TunerConfig{Hysteresis: 1})
	starving := snap([]float64{0.05}, []float64{0.9})
	for i := 0; i < 5; i++ {
		tu.analyze(now, starving)
	}
	if eng.callCount() != 0 {
		t.Fatalf("tuner acted on a disabled utilization filter: %+v", eng.lastCall())
	}
}

// TestTunerPreservesSampleAllStageOne: K <= 0 means "consider all of P_q"
// — the widest possible stage 1. Widening kn must not install a finite K,
// which would *narrow* the sample.
func TestTunerPreservesSampleAllStageOne(t *testing.T) {
	eng := &fakeEngine{spec: Spec{Kind: SbQA, K: 0, Kn: 5, OmegaMode: OmegaAdaptive, Epsilon: 1, Seed: 1}}
	now := time.Unix(0, 0)
	tu := NewTuner(eng, TunerConfig{Hysteresis: 1, MaxKn: 64, MaxK: 128})
	tu.analyze(now, snap([]float64{0.05}, []float64{0.9}))
	if eng.callCount() != 1 {
		t.Fatalf("calls = %d, want 1", eng.callCount())
	}
	got := eng.lastCall()
	if got.K != 0 {
		t.Fatalf("tuner narrowed a sample-all stage 1 to k=%d", got.K)
	}
	if got.Kn != 10 {
		t.Fatalf("kn = %d, want doubled to 10", got.Kn)
	}
}

// TestTunerNeverExceedsMaxK: when MaxK < 2·kn the hard cap must win — kn
// shrinks to fit rather than k growing past its bound.
func TestTunerNeverExceedsMaxK(t *testing.T) {
	eng := &fakeEngine{spec: Spec{Kind: SbQA, K: 10, Kn: 10, OmegaMode: OmegaAdaptive, Epsilon: 1, Seed: 1}}
	now := time.Unix(0, 0)
	tu := NewTuner(eng, TunerConfig{Hysteresis: 1, MinInterval: time.Second, MaxK: 12, MaxKn: 64})
	starving := snap([]float64{0.05}, []float64{0.9})
	for i := 0; i < 6; i++ {
		tu.analyze(now, starving)
		now = now.Add(2 * time.Second)
	}
	for i, call := range eng.calls {
		if call.K > 12 || call.Kn > call.K {
			t.Fatalf("action %d violated the caps: k=%d kn=%d (MaxK=12)", i, call.K, call.Kn)
		}
	}
	if eng.callCount() == 0 {
		t.Fatal("tuner never acted")
	}
	if got := eng.lastCall(); got.Kn != 12 || got.K != 12 {
		t.Fatalf("final spec k=%d kn=%d, want both clamped to 12", got.K, got.Kn)
	}
}
