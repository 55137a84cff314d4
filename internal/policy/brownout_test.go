package policy

import (
	"slices"
	"testing"
	"time"

	"sbqa/internal/event"
	"sbqa/internal/qos"
)

// reading is one Step of a brownout scenario: a pressure reading taken at
// an offset from the scenario's start.
type reading struct {
	at time.Duration
	p  qos.Pressure
}

var (
	hot  = qos.Pressure{WaitP99: 2 * brownoutWaitP99}
	calm = qos.Pressure{}
)

// kns lists the kn of every Reconfigure the tuner issued.
func (f *fakeEngine) kns() []int {
	f.mu.Lock()
	defer f.mu.Unlock()
	var out []int
	for _, c := range f.calls {
		out = append(out, c.Kn)
	}
	return out
}

// TestTunerBrownout drives the brownout controller through Step with
// snapshots that carry no consumers, so only the pressure half acts.
func TestTunerBrownout(t *testing.T) {
	sbqa := func(kn int) Spec {
		return Spec{Kind: SbQA, K: 32, Kn: kn, OmegaMode: OmegaAdaptive, Epsilon: 1, Seed: 1}
	}
	for _, tc := range []struct {
		name       string
		spec       Spec
		level      int // brownout level before the first Step
		hysteresis int
		readings   []reading
		wantLevel  int
		wantKns    []int
	}{
		{
			name: "first sample only seeds", spec: sbqa(8), hysteresis: 1,
			readings:  []reading{{0, hot}},
			wantLevel: 0,
		},
		{
			name: "hysteresis hot samples raise the level and halve kn", spec: sbqa(8), hysteresis: 2,
			readings:  []reading{{0, calm}, {10 * time.Second, hot}, {20 * time.Second, hot}},
			wantLevel: 1, wantKns: []int{4},
		},
		{
			name: "kn is floored at minKn", spec: sbqa(3), hysteresis: 1,
			readings:  []reading{{0, calm}, {10 * time.Second, hot}, {20 * time.Second, hot}},
			wantLevel: 2, wantKns: []int{minKn},
		},
		{
			name: "a calm streak lowers the level", spec: sbqa(8), level: 2, hysteresis: 2,
			readings:  []reading{{0, hot}, {10 * time.Second, calm}, {20 * time.Second, calm}},
			wantLevel: 1,
		},
		{
			name: "MinInterval gates the level and kn", spec: sbqa(16), hysteresis: 1,
			readings: []reading{
				{0, calm}, {time.Second, hot}, {2 * time.Second, hot}, {3 * time.Second, hot},
				{6 * time.Second, hot},
			},
			wantLevel: 2, wantKns: []int{8, 4},
		},
		{
			name: "a non-tunable policy changes the level, not kn", spec: Spec{Kind: Capacity}, hysteresis: 1,
			readings:  []reading{{0, calm}, {10 * time.Second, hot}},
			wantLevel: 1,
		},
		{
			name: "kn <= 0 is left alone", spec: sbqa(0), hysteresis: 1,
			readings:  []reading{{0, calm}, {10 * time.Second, hot}},
			wantLevel: 1,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := &fakeEngine{spec: tc.spec, level: tc.level}
			tu := NewTuner(eng, TunerConfig{Hysteresis: tc.hysteresis, MinInterval: 4 * time.Second})
			start := time.Unix(0, 0)
			for _, r := range tc.readings {
				tu.Step(start.Add(r.at), event.SatisfactionSnapshot{}, r.p)
			}
			if got := eng.Brownout(); got != tc.wantLevel {
				t.Errorf("brownout level = %d, want %d", got, tc.wantLevel)
			}
			if got := eng.kns(); !slices.Equal(got, tc.wantKns) {
				t.Errorf("reconfigured kn = %v, want %v", got, tc.wantKns)
			}
			if eng.steps != abs(tc.wantLevel-tc.level) {
				t.Errorf("brownout steps = %d, want %d", eng.steps, abs(tc.wantLevel-tc.level))
			}
		})
	}
}

func abs(n int) int { return max(n, -n) }

// TestTunerReseedsOnFallingPressure: a Reconfigure that drops a QoS class
// drops its cumulative counters. A reading below the previous one must
// re-seed the baseline and take no action, not be differenced as a wrapped
// uint64 — which reads a 50 % shed interval as calm, or a calm one as
// nothing but sheds.
func TestTunerReseedsOnFallingPressure(t *testing.T) {
	for _, tc := range []struct {
		name      string
		level     int
		readings  []qos.Pressure
		wantLevel int
	}{
		{
			// Enqueued falls 200 → 100 while 100 of 200 shed: the wrap
			// makes the shed rate ~0, so the loop would step down.
			name: "falling enqueued", level: 1,
			readings:  []qos.Pressure{{Enqueued: 200}, {Enqueued: 100, Shed: 100}},
			wantLevel: 1,
		},
		{
			// Shed falls 50 → 0 on a calm interval: the wrap makes the
			// shed rate huge, so the loop would step up.
			name: "falling shed", level: 0,
			readings:  []qos.Pressure{{Enqueued: 100, Shed: 50}, {Enqueued: 180}},
			wantLevel: 0,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := &fakeEngine{spec: Spec{Kind: SbQA, K: 32, Kn: 8, OmegaMode: OmegaAdaptive, Epsilon: 1}, level: tc.level}
			tu := NewTuner(eng, TunerConfig{Hysteresis: 1, MinInterval: time.Second})
			now := time.Unix(0, 0)
			for _, p := range tc.readings {
				now = now.Add(10 * time.Second)
				tu.Step(now, event.SatisfactionSnapshot{}, p)
			}
			if got := eng.Brownout(); got != tc.wantLevel {
				t.Fatalf("brownout level = %d after a falling reading, want %d", got, tc.wantLevel)
			}
			if st := tu.Stats(); eng.steps != 0 || st.Actions != 0 {
				t.Fatalf("acted on a falling reading: %d brownout steps, %+v", eng.steps, st)
			}
			// The re-seeded baseline differences the next interval
			// correctly: 100 enqueued, 100 shed is 50 % and hot.
			last := tc.readings[len(tc.readings)-1]
			tu.Step(now.Add(10*time.Second), event.SatisfactionSnapshot{},
				qos.Pressure{Enqueued: last.Enqueued + 100, Shed: last.Shed + 100})
			if got := eng.Brownout(); got != tc.wantLevel+1 {
				t.Fatalf("brownout level = %d after a hot interval, want %d", got, tc.wantLevel+1)
			}
		})
	}
}

// TestTunerHalvesShareDamping: brownout's kn narrowing and starvation's kn
// widening are both policy Reconfigures, so one MinInterval admits at most
// one of them — whether they arrive in successive Steps or in one.
func TestTunerHalvesShareDamping(t *testing.T) {
	starving := snap([]float64{0.05}, []float64{0.9})
	balanced := snap([]float64{0.8}, []float64{0.8})
	for _, tc := range []struct {
		name  string
		steps []event.SatisfactionSnapshot // one per second; every reading after the first is hot
	}{
		{"hot, then starved", []event.SatisfactionSnapshot{balanced, balanced, starving, starving}},
		{"hot and starved in one step", []event.SatisfactionSnapshot{balanced, starving, starving}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := &fakeEngine{spec: Spec{Kind: SbQA, K: 32, Kn: 8, OmegaMode: OmegaAdaptive, Epsilon: 1, Seed: 1}}
			tu := NewTuner(eng, TunerConfig{Hysteresis: 1, MinInterval: time.Minute})
			now := time.Unix(0, 0)
			p := qos.Pressure{Enqueued: 100}
			for _, s := range tc.steps {
				tu.Step(now, s, p)
				now = now.Add(time.Second)
				p.Enqueued += 100
				p.Shed += 100
			}
			if got := eng.kns(); len(got) != 1 {
				t.Fatalf("kn changed %d times within one MinInterval (%v), want once", len(got), got)
			}
			if eng.Brownout() != 1 {
				t.Fatalf("brownout level = %d, want 1 (the level step keeps its own clock)", eng.Brownout())
			}
		})
	}
}
