package policy

// The brownout controller is the tuner's overload half: where the
// satisfaction loop (tuner.go) retunes the allocation process for *quality*,
// this loop retunes it for *survival*. Its Monitor phase is the engine's
// queue-pressure stream (qos.Pressure samples pushed on every snapshot
// tick); under sustained pressure — shed rate or queue-wait p99 above
// threshold for Hysteresis consecutive samples — it steps the brownout
// level up one (widening shedding to the next most-sheddable class) and
// narrows the KnBest kn one bounded step, shrinking per-mediation work.
// When pressure stays clear for the same streak it steps the level back
// down; kn recovery is left to the satisfaction loop's planWiden, which
// re-widens under starvation — the two halves share MinInterval damping so
// they cannot thrash the policy between them.

import (
	"context"
	"math"

	"sbqa/internal/qos"
)

// BrownoutTarget is the shed-widening control surface the tuner drives —
// implemented by the live engine.
type BrownoutTarget interface {
	// SetBrownout sets the shed-widening level on every shard (clamped so
	// the top class always admits).
	SetBrownout(level int)
	// Brownout returns the effective level after clamping.
	Brownout() int
}

// BindBrownout points the tuner's brownout controller at its engine.
// Pressure observed while unbound is analyzed but produces no action.
func (t *Tuner) BindBrownout(target BrownoutTarget) {
	t.mu.Lock()
	t.brownTarget = target
	t.mu.Unlock()
}

// ObservePressure feeds one queue-pressure sample into the analysis loop.
// Like Observe it never blocks: a stale pressure sample is worthless, so
// when the loop is behind the sample is dropped and counted.
func (t *Tuner) ObservePressure(p qos.Pressure) {
	select {
	case t.pressure <- p:
	default:
		t.dropped.Add(1)
	}
}

// analyzePressure is the brownout controller's Analyze+Plan+Execute over
// one pressure sample. Runs on the tuner goroutine.
func (t *Tuner) analyzePressure(p qos.Pressure) {
	t.mu.Lock()
	brown := t.brownTarget
	target := t.target
	t.mu.Unlock()
	if brown == nil {
		return
	}

	// Analyze: difference the cumulative counters into this interval's shed
	// rate. The first sample only seeds the baseline.
	dEnq := p.Enqueued - t.lastEnqueued
	dShed := p.Shed - t.lastShed
	seeded := t.pressureSeeded
	t.lastEnqueued, t.lastShed = p.Enqueued, p.Shed
	t.pressureSeeded = true
	if !seeded {
		return
	}
	shedRate := 0.0
	if total := dEnq + dShed; total > 0 {
		shedRate = float64(dShed) / float64(total)
	}
	hot := shedRate > t.cfg.BrownoutShedRate || p.WaitP99 > t.cfg.BrownoutWaitP99
	if hot {
		t.hotStreak++
		t.calmStreak = 0
	} else {
		t.calmStreak++
		t.hotStreak = 0
	}

	now := t.cfg.now()
	if !t.lastBrownAction.IsZero() && now.Sub(t.lastBrownAction) < t.cfg.MinInterval {
		return
	}

	level := brown.Brownout()
	switch {
	case t.hotStreak >= t.cfg.Hysteresis:
		// Plan+Execute: widen shedding one class and shrink per-mediation
		// work one bounded step.
		brown.SetBrownout(level + 1)
		t.narrowKn(target)
		t.brownSteps.Add(1)
		t.lastBrownAction = now
		t.hotStreak = 0
		t.logf("tuner: pressure (shed %.1f%%, wait p99 %.3fs): brownout %d→%d",
			shedRate*100, p.WaitP99, level, brown.Brownout())
	case t.calmStreak >= t.cfg.Hysteresis && level > 0:
		brown.SetBrownout(level - 1)
		t.brownSteps.Add(1)
		t.lastBrownAction = now
		t.calmStreak = 0
		t.logf("tuner: pressure cleared: brownout %d→%d", level, level-1)
	}
}

// narrowKn halves the KnBest kn (floored at MinKn) — the inverse of
// planWiden's doubling — shrinking the candidate set each mediation scores
// while the system is browning out. No-op for non-tunable policies.
func (t *Tuner) narrowKn(target Reconfigurer) {
	if target == nil {
		return
	}
	spec := target.Policy().Normalized()
	if !spec.Tunable() {
		return
	}
	if spec.Kn <= 0 {
		return // kn disabled: every sampled provider is kept, nothing to narrow
	}
	kn := int(math.Max(float64(t.cfg.MinKn), float64(spec.Kn/2)))
	if kn >= spec.Kn {
		return
	}
	old := spec.Kn
	spec.Kn = kn
	if err := target.Reconfigure(context.Background(), spec); err != nil {
		t.logf("tuner: brownout kn narrow rejected: %v", err)
		return
	}
	t.actions.Add(1)
	t.logf("tuner: brownout: narrow kn %d→%d", old, kn)
}
