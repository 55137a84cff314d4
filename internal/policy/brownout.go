package policy

// The brownout controller is the tuner's overload half: where the
// satisfaction loop (tuner.go) retunes the allocation process for *quality*,
// this loop retunes it for *survival*. Its Monitor phase is the engine's
// cumulative queue-pressure reading (qos.Pressure), handed to Step on every
// snapshot tick after the satisfaction loop has run; under sustained
// pressure — shed rate or queue-wait p99 above threshold for Hysteresis
// consecutive samples — it steps the brownout level up one (widening
// shedding to the next most-sheddable class) and narrows the KnBest kn one
// bounded step, shrinking per-mediation work. When pressure stays clear for
// the same streak it steps the level back down; kn recovery is left to the
// satisfaction loop's planWiden, which re-widens under starvation. Every
// policy Reconfigure either half issues is gated by and stamps the same
// lastAction, so the two cannot thrash kn between them within MinInterval;
// the level step keeps a clock of its own.

import (
	"fmt"
	"time"

	"sbqa/internal/qos"
)

// analyzePressure is the brownout controller's Analyze+Plan+Execute over
// one cumulative pressure reading.
func (t *Tuner) analyzePressure(now time.Time, p qos.Pressure) {
	// Analyze: difference the cumulative counters into this interval's shed
	// rate. The first reading only seeds the baseline, and so does one below
	// the last: a Reconfigure that drops a QoS class drops its counters,
	// and differencing across it would wrap.
	seeded := t.pressureSeeded && p.Enqueued >= t.lastEnqueued && p.Shed >= t.lastShed
	dEnq, dShed := p.Enqueued-t.lastEnqueued, p.Shed-t.lastShed
	t.lastEnqueued, t.lastShed, t.pressureSeeded = p.Enqueued, p.Shed, true
	if !seeded {
		return
	}
	shedRate := 0.0
	if total := dEnq + dShed; total > 0 {
		shedRate = float64(dShed) / float64(total)
	}
	if shedRate > brownoutShedRate || p.WaitP99 > brownoutWaitP99 {
		t.hotStreak++
		t.calmStreak = 0
	} else {
		t.calmStreak++
		t.hotStreak = 0
	}

	if !t.lastBrownAction.IsZero() && now.Sub(t.lastBrownAction) < t.cfg.MinInterval {
		return
	}

	level := t.target.Brownout()
	switch {
	case t.hotStreak >= t.cfg.Hysteresis:
		// Plan+Execute: widen shedding one class and shrink per-mediation
		// work one bounded step.
		t.target.SetBrownout(level + 1)
		t.narrowKn(now)
		t.lastBrownAction = now
		t.hotStreak = 0
		t.logf("tuner: pressure (shed %.1f%%, wait p99 %.3fs): brownout %d→%d",
			shedRate*100, p.WaitP99, level, t.target.Brownout())
	case t.calmStreak >= t.cfg.Hysteresis && level > 0:
		t.target.SetBrownout(level - 1)
		t.lastBrownAction = now
		t.calmStreak = 0
		t.logf("tuner: pressure cleared: brownout %d→%d", level, level-1)
	}
}

// narrowKn halves the KnBest kn (floored at minKn) — the inverse of
// planWiden's doubling — shrinking the candidate set each mediation scores
// while the system is browning out. No-op for non-tunable policies, a
// disabled utilization filter, and within MinInterval of the last policy
// step.
func (t *Tuner) narrowKn(now time.Time) {
	spec := t.target.Policy().Normalized()
	if !spec.Tunable() || spec.Kn <= 0 || t.damped(now) {
		return
	}
	kn := max(minKn, spec.Kn/2)
	if kn >= spec.Kn {
		return
	}
	reason := fmt.Sprintf("brownout: narrow kn %d→%d", spec.Kn, kn)
	spec.Kn = kn
	t.reconfigure(now, spec, reason)
}
