package policy

// The Tuner closes the paper's self-adaptation loop at the system level: a
// MAPE-K controller (Monitor–Analyze–Plan–Execute over shared Knowledge)
// that the engine steps once per satisfaction snapshot tick and that
// retunes the running policy through bounded Reconfigure steps. The paper
// adapts ω per mediation (Equation 2); the Tuner adapts the *process
// parameters themselves* — kn under starvation, fixed-ω toward adaptive
// under consumer/provider imbalance — which Scenario 6 otherwise requires a
// human to sweep by hand. It is a plain function of (time, snapshot,
// pressure): it owns no goroutine, so a caller on simulated time drives it
// exactly as the engine's ticker does.
//
// Safety properties, in order of importance:
//
//   - Bounded: every step moves one parameter by one bounded increment, and
//     hard caps (MaxK, MaxKn) are never exceeded.
//   - Damped: a condition must persist for Hysteresis consecutive snapshots
//     before the tuner acts, and at least MinInterval must elapse between
//     two policy Reconfigures, whichever half issues them — transient noise
//     cannot thrash the policy.
//   - Conservative: only tunable policies (kind "sbqa") are touched; the
//     tuner never changes the allocator kind, the seed, or ε.

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"sbqa/internal/event"
	"sbqa/internal/qos"
)

// Target is the control surface the Tuner drives — implemented by the live
// engine: the running policy and the shed-widening brownout level.
type Target interface {
	// Policy returns the current target policy.
	Policy() Spec
	// Reconfigure swaps the running policy at mediation boundaries.
	Reconfigure(ctx context.Context, spec Spec) error
	// SetBrownout sets the shed-widening level on every shard (clamped so
	// the top class always admits).
	SetBrownout(level int)
	// Brownout returns the effective level after clamping.
	Brownout() int
}

// The controller's fixed thresholds and step sizes.
const (
	// starvationThreshold marks a consumer as starved when its
	// satisfaction δs falls below it.
	starvationThreshold = 0.25
	// imbalanceThreshold triggers the ω nudge when the absolute gap
	// between mean consumer and mean provider satisfaction exceeds it.
	imbalanceThreshold = 0.2
	// omegaStep is how far one action moves a fixed ω toward 0.5 before
	// the mode flips to adaptive.
	omegaStep = 0.25
	// brownoutShedRate is the shed fraction (shed / submissions per
	// pressure interval) above which a pressure sample counts as overload.
	brownoutShedRate = 0.05
	// brownoutWaitP99 is the queue-wait p99 (seconds) above which a
	// pressure sample counts as overload.
	brownoutWaitP99 = 1.0
	// minKn is the floor the brownout controller's kn-narrowing step never
	// goes below.
	minKn = 2
)

// TunerConfig tunes the tuner. The zero value selects the documented
// defaults; the thresholds and step sizes are fixed.
type TunerConfig struct {
	// MinInterval is the minimum time between two policy Reconfigure
	// steps, and between two brownout level steps. Default 5s.
	MinInterval time.Duration

	// Hysteresis is how many consecutive snapshots must show a condition
	// before the tuner acts on it. Zero selects the default of 2;
	// negative values mean 1 (act on the first observation).
	Hysteresis int

	// MaxK and MaxKn bound how far the tuner may widen the KnBest stages.
	// Defaults 128 and 64.
	MaxK  int
	MaxKn int

	// Logf, when set, receives one line per analysis decision and action
	// (for operator logs; never required).
	Logf func(format string, args ...any)
}

func (c TunerConfig) withDefaults() TunerConfig {
	if c.MinInterval <= 0 {
		c.MinInterval = 5 * time.Second
	}
	if c.Hysteresis < 1 {
		if c.Hysteresis == 0 {
			c.Hysteresis = 2
		} else {
			c.Hysteresis = 1
		}
	}
	if c.MaxK <= 0 {
		c.MaxK = 128
	}
	if c.MaxKn <= 0 {
		c.MaxKn = 64
	}
	return c
}

// TunerStats is a snapshot of the tuner's counters.
type TunerStats struct {
	// Actions is how many Reconfigure steps the tuner issued.
	Actions uint64
}

// Tuner is the autonomic policy controller. Create it with NewTuner and
// call Step once per sample.
type Tuner struct {
	cfg    TunerConfig
	target Target

	actions atomic.Uint64

	// Controller state, touched only by Step.
	starveStreak int
	imbalStreak  int
	lastAction   time.Time // the last policy Reconfigure, from either half

	// Brownout controller state (brownout.go).
	pressureSeeded  bool
	lastEnqueued    uint64
	lastShed        uint64
	hotStreak       int
	calmStreak      int
	lastBrownAction time.Time
}

// NewTuner returns a tuner driving target.
func NewTuner(target Target, cfg TunerConfig) *Tuner {
	return &Tuner{cfg: cfg.withDefaults(), target: target}
}

// Step runs one control round at now: the satisfaction loop over snap, then
// the brownout loop over the cumulative pressure reading p. It reads snap's
// maps and keeps none of them. Steps must not overlap; Stats may be called
// at any time.
func (t *Tuner) Step(now time.Time, snap event.SatisfactionSnapshot, p qos.Pressure) {
	t.analyze(now, snap)
	t.analyzePressure(now, p)
}

// Stats snapshots the tuner's counters.
func (t *Tuner) Stats() TunerStats {
	return TunerStats{Actions: t.actions.Load()}
}

// logf emits one operator-log line when configured.
func (t *Tuner) logf(format string, args ...any) {
	if t.cfg.Logf != nil {
		t.cfg.Logf(format, args...)
	}
}

// damped reports whether a policy Reconfigure at now would follow the last
// one by less than MinInterval.
func (t *Tuner) damped(now time.Time) bool {
	return !t.lastAction.IsZero() && now.Sub(t.lastAction) < t.cfg.MinInterval
}

// reconfigure executes one planned policy step and stamps the damping
// clock both halves share; false means the target rejected it.
func (t *Tuner) reconfigure(now time.Time, next Spec, reason string) bool {
	if err := t.target.Reconfigure(context.Background(), next); err != nil {
		t.logf("tuner: reconfigure rejected: %v", err)
		return false
	}
	t.actions.Add(1)
	t.lastAction = now
	t.logf("tuner: %s -> %s", reason, next)
	return true
}

// analyze is the Analyze+Plan+Execute phases over one Monitor sample.
func (t *Tuner) analyze(now time.Time, snap event.SatisfactionSnapshot) {
	if len(snap.Consumers) == 0 {
		return
	}

	// Analyze: summarize the knowledge sample.
	minC, meanC := math.Inf(1), 0.0
	for _, s := range snap.Consumers {
		meanC += s
		if s < minC {
			minC = s
		}
	}
	meanC /= float64(len(snap.Consumers))
	meanP := 0.0
	for _, s := range snap.Providers {
		meanP += s
	}
	if len(snap.Providers) > 0 {
		meanP /= float64(len(snap.Providers))
	}

	starved := minC < starvationThreshold
	imbalanced := len(snap.Providers) > 0 && math.Abs(meanC-meanP) > imbalanceThreshold
	if starved {
		t.starveStreak++
	} else {
		t.starveStreak = 0
	}
	if imbalanced {
		t.imbalStreak++
	} else {
		t.imbalStreak = 0
	}

	spec := t.target.Policy().Normalized()
	if !spec.Tunable() || t.damped(now) {
		return
	}

	// Plan: starvation dominates — a starved consumer means the process is
	// not even *seeing* acceptable candidates, so widen the KnBest funnel;
	// imbalance with everyone fed is a balance problem, so move ω.
	var next Spec
	var reason string
	switch {
	case t.starveStreak >= t.cfg.Hysteresis:
		next, reason = t.planWiden(spec, minC)
	case t.imbalStreak >= t.cfg.Hysteresis:
		next, reason = planRebalance(spec, meanC, meanP)
	default:
		return
	}
	if reason == "" {
		return // already at the bounds, or nothing to change
	}

	// Execute.
	if t.reconfigure(now, next, reason) {
		t.starveStreak, t.imbalStreak = 0, 0
	}
}

// planWiden widens the KnBest stages one bounded step: doubling kn (and
// keeping k at least twice kn so stage 1 still has slack to sample from)
// up to the configured caps.
func (t *Tuner) planWiden(spec Spec, minC float64) (Spec, string) {
	if spec.Kn <= 0 {
		// Kn <= 0 disables the utilization filter entirely — every sampled
		// provider is already retained, so there is nothing to widen
		// (Kn=1 would be a drastic *narrowing*, not a step up).
		return spec, ""
	}
	// kn can never exceed k's cap: a kn above MaxK would force k past its
	// own bound below.
	maxKn := t.cfg.MaxKn
	if t.cfg.MaxK < maxKn {
		maxKn = t.cfg.MaxK
	}
	kn := spec.Kn * 2
	if kn <= spec.Kn {
		kn = spec.Kn + 1
	}
	if kn > maxKn {
		kn = maxKn
	}
	k := spec.K
	if k > 0 {
		// K <= 0 samples all of P_q — already the widest stage 1, leave
		// it alone. Otherwise keep k at least twice kn, hard-capped at
		// MaxK (never exceeded: if the cap bites, kn shrinks to fit).
		if k < kn*2 {
			k = kn * 2
		}
		if k > t.cfg.MaxK {
			k = t.cfg.MaxK
		}
		if kn > k {
			kn = k
		}
	}
	if kn == spec.Kn && k == spec.K {
		return spec, ""
	}
	reason := fmt.Sprintf("starvation (min δs(c) %.3f): widen kn %d→%d, k %d→%d",
		minC, spec.Kn, kn, spec.K, k)
	spec.Kn, spec.K = kn, k
	return spec, reason
}

// planRebalance nudges a fixed ω one step toward 0.5 and, once close,
// flips the mode to the satisfaction-adaptive Equation 2 — the rule that
// compensates whichever side is behind automatically. Adaptive policies
// need no nudge.
func planRebalance(spec Spec, meanC, meanP float64) (Spec, string) {
	if spec.OmegaMode != OmegaFixed {
		return spec, ""
	}
	if math.Abs(spec.Omega-0.5) > omegaStep {
		old := spec.Omega
		if spec.Omega > 0.5 {
			spec.Omega -= omegaStep
		} else {
			spec.Omega += omegaStep
		}
		return spec, fmt.Sprintf("imbalance (δs(c) %.3f vs δs(p) %.3f): ω %.2f→%.2f",
			meanC, meanP, old, spec.Omega)
	}
	spec.OmegaMode, spec.Omega = OmegaAdaptive, 0
	return spec, fmt.Sprintf("imbalance (δs(c) %.3f vs δs(p) %.3f): ω → adaptive", meanC, meanP)
}
