package policy

// The Tuner closes the paper's self-adaptation loop at the system level: a
// background MAPE-K controller (Monitor–Analyze–Plan–Execute over shared
// Knowledge) that watches the engine's satisfaction snapshot stream and
// retunes the running policy through bounded Reconfigure steps. The paper
// adapts ω per mediation (Equation 2); the Tuner adapts the *process
// parameters themselves* — kn under starvation, fixed-ω toward adaptive
// under consumer/provider imbalance — which Scenario 6 otherwise requires a
// human to sweep by hand.
//
// Safety properties, in order of importance:
//
//   - Bounded: every step moves one parameter by one bounded increment, and
//     hard caps (MaxK, MaxKn) are never exceeded.
//   - Damped: a condition must persist for Hysteresis consecutive snapshots
//     before the tuner acts, and at least MinInterval must elapse between
//     actions — transient noise cannot thrash the policy.
//   - Conservative: only tunable policies (kind "sbqa") are touched; the
//     tuner never changes the allocator kind, the seed, or ε.

import (
	"context"
	"fmt"
	"maps"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"sbqa/internal/event"
	"sbqa/internal/qos"
)

// Reconfigurer is the control surface the Tuner drives — implemented by the
// live engine.
type Reconfigurer interface {
	// Policy returns the current target policy.
	Policy() Spec
	// Reconfigure swaps the running policy at mediation boundaries.
	Reconfigure(ctx context.Context, spec Spec) error
}

// TunerConfig tunes the tuner. The zero value selects the documented
// defaults.
type TunerConfig struct {
	// MinInterval is the minimum wall-clock time between two Reconfigure
	// steps. Default 5s.
	MinInterval time.Duration

	// Hysteresis is how many consecutive snapshots must show a condition
	// before the tuner acts on it. Zero selects the default of 2;
	// negative values mean 1 (act on the first observation).
	Hysteresis int

	// StarvationThreshold marks a consumer as starved when its
	// satisfaction δs falls below it. Default 0.25.
	StarvationThreshold float64

	// ImbalanceThreshold triggers the ω nudge when the absolute gap
	// between mean consumer and mean provider satisfaction exceeds it.
	// Default 0.2.
	ImbalanceThreshold float64

	// MaxK and MaxKn bound how far the tuner may widen the KnBest stages.
	// Defaults 128 and 64.
	MaxK  int
	MaxKn int

	// OmegaStep is how far one action moves a fixed ω toward 0.5 before
	// the mode flips to adaptive. Default 0.25.
	OmegaStep float64

	// BrownoutShedRate is the shed fraction (shed / submissions per
	// pressure interval) above which the brownout controller counts a
	// sample as overload pressure. Default 0.05.
	BrownoutShedRate float64

	// BrownoutWaitP99 is the queue-wait p99 (seconds) above which a
	// pressure sample counts as overload. Default 1s.
	BrownoutWaitP99 float64

	// MinKn is the floor the brownout controller's kn-narrowing step never
	// goes below. Default 2.
	MinKn int

	// Logf, when set, receives one line per analysis decision and action
	// (for operator logs; never required).
	Logf func(format string, args ...any)

	// now is injectable for tests; nil means time.Now.
	now func() time.Time
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
	if c.StarvationThreshold <= 0 {
		c.StarvationThreshold = 0.25
	}
	if c.ImbalanceThreshold <= 0 {
		c.ImbalanceThreshold = 0.2
	}
	if c.MaxK <= 0 {
		c.MaxK = 128
	}
	if c.MaxKn <= 0 {
		c.MaxKn = 64
	}
	if c.OmegaStep <= 0 {
		c.OmegaStep = 0.25
	}
	if c.BrownoutShedRate <= 0 {
		c.BrownoutShedRate = 0.05
	}
	if c.BrownoutWaitP99 <= 0 {
		c.BrownoutWaitP99 = 1.0
	}
	if c.MinKn <= 0 {
		c.MinKn = 2
	}
	if c.now == nil {
		c.now = time.Now
	}
	return c
}

// SetClock injects the tuner's wall clock (tests drive MinInterval without
// sleeping). Must be called before NewTuner consumes the config.
func (c *TunerConfig) SetClock(now func() time.Time) { c.now = now }

// TunerStats is a snapshot of the tuner's counters.
type TunerStats struct {
	// Snapshots is how many satisfaction snapshots the tuner analyzed.
	Snapshots uint64
	// Dropped is how many snapshots were discarded because the analysis
	// loop was behind (the observer callback never blocks).
	Dropped uint64
	// Actions is how many Reconfigure steps the tuner issued.
	Actions uint64
	// BrownoutSteps is how many brownout level changes (up or down) the
	// pressure controller issued.
	BrownoutSteps uint64
}

// Tuner is the autonomic policy controller. Create with NewTuner, feed it
// through Observer() (or Observe directly), Start it, and Close it when the
// engine shuts down.
type Tuner struct {
	cfg TunerConfig

	mu          sync.Mutex
	target      Reconfigurer
	brownTarget BrownoutTarget // nil unless BindBrownout

	snaps    chan event.SatisfactionSnapshot
	pressure chan qos.Pressure
	stop     chan struct{}
	done     chan struct{}
	once     sync.Once
	stopOnce sync.Once

	snapshots  atomic.Uint64
	dropped    atomic.Uint64
	actions    atomic.Uint64
	brownSteps atomic.Uint64

	// Controller state, touched only by the run goroutine.
	starveStreak int
	imbalStreak  int
	lastAction   time.Time

	// Brownout controller state (brownout.go), run goroutine only.
	pressureSeeded  bool
	lastEnqueued    uint64
	lastShed        uint64
	hotStreak       int
	calmStreak      int
	lastBrownAction time.Time
}

// NewTuner returns a tuner driving target (which may be nil and bound later
// with Bind — the live engine constructs the tuner before itself exists).
// The tuner is idle until Start.
func NewTuner(target Reconfigurer, cfg TunerConfig) *Tuner {
	return &Tuner{
		cfg:      cfg.withDefaults(),
		target:   target,
		snaps:    make(chan event.SatisfactionSnapshot, 16),
		pressure: make(chan qos.Pressure, 16),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
}

// Bind points the tuner at its engine. Snapshots observed while unbound are
// analyzed but produce no action.
func (t *Tuner) Bind(target Reconfigurer) {
	t.mu.Lock()
	t.target = target
	t.mu.Unlock()
}

// Observer adapts the tuner to the engine's event stream: install it (via
// event.Multi) as the engine observer and the snapshot ticker becomes the
// tuner's Monitor phase.
func (t *Tuner) Observer() event.Observer {
	return event.Funcs{SatisfactionSnapshot: t.Observe}
}

// Observe feeds one satisfaction snapshot into the analysis loop. It never
// blocks: when the loop is behind, the snapshot is dropped and counted —
// satisfaction moves slowly, a fresher sample is strictly better than a
// queued stale one. The maps are copied before enqueueing: the engine
// hands the same snapshot to every composed observer, and the contract
// says the maps belong to each receiver — the analysis goroutine must not
// read maps another observer may mutate.
func (t *Tuner) Observe(snap event.SatisfactionSnapshot) {
	select {
	case t.snaps <- copySnapshot(snap):
	default:
		t.dropped.Add(1)
	}
}

// copySnapshot deep-copies the snapshot's maps (see Observe).
func copySnapshot(snap event.SatisfactionSnapshot) event.SatisfactionSnapshot {
	return event.SatisfactionSnapshot{
		Time:      snap.Time,
		Consumers: maps.Clone(snap.Consumers),
		Providers: maps.Clone(snap.Providers),
	}
}

// Start launches the analysis loop. Idempotent.
func (t *Tuner) Start() {
	t.once.Do(func() { go t.run() })
}

// Close stops the analysis loop and waits for it to exit. Safe to call
// before Start (the loop then never runs), more than once, and from
// several goroutines concurrently.
func (t *Tuner) Close() {
	t.stopOnce.Do(func() { close(t.stop) })
	t.once.Do(func() { close(t.done) }) // never started: mark done directly
	<-t.done
}

// Stats snapshots the tuner's counters.
func (t *Tuner) Stats() TunerStats {
	return TunerStats{
		Snapshots:     t.snapshots.Load(),
		Dropped:       t.dropped.Load(),
		Actions:       t.actions.Load(),
		BrownoutSteps: t.brownSteps.Load(),
	}
}

func (t *Tuner) run() {
	defer close(t.done)
	for {
		select {
		case snap := <-t.snaps:
			t.snapshots.Add(1)
			t.analyze(snap)
		case p := <-t.pressure:
			t.analyzePressure(p)
		case <-t.stop:
			return
		}
	}
}

// logf emits one operator-log line when configured.
func (t *Tuner) logf(format string, args ...any) {
	if t.cfg.Logf != nil {
		t.cfg.Logf(format, args...)
	}
}

// analyze is the Analyze+Plan+Execute phases over one Monitor sample.
func (t *Tuner) analyze(snap event.SatisfactionSnapshot) {
	t.mu.Lock()
	target := t.target
	t.mu.Unlock()
	if target == nil || len(snap.Consumers) == 0 {
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

	starved := minC < t.cfg.StarvationThreshold
	imbalanced := len(snap.Providers) > 0 && math.Abs(meanC-meanP) > t.cfg.ImbalanceThreshold
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

	spec := target.Policy().Normalized()
	if !spec.Tunable() {
		return
	}

	now := t.cfg.now()
	if !t.lastAction.IsZero() && now.Sub(t.lastAction) < t.cfg.MinInterval {
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
		next, reason = t.planRebalance(spec, meanC, meanP)
	default:
		return
	}
	if reason == "" {
		return // already at the bounds, or nothing to change
	}

	// Execute.
	if err := target.Reconfigure(context.Background(), next); err != nil {
		t.logf("tuner: reconfigure rejected: %v", err)
		return
	}
	t.actions.Add(1)
	t.lastAction = now
	t.starveStreak, t.imbalStreak = 0, 0
	t.logf("tuner: %s -> %s", reason, next)
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
func (t *Tuner) planRebalance(spec Spec, meanC, meanP float64) (Spec, string) {
	if spec.OmegaMode != OmegaFixed {
		return spec, ""
	}
	if math.Abs(spec.Omega-0.5) > t.cfg.OmegaStep {
		old := spec.Omega
		if spec.Omega > 0.5 {
			spec.Omega -= t.cfg.OmegaStep
		} else {
			spec.Omega += t.cfg.OmegaStep
		}
		return spec, fmt.Sprintf("imbalance (δs(c) %.3f vs δs(p) %.3f): ω %.2f→%.2f",
			meanC, meanP, old, spec.Omega)
	}
	spec.OmegaMode, spec.Omega = OmegaAdaptive, 0
	return spec, fmt.Sprintf("imbalance (δs(c) %.3f vs δs(p) %.3f): ω → adaptive", meanC, meanP)
}
