// Package lab is the repository's one simulator: a deterministic workload
// laboratory that drives the REAL mediation pipeline — live.Engine over
// mediator, allocators and the satisfaction registry — under the
// internal/sim virtual clock, at populations up to millions of simulated
// participants.
//
// The lab has four layers:
//
//  1. a composable workload generator (this file): Poisson class arrivals
//     with flash crowds, heavy-tailed query cost, provider churn storms,
//     adversarial populations (free-riders, over-claimers), and the paper's
//     own populations — BOINC volunteers (volunteer.go, which also draws
//     the projects and their volunteers) and keyword advertisers (ads.go).
//     Every population but the advertisers is built of the one provider
//     model (world.go); classes and projects are how it is built, not
//     what it is;
//  2. a scenario runner (run.go, world.go) executing a Scenario —
//     workload × policy.Spec × duration × seed — and emitting a typed
//     Report (report.go) with stable serialization;
//  3. a falsifiable-hypothesis harness (hypothesis.go) consumed by the
//     top-level hypotheses/ package and the cmd/sbqalab CLI;
//  4. the paper's evaluation (paper.go, paper_ext.go): the seven demo
//     scenarios and four extension studies `sbqalab paper` prints.
//
// # Determinism contract
//
// Run is a pure function of its Scenario: the same scenario (same seed
// included) yields a byte-identical Report.Encode() on every execution.
// Everything stochastic draws from split streams of one stats.RNG rooted at
// Scenario.Seed; the engine runs single-shard (Concurrency = 1, proven
// byte-identical to a serialized mediator); participants are plain
// (goroutine-free) implementations; no wall-clock time is read anywhere.
// CI reruns every registered hypothesis and compares report hashes.
package lab

import (
	"fmt"
	"math"

	"sbqa/internal/policy"
	"sbqa/internal/stats"
)

// Scenario is one reproducible experiment: a workload pitted against an
// allocation policy for a simulated duration under a seed. Scenarios are
// plain data (JSON-able) so hypotheses can state them declaratively and
// reports can echo them.
type Scenario struct {
	// Name labels the scenario in reports and findings tables.
	Name string `json:"name"`

	// Seed roots every random stream of the run (workload draws, storm
	// picks, adversary assignment). The policy's sampling streams come
	// from Policy.Seed, so the same workload can be replayed against
	// differently-seeded policies and vice versa.
	Seed uint64 `json:"seed"`

	// Duration is the simulated horizon in seconds.
	Duration float64 `json:"duration"`

	// SampleEvery is the trajectory sampling interval in simulated
	// seconds. 0 means Duration/20.
	SampleEvery float64 `json:"sample_every,omitempty"`

	// Window is the satisfaction memory length k. 0 means 8 (small: at
	// million-participant scale the registry's per-participant buffers
	// dominate memory).
	Window int `json:"window,omitempty"`

	// Policy is the allocation policy under test.
	Policy policy.Spec `json:"policy"`

	// MediationRate, when set, interposes the real class-aware admission
	// scheduler (internal/qos), built from Policy.QoS, between arrivals and
	// mediation: queries queue at a single mediation station served at this
	// many mediations per simulated second, are picked weighted-fair / EDF,
	// and can be shed (deadline, queue_full, brownout) — every refusal is
	// counted in the report, never silent. Policy.QoS and MediationRate are
	// set together. 0 keeps the direct path: every arrival mediates
	// synchronously with no queue.
	MediationRate float64 `json:"mediation_rate,omitempty"`

	// Workload describes the traffic and the population.
	Workload Workload `json:"workload"`
}

// Workload declares the traffic mix and population for a scenario.
type Workload struct {
	// Volunteers, when set, replaces Classes with the BOINC preset, and
	// Ads with the keyword-advertising preset (see their docs); Storm,
	// Flash, Adversaries, QueryTimeout and the scenario's QoS station apply
	// to class populations only.
	Volunteers *VolunteerSpec `json:"volunteers,omitempty"`
	Ads        *AdSpec        `json:"ads,omitempty"`

	// Classes partition the population: each class has its own consumers,
	// specialist providers, arrival process, and cost distribution.
	// Query class c is served only by class c's providers (plus nothing
	// else — the lab uses no universal providers), which keeps candidate
	// discovery class-local and lets worlds scale to millions of
	// participants.
	Classes []ClassSpec `json:"classes"`

	// Adversaries assigns misbehaving provider populations by fraction.
	Adversaries AdversarySpec `json:"adversaries,omitempty"`

	// Storm, when set, takes a fraction of the providers offline and
	// brings them back.
	Storm *StormSpec `json:"storm,omitempty"`

	// Flash superimposes flash crowds on class arrival streams.
	Flash []FlashSpec `json:"flash,omitempty"`

	// QueryTimeout is the simulated deadline after which an unanswered
	// allocation counts as failed (free-riders burn exactly this). 0
	// means 60.
	QueryTimeout float64 `json:"query_timeout,omitempty"`
}

// ClassSpec declares one query class: its consumers, its specialist
// providers, and its traffic.
type ClassSpec struct {
	// Name labels the class in reports ("checkout", "search", ...).
	Name string `json:"name"`

	// Consumers and Providers size the class population.
	Consumers int `json:"consumers"`
	Providers int `json:"providers"`

	// Rate is the class's aggregate Poisson arrival rate (queries per
	// simulated second, before flash crowds); issued queries rotate
	// round-robin over the class's consumers.
	Rate float64 `json:"rate"`

	// Cost draws per-query service demand (work units).
	Cost CostSpec `json:"cost"`

	// Replication is model.Query.N. 0 means 1.
	Replication int `json:"replication,omitempty"`

	// DelayTarget is the response time (simulated seconds) consumers of
	// this class consider good; it anchors reputation quality. 0 means 10.
	DelayTarget float64 `json:"delay_target,omitempty"`

	// CapacityLo/Hi bound the uniform capacity draw (work units/second)
	// for the class's providers. Both 0 means [0.5, 1.5).
	CapacityLo float64 `json:"capacity_lo,omitempty"`
	CapacityHi float64 `json:"capacity_hi,omitempty"`

	// QoS names the service class (declared in Scenario.Policy.QoS) this
	// workload class's queries are submitted under. Empty means the spec's
	// default class. Only meaningful on a scenario with a QoS station.
	QoS string `json:"qos,omitempty"`

	// DeadlineS is the per-query relative deadline in simulated seconds
	// under a QoS scenario: the scheduler sheds queries it estimates (or
	// observes) to miss it. 0 means no deadline.
	DeadlineS float64 `json:"deadline_s,omitempty"`
}

// AdversarySpec assigns misbehaving provider fractions, drawn
// deterministically per provider from the scenario seed. Fractions must sum
// to <= 1; the remainder is honest.
//
// These are policy-independent generators:
//
//   - free-riders accept everything (maximal intention, idle-looking
//     snapshots) and never execute — every allocation they win times out;
//   - over-claimers execute at a quarter of an honest provider's speed but
//     report no backlog at all (zero utilization, queue and pending work)
//     and 8× an honest provider's capacity. The empty backlog is the lie
//     that bites: the Capacity allocator ranks by the reported backlog and
//     never reads the claimed capacity, which only Economic's bid and the
//     share-based technique's free-capacity estimate read.
type AdversarySpec struct {
	FreeRiders   float64 `json:"free_riders,omitempty"`
	OverClaimers float64 `json:"over_claimers,omitempty"`
}

// StormSpec is a mass-departure event: Fraction of all providers go
// offline at At and come back at At+Duration — the churn-storm shape.
type StormSpec struct {
	At       float64 `json:"at"`
	Duration float64 `json:"duration"`
	Fraction float64 `json:"fraction"`
}

// FlashSpec multiplies a class's arrival rate by Factor inside
// [At, At+Duration) — a flash crowd. Empty Class applies to every class.
type FlashSpec struct {
	Class    string  `json:"class,omitempty"`
	At       float64 `json:"at"`
	Duration float64 `json:"duration"`
	Factor   float64 `json:"factor"`
}

// CostSpec declares a per-query service-demand distribution. Kinds:
// "exp" (Mean), "pareto" (Xm, Alpha — the heavy tail).
type CostSpec struct {
	Kind  string  `json:"kind"`
	Mean  float64 `json:"mean,omitempty"`
	Xm    float64 `json:"xm,omitempty"`
	Alpha float64 `json:"alpha,omitempty"`
}

// Build materializes the declared distribution.
func (c CostSpec) Build() (stats.Dist, error) {
	switch c.Kind {
	case "", "exp":
		mean := c.Mean
		if mean <= 0 {
			mean = 1
		}
		return stats.Exponential{Rate: 1 / mean}, nil
	case "pareto":
		if c.Xm <= 0 || c.Alpha <= 1 {
			return nil, fmt.Errorf("lab: pareto cost needs xm > 0 and alpha > 1 (finite mean), got xm=%g alpha=%g", c.Xm, c.Alpha)
		}
		return stats.Pareto{Xm: c.Xm, Alpha: c.Alpha}, nil
	default:
		return nil, fmt.Errorf("lab: unknown cost kind %q", c.Kind)
	}
}

// normalized fills defaults and validates; it returns a copy.
func (sc Scenario) normalized() (Scenario, error) {
	if sc.Name == "" {
		return sc, fmt.Errorf("lab: scenario needs a name")
	}
	if sc.Duration <= 0 || math.IsNaN(sc.Duration) {
		return sc, fmt.Errorf("lab: scenario %q needs duration > 0, got %g", sc.Name, sc.Duration)
	}
	if sc.SampleEvery <= 0 {
		sc.SampleEvery = sc.Duration / 20
	}
	if sc.Window <= 0 {
		sc.Window = 8
	}
	switch wl := sc.Workload; {
	case wl.Volunteers != nil || wl.Ads != nil:
		if len(wl.Classes) > 0 || (wl.Volunteers != nil && wl.Ads != nil) {
			return sc, fmt.Errorf("lab: scenario %q needs one population: classes, volunteers or ads", sc.Name)
		}
		if wl.Adversaries != (AdversarySpec{}) || wl.Storm != nil || len(wl.Flash) > 0 || sc.MediationRate > 0 {
			return sc, fmt.Errorf("lab: scenario %q: adversaries, storms, flash and the qos station apply to class populations only", sc.Name)
		}
		if wl.Volunteers != nil && wl.Volunteers.Volunteers < 1 {
			return sc, fmt.Errorf("lab: scenario %q needs at least 1 volunteer, got %d", sc.Name, wl.Volunteers.Volunteers)
		}
		if wl.Ads != nil && (wl.Ads.Rate <= 0 || len(wl.Ads.Advertisers) == 0 || len(wl.Ads.Advertisers[0].Interests) == 0) {
			return sc, fmt.Errorf("lab: scenario %q ads need a rate and advertisers with interests", sc.Name)
		}
	case len(wl.Classes) == 0:
		return sc, fmt.Errorf("lab: scenario %q needs at least one class", sc.Name)
	}
	if sc.Workload.QueryTimeout <= 0 {
		sc.Workload.QueryTimeout = 60
	}
	adv := sc.Workload.Adversaries
	if adv.FreeRiders < 0 || adv.OverClaimers < 0 || adv.FreeRiders+adv.OverClaimers > 1 {
		return sc, fmt.Errorf("lab: scenario %q adversary fractions invalid: %+v", sc.Name, adv)
	}
	if st := sc.Workload.Storm; st != nil && (st.Fraction <= 0 || st.Fraction > 1 || st.Duration <= 0) {
		return sc, fmt.Errorf("lab: scenario %q storm invalid: %+v", sc.Name, *st)
	}
	if (sc.Policy.QoS != nil) != (sc.MediationRate > 0) {
		return sc, fmt.Errorf("lab: scenario %q: policy qos and mediation_rate must be set together", sc.Name)
	}
	names := map[string]bool{}
	qosNames := map[string]bool{}
	if sc.Policy.QoS != nil {
		for _, c := range sc.Policy.QoS.Classes {
			qosNames[c.Name] = true
		}
	}
	for i := range sc.Workload.Classes {
		cl := &sc.Workload.Classes[i]
		if cl.Name == "" {
			cl.Name = fmt.Sprintf("class-%d", i)
		}
		if names[cl.Name] {
			return sc, fmt.Errorf("lab: scenario %q has duplicate class %q", sc.Name, cl.Name)
		}
		names[cl.Name] = true
		if cl.Consumers < 1 || cl.Providers < 1 {
			return sc, fmt.Errorf("lab: class %q needs >= 1 consumer and provider", cl.Name)
		}
		if cl.Replication < 1 {
			cl.Replication = 1
		}
		if cl.DelayTarget <= 0 {
			cl.DelayTarget = 10
		}
		if cl.CapacityLo == 0 && cl.CapacityHi == 0 {
			cl.CapacityLo, cl.CapacityHi = 0.5, 1.5
		}
		if cl.CapacityLo <= 0 || cl.CapacityHi < cl.CapacityLo {
			return sc, fmt.Errorf("lab: class %q capacity bounds invalid: [%g, %g)", cl.Name, cl.CapacityLo, cl.CapacityHi)
		}
		if !(cl.Rate > 0) {
			return sc, fmt.Errorf("lab: class %q needs rate > 0, got %g", cl.Name, cl.Rate)
		}
		if _, err := cl.Cost.Build(); err != nil {
			return sc, fmt.Errorf("class %q: %w", cl.Name, err)
		}
		if (cl.QoS != "" || cl.DeadlineS != 0) && sc.MediationRate == 0 {
			return sc, fmt.Errorf("lab: class %q sets qos/deadline_s but the scenario has no qos station", cl.Name)
		}
		if cl.QoS != "" && len(qosNames) > 0 && !qosNames[cl.QoS] {
			return sc, fmt.Errorf("lab: class %q references undeclared qos class %q", cl.Name, cl.QoS)
		}
		if cl.DeadlineS < 0 {
			return sc, fmt.Errorf("lab: class %q deadline_s cannot be negative", cl.Name)
		}
	}
	for _, f := range sc.Workload.Flash {
		if !(f.Factor > 0) || f.Duration <= 0 {
			return sc, fmt.Errorf("lab: scenario %q flash invalid: %+v", sc.Name, f)
		}
		if f.Class != "" && !names[f.Class] {
			return sc, fmt.Errorf("lab: flash references unknown class %q", f.Class)
		}
	}
	sc.Policy = sc.Policy.Normalized()
	if err := sc.Policy.Validate(); err != nil {
		return sc, fmt.Errorf("lab: scenario %q policy: %w", sc.Name, err)
	}
	return sc, nil
}
