// Package qos is the overload-survival subsystem between the gateway and
// the shard mediators: service classes on queries, token-bucket admission
// control, a class-aware shard scheduler (weighted fair queueing across
// classes with a strict-priority option, earliest-deadline-first within a
// class), deadline-based load shedding driven by a per-shard EWMA of
// mediation service time, and the brownout ladder the policy tuner steps
// under sustained pressure.
//
// The package sits at the bottom of the import graph (stdlib only): the
// live engine embeds a Scheduler per shard, the gateway runs a Limiter in
// front of Submit, and policy.Spec carries a *qos.Spec block so
// PUT /v1/policy reconfigures all of it live.
//
// # Design
//
// Queries carry a class name (model.Query.QoS) and an optional absolute
// deadline on the engine clock (model.Query.Deadline). The scheduler never
// drops silently: every admission decision that refuses a query is a typed
// shed with a reason — "deadline" (the EWMA × queue-depth estimate says the
// deadline cannot be met), "queue_full" (the class's configured depth bound
// is reached), or "brownout" (the tuner has widened shedding to this
// class). Classes without an explicit depth bound keep the engine's
// historical backpressure semantics: a full queue blocks the submitter
// instead of shedding, so a no-QoS configuration behaves exactly like the
// pre-QoS FIFO engine.
package qos

import (
	"fmt"
	"sort"
)

// The built-in class names. The class set is extensible: any name declared
// in Spec.Classes is a valid class.
const (
	Interactive = "interactive"
	Batch       = "batch"
	Background  = "background"
)

// Shed reasons, as they appear in *live.ShedError.Reason, event.Shed.Reason
// and the sbqa_shed_total{reason} metric.
const (
	ReasonDeadline  = "deadline"
	ReasonQueueFull = "queue_full"
	ReasonBrownout  = "brownout"
)

// reasonIndex maps a shed reason to its counter slot.
const (
	reasonDeadlineIdx = iota
	reasonQueueFullIdx
	reasonBrownoutIdx
	numReasons
)

// Reasons lists the scheduler shed reasons in counter order.
var Reasons = [numReasons]string{ReasonDeadline, ReasonQueueFull, ReasonBrownout}

// ClassSpec declares one service class in a policy's qos block.
type ClassSpec struct {
	// Name identifies the class ("interactive", "batch", ... — any
	// non-empty string).
	Name string `json:"name"`

	// Weight is the class's weighted-fair share (smooth weighted
	// round-robin across non-empty class queues). Zero means 1.
	Weight int `json:"weight,omitempty"`

	// Priority marks the class strictly urgent: priority classes are
	// always served before non-priority ones (weighted-fair among
	// themselves). Use sparingly — a saturating priority class starves
	// everything below it.
	Priority bool `json:"priority,omitempty"`

	// MaxQueueDepth bounds the class's per-shard queue: beyond it,
	// submissions shed immediately with reason "queue_full". Zero keeps
	// the engine's blocking backpressure at its global queue depth.
	MaxQueueDepth int `json:"max_queue_depth,omitempty"`

	// Rate and Burst configure the gateway's per-class token bucket
	// (queries/second sustained, bucket capacity). Zero rate means
	// unlimited.
	Rate  float64 `json:"rate,omitempty"`
	Burst float64 `json:"burst,omitempty"`
}

// Spec is the policy-level QoS configuration — the `qos` block of
// policy.Spec. It is orthogonal to the allocator kind and therefore valid
// on every policy, baselines included.
type Spec struct {
	// Classes declares the service classes in scheduling-table order
	// (brownout sheds from the end of this list upward, so order lowest
	// classes last). Empty means the single default class with the
	// engine's historical FIFO semantics.
	Classes []ClassSpec `json:"classes,omitempty"`

	// DefaultClass is the class assigned to queries that carry none.
	// Empty means the first declared class.
	DefaultClass string `json:"default_class,omitempty"`

	// ConsumerRate and ConsumerBurst configure the gateway's
	// per-consumer token bucket. Zero rate means unlimited.
	ConsumerRate  float64 `json:"consumer_rate,omitempty"`
	ConsumerBurst float64 `json:"consumer_burst,omitempty"`
}

// DefaultSpec returns the three-class default ladder: interactive (weight
// 8) over batch (weight 3) over background (weight 1), no rate limits, no
// explicit depth bounds.
func DefaultSpec() Spec {
	return Spec{
		Classes: []ClassSpec{
			{Name: Interactive, Weight: 8},
			{Name: Batch, Weight: 3},
			{Name: Background, Weight: 1},
		},
		DefaultClass: Interactive,
	}
}

// Validate rejects specs that can only be mistakes. A nil or zero Spec is
// valid (single default class, no limits).
func (s *Spec) Validate() error {
	if s == nil {
		return nil
	}
	seen := make(map[string]bool, len(s.Classes))
	for i, c := range s.Classes {
		if c.Name == "" {
			return fmt.Errorf("qos: class %d has no name", i)
		}
		if seen[c.Name] {
			return fmt.Errorf("qos: duplicate class %q", c.Name)
		}
		seen[c.Name] = true
		if c.Weight < 0 {
			return fmt.Errorf("qos: class %q: weight cannot be negative", c.Name)
		}
		if c.MaxQueueDepth < 0 {
			return fmt.Errorf("qos: class %q: max_queue_depth cannot be negative", c.Name)
		}
		if c.Rate < 0 || c.Burst < 0 {
			return fmt.Errorf("qos: class %q: rate/burst cannot be negative", c.Name)
		}
	}
	if s.DefaultClass != "" && len(s.Classes) > 0 && !seen[s.DefaultClass] {
		return fmt.Errorf("qos: default_class %q is not a declared class", s.DefaultClass)
	}
	if s.ConsumerRate < 0 || s.ConsumerBurst < 0 {
		return fmt.Errorf("qos: consumer_rate/consumer_burst cannot be negative")
	}
	return nil
}

// Normalized returns a copy with defaults filled in: weights default to 1,
// the default class to the first declared one, bursts to the rate (at
// least 1) when a rate is set.
func (s Spec) Normalized() Spec {
	out := s
	out.Classes = append([]ClassSpec(nil), s.Classes...)
	for i := range out.Classes {
		if out.Classes[i].Weight < 1 {
			out.Classes[i].Weight = 1
		}
		if out.Classes[i].Rate > 0 && out.Classes[i].Burst <= 0 {
			out.Classes[i].Burst = maxf(out.Classes[i].Rate, 1)
		}
	}
	if out.DefaultClass == "" && len(out.Classes) > 0 {
		out.DefaultClass = out.Classes[0].Name
	}
	if out.ConsumerRate > 0 && out.ConsumerBurst <= 0 {
		out.ConsumerBurst = maxf(out.ConsumerRate, 1)
	}
	return out
}

// shedOrder returns class indices from most-sheddable to least: ascending
// weight, non-priority before priority, later declaration first among
// ties. Brownout level L sheds the first L entries of this order.
func shedOrder(classes []ClassSpec) []int {
	idx := make([]int, len(classes))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		ca, cb := classes[idx[a]], classes[idx[b]]
		if ca.Priority != cb.Priority {
			return !ca.Priority
		}
		if ca.Weight != cb.Weight {
			return ca.Weight < cb.Weight
		}
		return idx[a] > idx[b]
	})
	return idx
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
