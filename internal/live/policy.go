package live

// This file is the engine half of the policy control plane: an Engine built
// from — or reconfigured to — a declarative policy.Spec swaps its per-shard
// allocators at mediation boundaries.
//
// Mechanics: Reconfigure validates the spec, builds one allocator per shard
// (spec.Build(i), so per-shard sampling streams stay reproducible yet
// decorrelated), and publishes a new *generation through each shard's
// atomic pointer. Every mediation path loads that pointer right after
// taking the shard lock (applyPolicy) and, when the generation number moved,
// installs the new allocator and participant deadline before mediating. The
// hot path costs one atomic load per mediation — no additional locks — and
// a shard never switches allocators mid-mediation, so single-shard runs
// remain byte-identical for a fixed reconfiguration schedule.

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"sbqa/internal/alloc"
	"sbqa/internal/event"
	"sbqa/internal/policy"
)

// generation is one published policy: the allocator a shard should run from
// its next mediation boundary on, plus the participant deadline in force
// under it — the spec's own deadline, or the engine's base deadline when
// the spec declares none (a later no-deadline policy must *restore* the
// configured deadline, not inherit a previous policy's override). Immutable
// once published. The spec itself is not carried here: policyState.spec is
// the single source of truth.
type generation struct {
	num      uint64
	alloc    alloc.Allocator
	deadline time.Duration
}

// policyState is the Engine's control-plane half.
type policyState struct {
	mu   sync.Mutex // serializes Reconfigure (never held on the mediation path)
	gen  atomic.Uint64
	spec atomic.Pointer[policy.Spec]
}

// Policy returns the engine's current target policy spec and whether one is
// installed. Engines built through WithAllocatorFactory have
// no declarative policy until their first Reconfigure.
func (e *Engine) Policy() (policy.Spec, bool) {
	p := e.pol.spec.Load()
	if p == nil {
		return policy.Spec{}, false
	}
	return *p, true
}

// PolicyGeneration returns the number of the latest accepted policy
// generation (0 until the first Reconfigure; a construction-time policy
// spec is generation 0 too).
func (e *Engine) PolicyGeneration() uint64 { return e.pol.gen.Load() }

// Reconfigure replaces the running allocation policy across every shard.
// The spec is normalized and validated, one allocator per shard is built
// up front, and the new generation is published atomically; each shard
// adopts it at its next mediation boundary (between queue items — an
// in-flight mediation always completes under the policy it started with,
// and the hot path pays one atomic load). On any validation or build error
// nothing changes and the error is returned.
//
// Satisfaction state is deliberately preserved: reconfiguring retunes the
// allocation process, it does not reset anyone's memory — the paper's
// Scenario 6 sweeps rely on exactly this.
//
// A spec with a qos block also reconfigures every shard scheduler live:
// queued queries migrate to the new class table by class name (classes that
// disappear fold into the new default) and per-class counters survive for
// the classes that remain. A spec without one restores the construction-time
// QoS configuration, like a spec without a participant deadline restores
// the base deadline.
//
// Reconfigure is safe for concurrent use with submissions and with itself;
// concurrent calls serialize, and each accepted call increments the policy
// generation and emits one event.PolicyChange to the engine observer.
func (e *Engine) Reconfigure(ctx context.Context, spec policy.Spec) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("live: reconfigure aborted: %w", err)
	}
	spec = spec.Normalized()
	if err := spec.Validate(); err != nil {
		return err
	}
	allocs := make([]alloc.Allocator, len(e.shards))
	for i := range e.shards {
		a, err := spec.Build(i)
		if err != nil {
			return err
		}
		allocs[i] = a
	}

	deadline := e.baseDeadline
	if spec.ParticipantDeadline > 0 {
		deadline = spec.ParticipantDeadline.Std()
	}
	qspec := e.baseQoS
	if spec.QoS != nil {
		qspec = *spec.QoS
	}

	e.pol.mu.Lock()
	gen := e.pol.gen.Add(1)
	e.pol.spec.Store(&spec)
	for i, sh := range e.shards {
		sh.nextGen.Store(&generation{num: gen, alloc: allocs[i], deadline: deadline})
		// Under pol.mu like the generation, so concurrent Reconfigures leave
		// every shard with the policy and the queue spec of the same call.
		sh.sched.Configure(qspec)
	}
	// Emitted under pol.mu so concurrent Reconfigures produce PolicyChange
	// events in generation order (pol.mu is never taken on the mediation
	// path, so a slow observer delays only other reconfigurations).
	if e.obs != nil {
		e.obs.OnPolicyChange(event.PolicyChange{
			Generation: gen,
			Name:       spec.Name,
			Kind:       string(spec.Kind),
			Time:       e.nowFn(),
		})
	}
	e.pol.mu.Unlock()
	return nil
}

// applyPolicy adopts the latest published generation, if it moved since this
// shard last looked. Must be called with sh.mu held, before mediating — the
// mediation boundary of the epoch-swap contract. One atomic load when
// nothing changed.
func (sh *shard) applyPolicy() {
	g := sh.nextGen.Load()
	if g == nil || g.num == sh.curGen {
		return
	}
	sh.med.SetAllocator(g.alloc)
	sh.med.SetParticipantDeadline(g.deadline)
	sh.curGen = g.num
	sh.appliedGen.Store(g.num)
	sh.policySwaps.Add(1)
}
