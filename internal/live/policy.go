package live

// This file is the engine half of the policy control plane: an engine runs a
// declarative policy.Spec, and adopt is the one function that puts a spec
// into force — the boot spec in NewEngine, the persisted one on a warm
// restart, a new one on Reconfigure — so a spec means the same thing through
// every door.
//
// Mechanics: adopt builds one allocator per shard (spec.Build(i), so
// per-shard sampling streams stay reproducible yet decorrelated) and
// publishes a new *generation through each shard's atomic pointer. Every
// mediation path loads that pointer right after taking the shard lock
// (applyPolicy) and, when the generation number moved, installs the new
// allocator and participant deadline before mediating. The hot path costs
// one atomic load per mediation — no additional locks — and a shard never
// switches allocators mid-mediation, so single-shard runs remain
// byte-identical for a fixed reconfiguration schedule.

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"sbqa/internal/alloc"
	"sbqa/internal/event"
	"sbqa/internal/policy"
	"sbqa/internal/qos"
)

// generation is one published policy: the allocator a shard should run from
// its next mediation boundary on, plus the participant deadline in force
// under it (adopt resolved it). Immutable once published. The spec itself is
// not carried here: policyState.spec is the single source of truth.
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

// Policy returns the engine's current target policy spec, normalized, as it
// was given: what it leaves empty reads empty here and runs at the boot
// spec's value.
func (e *Engine) Policy() policy.Spec { return *e.pol.spec.Load() }

// PolicyGeneration returns the number of the latest accepted policy
// generation (0 until the first Reconfigure; a construction-time policy
// spec is generation 0 too).
func (e *Engine) PolicyGeneration() uint64 { return e.pol.gen.Load() }

// adopt puts spec into force as generation gen: it builds one allocator per
// shard — resumed from states, a snapshot's per-shard sampling states, when a
// warm restart supplies them — resolves the participant deadline and the QoS
// spec, and publishes all of it; shards pick the generation up at their next
// mediation boundary. The one fallback rule: a participant deadline or qos
// block the spec leaves empty takes the boot spec's value, so a later spec
// without one restores what the engine booted with instead of inheriting a
// previous policy's override. On an error nothing has changed.
func (e *Engine) adopt(spec policy.Spec, gen uint64, states [][]byte) error {
	spec = spec.Normalized()
	allocs := make([]alloc.Allocator, len(e.shards))
	for i := range allocs {
		a, err := spec.Build(i) // validates the spec first
		if err != nil {
			return err
		}
		restoreAllocState(a, states, i, len(allocs))
		allocs[i] = a
	}
	deadline, qs := spec.ParticipantDeadline, spec.QoS
	if deadline == 0 {
		deadline = e.boot.ParticipantDeadline
	}
	if qs == nil {
		qs = e.boot.QoS
	}
	var qspec qos.Spec // no block anywhere: the single default class, plain FIFO
	if qs != nil {
		qspec = *qs
	}
	e.pol.gen.Store(gen)
	e.pol.spec.Store(&spec)
	for i, sh := range e.shards {
		sh.nextGen.Store(&generation{num: gen, alloc: allocs[i], deadline: deadline.Std()})
		// Queued queries migrate to the new class table by class name
		// (classes that disappear fold into the new default) and per-class
		// counters survive for the classes that remain.
		sh.sched.Configure(qspec)
	}
	return nil
}

// Reconfigure replaces the running allocation policy across every shard:
// the spec is adopted as the next generation (see adopt), and each shard
// switches to it at its next mediation boundary (between queue items — an
// in-flight mediation always completes under the policy it started with,
// and the hot path pays one atomic load). On any validation or build error
// nothing changes and the error is returned.
//
// Satisfaction state is deliberately preserved: reconfiguring retunes the
// allocation process, it does not reset anyone's memory — the paper's
// Scenario 6 sweeps rely on exactly this.
//
// Reconfigure is safe for concurrent use with submissions and with itself;
// concurrent calls serialize, and each accepted call increments the policy
// generation and emits one event.PolicyChange to the engine observer.
func (e *Engine) Reconfigure(ctx context.Context, spec policy.Spec) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("live: reconfigure aborted: %w", err)
	}
	// pol.mu spans the adoption, so concurrent Reconfigures leave every shard
	// with the policy and the queue spec of the same call, and the event, so
	// PolicyChange events come in generation order (pol.mu is never taken on
	// the mediation path: a slow observer delays only other reconfigurations).
	e.pol.mu.Lock()
	defer e.pol.mu.Unlock()
	gen := e.pol.gen.Load() + 1
	if err := e.adopt(spec, gen, nil); err != nil {
		return err
	}
	e.obs.OnPolicyChange(event.PolicyChange{
		Generation: gen,
		Name:       spec.Name,
		Kind:       string(spec.Kind),
		Time:       e.nowFn(),
	})
	return nil
}

// applyPolicy adopts the latest published generation, if it moved since this
// shard last looked. Must be called with sh.mu held, before mediating — the
// mediation boundary of the epoch-swap contract. One atomic load when
// nothing changed.
func (sh *shard) applyPolicy() {
	if g := sh.nextGen.Load(); g.num != sh.curGen {
		sh.install(g)
		sh.policySwaps.Add(1)
	}
}

// install makes g the generation this shard runs. Called with sh.mu held,
// or before the shard loops start.
func (sh *shard) install(g *generation) {
	sh.med.SetAllocator(g.alloc)
	sh.med.SetParticipantDeadline(g.deadline)
	sh.curGen = g.num
	sh.appliedGen.Store(g.num)
}
