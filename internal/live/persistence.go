package live

// This file is the engine half of the durability subsystem (internal/persist):
// WithPersistence(dir) attaches a state directory to the engine, NewEngine
// restores the adaptation state persisted there before accepting traffic,
// a recorder journals every state-mutating event off the typed observer
// stream, a background loop compacts sealed journal segments into fresh
// snapshots, and Close flushes a final snapshot so a graceful restart
// resumes byte-identically.

import (
	"encoding/json"
	"fmt"
	"time"

	"sbqa/internal/alloc"
	"sbqa/internal/persist"
	"sbqa/internal/policy"
)

// WithPersistence makes the engine's adaptation state durable under dir:
// on construction NewEngine restores the satisfaction memory, the active
// policy (and its generation), the query ID counter, and the allocator
// sampling states persisted there, and from then on every mediation
// outcome, participant departure, and policy change is journaled
// asynchronously (bounded queue; overload drops and counts rather than
// blocking a mediation). Close drains the journal and writes a final
// snapshot, making a graceful restart's allocation sequence byte-identical
// to an uninterrupted run; after a crash, recovery loses at most the last
// unsynced record batch and the sampling streams rewind to the last
// snapshot. Restore details and counters surface in Stats().Persistence.
//
// The participant directory is NOT persisted: workers and consumers are
// runtime objects the embedder re-registers on boot; their satisfaction
// memory is what survives.
func WithPersistence(dir string, opts ...persist.Option) Option {
	return func(c *config) {
		c.persistDir = dir
		c.persistOpts = opts
	}
}

// enginePersistence bundles the engine's durability runtime.
type enginePersistence struct {
	store *persist.Store
	rec   *persist.Recorder
	stop  chan struct{}
}

// openPersistence opens the store. Restore happens later, once the engine
// (and its registry) exists.
func openPersistence(dir string, opts []persist.Option) (*enginePersistence, error) {
	store, err := persist.Open(dir, opts...)
	if err != nil {
		return nil, err
	}
	return &enginePersistence{store: store, stop: make(chan struct{})}, nil
}

// restore applies the state directory to a freshly built engine: import
// the satisfaction snapshot and replay the journal tail into the registry,
// recover the query ID counter, and adopt the persisted policy — possibly
// generations ahead of the boot spec — with the allocator sampling states
// saved under it. The persisted policy wins: a warm restart resumes where
// the engine stopped, not where the flags say it started (what that policy
// leaves empty still takes this boot's value). Wiping the state dir, or
// running without one, restores flag precedence. A state dir with no policy
// in it leaves the boot spec in force.
func (p *enginePersistence) restore(e *Engine) error {
	res, err := p.store.Restore(e.reg)
	if err != nil {
		return err
	}
	if res.NextQueryID > e.nextID.Load() {
		e.nextID.Store(res.NextQueryID)
	}
	if res.PolicyJSON == nil {
		return nil
	}
	spec, err := policy.Parse(res.PolicyJSON)
	if err == nil {
		err = e.adopt(spec, res.PolicyGeneration, res.AllocStates)
	}
	if err != nil {
		return fmt.Errorf("live: persisted policy: %w", err)
	}
	return nil
}

// restoreAllocState applies shard i's persisted state blob, if the
// snapshot's shard layout matches this engine's and the allocator accepts
// the blob. Mismatches (resharded engine, policy kind changed between
// snapshot and restore) silently keep the fresh seed-derived state — a
// statistical restart for the sampling stream, not an error.
func restoreAllocState(a alloc.Allocator, states [][]byte, i, shards int) {
	if len(states) != shards || i >= len(states) || states[i] == nil {
		return
	}
	if st, ok := a.(alloc.Stateful); ok {
		_ = st.RestoreState(states[i])
	}
}

// policySource resolves the active policy for journaled policy-change
// records (the typed event carries only generation, name, and kind).
func (e *Engine) policySource() (uint64, []byte, bool) {
	data, err := json.Marshal(e.Policy())
	if err != nil {
		return 0, nil, false
	}
	return e.PolicyGeneration(), data, true
}

// persistLoop compacts in the background: when enough sealed journal
// segments accumulate, the engine folds them into a fresh snapshot and the
// store prunes what the snapshot covers.
func (e *Engine) persistLoop(interval time.Duration, threshold int) {
	defer e.wg.Done()
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			if e.pst.store.SealedSegments() >= threshold {
				_ = e.flushSnapshot(true)
			}
		case <-e.pst.stop:
			return
		}
	}
}

// flushSnapshot captures and writes one exact snapshot. The engine is
// quiesced for the capture — every shard lock held, the recorder drained,
// the journal rotated — so the snapshot plus the new active segment exactly
// partition the record history: nothing is lost, nothing double-applied.
// Encoding and writing happen after the locks are released; only the
// in-memory capture pauses mediation.
func (e *Engine) flushSnapshot(compaction bool) error {
	for _, sh := range e.shards {
		sh.mu.Lock()
	}
	e.pst.rec.Drain()
	first, err := e.pst.store.RotateForSnapshot()
	if err != nil {
		for _, sh := range e.shards {
			sh.mu.Unlock()
		}
		return err
	}
	snap := &persist.Snapshot{
		FirstSegment: first,
		NextQueryID:  e.nextID.Load(),
		Window:       e.reg.Window(),
		AllocStates:  make([][]byte, len(e.shards)),
	}
	for i, sh := range e.shards {
		// Adopt any published-but-unadopted policy generation first, so
		// the exported allocator states belong to the policy the snapshot
		// names (adoption would have happened at the next mediation
		// boundary anyway).
		sh.applyPolicy()
		if st, ok := sh.med.Allocator().(alloc.Stateful); ok {
			snap.AllocStates[i] = st.ExportState()
		}
	}
	if data, err := json.Marshal(e.Policy()); err == nil {
		snap.PolicyJSON = data
		snap.PolicyGeneration = e.PolicyGeneration()
	}
	snap.Consumers, snap.Providers = persist.CaptureRegistry(e.reg)
	for _, sh := range e.shards {
		sh.mu.Unlock()
	}
	return e.pst.store.WriteSnapshot(snap, compaction)
}

// closePersistence finishes the durability pipeline on graceful Close: the
// recorder drains and syncs, a final snapshot makes the restart warm, and
// the store closes. Called after the shard loops have stopped.
func (e *Engine) closePersistence() {
	e.pst.rec.Close()
	_ = e.flushSnapshot(false)
	_ = e.pst.store.Close()
}
