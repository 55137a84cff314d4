package live

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sbqa/internal/event"
	"sbqa/internal/model"
	"sbqa/internal/persist"
	"sbqa/internal/policy"
	"sbqa/internal/satisfaction"
)

// closeAbrupt is the crash-emulation twin of Close, used by the recovery
// tests: shard loops stop, but nothing is flushed — buffered journal
// records are dropped exactly as a process kill would drop them, and no
// final snapshot is written.
func (e *Engine) closeAbrupt() {
	if e.stop() && e.pst != nil {
		e.pst.rec.CloseAbrupt()
		e.pst.store.Abort()
	}
}

// persistTestSpec is the deterministic single-shard policy the restart
// tests run: small KnBest stages so sampling matters, fixed seed.
func persistTestSpec() policy.Spec {
	return policy.Spec{Name: "restart-test", Kind: policy.SbQA, K: 6, Kn: 3, Seed: 42}
}

// buildPersistEngine assembles a single-shard deterministic engine; dir ""
// disables persistence (the uninterrupted reference).
func buildPersistEngine(t *testing.T, dir string, clock *atomic.Int64, extra ...Option) *Engine {
	t.Helper()
	opts := []Option{
		WithWindow(40),
		WithConcurrency(1),
		WithPolicy(persistTestSpec()),
		WithClock(func() float64 { return float64(clock.Load()) / 100 }),
	}
	if dir != "" {
		opts = append(opts, WithPersistence(dir, persist.SyncEvery(1)))
	}
	opts = append(opts, extra...)
	eng, err := NewEngine(opts...)
	if err != nil {
		t.Fatal(err)
	}
	registerPersistParticipants(eng)
	return eng
}

// registerPersistParticipants attaches the deterministic population (same
// shapes as the byte-identical sharding test). Participants are runtime
// objects — a restarted engine re-registers them; only their satisfaction
// memory persists.
func registerPersistParticipants(eng *Engine) {
	const providers, consumers = 10, 3
	for c := 0; c < consumers; c++ {
		id := model.ConsumerID(c)
		eng.RegisterConsumer(FuncConsumer{ID: id, Fn: func(q model.Query, snap model.ProviderSnapshot) model.Intention {
			return model.Intention(float64((int(snap.ID)+int(id))%5)/5 - 0.2)
		}})
	}
	for i := 0; i < providers; i++ {
		eng.RegisterProvider(&constProvider{
			id: model.ProviderID(i), pi: model.Intention(float64(i%7)/7 - 0.3), util: float64(i%4) / 4,
		})
	}
}

// persistQuery is the deterministic query stream: query i arrives at clock
// tick i.
func persistQuery(i int) model.Query {
	return model.Query{Consumer: model.ConsumerID(i % 3), N: 1 + i%2, Work: 1 + float64(i%3)}
}

// runQueries drives queries [from, to) through hand-off-only tickets,
// returning each allocation rendered to a comparison string.
func runQueries(t *testing.T, eng *Engine, clock *atomic.Int64, from, to int) []string {
	t.Helper()
	out := make([]string, 0, to-from)
	for i := from; i < to; i++ {
		clock.Store(int64(i))
		a, err := submit(context.Background(), eng, persistQuery(i), nil)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		out = append(out, fmt.Sprintf("%+v", *a))
	}
	return out
}

// TestRestartDeterminismByteIdentical is the headline acceptance test: an
// engine killed gracefully mid-scenario and restarted from disk continues
// with a single-shard allocation sequence byte-identical to an uninterrupted
// run — satisfaction memory, policy, query IDs, and the allocator sampling
// stream all resume exactly.
func TestRestartDeterminismByteIdentical(t *testing.T) {
	const half = 120

	// Uninterrupted reference: 2×half queries straight through.
	var refClock atomic.Int64
	ref := buildPersistEngine(t, "", &refClock)
	defer ref.Close()
	refAll := runQueries(t, ref, &refClock, 0, 2*half)

	// Interrupted run: first half, graceful close (flushes the snapshot).
	dir := t.TempDir()
	var clock atomic.Int64
	eng1 := buildPersistEngine(t, dir, &clock)
	firstHalf := runQueries(t, eng1, &clock, 0, half)
	for i, s := range firstHalf {
		if s != refAll[i] {
			t.Fatalf("pre-restart divergence at query %d:\nref: %s\ngot: %s", i, refAll[i], s)
		}
	}
	eng1.Close()

	// Warm restart from disk; the clock keeps its axis.
	eng2 := buildPersistEngine(t, dir, &clock)
	defer eng2.Close()
	st := eng2.Stats()
	if st.Persistence == nil {
		t.Fatal("no persistence stats after restore")
	}
	if !st.Persistence.Restore.SnapshotLoaded {
		t.Fatal("graceful restart did not load a snapshot")
	}
	if st.Persistence.Restore.ReplayedRecords != 0 {
		t.Errorf("graceful restart replayed %d journal records, want 0 (snapshot covers all)", st.Persistence.Restore.ReplayedRecords)
	}
	if st.QueriesSubmitted != half {
		t.Errorf("restored query counter %d, want %d", st.QueriesSubmitted, half)
	}

	// The second half must be byte-identical to the uninterrupted run.
	secondHalf := runQueries(t, eng2, &clock, half, 2*half)
	for i, s := range secondHalf {
		if s != refAll[half+i] {
			t.Fatalf("post-restart divergence at query %d:\nref: %s\ngot: %s", half+i, refAll[half+i], s)
		}
	}

	// And the final satisfaction state matches the uninterrupted engine's
	// exactly.
	for c := 0; c < 3; c++ {
		id := model.ConsumerID(c)
		if a, b := ref.ConsumerSatisfaction(id), eng2.ConsumerSatisfaction(id); a != b {
			t.Errorf("consumer %d final δs: %v (ref) != %v (restored)", c, a, b)
		}
	}
	for p := 0; p < 10; p++ {
		id := model.ProviderID(p)
		if a, b := ref.ProviderSatisfaction(id), eng2.ProviderSatisfaction(id); a != b {
			t.Errorf("provider %d final δs: %v (ref) != %v (restored)", p, a, b)
		}
	}
}

// TestCrashKillRecoversBoundedLoss: an engine killed WITHOUT a graceful
// flush recovers from snapshot+journal losing at most the last unsynced
// batch — here exactly the records past the last fsync boundary.
func TestCrashKillRecoversBoundedLoss(t *testing.T) {
	const (
		queries   = 47
		syncEvery = 10
		recovered = 40 // floor(queries/syncEvery)·syncEvery
	)
	dir := t.TempDir()
	var clock atomic.Int64

	// Capture every allocation so the test can rebuild the expected
	// recovered registry state independently.
	var mu sync.Mutex
	var seen []*model.Allocation
	capture := event.Funcs{Allocation: func(a *model.Allocation, _ int) {
		cp := *a
		cp.Proposed = append([]model.ProviderID(nil), a.Proposed...)
		cp.Selected = append([]model.ProviderID(nil), a.Selected...)
		cp.ConsumerIntentions = append([]model.Intention(nil), a.ConsumerIntentions...)
		cp.ProviderIntentions = append([]model.Intention(nil), a.ProviderIntentions...)
		mu.Lock()
		seen = append(seen, &cp)
		mu.Unlock()
	}}

	eng1, err := NewEngine(
		WithWindow(40),
		WithConcurrency(1),
		WithPolicy(persistTestSpec()),
		WithClock(func() float64 { return float64(clock.Load()) / 100 }),
		WithObserver(capture),
		WithPersistence(dir, persist.SyncEvery(syncEvery)),
	)
	if err != nil {
		t.Fatal(err)
	}
	registerPersistParticipants(eng1)
	for i := 0; i < queries; i++ {
		clock.Store(int64(i))
		if _, err := submit(context.Background(), eng1, persistQuery(i), nil); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
	// Wait for the recorder to have appended (buffered) every record, then
	// crash: buffered-but-unsynced records are lost.
	deadline := time.Now().Add(5 * time.Second)
	for eng1.Stats().Persistence.RecordsAppended < queries {
		if time.Now().After(deadline) {
			t.Fatalf("recorder appended only %d/%d records", eng1.Stats().Persistence.RecordsAppended, queries)
		}
		time.Sleep(time.Millisecond)
	}
	eng1.closeAbrupt()

	eng2, err := NewEngine(
		WithWindow(40),
		WithConcurrency(1),
		WithPolicy(persistTestSpec()),
		WithClock(func() float64 { return float64(clock.Load()) / 100 }),
		WithPersistence(dir),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer eng2.Close()
	st := eng2.Stats()
	if got := st.Persistence.Restore.ReplayedRecords; got != recovered {
		t.Errorf("replayed %d records after crash, want exactly the synced %d", got, recovered)
	}
	if st.QueriesSubmitted != recovered {
		t.Errorf("recovered query counter %d, want %d", st.QueriesSubmitted, recovered)
	}

	// The recovered registry must equal a registry fed exactly the first
	// `recovered` outcomes.
	mu.Lock()
	prefix := seen[:recovered]
	mu.Unlock()
	want := satisfaction.NewRegistry(40)
	for _, a := range prefix {
		want.RecordAllocation(a, nil)
	}
	reg := eng2.Registry()
	for c := 0; c < 3; c++ {
		id := model.ConsumerID(c)
		if a, b := want.ConsumerSatisfaction(id), reg.ConsumerSatisfaction(id); a != b {
			t.Errorf("consumer %d recovered δs %v, want %v", c, b, a)
		}
	}
	for p := 0; p < 10; p++ {
		id := model.ProviderID(p)
		if a, b := want.ProviderSatisfaction(id), reg.ProviderSatisfaction(id); a != b {
			t.Errorf("provider %d recovered δs %v, want %v", p, b, a)
		}
	}
}

// TestRestoredPolicyWinsOverBootSpec: a reconfigured policy survives the
// restart even when the boot flags still name the original spec.
func TestRestoredPolicyWinsOverBootSpec(t *testing.T) {
	dir := t.TempDir()
	var clock atomic.Int64
	eng1 := buildPersistEngine(t, dir, &clock)
	runQueries(t, eng1, &clock, 0, 10)
	upgraded := policy.Spec{Name: "upgraded", Kind: policy.Random, Seed: 7}
	if err := eng1.Reconfigure(context.Background(), upgraded); err != nil {
		t.Fatal(err)
	}
	runQueries(t, eng1, &clock, 10, 20)
	eng1.Close()

	eng2 := buildPersistEngine(t, dir, &clock) // boot spec: persistTestSpec
	defer eng2.Close()
	spec := eng2.Policy()
	if spec.Name != "upgraded" || spec.Kind != policy.Random {
		t.Fatalf("restored policy %v, want the reconfigured one", spec)
	}
	if gen := eng2.PolicyGeneration(); gen != 1 {
		t.Errorf("restored policy generation %d, want 1", gen)
	}
	if st := eng2.Stats(); st.Shards[0].PolicyGeneration != 1 {
		t.Errorf("shard policy generation %d, want 1", st.Shards[0].PolicyGeneration)
	}
}

// TestDepartureForgottenAcrossRestart: a worker unregistered before the
// crash stays forgotten after replay (the Forget journal record).
func TestDepartureForgottenAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	var clock atomic.Int64
	eng1 := buildPersistEngine(t, dir, &clock)
	runQueries(t, eng1, &clock, 0, 60)
	// Depart some provider that has accumulated memory.
	departed := model.ProviderID(-1)
	for p := model.ProviderID(0); p < 10; p++ {
		if p != 2 && eng1.ProviderSatisfaction(p) != satisfaction.Neutral {
			departed = p
			break
		}
	}
	if departed < 0 {
		t.Fatal("no provider accumulated memory in 60 queries")
	}
	eng1.UnregisterWorker(departed)
	// Crash with no graceful snapshot: only the journal carries the
	// departure. buildPersistEngine syncs every record, and the abrupt
	// close drains the recorder queue before dropping the file, so the
	// Forget record is on disk.
	eng1.closeAbrupt()

	eng2 := buildPersistEngine(t, dir, &clock)
	defer eng2.Close()
	if got := eng2.ProviderSatisfaction(departed); got != satisfaction.Neutral {
		t.Errorf("departed provider %d restored with δs %v, want neutral (forgotten)", departed, got)
	}
	if eng2.ProviderSatisfaction(2) == satisfaction.Neutral {
		t.Error("surviving provider 2 lost its memory")
	}
}

// TestPersistenceCompactionUnderTraffic exercises the background
// compaction loop end to end under live concurrent traffic (and, in CI,
// under -race): tiny segments force rotations, the loop folds them into
// snapshots, and a restart afterwards still restores.
func TestPersistenceCompactionUnderTraffic(t *testing.T) {
	dir := t.TempDir()
	eng, err := NewEngine(
		WithWindow(20),
		WithConcurrency(4),
		WithPolicy(policy.Spec{Name: "compact", Kind: policy.SbQA, K: 6, Kn: 3, Seed: 1}),
		WithPersistence(dir, func(c *persist.Config) {
			c.SegmentBytes = 2048
			c.CompactAfterSegments = 2
			c.CompactInterval = 5 * time.Millisecond
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	registerPersistParticipants(eng)

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				q := model.Query{Consumer: model.ConsumerID(g % 3), N: 1, Work: 1}
				if _, err := submit(context.Background(), eng, q, nil); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	deadline := time.Now().Add(10 * time.Second)
	for eng.Stats().Persistence.Compactions == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no compaction despite tiny segments")
		}
		time.Sleep(5 * time.Millisecond)
	}
	eng.Close()

	eng2, err := NewEngine(
		WithWindow(20),
		WithConcurrency(4),
		WithPolicy(policy.Spec{Name: "compact", Kind: policy.SbQA, K: 6, Kn: 3, Seed: 1}),
		WithPersistence(dir),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer eng2.Close()
	st := eng2.Stats()
	if !st.Persistence.Restore.SnapshotLoaded {
		t.Error("no snapshot after compaction run")
	}
	if st.QueriesSubmitted != 1200 {
		t.Errorf("recovered query counter %d, want 1200", st.QueriesSubmitted)
	}
}

// TestPersistenceDisabledHasNilStats: engines without WithPersistence keep
// a nil Persistence block.
func TestPersistenceDisabledHasNilStats(t *testing.T) {
	var clock atomic.Int64
	eng := buildPersistEngine(t, "", &clock)
	defer eng.Close()
	if eng.Stats().Persistence != nil {
		t.Error("persistence stats present without WithPersistence")
	}
}
