// Benchmarks of the durability subsystem (internal/persist): journal append
// throughput, a follower landing a shipped segment, snapshot encoding over a
// million-participant registry, and the live engine's mediation path with
// persistence enabled (the recorder overhead the <10% acceptance gate
// bounds).
package sbqa

import (
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"sbqa/internal/model"
	"sbqa/internal/persist"
	"sbqa/internal/policy"
	"sbqa/internal/satisfaction"
)

// benchOutcomeRecord is a representative journal record: a kn=10 proposal
// with intentions, two selected.
func benchOutcomeRecord(qid int64) *persist.Record {
	o := persist.OutcomeRecord{QueryID: qid, Consumer: model.ConsumerID(qid % 64), N: 2}
	for p := 0; p < 10; p++ {
		o.Proposed = append(o.Proposed, model.ProviderID(p))
		o.CI = append(o.CI, model.Intention(float64(p)/10-0.4))
		o.PI = append(o.PI, model.Intention(float64(p)/12-0.3))
		o.Selected = append(o.Selected, p < 2)
	}
	return &persist.Record{Type: persist.RecordOutcome, Outcome: o}
}

// BenchmarkJournalAppend measures one journal record append on the default
// fsync cadence (the amortized hot-path cost the recorder pays per
// mediation outcome).
func BenchmarkJournalAppend(b *testing.B) {
	st, err := persist.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	if _, err := st.Restore(satisfaction.NewRegistry(satisfaction.DefaultWindow)); err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	rec := benchOutcomeRecord(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := st.Append(rec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLandSegment measures a follower landing one shipped, sealed
// 1,000-record segment in a single chunk: write, fsync, validate every
// record, publish. Each op lands into a replica dir that does not exist yet
// (the last one is removed outside the timer), as a follower's first
// segment from an origin does.
func BenchmarkLandSegment(b *testing.B) {
	src := b.TempDir()
	st, err := persist.Open(src)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := st.Restore(satisfaction.NewRegistry(satisfaction.DefaultWindow)); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if err := st.Append(benchOutcomeRecord(int64(i + 1))); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := st.RotateIfDirty(); err != nil {
		b.Fatal(err)
	}
	seq := st.SealedSegmentSeqs()[0]
	if err := st.Close(); err != nil {
		b.Fatal(err)
	}
	data, err := os.ReadFile(persist.SegmentFilePath(src, seq))
	if err != nil {
		b.Fatal(err)
	}
	dir := filepath.Join(b.TempDir(), "replica", "n0")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if refused, err := persist.LandSegmentChunk(dir, seq, 0, data, true); refused != nil || err != nil {
			b.Fatalf("landing refused %v, failed %v", refused, err)
		}
		b.StopTimer()
		if err := os.RemoveAll(dir); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

// benchRegistry1M is the lazily built million-participant registry shared
// by the snapshot benches (500k consumers + 500k providers, one interaction
// each, small windows — the realistic shape of a huge mostly-cold
// population).
var benchRegistry1M = sync.OnceValue(func() *satisfaction.Registry {
	const half = 500_000
	reg := satisfaction.NewRegistry(4)
	for i := 0; i < half; i++ {
		reg.Consumer(model.ConsumerID(i)).Record(float64(i%10)/9.3, 0.8, 0.5)
		reg.Provider(model.ProviderID(i)).Record(model.Intention(float64(i%7)/3.5-1), i%2 == 0)
	}
	return reg
})

// BenchmarkSnapshotRegistry measures capturing and encoding a full snapshot
// of a 1M-participant registry (the stop-the-world portion of a compaction
// is the capture alone; encoding streams outside the locks).
func BenchmarkSnapshotRegistry(b *testing.B) {
	reg := benchRegistry1M()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cs, ps := persist.CaptureRegistry(reg)
		snap := &persist.Snapshot{
			FirstSegment: uint64(i + 1),
			NextQueryID:  int64(i),
			Window:       4,
			Consumers:    cs,
			Providers:    ps,
		}
		if err := persist.EncodeSnapshot(io.Discard, snap); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(1_000_000, "participants/op")
}

// BenchmarkLiveEngineParallelPersist is BenchmarkLiveEngineParallel with
// persistence enabled: same sharded parallel load, every mediation outcome
// additionally journaled through the async recorder. The delta against the
// plain bench is the durability overhead; the benchgate pins it under 10%.
func BenchmarkLiveEngineParallelPersist(b *testing.B) {
	const providers = 200
	maxProcs := runtime.GOMAXPROCS(0)
	eng, err := NewEngine(
		WithWindow(100),
		WithConcurrency(maxProcs),
		WithPolicy(policy.Spec{Name: "bench", Kind: policy.SbQA, K: 20, Kn: 10, Seed: 1}),
		WithPersistence(b.TempDir()),
	)
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	for i := 0; i < providers; i++ {
		eng.RegisterProvider(providerStub{id: ProviderID(i), pi: Intention(float64(i%9)/9 - 0.3)})
	}
	for c := 0; c < maxProcs*4; c++ {
		c := c
		eng.RegisterConsumer(LiveFuncConsumer{ID: ConsumerID(c), Fn: func(q Query, snap ProviderSnapshot) Intention {
			return Intention(float64((int(snap.ID)+c)%7)/7 - 0.2)
		}})
	}
	benchmarkEngineParallel(b, eng)
	b.StopTimer()
	if dropped := eng.Stats().Persistence.RecordsDropped; dropped > 0 {
		b.ReportMetric(float64(dropped), "dropped/run")
	}
}
