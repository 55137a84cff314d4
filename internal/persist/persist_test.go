package persist

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"sbqa/internal/event"
	"sbqa/internal/model"
	"sbqa/internal/satisfaction"
)

// testSnapshot builds a small but fully featured snapshot.
func testSnapshot() *Snapshot {
	reg := satisfaction.NewRegistry(5)
	for i := 0; i < 40; i++ {
		reg.Consumer(model.ConsumerID(i%7)).Record(float64(i%5)/4.3, 0.9, float64(i%2))
		reg.Provider(model.ProviderID(i%9)).Record(model.Intention(float64(i%4)/2-1), i%3 == 0)
	}
	cs, ps := CaptureRegistry(reg)
	return &Snapshot{
		FirstSegment:     7,
		NextQueryID:      12345,
		PolicyGeneration: 3,
		PolicyJSON:       []byte(`{"kind":"sbqa","k":6,"kn":3,"seed":42}`),
		AllocStates:      [][]byte{{1, 2, 3}, nil, {4, 5}},
		Window:           5,
		Consumers:        cs,
		Providers:        ps,
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	want := testSnapshot()
	var buf bytes.Buffer
	if err := EncodeSnapshot(&buf, want); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("round trip diverged:\nwant %+v\ngot  %+v", want, got)
	}

	// Applying the snapshot restores bit-identical satisfaction.
	reg := satisfaction.NewRegistry(5)
	if err := got.ApplyRegistry(reg); err != nil {
		t.Fatal(err)
	}
	for _, e := range want.Consumers {
		restored, err := satisfaction.NewConsumerFromState(e.State)
		if err != nil {
			t.Fatal(err)
		}
		if a, b := reg.ConsumerSatisfaction(e.ID), restored.Satisfaction(); a != b {
			t.Errorf("consumer %d: δs %v != %v", e.ID, a, b)
		}
	}
}

func TestSnapshotDecodeRejectsCorruption(t *testing.T) {
	var buf bytes.Buffer
	if err := EncodeSnapshot(&buf, testSnapshot()); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	// Truncations at every boundary must error, never panic.
	for _, n := range []int{0, 4, 8, 9, len(data) / 2, len(data) - 1} {
		if _, err := DecodeSnapshot(bytes.NewReader(data[:n])); err == nil {
			t.Errorf("truncation at %d decoded", n)
		}
	}
	// Any single-byte flip must fail the checksum (or the framing).
	for _, i := range []int{0, 8, 10, 20, len(data) / 2, len(data) - 2} {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0x40
		if _, err := DecodeSnapshot(bytes.NewReader(mut)); err == nil {
			t.Errorf("bit flip at %d decoded", i)
		}
	}
}

// replayAll restores a fresh registry from dir and returns the result.
func replayAll(t *testing.T, dir string, opts ...Option) (*satisfaction.Registry, *RestoreResult, *Store) {
	t.Helper()
	st, err := Open(dir, opts...)
	if err != nil {
		t.Fatal(err)
	}
	reg := satisfaction.NewRegistry(satisfaction.DefaultWindow)
	res, err := st.Restore(reg)
	if err != nil {
		t.Fatal(err)
	}
	return reg, res, st
}

// outcome builds a simple outcome record for provider set ps.
func outcome(qid int64, c model.ConsumerID, ps ...model.ProviderID) *Record {
	o := OutcomeRecord{QueryID: qid, Consumer: c, N: 1}
	for i, p := range ps {
		o.Proposed = append(o.Proposed, p)
		o.CI = append(o.CI, model.Intention(0.5))
		o.PI = append(o.PI, model.Intention(0.25))
		o.Selected = append(o.Selected, i == 0)
	}
	return &Record{Type: RecordOutcome, Outcome: o}
}

func TestJournalAppendReplay(t *testing.T) {
	dir := t.TempDir()
	_, _, st := replayAll(t, dir, SyncEvery(1))
	for i := 0; i < 10; i++ {
		if err := st.Append(outcome(int64(i+1), 1, 2, 3)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Append(&Record{Type: RecordForgetProvider, Forget: 3}); err != nil {
		t.Fatal(err)
	}
	if err := st.Append(&Record{Type: RecordPolicyChange, PolicyGeneration: 9, PolicyJSON: []byte(`{"kind":"random"}`)}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	reg, res, _ := replayAll(t, dir)
	if res.Stats.ReplayedRecords != 12 {
		t.Fatalf("replayed %d records, want 12", res.Stats.ReplayedRecords)
	}
	if res.NextQueryID != 10 {
		t.Errorf("next query ID %d, want 10", res.NextQueryID)
	}
	if res.PolicyGeneration != 9 || string(res.PolicyJSON) != `{"kind":"random"}` {
		t.Errorf("policy not recovered: gen %d, %q", res.PolicyGeneration, res.PolicyJSON)
	}
	if res.Stats.TornTail {
		t.Error("clean journal reported torn tail")
	}
	// Provider 2 was selected 10 times with PI 0.25 → unit 0.625; provider
	// 3 was forgotten after the outcomes.
	if got := reg.ProviderSatisfaction(2); got != 0.625 {
		t.Errorf("provider 2 δs %v, want 0.625", got)
	}
	if got := reg.ProviderSatisfaction(3); got != satisfaction.Neutral {
		t.Errorf("forgotten provider 3 δs %v, want neutral", got)
	}
	if got := reg.ConsumerSatisfaction(1); got == satisfaction.Neutral {
		t.Error("consumer 1 recorded nothing")
	}
}

func TestJournalTornTailTolerated(t *testing.T) {
	dir := t.TempDir()
	_, _, st := replayAll(t, dir, SyncEvery(1))
	for i := 0; i < 5; i++ {
		if err := st.Append(outcome(int64(i+1), 0, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the final record: chop a few bytes off the active segment.
	segs, _, err := st.scan()
	if err != nil {
		t.Fatal(err)
	}
	last := SegmentFilePath(dir, segs[len(segs)-1])
	info, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(last, info.Size()-3); err != nil {
		t.Fatal(err)
	}

	_, res, _ := replayAll(t, dir)
	if !res.Stats.TornTail {
		t.Error("torn tail not reported")
	}
	if res.Stats.ReplayedRecords != 4 {
		t.Errorf("replayed %d records, want 4 (last torn)", res.Stats.ReplayedRecords)
	}

	// The same corruption in a NON-final segment is an error, not a
	// tolerated tear.
	if err := os.WriteFile(SegmentFilePath(dir, segs[len(segs)-1]+5), []byte("SBQAWAL1 garbage beyond"), 0o644); err != nil {
		t.Fatal(err)
	}
	st3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st3.Restore(satisfaction.NewRegistry(10)); err == nil {
		t.Error("mid-journal corruption tolerated")
	} else if !errors.Is(err, ErrCorrupt) {
		t.Errorf("mid-journal corruption: %v, want ErrCorrupt", err)
	}
}

func TestSegmentRotationAndSnapshotPruning(t *testing.T) {
	dir := t.TempDir()
	_, _, st := replayAll(t, dir, func(c *Config) { c.SegmentBytes = 256 }, SyncEvery(1))
	for i := 0; i < 50; i++ {
		if err := st.Append(outcome(int64(i+1), model.ConsumerID(i%3), 1, 2)); err != nil {
			t.Fatal(err)
		}
	}
	if st.SealedSegments() == 0 {
		t.Fatal("no rotation despite tiny segment threshold")
	}

	// Compact: rotate, snapshot the engine-held state, prune. The test's
	// stand-in for the engine's registry is a fresh one fed the same
	// records.
	reg := satisfaction.NewRegistry(satisfaction.DefaultWindow)
	for i := 0; i < 50; i++ {
		outcome(int64(i+1), model.ConsumerID(i%3), 1, 2).Apply(reg)
	}
	first, err := st.RotateForSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	cs, ps := CaptureRegistry(reg)
	snap := &Snapshot{FirstSegment: first, NextQueryID: 50, Window: satisfaction.DefaultWindow, Consumers: cs, Providers: ps}
	if err := st.WriteSnapshot(snap, true); err != nil {
		t.Fatal(err)
	}
	if got := st.SealedSegments(); got != 0 {
		t.Errorf("%d sealed segments survive compaction, want 0", got)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Only the snapshot and the empty active segment remain.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if len(names) != 2 {
		t.Fatalf("dir after compaction: %v, want snapshot + active segment", names)
	}

	reg2, res2, _ := replayAll(t, dir)
	if !res2.Stats.SnapshotLoaded {
		t.Fatal("snapshot not loaded after compaction")
	}
	if res2.Stats.ReplayedRecords != 0 {
		t.Errorf("replayed %d records after full compaction, want 0", res2.Stats.ReplayedRecords)
	}
	for c := 0; c < 3; c++ {
		if a, b := reg.ConsumerSatisfaction(model.ConsumerID(c)), reg2.ConsumerSatisfaction(model.ConsumerID(c)); a != b {
			t.Errorf("consumer %d δs %v != %v after compaction", c, a, b)
		}
	}
}

func TestCorruptSnapshotFallsBackOrFailsLoudly(t *testing.T) {
	dir := t.TempDir()
	_, _, st := replayAll(t, dir, SyncEvery(1))
	for i := 0; i < 6; i++ {
		if err := st.Append(outcome(int64(i+1), 0, 1)); err != nil {
			t.Fatal(err)
		}
	}
	first, err := st.RotateForSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	// Hand-write a good snapshot and a newer corrupt one: restore must fall
	// back to the older good snapshot.
	reg := satisfaction.NewRegistry(satisfaction.DefaultWindow)
	for i := 0; i < 6; i++ {
		outcome(int64(i+1), 0, 1).Apply(reg)
	}
	cs, ps := CaptureRegistry(reg)
	good := &Snapshot{FirstSegment: first, NextQueryID: 6, Window: satisfaction.DefaultWindow, Consumers: cs, Providers: ps}
	var buf bytes.Buffer
	if err := EncodeSnapshot(&buf, good); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(snapshotPath(dir, first), buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := EncodeSnapshot(&buf, &Snapshot{FirstSegment: first + 1, NextQueryID: 99}); err != nil {
		t.Fatal(err)
	}
	corrupt := buf.Bytes()
	corrupt[len(corrupt)-1] ^= 0xFF
	if err := os.WriteFile(snapshotPath(dir, first+1), corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	reg2, res, st2 := replayAll(t, dir)
	st2.Close()
	if !res.Stats.SnapshotLoaded {
		t.Error("older good snapshot not used as fallback")
	}
	if res.NextQueryID != 6 {
		t.Errorf("restored NextQueryID %d, want 6 (the good snapshot's)", res.NextQueryID)
	}
	if got := reg2.ConsumerSatisfaction(0); got == satisfaction.Neutral {
		t.Error("fallback snapshot restored nothing")
	}

	// When EVERY snapshot is corrupt, restore must fail loudly rather than
	// silently resurrect a near-empty registry (compaction may have pruned
	// the history the snapshots covered).
	if err := os.WriteFile(snapshotPath(dir, first), corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	st3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st3.Restore(satisfaction.NewRegistry(10)); err == nil {
		t.Error("all-corrupt snapshots restored silently")
	} else if !errors.Is(err, ErrCorrupt) {
		t.Errorf("all-corrupt snapshots: %v, want ErrCorrupt", err)
	}
}

func TestRecorderDropsWhenFullAndCountsIt(t *testing.T) {
	dir := t.TempDir()
	_, _, st := replayAll(t, dir, func(c *Config) { c.QueueDepth = 1 })
	rec := st.NewRecorder(event.Funcs{})
	rec.Start()
	// Saturate the queue faster than the writer can drain by enqueueing
	// many events; some must be dropped (depth 1), none may block.
	a := &model.Allocation{Query: model.Query{ID: 1, Consumer: 0, N: 1}, Proposed: []model.ProviderID{1}, Selected: []model.ProviderID{1},
		ConsumerIntentions: []model.Intention{1}, ProviderIntentions: []model.Intention{1}}
	for i := 0; i < 5000; i++ {
		rec.OnAllocation(a, 1)
	}
	rec.Close()
	stats := rec.Stats()
	if stats.RecordsDropped == 0 {
		t.Error("no drops despite depth-1 queue under burst")
	}
	if stats.RecordsAppended+stats.RecordsDropped != 5000 {
		t.Errorf("appended %d + dropped %d != 5000", stats.RecordsAppended, stats.RecordsDropped)
	}
	// After close, events are dropped, not sent.
	rec.OnAllocation(a, 1)
	if got := rec.Stats().RecordsDropped; got != stats.RecordsDropped+1 {
		t.Errorf("post-close event not counted as drop (%d)", got)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestRestoreRejectsSecondCall(t *testing.T) {
	dir := t.TempDir()
	_, _, st := replayAll(t, dir)
	if _, err := st.Restore(satisfaction.NewRegistry(10)); err == nil {
		t.Error("second Restore accepted")
	}
	st.Close()
}

func TestAbortLosesUnsyncedBatchOnly(t *testing.T) {
	dir := t.TempDir()
	_, _, st := replayAll(t, dir, SyncEvery(10))
	for i := 0; i < 47; i++ {
		if err := st.Append(outcome(int64(i+1), 0, 1)); err != nil {
			t.Fatal(err)
		}
	}
	st.Abort() // crash: records 41..47 were buffered, never synced

	_, res, _ := replayAll(t, dir)
	if res.Stats.ReplayedRecords != 40 {
		t.Errorf("recovered %d records after crash, want exactly the synced 40", res.Stats.ReplayedRecords)
	}
	if res.NextQueryID != 40 {
		t.Errorf("next query ID %d, want 40", res.NextQueryID)
	}
}

// TestCrashBeforeFirstSyncStillRestores is the regression for the
// end-to-end crash bug: a store killed before its first fsync (default
// cadence, few records) must restore cleanly with zero replayed records —
// not fail with corruption. The segment header is synced at creation, so
// the on-disk file always parses.
func TestCrashBeforeFirstSyncStillRestores(t *testing.T) {
	dir := t.TempDir()
	_, _, st := replayAll(t, dir) // default SyncEvery(64)
	for i := 0; i < 10; i++ {
		if err := st.Append(outcome(int64(i+1), 0, 1)); err != nil {
			t.Fatal(err)
		}
	}
	st.Abort() // crash: all 10 records were buffered, never synced

	_, res, st2 := replayAll(t, dir)
	defer st2.Close()
	if res.Stats.ReplayedRecords != 0 {
		t.Errorf("replayed %d records, want 0 (nothing was synced)", res.Stats.ReplayedRecords)
	}

	// An entirely truncated (empty) final segment — crash before even the
	// header landed — is tolerated as a torn tail too.
	st2.Close()
	if err := os.WriteFile(SegmentFilePath(dir, 99), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	_, res3, st3 := replayAll(t, dir)
	defer st3.Close()
	if !res3.Stats.TornTail {
		t.Error("empty final segment not reported as torn tail")
	}
}

func TestOpenCreatesDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "nested", "state")
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Restore(satisfaction.NewRegistry(10)); err != nil {
		t.Fatal(err)
	}
	st.Close()
	if _, err := os.Stat(dir); err != nil {
		t.Fatal(err)
	}
}
