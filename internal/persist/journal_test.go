package persist

import (
	"bytes"
	"testing"

	"sbqa/internal/model"
	"sbqa/internal/satisfaction"
)

// mixedPolicySpec is the one policy record mixedRecords carries.
const mixedPolicySpec = `{"kind":"sbqa","k":6,"kn":3}`

// mixedRecords returns n journal records that vary in every way the decoder
// reuses state across: outcomes of 5, 1 and 3 proposals, with candidates,
// without, and with an empty candidate set, consumer and provider forgets,
// and at index 3 a policy record. The largest outcome comes first, so the
// decoder's buffers reach their final size within the first five records.
func mixedRecords(n int) []*Record {
	recs := make([]*Record, 0, n)
	for i := 0; i < n; i++ {
		c := model.ConsumerID(i % 7)
		if i == 3 {
			recs = append(recs, &Record{Type: RecordPolicyChange, PolicyGeneration: 2, PolicyJSON: []byte(mixedPolicySpec)})
			continue
		}
		switch i % 5 {
		case 0:
			rec := outcome(int64(i+1), c, 1, 2, 3, 4, 5)
			rec.Outcome.N = 2
			rec.Outcome.CI[1] = model.Intention(float64(i%11)/10 - 0.5)
			rec.Outcome.Selected[1] = true
			rec.Outcome.HasCandidates = true
			for k := 0; k < 8; k++ {
				rec.Outcome.Candidates = append(rec.Outcome.Candidates, model.Intention(float64((i+k)%9)/8-0.3))
			}
			recs = append(recs, rec)
		case 1:
			recs = append(recs, outcome(int64(i+1), c, model.ProviderID(i%6)))
		case 2:
			recs = append(recs, &Record{Type: RecordForgetConsumer, Forget: int64((i + 3) % 7)})
		case 3:
			rec := outcome(int64(i+1), c, 2, 6, 7)
			rec.Outcome.HasCandidates = true
			recs = append(recs, rec)
		case 4:
			recs = append(recs, &Record{Type: RecordForgetProvider, Forget: int64(i % 8)})
		}
	}
	return recs
}

// writeJournal appends recs to a fresh store over dir, sealing a segment
// after each index in sealAfter, and closes it.
func writeJournal(t testing.TB, dir string, recs []*Record, sealAfter ...int) {
	t.Helper()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Restore(satisfaction.NewRegistry(satisfaction.DefaultWindow)); err != nil {
		t.Fatal(err)
	}
	for i, rec := range recs {
		if err := st.Append(rec); err != nil {
			t.Fatal(err)
		}
		for _, at := range sealAfter {
			if at == i {
				if _, err := st.RotateIfDirty(); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// registryBytes is reg's memory as a snapshot encodes it.
func registryBytes(t *testing.T, reg *satisfaction.Registry) []byte {
	t.Helper()
	cs, ps := CaptureRegistry(reg)
	var buf bytes.Buffer
	if err := EncodeSnapshot(&buf, &Snapshot{Consumers: cs, Providers: ps}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestValidateSegmentAllocs: validating a landed segment costs a constant
// number of allocations — the file, its bufio.Reader, the decoder and the
// growth of its buffers to the largest record — not a handful per record.
// The constant is 13 in a normal build and 18 under -race.
func TestValidateSegmentAllocs(t *testing.T) {
	allocs := func(n int) float64 {
		dir := t.TempDir()
		writeJournal(t, dir, mixedRecords(n))
		path := SegmentFilePath(dir, 1)
		if _, got, err := validateSegmentFile(path); err != nil || got != n {
			t.Fatalf("validate %d records = (%d, %v)", n, got, err)
		}
		return testing.AllocsPerRun(20, func() {
			if _, _, err := validateSegmentFile(path); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(10), allocs(2000)
	t.Logf("validate: %.0f allocs at 10 records, %.0f at 2,000", small, large)
	if small != large || large > 20 {
		t.Fatalf("validate allocates %.0f at 10 records and %.0f at 2,000; want the same constant, at most 20", small, large)
	}
}

// TestJournalAppendAllocs: once its buffers are warm, appending an outcome
// record allocates nothing.
func TestJournalAppendAllocs(t *testing.T) {
	_, _, st := replayAll(t, t.TempDir())
	defer st.Close()
	rec := mixedRecords(1)[0]
	if err := st.Append(rec); err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(200, func() {
		if err := st.Append(rec); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Fatalf("Append allocates %.1f per record, want 0", got)
	}
}

// TestDecoderReuseDoesNotLeak: records decoded into one reused Record —
// a long outcome with candidates, then a short one without, a forget, a
// policy change, more outcomes — replay through Restore and through
// ReplayDir to exactly the memory applying them directly builds, and the
// policy spec Restore keeps is not overwritten by the records after it.
func TestDecoderReuseDoesNotLeak(t *testing.T) {
	recs := mixedRecords(40)
	want := satisfaction.NewRegistry(satisfaction.DefaultWindow)
	for _, rec := range recs {
		rec.Apply(want)
	}
	wantBytes := registryBytes(t, want)

	dir := t.TempDir()
	writeJournal(t, dir, recs, 19)

	restored, res, st := replayAll(t, dir)
	st.Close()
	if res.Stats.ReplayedRecords != len(recs) {
		t.Fatalf("restore replayed %d records, want %d", res.Stats.ReplayedRecords, len(recs))
	}
	if !bytes.Equal(registryBytes(t, restored), wantBytes) {
		t.Fatal("restored registry differs from applying the records directly")
	}
	if res.PolicyGeneration != 2 || string(res.PolicyJSON) != mixedPolicySpec {
		t.Fatalf("restored policy = gen %d %q, want gen 2 %q", res.PolicyGeneration, res.PolicyJSON, mixedPolicySpec)
	}

	// ReplayDir reads the same segments; the empty one Restore opened last
	// holds no records.
	replayed := satisfaction.NewRegistry(satisfaction.DefaultWindow)
	n, err := ReplayDir(dir, nil, replayed)
	if err != nil || n != len(recs) {
		t.Fatalf("ReplayDir = (%d, %v), want (%d, nil)", n, err, len(recs))
	}
	if !bytes.Equal(registryBytes(t, replayed), wantBytes) {
		t.Fatal("ReplayDir registry differs from applying the records directly")
	}
}
