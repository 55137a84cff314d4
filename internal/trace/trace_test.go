package trace

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"sbqa/internal/model"
)

func TestSampleEvery(t *testing.T) {
	cases := []struct {
		rate float64
		want uint64
	}{
		{0, 0}, {-1, 0}, {1, 1}, {2, 1}, {0.5, 2}, {0.25, 4}, {0.1, 10}, {0.001, 1000},
	}
	for _, c := range cases {
		if got := sampleEvery(c.rate); got != c.want {
			t.Errorf("sampleEvery(%v) = %d, want %d", c.rate, got, c.want)
		}
	}
}

func TestStartLocalSampling(t *testing.T) {
	r := New(Config{Sample: 0.25, Buffer: 8})
	sampled := 0
	for i := 0; i < 100; i++ {
		if tc, ok := r.StartLocal(); ok {
			sampled++
			if !tc.Sampled || tc.ID.IsZero() || tc.Span == 0 {
				t.Fatalf("sampled context malformed: %+v", tc)
			}
			r.Finish(tc.ID, "allocated", "", nil)
		}
	}
	if sampled != 25 {
		t.Fatalf("1-in-4 sampling over 100 queries: got %d traces, want 25", sampled)
	}
}

func TestStartLocalDisabled(t *testing.T) {
	r := New(Config{Sample: 0})
	if _, ok := r.StartLocal(); ok {
		t.Fatal("Sample 0 must never sample")
	}
	var nilRec *Recorder
	if _, ok := nilRec.StartLocal(); ok {
		t.Fatal("nil recorder must never sample")
	}
	// All other methods must be nil-safe no-ops.
	nilRec.Annotate(model.TraceID{Hi: 1}, 1, 1)
	nilRec.RecordSpan(model.TraceID{Hi: 1}, Span{Name: StageScore})
	nilRec.Finish(model.TraceID{Hi: 1}, "x", "", nil)
	if _, ok := nilRec.TraceByQuery(1); ok {
		t.Fatal("nil recorder lookup must miss")
	}
	if got := nilRec.StatsSnapshot(); got != (Stats{}) {
		t.Fatalf("nil recorder stats = %+v", got)
	}
	if nilRec.StageSnapshots() != nil || nilRec.Slow(0, 0) != nil {
		t.Fatal("nil recorder views must be empty")
	}
}

func TestStartRemoteAdoptsContext(t *testing.T) {
	r := New(Config{Sample: 0, Buffer: 8}) // locally disabled
	in := model.TraceContext{ID: model.TraceID{Hi: 7, Lo: 9}, Span: 42, Sampled: true}
	tc := r.StartRemote(in)
	if !tc.Sampled || tc.ID != in.ID {
		t.Fatalf("StartRemote must adopt the inbound sampled context, got %+v", tc)
	}
	r.Annotate(tc.ID, 5, 3)
	r.Finish(tc.ID, "allocated", "", nil)
	v, ok := r.TraceByQuery(5)
	if !ok {
		t.Fatal("forwarded trace not found by query")
	}
	if v.TraceID != in.ID.String() {
		t.Fatalf("trace ID not preserved: %s != %s", v.TraceID, in.ID.String())
	}
	// W3C span IDs are fixed-width 16 hex digits, leading zeros kept.
	if v.ParentSpan != "000000000000002a" {
		t.Fatalf("parent span = %q, want 000000000000002a", v.ParentSpan)
	}

	// Unsampled and zero-ID contexts pass through inert.
	if out := r.StartRemote(model.TraceContext{ID: model.TraceID{Hi: 1}, Sampled: false}); out.Sampled {
		t.Fatal("unsampled inbound context must stay unsampled")
	}
	if out := r.StartRemote(model.TraceContext{Sampled: true}); out.Sampled {
		t.Fatal("zero-ID inbound context must be rejected")
	}
}

func TestSpansAndExplainRoundTrip(t *testing.T) {
	r := New(Config{Sample: 1, Buffer: 8})
	tc, ok := r.StartLocal()
	if !ok {
		t.Fatal("Sample 1 must always sample")
	}
	r.Annotate(tc.ID, 11, 2)
	r.RecordSpan(tc.ID, Span{Name: StageFanout, Start: 100, End: 300, Extra: 4})
	r.RecordSpan(tc.ID, Span{Name: StageScore, Start: 300, End: 450, Extra: 4})
	ex := &model.Explain{
		Allocator:  "sbqa",
		SatC:       0.5,
		Candidates: 4,
		Entries: []model.ExplainEntry{
			{Rank: 0, Provider: 3, CI: 0.9, PI: 0.8, SatP: 0.7, Omega: 0.4, Score: 0.85, PIImputed: true},
		},
	}
	r.Finish(tc.ID, "allocated", "", ex)

	v, ok := r.TraceByID(tc.ID.String())
	if !ok {
		t.Fatal("finished trace not found by ID")
	}
	if v.Status != "allocated" || v.QueryID != 11 || v.Consumer != 2 {
		t.Fatalf("trace identity wrong: %+v", v)
	}
	if len(v.Spans) != 2 || v.Spans[0].Name != StageFanout || v.Spans[1].Name != StageScore {
		t.Fatalf("spans wrong: %+v", v.Spans)
	}
	if v.Spans[0].DurationMS != 200.0/1e6 { // 200ns in ms
		t.Fatalf("span duration = %v", v.Spans[0].DurationMS)
	}
	if v.Explain == nil || v.Explain.Allocator != "sbqa" || len(v.Explain.Entries) != 1 {
		t.Fatalf("explain lost: %+v", v.Explain)
	}
	e := v.Explain.Entries[0]
	if e.Provider != 3 || e.Omega != 0.4 || !e.PIImputed || e.CIImputed {
		t.Fatalf("explain entry wrong: %+v", e)
	}
}

func TestSpanCapDropsNotGrows(t *testing.T) {
	r := New(Config{Sample: 1, Buffer: 4})
	tc, _ := r.StartLocal()
	const over = 7
	for i := 0; i < spanCap+over; i++ {
		r.RecordSpan(tc.ID, Span{Name: StageParticipant, Start: int64(i), End: int64(i + 1)})
	}
	r.Finish(tc.ID, "allocated", "", nil)
	v, _ := r.TraceByID(tc.ID.String())
	if len(v.Spans) != spanCap {
		t.Fatalf("span cap not enforced: %d spans", len(v.Spans))
	}
	if v.SpansDropped != over {
		t.Fatalf("dropped = %d, want %d", v.SpansDropped, over)
	}
	if st := r.StatsSnapshot(); st.SpansDropped != over {
		t.Fatalf("recorder dropped counter = %d, want %d", st.SpansDropped, over)
	}
}

func TestRingEvictionRecycles(t *testing.T) {
	r := New(Config{Sample: 1, Buffer: 2})
	var ids []model.TraceID
	for i := 0; i < 5; i++ {
		tc, _ := r.StartLocal()
		r.Annotate(tc.ID, model.QueryID(i+1), 0)
		r.Finish(tc.ID, "allocated", "", nil)
		ids = append(ids, tc.ID)
	}
	st := r.StatsSnapshot()
	if st.Started != 5 || st.Finished != 5 || st.Active != 0 {
		t.Fatalf("counters wrong: %+v", st)
	}
	if st.Evicted != 3 {
		t.Fatalf("evicted = %d, want 3", st.Evicted)
	}
	// Only the two newest survive.
	if _, ok := r.TraceByID(ids[4].String()); !ok {
		t.Fatal("newest trace evicted")
	}
	if _, ok := r.TraceByID(ids[0].String()); ok {
		t.Fatal("oldest trace should have been evicted")
	}
}

func TestViewIsIndependentCopy(t *testing.T) {
	r := New(Config{Sample: 1, Buffer: 1})
	tc, _ := r.StartLocal()
	r.Annotate(tc.ID, 1, 0)
	r.RecordSpan(tc.ID, Span{Name: StageScore, Start: 1, End: 2})
	r.Finish(tc.ID, "allocated", "", nil)
	v, _ := r.TraceByQuery(1)

	// Evict the record back into the pool and reuse it.
	tc2, _ := r.StartLocal()
	r.Annotate(tc2.ID, 2, 0)
	r.RecordSpan(tc2.ID, Span{Name: StageDispatch, Start: 5, End: 9})
	r.Finish(tc2.ID, "rejected", "boom", nil)

	if v.QueryID != 1 || v.Status != "allocated" || len(v.Spans) != 1 || v.Spans[0].Name != StageScore {
		t.Fatalf("view mutated by record recycling: %+v", v)
	}
}

func TestFinishUnknownIDNoOp(t *testing.T) {
	r := New(Config{Sample: 1, Buffer: 2})
	r.Finish(model.TraceID{Hi: 99, Lo: 1}, "allocated", "", nil)
	if st := r.StatsSnapshot(); st.Finished != 0 {
		t.Fatalf("unknown finish counted: %+v", st)
	}
}

func TestSlowFiltersAndSorts(t *testing.T) {
	r := New(Config{Sample: 1, Buffer: 8})
	mk := func(q model.QueryID, spanNanos int64) {
		tc, _ := r.StartLocal()
		r.Annotate(tc.ID, q, 0)
		// Stretch the trace duration via the record's own clock by finishing
		// later; instead force it through span bookkeeping: the trace
		// duration is end-start stamped by the recorder, so just finish and
		// rely on the natural ordering below.
		r.Finish(tc.ID, "allocated", "", nil)
		_ = spanNanos
	}
	mk(1, 0)
	mk(2, 0)
	all := r.Slow(0, 10)
	if len(all) != 2 {
		t.Fatalf("Slow(0) returned %d traces, want 2", len(all))
	}
	// A threshold beyond any plausible test duration filters everything.
	if got := r.Slow(int64(3600)*1e9, 10); len(got) != 0 {
		t.Fatalf("Slow(1h) returned %d traces, want 0", len(got))
	}
	if got := r.Slow(0, 1); len(got) != 1 {
		t.Fatalf("limit not applied: %d", len(got))
	}
}

func TestStageHistogram(t *testing.T) {
	r := New(Config{Sample: 1, Buffer: 2})
	tc, _ := r.StartLocal()
	// 0.5ms lands in the 0.0005 bucket; 30ms lands in 0.05.
	r.RecordSpan(tc.ID, Span{Name: StageScore, Start: 0, End: 500_000})
	r.RecordSpan(tc.ID, Span{Name: StageScore, Start: 0, End: 30_000_000})
	r.Finish(tc.ID, "allocated", "", nil)

	var snap StageSnapshot
	for _, s := range r.StageSnapshots() {
		if s.Stage == StageScore {
			snap = s
		}
	}
	if snap.Count != 2 {
		t.Fatalf("score count = %d, want 2", snap.Count)
	}
	if snap.Sum != 0.0305 {
		t.Fatalf("score sum = %v, want 0.0305", snap.Sum)
	}
	// Cumulative form: every bucket >= the previous one, final bucket = count
	// (both observations fall inside the explicit bucket range).
	var prev uint64
	for i, b := range snap.Buckets {
		if b < prev {
			t.Fatalf("bucket %d not cumulative: %d < %d", i, b, prev)
		}
		prev = b
	}
	if snap.Buckets[numBuckets-1] != 2 {
		t.Fatalf("final cumulative bucket = %d, want 2", snap.Buckets[numBuckets-1])
	}
	// le=0.0005 must already include the 0.5ms observation.
	for i, le := range StageBuckets {
		if le == 0.0005 && snap.Buckets[i] != 1 {
			t.Fatalf("le=0.0005 cumulative = %d, want 1", snap.Buckets[i])
		}
	}
	// Histograms observe even spans for already-finished traces.
	r.RecordSpan(model.TraceID{Hi: 123}, Span{Name: StageScore, Start: 0, End: 1000})
	for _, s := range r.StageSnapshots() {
		if s.Stage == StageScore && s.Count != 3 {
			t.Fatalf("post-finish observation lost: count = %d", s.Count)
		}
	}
}

func TestTraceparentRoundTrip(t *testing.T) {
	tc := model.TraceContext{
		ID:      model.TraceID{Hi: 0x0123456789abcdef, Lo: 0xfedcba9876543210},
		Span:    0x00f067aa0ba902b7,
		Sampled: true,
	}
	s := Format(tc)
	want := "00-0123456789abcdeffedcba9876543210-00f067aa0ba902b7-01"
	if s != want {
		t.Fatalf("Format = %q, want %q", s, want)
	}
	got, ok := Parse(s)
	if !ok || got != tc {
		t.Fatalf("Parse round trip failed: %+v ok=%v", got, ok)
	}
	// Unsampled flags.
	tc.Sampled = false
	got, ok = Parse(Format(tc))
	if !ok || got.Sampled {
		t.Fatalf("unsampled round trip failed: %+v ok=%v", got, ok)
	}
}

func TestTraceparentRejectsMalformed(t *testing.T) {
	bad := []string{
		"",
		"00-short",
		"01-0123456789abcdeffedcba9876543210-00f067aa0ba902b7-01",  // version
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01",  // zero trace ID
		"00-0123456789abcdeffedcba9876543210-00f067aa0ba902b7-0g",  // bad flags
		"00-0123456789abcdeffedcba987654321g-00f067aa0ba902b7-01",  // bad hex
		"00_0123456789abcdeffedcba9876543210-00f067aa0ba902b7-01",  // bad dash
		"00-0123456789abcdeffedcba9876543210-00f067aa0ba902b7-011", // length
	}
	for _, s := range bad {
		if _, ok := Parse(s); ok {
			t.Errorf("Parse(%q) accepted malformed header", s)
		}
	}
}

// FuzzParseTraceparent: arbitrary header bytes never panic Parse, and
// whatever it accepts Format renders to a string it accepts again with the
// same trace ID, parent span and sampled bit.
func FuzzParseTraceparent(f *testing.F) {
	f.Add("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01") // the W3C examples
	f.Add("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-00")
	f.Add("ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")                      // the forbidden version
	f.Add("00-00000000000000000000000000000000-0000000000000000-00")                      // all-zero IDs
	f.Add("00-4BF92F3577B34DA6A3CE929D0E0E4736-00F067AA0BA902B7-01")                      // upper-case hex
	f.Add("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-ff")                      // every flag set
	f.Add("00-+bf92f3577b34da6a3ce929d0e0e4736-0x_067aa0ba902b7-01")                      // what strconv might wave through
	f.Add(strings.Repeat("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01,", 73)) // 4 KiB
	f.Fuzz(func(t *testing.T, header string) {
		tc, ok := Parse(header)
		if !ok {
			if tc != (model.TraceContext{}) {
				t.Fatalf("Parse(%q) refused but returned %+v", header, tc)
			}
			return
		}
		if tc.ID.IsZero() {
			t.Fatalf("Parse(%q) accepted the all-zero trace ID", header)
		}
		again, ok := Parse(Format(tc))
		if !ok || again != tc {
			t.Fatalf("Parse(%q) = %+v, but Format renders %q which parses to %+v, %v", header, tc, Format(tc), again, ok)
		}
	})
}

func TestDuplicateRegisterKeepsFirst(t *testing.T) {
	r := New(Config{Sample: 0, Buffer: 4})
	tc := model.TraceContext{ID: model.TraceID{Hi: 1, Lo: 2}, Span: 3, Sampled: true}
	r.StartRemote(tc)
	r.Annotate(tc.ID, 7, 0)
	r.StartRemote(tc) // duplicate: same trace forwarded twice
	v, ok := r.TraceByQuery(7)
	if !ok || v.QueryID != 7 {
		t.Fatalf("duplicate register clobbered the first record: %+v ok=%v", v, ok)
	}
	if st := r.StatsSnapshot(); st.Started != 1 {
		t.Fatalf("duplicate register counted twice: %+v", st)
	}
}

func TestConcurrentUse(t *testing.T) {
	r := New(Config{Sample: 1, Buffer: 16})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				tc, ok := r.StartLocal()
				if !ok {
					continue
				}
				q := model.QueryID(g*1000 + i)
				r.Annotate(tc.ID, q, model.ConsumerID(g))
				for s := 0; s < 4; s++ {
					r.RecordSpan(tc.ID, Span{Name: StageParticipant, Start: int64(s), End: int64(s + 1)})
				}
				r.Finish(tc.ID, "allocated", "", nil)
			}
		}(g)
	}
	// Concurrent readers against the churn.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				r.Slow(0, 5)
				r.TraceByQuery(model.QueryID(i))
				r.StatsSnapshot()
				r.StageSnapshots()
			}
		}()
	}
	wg.Wait()
	st := r.StatsSnapshot()
	if st.Started != 1600 || st.Finished != 1600 || st.Active != 0 {
		t.Fatalf("counters after churn: %+v", st)
	}
}

func TestIDStringForm(t *testing.T) {
	id := model.TraceID{Hi: 0xab, Lo: 0xcd}
	if got, want := id.String(), fmt.Sprintf("%016x%016x", 0xab, 0xcd); got != want {
		t.Fatalf("TraceID.String() = %q, want %q", got, want)
	}
	if !(model.TraceID{}).IsZero() || id.IsZero() {
		t.Fatal("IsZero wrong")
	}
}
