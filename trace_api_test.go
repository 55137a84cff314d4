// Tests for the tracing facade: full-pipeline span capture at sample 1.0 on
// the ticket path, the explain record's completeness, the guarantee that a
// resolved ticket always finds its finished trace, and the zero-alloc
// guarantee when sampling is off (the allocgate's companion: the CI bench
// gate catches allocs/op drift, this test pins the cause to tracing
// specifically by diffing a traced-at-zero engine against an untraced one on
// the identical hot path).
package sbqa

import (
	"context"
	"errors"
	"testing"
	"time"

	"sbqa/internal/live"
	"sbqa/internal/trace"
)

// traceTestEngine builds a single-shard engine over constant providers with
// the given extra options (tracing, QoS, observers); it closes with the test.
func traceTestEngine(t testing.TB, opts ...EngineOption) *Engine {
	t.Helper()
	eng, err := NewEngine(append([]EngineOption{
		WithWindow(50),
		WithConcurrency(1),
		WithPolicy(PolicySpec{Kind: PolicySbQA, Seed: 1}),
	}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	for i := 0; i < 40; i++ {
		eng.RegisterProvider(providerStub{id: ProviderID(i), pi: Intention(float64(i%9)/9 - 0.3)})
	}
	eng.RegisterConsumer(LiveFuncConsumer{ID: 0, Fn: func(q Query, snap ProviderSnapshot) Intention {
		return Intention(float64(int(snap.ID)%7)/7 - 0.2)
	}})
	return eng
}

// spanIndex maps stage name → span views, asserting Start <= End on each.
func spanIndex(t *testing.T, v TraceView) map[string][]trace.SpanView {
	t.Helper()
	byName := make(map[string][]trace.SpanView)
	for _, s := range v.Spans {
		if s.StartNS > s.EndNS {
			t.Errorf("span %s: start %d after end %d", s.Name, s.StartNS, s.EndNS)
		}
		byName[s.Name] = append(byName[s.Name], s)
	}
	return byName
}

// TestTracingTicketTrace: at sample 1.0 every ticket leaves a finished trace
// — readable the moment Allocation returns, no polling — carrying exactly
// one span per pipeline stage in pipeline order (queue → fanout → impute →
// score → dispatch) and a complete explain record: one ranked entry per
// proposed provider with the score inputs.
func TestTracingTicketTrace(t *testing.T) {
	eng := traceTestEngine(t, WithTracing(1, 16))
	tr := eng.Tracer()
	if tr == nil {
		t.Fatal("traced engine has no recorder")
	}
	// Repeated so a completion path that releases the waiter before it
	// finishes the trace loses the race at least once.
	for n := 0; n < 200; n++ {
		a, err := eng.Submit(context.Background(), Query{Consumer: 0, N: 2, Work: 10}).Allocation()
		if err != nil {
			t.Fatal(err)
		}
		v, ok := tr.TraceByQuery(a.Query.ID)
		if !ok {
			t.Fatalf("no trace for query %d", a.Query.ID)
		}
		if v.Status != "allocated" {
			t.Fatalf("query %d: status %q once Allocation returned, want allocated", a.Query.ID, v.Status)
		}
		if v.TraceID == "" || len(v.TraceID) != 32 {
			t.Errorf("trace_id %q, want 32 hex digits", v.TraceID)
		}
		byName := spanIndex(t, v)
		order := []string{trace.StageQueue, trace.StageFanout, trace.StageImpute, trace.StageScore, trace.StageDispatch}
		for i, stage := range order {
			if len(byName[stage]) != 1 {
				t.Fatalf("stage %s: %d spans, want 1 (have %v)", stage, len(byName[stage]), stageNames(v))
			}
			// The pipeline is sequential: each stage starts no earlier than
			// the previous one.
			if i > 0 && byName[stage][0].StartNS < byName[order[i-1]][0].StartNS {
				t.Errorf("stage %s starts at %d before %s at %d", stage, byName[stage][0].StartNS, order[i-1], byName[order[i-1]][0].StartNS)
			}
		}
		if v.Explain == nil {
			t.Fatal("finished allocated trace has no explain record")
		}
		if len(v.Explain.Entries) != len(a.Proposed) {
			t.Fatalf("explain has %d entries for %d proposed providers", len(v.Explain.Entries), len(a.Proposed))
		}
		for i, e := range v.Explain.Entries {
			if e.Rank != i+1 {
				t.Errorf("entry %d: rank %d, want %d", i, e.Rank, i+1)
			}
			if e.Omega < 0 || e.Omega > 1 {
				t.Errorf("entry %d: omega %v outside [0,1]", i, e.Omega)
			}
		}
	}
}

// TestTraceFinishedBeforeTicketResolves: a ticket's waiter is released only
// after its trace is finished, on the failure paths too. The shed-at-dequeue
// path is the one where an observer callback sits inside the completion
// sequence, so a slow OnShed makes the ordering observable: the waiter must
// find the terminal status however long the observer takes.
func TestTraceFinishedBeforeTicketResolves(t *testing.T) {
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	eng := traceTestEngine(t, WithTracing(1, 16), WithObserver(ObserverFuncs{
		Shed: func(ShedEvent) { time.Sleep(20 * time.Millisecond) },
	}))
	// Consumer 9 parks the shard loop inside its mediation, holding the next
	// submission in the queue until its deadline has lapsed.
	eng.RegisterConsumer(LiveFuncConsumer{ID: 9, Fn: func(Query, ProviderSnapshot) Intention {
		select {
		case entered <- struct{}{}:
		default:
		}
		<-release
		return 0.5
	}})
	ctx := context.Background()
	inService := eng.Submit(ctx, Query{Consumer: 9, N: 1, Work: 1})
	<-entered
	doomed := eng.Submit(ctx, Query{Consumer: 0, N: 1, Work: 1}, WithDeadline(time.Microsecond))
	time.Sleep(2 * time.Millisecond) // let the deadline lapse while queued
	close(release)

	if _, err := doomed.Allocation(); !errors.Is(err, live.ErrShed) {
		t.Fatalf("expired-deadline error = %v, want ErrShed", err)
	}
	v, ok := eng.Tracer().TraceByQuery(doomed.Query().ID)
	if !ok || v.Status != "shed" {
		t.Fatalf("shed ticket resolved with trace ok=%v status=%q, want finished \"shed\"", ok, v.Status)
	}
	a, err := inService.Allocation()
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := eng.Tracer().TraceByQuery(a.Query.ID); !ok || v.Status != "allocated" || v.Explain == nil {
		t.Fatalf("allocated ticket resolved with trace ok=%v status=%q explain=%v", ok, v.Status, v.Explain)
	}

	// A rejected mediation (unregistered consumer) finishes "rejected".
	rejected := eng.Submit(ctx, Query{Consumer: 77, N: 1, Work: 1})
	if _, err := rejected.Allocation(); err == nil {
		t.Fatal("unregistered consumer accepted")
	}
	if v, ok := eng.Tracer().TraceByQuery(rejected.Query().ID); !ok || v.Status != "rejected" {
		t.Fatalf("rejected ticket resolved with trace ok=%v status=%q", ok, v.Status)
	}
}

func stageNames(v TraceView) []string {
	names := make([]string, len(v.Spans))
	for i, s := range v.Spans {
		names[i] = s.Name
	}
	return names
}

// TestTracingDisabledZeroAllocSubmit is the allocgate's root cause test: an
// engine built with tracing at sample 0 must allocate exactly as much per
// awaited ticket as an engine built with no tracer at all. CI enforces the
// absolute number through BenchmarkLiveEngineParallel; this pins any
// regression to the tracing branches specifically.
func TestTracingDisabledZeroAllocSubmit(t *testing.T) {
	measure := func(eng *Engine) float64 {
		q := Query{Consumer: 0, N: 2, Work: 10}
		ctx := context.Background()
		// Warm the per-shard pools (scratch buffers, flat scoring arrays)
		// before measuring, as the bench gate's 2000-iteration runs do.
		for i := 0; i < 100; i++ {
			if _, err := eng.Submit(ctx, q).Allocation(); err != nil {
				t.Fatal(err)
			}
		}
		return testing.AllocsPerRun(200, func() {
			if _, err := eng.Submit(ctx, q).Allocation(); err != nil {
				t.Fatal(err)
			}
		})
	}
	untraced := measure(traceTestEngine(t))
	tracedOff := measure(traceTestEngine(t, WithTracing(0, 16)))
	if tracedOff != untraced {
		t.Fatalf("sampling-off Submit allocates %.1f/op, untraced %.1f/op — tracing must add zero", tracedOff, untraced)
	}
}
