package qos

import (
	"context"
	"math"
	"testing"
	"time"
)

func fixedClock(t *float64) func() float64 { return func() float64 { return *t } }

func TestSpecValidateAndNormalize(t *testing.T) {
	s := DefaultSpec()
	if err := s.Validate(); err != nil {
		t.Fatalf("default spec invalid: %v", err)
	}
	bad := []Spec{
		{Classes: []ClassSpec{{Name: ""}}},
		{Classes: []ClassSpec{{Name: "a"}, {Name: "a"}}},
		{Classes: []ClassSpec{{Name: "a", Weight: -1}}},
		{Classes: []ClassSpec{{Name: "a", MaxQueueDepth: -1}}},
		{Classes: []ClassSpec{{Name: "a", Rate: -1}}},
		{Classes: []ClassSpec{{Name: "a"}}, DefaultClass: "b"},
		{ConsumerRate: -1},
	}
	for i, sp := range bad {
		if err := sp.Validate(); err == nil {
			t.Errorf("bad spec %d validated", i)
		}
	}
	n := (Spec{Classes: []ClassSpec{{Name: "x"}, {Name: "y", Rate: 5}}}).Normalized()
	if n.Classes[0].Weight != 1 || n.DefaultClass != "x" {
		t.Fatalf("normalize defaults: %+v", n)
	}
	if n.Classes[1].Burst != 5 {
		t.Fatalf("burst default = %v, want rate", n.Classes[1].Burst)
	}
}

func TestBucketAdmissionAndRetryAfter(t *testing.T) {
	now := 0.0
	l := NewLimiter(Spec{
		Classes:      []ClassSpec{{Name: Interactive, Rate: 2, Burst: 2}},
		ConsumerRate: 1, ConsumerBurst: 1,
	}, fixedClock(&now))

	if d := l.Allow(1, Interactive); !d.OK {
		t.Fatalf("first submission refused: %+v", d)
	}
	d := l.Allow(1, Interactive)
	if d.OK || d.Scope != "consumer" {
		t.Fatalf("second submission should hit the consumer bucket: %+v", d)
	}
	if d.RetryAfter <= 0 || d.RetryAfter > 1 {
		t.Fatalf("retry-after = %v, want (0, 1]", d.RetryAfter)
	}
	// A different consumer passes the consumer bucket but drains the class
	// bucket (one token left of burst 2).
	if d := l.Allow(2, Interactive); !d.OK {
		t.Fatalf("consumer 2 refused: %+v", d)
	}
	d = l.Allow(3, Interactive)
	if d.OK || d.Scope != "class" {
		t.Fatalf("class bucket should refuse: %+v", d)
	}
	// Refill: one second restores one consumer token.
	now = 1.0
	if d := l.Allow(1, Interactive); !d.OK {
		t.Fatalf("post-refill refused: %+v", d)
	}
}

func TestLimiterResolve(t *testing.T) {
	l := NewLimiter(DefaultSpec(), func() float64 { return 0 })
	if c, ok := l.Resolve(""); !ok || c != Interactive {
		t.Fatalf("empty class → %q, %v", c, ok)
	}
	if _, ok := l.Resolve("no-such-class"); ok {
		t.Fatal("unknown class resolved")
	}
	if c, ok := l.Resolve(Batch); !ok || c != Batch {
		t.Fatalf("batch → %q, %v", c, ok)
	}
}

func TestSchedulerFIFOWithinSingleClass(t *testing.T) {
	now := 0.0
	s := NewScheduler[int](Spec{}, 10, fixedClock(&now))
	ctx := context.Background()
	for i := 0; i < 5; i++ {
		if shed, err := s.Push(ctx, 0, 0, i); shed != nil || err != nil {
			t.Fatalf("push %d: shed=%v err=%v", i, shed, err)
		}
	}
	for i := 0; i < 5; i++ {
		v, res, ok := s.Pop()
		if !ok || res.Shed || v != i {
			t.Fatalf("pop %d → %d (shed=%v ok=%v)", i, v, res.Shed, ok)
		}
	}
}

func TestSchedulerEDFWithinClass(t *testing.T) {
	now := 0.0
	s := NewScheduler[string](Spec{}, 10, fixedClock(&now))
	ctx := context.Background()
	s.Push(ctx, 0, 9, "late")
	s.Push(ctx, 0, 3, "urgent")
	s.Push(ctx, 0, 0, "whenever") // no deadline sorts last
	s.Push(ctx, 0, 5, "middle")
	want := []string{"urgent", "middle", "late", "whenever"}
	for _, w := range want {
		v, res, ok := s.Pop()
		if !ok || res.Shed || v != w {
			t.Fatalf("pop → %q (want %q)", v, w)
		}
	}
}

func TestSchedulerWeightedFairShare(t *testing.T) {
	now := 0.0
	spec := Spec{Classes: []ClassSpec{
		{Name: "heavy", Weight: 3},
		{Name: "light", Weight: 1},
	}}
	s := NewScheduler[string](spec, 1000, fixedClock(&now))
	ctx := context.Background()
	for i := 0; i < 40; i++ {
		s.Push(ctx, 0, 0, "heavy")
		s.Push(ctx, 1, 0, "light")
	}
	counts := map[string]int{}
	for i := 0; i < 40; i++ {
		v, _, _ := s.Pop()
		counts[v]++
	}
	// Weight 3:1 over 40 pops while both queues stay backlogged → 30/10.
	if counts["heavy"] != 30 || counts["light"] != 10 {
		t.Fatalf("WFQ shares = %+v, want heavy:30 light:10", counts)
	}
}

func TestSchedulerStrictPriority(t *testing.T) {
	now := 0.0
	spec := Spec{Classes: []ClassSpec{
		{Name: "urgent", Weight: 1, Priority: true},
		{Name: "bulk", Weight: 100},
	}}
	s := NewScheduler[string](spec, 1000, fixedClock(&now))
	ctx := context.Background()
	for i := 0; i < 10; i++ {
		s.Push(ctx, 1, 0, "bulk")
		s.Push(ctx, 0, 0, "urgent")
	}
	// Every urgent item drains before any bulk one, whatever the weights.
	for i := 0; i < 10; i++ {
		if v, _, _ := s.Pop(); v != "urgent" {
			t.Fatalf("pop %d = %q, want urgent", i, v)
		}
	}
	if v, _, _ := s.Pop(); v != "bulk" {
		t.Fatalf("want bulk after urgents, got %q", v)
	}
}

func TestSchedulerDeadlineShedAtAdmission(t *testing.T) {
	now := 0.0
	s := NewScheduler[int](Spec{}, 100, fixedClock(&now))
	ctx := context.Background()
	// No EWMA yet → no basis to shed, even with a tight deadline.
	if shed, _ := s.Push(ctx, 0, 0.001, 1); shed != nil {
		t.Fatalf("shed with no service-time estimate: %+v", shed)
	}
	s.Pop()
	s.Done(1.0) // 1s per mediation
	// Queue two items; the third's deadline (0.5s away) cannot be met
	// behind ~3 × 1s of work.
	s.Push(ctx, 0, 0, 2)
	s.Push(ctx, 0, 0, 3)
	shed, err := s.Push(ctx, 0, now+0.5, 4)
	if err != nil || shed == nil {
		t.Fatalf("want deadline shed, got shed=%v err=%v", shed, err)
	}
	if shed.Reason != ReasonDeadline || shed.EstimatedWait < 1 {
		t.Fatalf("shed = %+v", shed)
	}
	// A feasible deadline still admits.
	if shed, _ := s.Push(ctx, 0, now+100, 5); shed != nil {
		t.Fatalf("feasible deadline shed: %+v", shed)
	}
}

func TestSchedulerExpiredDeadlineShedsAtDequeue(t *testing.T) {
	now := 0.0
	s := NewScheduler[int](Spec{}, 100, fixedClock(&now))
	ctx := context.Background()
	s.Push(ctx, 0, 1.0, 7)
	now = 2.0 // deadline passed while queued
	v, res, ok := s.Pop()
	if !ok || !res.Shed || v != 7 {
		t.Fatalf("pop = %d shed=%v ok=%v", v, res.Shed, ok)
	}
	if res.Info.Reason != ReasonDeadline {
		t.Fatalf("reason = %q", res.Info.Reason)
	}
}

func TestSchedulerQueueFullSheds(t *testing.T) {
	now := 0.0
	spec := Spec{Classes: []ClassSpec{{Name: "b", MaxQueueDepth: 2}}}
	s := NewScheduler[int](spec, 100, fixedClock(&now))
	ctx := context.Background()
	s.Push(ctx, 0, 0, 1)
	s.Push(ctx, 0, 0, 2)
	shed, err := s.Push(ctx, 0, 0, 3)
	if err != nil || shed == nil || shed.Reason != ReasonQueueFull {
		t.Fatalf("shed=%v err=%v", shed, err)
	}
}

func TestSchedulerBrownoutShedsLowClasses(t *testing.T) {
	now := 0.0
	s := NewScheduler[int](DefaultSpec(), 100, fixedClock(&now))
	ctx := context.Background()
	s.SetBrownout(1) // sheds background (weight 1)
	bg, _ := s.ClassIndex(Background)
	shed, _ := s.Push(ctx, bg, 0, 1)
	if shed == nil || shed.Reason != ReasonBrownout {
		t.Fatalf("background not shed: %+v", shed)
	}
	ia, _ := s.ClassIndex(Interactive)
	if shed, _ := s.Push(ctx, ia, 0, 2); shed != nil {
		t.Fatalf("interactive shed at level 1: %+v", shed)
	}
	s.SetBrownout(2) // + batch
	ba, _ := s.ClassIndex(Batch)
	if shed, _ := s.Push(ctx, ba, 0, 3); shed == nil {
		t.Fatal("batch not shed at level 2")
	}
	// The top class is never browned out, whatever the level.
	s.SetBrownout(99)
	if got := s.Brownout(); got != 2 {
		t.Fatalf("brownout clamp = %d, want 2", got)
	}
	if shed, _ := s.Push(ctx, ia, 0, 4); shed != nil {
		t.Fatalf("interactive shed at max level: %+v", shed)
	}
}

func TestSchedulerBackpressureBlocksAndCtxCancels(t *testing.T) {
	now := 0.0
	s := NewScheduler[int](Spec{}, 1, fixedClock(&now))
	ctx := context.Background()
	s.Push(ctx, 0, 0, 1) // fills the depth-1 queue
	cctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, err := s.Push(cctx, 0, 0, 2)
		errCh <- err
	}()
	select {
	case err := <-errCh:
		t.Fatalf("push did not block: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	cancel()
	if err := <-errCh; err != context.Canceled {
		t.Fatalf("blocked push err = %v", err)
	}
	// A drain unblocks the next waiter.
	go func() {
		_, err := s.Push(context.Background(), 0, 0, 3)
		errCh <- err
	}()
	time.Sleep(10 * time.Millisecond)
	if v, _, _ := s.Pop(); v != 1 {
		t.Fatalf("pop = %d", v)
	}
	if err := <-errCh; err != nil {
		t.Fatalf("unblocked push err = %v", err)
	}
}

func TestSchedulerCloseDrainsThenStops(t *testing.T) {
	now := 0.0
	s := NewScheduler[int](Spec{}, 10, fixedClock(&now))
	ctx := context.Background()
	s.Push(ctx, 0, 0, 1)
	s.Push(ctx, 0, 0, 2)
	s.Close()
	if _, err := s.Push(ctx, 0, 0, 3); err != ErrSchedulerClosed {
		t.Fatalf("push after close: %v", err)
	}
	for want := 1; want <= 2; want++ {
		v, _, ok := s.Pop()
		if !ok || v != want {
			t.Fatalf("drain pop = %d ok=%v", v, ok)
		}
	}
	if _, _, ok := s.Pop(); ok {
		t.Fatal("pop after drain should report closed")
	}
}

func TestSchedulerConfigureMigratesItemsAndCounters(t *testing.T) {
	now := 0.0
	s := NewScheduler[string](Spec{Classes: []ClassSpec{{Name: "a"}, {Name: "gone"}}}, 100, fixedClock(&now))
	ctx := context.Background()
	s.Push(ctx, 0, 0, "a1")
	s.Push(ctx, 1, 0, "g1")
	s.Configure(Spec{Classes: []ClassSpec{{Name: "a", Weight: 2}, {Name: "new"}}})
	st := s.Stats()
	if st.Depth != 2 {
		t.Fatalf("depth after reconfigure = %d", st.Depth)
	}
	// Class a kept its own count and took in the orphan's.
	if got := s.classes[0].enqueued; got != 2 {
		t.Fatalf("class a counters lost: enqueued %d, want 2", got)
	}
	// Both items (the orphan folded into the default class) still pop.
	seen := map[string]bool{}
	for i := 0; i < 2; i++ {
		v, _, ok := s.Pop()
		if !ok {
			t.Fatal("pop failed")
		}
		seen[v] = true
	}
	if !seen["a1"] || !seen["g1"] {
		t.Fatalf("items lost in migration: %v", seen)
	}
}

func TestSchedulerStatsAndPressure(t *testing.T) {
	now := 0.0
	spec := Spec{Classes: []ClassSpec{{Name: "x", MaxQueueDepth: 1}}}
	s := NewScheduler[int](spec, 100, fixedClock(&now))
	ctx := context.Background()
	s.Push(ctx, 0, 0, 1)
	s.Push(ctx, 0, 0, 2) // queue_full shed
	now = 0.5
	s.Pop()
	s.Done(0.25)
	st := s.Stats()
	if st.Enqueued != 1 || st.Dequeued != 1 || st.Shed != 1 || st.HighWater != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Classes[0].Shed[ReasonQueueFull] != 1 {
		t.Fatalf("class shed = %+v", st.Classes[0].Shed)
	}
	if s.ewma != 0.25 {
		t.Fatalf("ewma = %v", s.ewma)
	}
	p := s.Pressure()
	if p.Shed != 1 || p.Enqueued != 1 {
		t.Fatalf("pressure = %+v", p)
	}
	if math.Abs(p.WaitP99-0.5) > 1e-9 {
		t.Fatalf("wait p99 = %v, want 0.5", p.WaitP99)
	}
}

func TestSchedulerTryPopNeverBlocks(t *testing.T) {
	now := 0.0
	s := NewScheduler[int](Spec{}, 10, fixedClock(&now))
	if _, _, ok := s.TryPop(); ok {
		t.Fatal("TryPop on an empty scheduler reported an item")
	}
	ctx := context.Background()
	s.Push(ctx, 0, 0, 1)
	v, res, ok := s.TryPop()
	if !ok || res.Shed || v != 1 {
		t.Fatalf("TryPop → %d (shed=%v ok=%v), want 1", v, res.Shed, ok)
	}
	s.Push(ctx, 0, 2, 2) // deadline 2
	now = 5              // ... which is now expired
	v, res, ok = s.TryPop()
	if !ok || !res.Shed || v != 2 || res.Info.Reason != ReasonDeadline {
		t.Fatalf("TryPop → %d (shed=%v reason=%q), want expired item 2", v, res.Shed, res.Info.Reason)
	}
	if _, _, ok := s.TryPop(); ok {
		t.Fatal("TryPop on a drained scheduler reported an item")
	}
	if st := s.Stats(); st.Shed != 1 || st.Dequeued != 1 {
		t.Fatalf("stats after TryPops: shed=%d dequeued=%d, want 1/1", st.Shed, st.Dequeued)
	}
}

// TestSchedulerConfigureCountsMigratedItems: the class that takes in a
// dropped class's queued items counts them as enqueued, so it never
// dequeues more than it took in.
func TestSchedulerConfigureCountsMigratedItems(t *testing.T) {
	now := 0.0
	s := NewScheduler[int](Spec{Classes: []ClassSpec{{Name: "a"}, {Name: "b"}}}, 100, fixedClock(&now))
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		s.Push(ctx, 1, 0, i)
	}
	s.Configure(Spec{Classes: []ClassSpec{{Name: "a"}}})
	for i := 0; i < 3; i++ {
		if _, _, ok := s.Pop(); !ok {
			t.Fatal("pop failed")
		}
	}
	st := s.Stats()
	if a := s.classes[0]; a.enqueued != 3 || a.dequeued != 3 {
		t.Fatalf("class a: enqueued %d dequeued %d, want 3/3", a.enqueued, a.dequeued)
	}
	if st.Enqueued != 3 || st.Dequeued != 3 {
		t.Fatalf("totals: enqueued %d dequeued %d, want 3/3", st.Enqueued, st.Dequeued)
	}
}

// returnsWithin reports whether ch delivers within d.
func returnsWithin[V any](ch <-chan V, d time.Duration) (V, bool) {
	select {
	case v := <-ch:
		return v, true
	case <-time.After(d):
		var zero V
		return zero, false
	}
}

// popped is one pop's outcome, sent from the goroutine that waited for it.
type popped struct {
	v  int
	ok bool
}

// TestSchedulerAdmitRunNow: Admit with serve hands an idle scheduler's item
// to its caller — counted enqueued and dequeued with a zero wait, or shed
// when its deadline has already passed — and puts it in service. While an
// item is in service every admission queues, no pop hands out anything, and
// Close's drain waits for Done. Through run-now, queued, shed and popped
// items, every class's ledger conserves: each admission that returned no
// error is dequeued, queued or shed.
func TestSchedulerAdmitRunNow(t *testing.T) {
	now := 5.0
	s := NewScheduler[int](Spec{Classes: []ClassSpec{{Name: "a", Weight: 2}, {Name: "b", MaxQueueDepth: 1}}}, 100, fixedClock(&now))
	ctx := context.Background()
	offered := make([]uint64, 2)
	admit := func(class int, deadline float64, v int, serve bool) (PopResult, bool, *ShedInfo) {
		t.Helper()
		res, run, info, err := s.Admit(ctx, class, deadline, v, serve)
		if err != nil {
			t.Fatalf("admit %d: %v", v, err)
		}
		offered[class]++
		return res, run, info
	}
	popAsync := func(pop func() (int, PopResult, bool)) <-chan popped {
		ch := make(chan popped, 1)
		go func() {
			v, _, ok := pop()
			ch <- popped{v, ok}
		}()
		return ch
	}

	// No service time observed yet, so admission cannot foresee the lapsed
	// deadline: the run-now item is shed as a pop would shed it, and
	// nothing is in service.
	if res, run, info := admit(0, 4, 1, true); !run || info != nil || !res.Shed || res.Info.Reason != ReasonDeadline {
		t.Fatalf("expired run-now: run=%v info=%v res=%+v, want a deadline shed", run, info, res)
	}
	if res, run, info := admit(0, 0, 2, true); !run || info != nil || res.Shed || res.Class != "a" || res.Wait != 0 {
		t.Fatalf("idle run-now: run=%v info=%v res=%+v, want run in class a, zero wait", run, info, res)
	}
	// Item 2 is in service: admissions queue even when they ask to run.
	if _, run, info := admit(1, 0, 3, true); run || info != nil {
		t.Fatalf("admit while in service: run=%v info=%v, want queued", run, info)
	}
	if _, _, info := admit(1, 0, 4, false); info == nil || info.Reason != ReasonQueueFull {
		t.Fatalf("admit to a full class: %v, want a queue_full shed", info)
	}
	admit(0, 0, 5, false)
	if _, _, ok := s.TryPop(); ok {
		t.Fatal("TryPop handed out an item while another was in service")
	}
	next := popAsync(s.Next)
	if p, ok := returnsWithin(next, 20*time.Millisecond); ok {
		t.Fatalf("Next returned %+v while an item was in service", p)
	}
	now = 6
	s.Done(0.5)
	if p, ok := returnsWithin(next, 5*time.Second); !ok || !p.ok || p.v != 5 {
		t.Fatalf("Next after Done = %+v (returned %v), want item 5 (class a, weight 2)", p, ok)
	}
	// Next put item 5 in service: Pop waits for it too.
	pop := popAsync(s.Pop)
	if p, ok := returnsWithin(pop, 20*time.Millisecond); ok {
		t.Fatalf("Pop returned %+v while an item was in service", p)
	}
	s.Done(0.5)
	if p, ok := returnsWithin(pop, 5*time.Second); !ok || !p.ok || p.v != 3 {
		t.Fatalf("Pop after Done = %+v (returned %v), want item 3", p, ok)
	}

	// Pop puts nothing in service. An item still queued is not overtaken:
	// with one waiting, even an idle scheduler queues the next admission.
	admit(0, 0, 6, false)
	if _, run, _ := admit(0, 0, 7, true); run {
		t.Fatal("Admit ran an item ahead of a queued one")
	}
	for _, want := range []int{6, 7} {
		if v, _, ok := s.TryPop(); !ok || v != want {
			t.Fatalf("TryPop = %d (ok %v), want %d", v, ok, want)
		}
	}

	// A run-now item in service holds Close's drain until Done.
	if _, run, _ := admit(0, 0, 8, true); !run {
		t.Fatal("idle scheduler did not hand the item to its caller")
	}
	s.Close()
	drained := popAsync(s.Next)
	if p, ok := returnsWithin(drained, 20*time.Millisecond); ok {
		t.Fatalf("Next returned %+v after Close while an item was in service", p)
	}
	s.Done(0)
	if p, ok := returnsWithin(drained, 5*time.Second); !ok || p.ok {
		t.Fatalf("Next after Close and Done = %+v (returned %v), want closed", p, ok)
	}

	for i, c := range s.Stats().Classes {
		var shed uint64
		for _, n := range c.Shed {
			shed += n
		}
		cq := s.classes[i]
		if got := cq.dequeued + uint64(len(cq.items)) + shed; got != offered[i] {
			t.Errorf("class %s: dequeued %d + depth %d + shed %d = %d, want the %d admitted", c.Name, cq.dequeued, len(cq.items), shed, got, offered[i])
		}
	}
	if a, b := s.classes[0], s.classes[1]; a.enqueued != 6 || a.dequeued != 5 || b.enqueued != 1 || b.dequeued != 1 {
		t.Errorf("ledger a %d/%d, b %d/%d: want a 6 enqueued / 5 dequeued, b 1 / 1", a.enqueued, a.dequeued, b.enqueued, b.dequeued)
	}
	if s.ewma != 0.5 {
		t.Errorf("ewma = %v, want 0.5 (Done(0) observes nothing)", s.ewma)
	}
	if p := s.Pressure(); p.WaitP99 != 1 {
		t.Errorf("wait p99 = %v, want 1 (items 3 and 5 waited 1; the rest 0)", p.WaitP99)
	}
}
