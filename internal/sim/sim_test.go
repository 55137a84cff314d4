package sim

import (
	"testing"

	"sbqa/internal/stats"
)

// runAll steps e until its queue is empty and returns how many events ran.
func runAll(e *Engine) int {
	n := 0
	for e.Step() {
		n++
	}
	return n
}

func TestEventsFireInTimeOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(3, func() { order = append(order, 3) })
	e.Schedule(1, func() { order = append(order, 1) })
	e.Schedule(2, func() { order = append(order, 2) })
	if n := runAll(e); n != 3 {
		t.Fatalf("fired %d events, want 3", n)
	}
	for i, want := range []int{1, 2, 3} {
		if order[i] != want {
			t.Fatalf("order = %v", order)
		}
	}
	if e.Now() != 3 {
		t.Errorf("clock = %v, want 3", e.Now())
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5, func() { order = append(order, i) })
	}
	runAll(e)
	for i, v := range order {
		if v != i {
			t.Fatalf("simultaneous events not FIFO: %v", order)
		}
	}
}

func TestScheduleFromWithinEvent(t *testing.T) {
	e := NewEngine()
	var times []float64
	e.Schedule(1, func() {
		times = append(times, e.Now())
		e.Schedule(2, func() { times = append(times, e.Now()) })
	})
	runAll(e)
	if len(times) != 2 || times[0] != 1 || times[1] != 3 {
		t.Errorf("times = %v", times)
	}
}

func TestNegativeAndPastSchedules(t *testing.T) {
	e := NewEngine()
	fired := 0
	e.Schedule(-5, func() { fired++ })
	e.Schedule(1, func() {
		// Scheduling in the past clamps to now.
		e.ScheduleAt(0, func() {
			fired++
			if e.Now() != 1 {
				t.Errorf("past event ran at %v, want clock 1", e.Now())
			}
		})
	})
	runAll(e)
	if fired != 2 {
		t.Errorf("fired = %d, want 2", fired)
	}
}

func TestRunHorizon(t *testing.T) {
	e := NewEngine()
	fired := []float64{}
	for _, at := range []float64{1, 2, 3, 4, 5} {
		at := at
		e.Schedule(at, func() { fired = append(fired, at) })
	}
	e.Run(3)
	if len(fired) != 3 {
		t.Fatalf("Run(3) fired %v, want 3 events (events at exactly the horizon fire)", fired)
	}
	if e.Now() != 3 {
		t.Errorf("clock = %v, want 3", e.Now())
	}
	if len(e.queue) != 2 {
		t.Errorf("pending = %d, want 2", len(e.queue))
	}
	// Resume to the end.
	e.Run(100)
	if len(fired) != 5 || e.Now() != 100 {
		t.Errorf("resume fired %v, clock %v", fired, e.Now())
	}
}

func TestRunAdvancesClockToHorizon(t *testing.T) {
	e := NewEngine()
	e.Run(42)
	if e.Now() != 42 {
		t.Errorf("clock = %v, want 42 (idle run advances clock)", e.Now())
	}
}

func TestStepOnEmpty(t *testing.T) {
	e := NewEngine()
	if e.Step() {
		t.Error("Step on empty queue returned true")
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func(seed uint64) []float64 {
		e := NewEngine()
		rng := stats.NewRNG(seed)
		var log []float64
		var tick func()
		tick = func() {
			log = append(log, e.Now())
			if len(log) < 100 {
				e.Schedule(rng.ExpFloat64(), tick)
			}
		}
		e.Schedule(0, tick)
		runAll(e)
		return log
	}
	a, b := run(99), run(99)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestNetworkZeroValue(t *testing.T) {
	var n *Network
	if n.Delay() != 0 {
		t.Error("nil network should have zero delay")
	}
	n2 := NewNetwork(nil, nil)
	if n2.Delay() != 0 {
		t.Error("nil latency should have zero delay")
	}
}

func TestNetworkDelaysMessages(t *testing.T) {
	e := NewEngine()
	n := NewNetwork(stats.Uniform{Lo: 0.25, Hi: 0.25}, stats.NewRNG(1))
	var arrived float64
	n.Send(e, func() { arrived = e.Now() })
	runAll(e)
	if arrived != 0.25 {
		t.Errorf("message arrived at %v, want 0.25", arrived)
	}
	if rt := n.RoundTrip(); rt != 0.5 {
		t.Errorf("RoundTrip = %v, want 0.5", rt)
	}
}

func TestNetworkNegativeSamplesClamped(t *testing.T) {
	n := NewNetwork(stats.Uniform{Lo: -3, Hi: -3}, stats.NewRNG(1))
	if d := n.Delay(); d != 0 {
		t.Errorf("negative latency sample not clamped: %v", d)
	}
}

func BenchmarkScheduleAndFire(b *testing.B) {
	e := NewEngine()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Schedule(float64(i%10), func() {})
		if i%1024 == 1023 {
			runAll(e)
		}
	}
	runAll(e)
}
