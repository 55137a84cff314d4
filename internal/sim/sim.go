// Package sim is a deterministic discrete-event simulation kernel — the
// reproduction's stand-in for the SimJava engine the SbQA demo uses. It
// provides a virtual clock, an event heap with stable FIFO ordering among
// simultaneous events, and a small network-latency model for mediator ↔
// participant message delays.
//
// The kernel is single-threaded by design: experiments need bit-for-bit
// reproducibility under a seed, which free-running goroutines cannot give.
// The goroutine-based embedding lives in internal/live.
//
// # Determinism contract
//
// Events are totally ordered by (time, schedule sequence): among events
// booked for the same simulated instant, the one scheduled first fires
// first (stable FIFO), regardless of heap re-balancing. The sequence number
// is assigned when Schedule/ScheduleAt is called and never reused, so an
// event booked from inside another fires after every same-time event that
// was already booked. This contract is what lets the workload lab promise
// byte-identical reports for one seed; order_test.go pins it and
// FuzzEventOrder hunts for programs that break it.
package sim

import (
	"container/heap"
	"math"

	"sbqa/internal/stats"
)

// event is a scheduled callback. The callback runs with the engine clock set
// to the event's time.
type event struct {
	at  float64
	seq uint64 // tie-break: schedule order
	fn  func()
}

// eventHeap orders events by (time, seq).
type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// Engine is the simulation executive. The zero value is not usable; call
// NewEngine.
type Engine struct {
	now   float64
	seq   uint64
	queue eventHeap
}

// NewEngine returns an engine with the clock at 0.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current simulation time.
func (e *Engine) Now() float64 { return e.now }

// Schedule runs fn after delay simulated seconds. Negative delays are
// treated as zero (fire "now", after already-queued events at the current
// time).
func (e *Engine) Schedule(delay float64, fn func()) {
	if delay < 0 || math.IsNaN(delay) {
		delay = 0
	}
	e.ScheduleAt(e.now+delay, fn)
}

// ScheduleAt runs fn at absolute time t; times before the current clock are
// clamped to it.
func (e *Engine) ScheduleAt(t float64, fn func()) {
	if t < e.now || math.IsNaN(t) {
		t = e.now
	}
	heap.Push(&e.queue, &event{at: t, seq: e.seq, fn: fn})
	e.seq++
}

// Step executes the next event, if any, and reports whether one ran.
func (e *Engine) Step() bool {
	if len(e.queue) == 0 {
		return false
	}
	ev := heap.Pop(&e.queue).(*event)
	e.now = ev.at
	ev.fn()
	return true
}

// Run executes events in time order until the queue is empty or the clock
// would pass until (events at exactly until still fire). The clock is then
// advanced to until so that measurements read a consistent end time.
func (e *Engine) Run(until float64) {
	for len(e.queue) > 0 && e.queue[0].at <= until {
		e.Step()
	}
	if e.now < until {
		e.now = until
	}
}

// Network models mediator ↔ participant message latencies. A zero-valued
// Network delivers instantly.
type Network struct {
	// Latency samples one-way message delay in simulated seconds.
	Latency stats.Dist
	rng     *stats.RNG
}

// NewNetwork returns a network with the given latency distribution; nil
// means zero latency.
func NewNetwork(latency stats.Dist, rng *stats.RNG) *Network {
	if rng == nil {
		rng = stats.NewRNG(1)
	}
	return &Network{Latency: latency, rng: rng}
}

// Delay samples one message delay.
func (n *Network) Delay() float64 {
	if n == nil || n.Latency == nil {
		return 0
	}
	d := n.Latency.Sample(n.rng)
	if d < 0 {
		return 0
	}
	return d
}

// Send schedules fn after one sampled network delay.
func (n *Network) Send(e *Engine, fn func()) {
	e.Schedule(n.Delay(), fn)
}

// RoundTrip returns one sampled round-trip delay (two one-way samples).
func (n *Network) RoundTrip() float64 { return n.Delay() + n.Delay() }
