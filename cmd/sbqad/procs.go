package main

import (
	"fmt"
	"log"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sync/atomic"
	"time"

	"sbqa"
)

// The daemon's P count (GOMAXPROCS) is a controlled quantity. A query
// readies several goroutines besides its own — net/http's background read,
// a worker's run goroutine, the ticket latch, a peer link's read-side
// hand-off — and with an idle P on another CPU each ready wakes that P's
// thread, which costs more CPU than the work it takes over. So the daemon
// starts at one P and adds Ps only when goroutines queue for one, as the
// runtime's own runnable-wait histogram shows. A raise is never undone:
// no measured load has yet raised the count, so a rule for giving Ps back
// would have no traffic to be checked against. GOMAXPROCS set in the
// environment pins the count.
//
// The controller owns no goroutine and no clock: gateway.submit ticks it
// with the admission timestamp it reads anyway, and an idle daemon, which
// does not need Ps, never steps.

const (
	procsWindow     = 250 * time.Millisecond // shortest window a step decides on
	procsMinSamples = 256                    // fewest runnable-wait samples a step decides on
	raiseWait       = 500e-6                 // s: a window whose wait p90 is above it is hot
	raiseAfter      = 2                      // consecutive hot windows double the count
)

// daemonProcs is the controller main starts; nil in every other process
// (serve, newGateway, tests), whose P count nothing here touches.
var daemonProcs *procsControl

// nextProcs is the rule: double n, up to max, once hot consecutive hot
// windows reach raiseAfter; else keep n.
func nextProcs(n, max, hot int) int {
	if hot >= raiseAfter {
		return min(2*n, max)
	}
	return n
}

// procsControl steps nextProcs over windows of the runtime's runnable-wait
// histogram.
type procsControl struct {
	max      int          // the runtime's default P count
	due      atomic.Int64 // trace time before which no step runs
	stepping atomic.Bool  // held by the one step running
	changes  atomic.Uint64

	// Owned by the step holding stepping.
	n      int
	sample [1]metrics.Sample
	waits  []uint64 // the wait histogram's counts when the open window began
	hot    int      // consecutive windows whose p90 was above raiseWait
}

// startProcs puts the P count under control at one P, or, when the
// operator set GOMAXPROCS in the environment, leaves it alone and returns
// nil. Like the runtime, it takes an empty GOMAXPROCS as unset.
func startProcs() *procsControl {
	if v := os.Getenv("GOMAXPROCS"); v != "" {
		fmt.Printf("sbqad: procs pinned at %d by GOMAXPROCS=%s\n", runtime.GOMAXPROCS(0), v)
		return nil
	}
	c := &procsControl{max: runtime.GOMAXPROCS(1), n: 1}
	fmt.Printf("sbqad: procs 1 of %d, raised when goroutines wait for a P\n", c.max)
	c.sample[0].Name = "/sched/latencies:seconds"
	metrics.Read(c.sample[:])
	c.waits = append(c.waits, c.sample[0].Value.Float64Histogram().Counts...)
	c.due.Store(sbqa.TraceNow() + int64(procsWindow))
	return c
}

// tick tries a step at trace time now once one is due, unless another
// step is running.
func (c *procsControl) tick(now int64) {
	if c == nil || now < c.due.Load() || !c.stepping.CompareAndSwap(false, true) {
		return
	}
	c.step(now)
	c.stepping.Store(false)
}

// step closes the open window at now once it holds procsMinSamples waits,
// and puts nextProcs into force; a window with fewer stays open. Either
// way the next step is due a window later.
func (c *procsControl) step(now int64) {
	if now < c.due.Load() { // another tick stepped since this one looked
		return
	}
	c.due.Store(now + int64(procsWindow))
	metrics.Read(c.sample[:])
	h := c.sample[0].Value.Float64Histogram()
	p90, count := waitP90(h, c.waits)
	if count < procsMinSamples {
		return
	}
	c.waits = append(c.waits[:0], h.Counts...)
	from := c.n
	if hot := c.decide(p90); c.n != from {
		log.Printf("sbqad: procs %d → %d: runnable wait p90 %.2f ms over %d windows", from, c.n, p90*1e3, hot)
		runtime.GOMAXPROCS(c.n)
		c.changes.Add(1)
	}
}

// decide counts a closed window whose runnable-wait p90 was p90 into the
// hot streak and moves n to what nextProcs gives; a change starts the
// streak over. It returns the streak the window made.
func (c *procsControl) decide(p90 float64) (hot int) {
	if p90 > raiseWait {
		c.hot++
	} else {
		c.hot = 0
	}
	hot = c.hot
	if next := nextProcs(c.n, c.max, c.hot); next != c.n {
		c.n, c.hot = next, 0
	}
	return hot
}

// changeCount is how many times the controller changed the P count.
func (c *procsControl) changeCount() uint64 {
	if c == nil {
		return 0
	}
	return c.changes.Load()
}

// waitP90 returns the 90th percentile of the waits h counts beyond base —
// the upper bound of the bucket it falls in — and how many waits that is.
func waitP90(h *metrics.Float64Histogram, base []uint64) (float64, uint64) {
	var count uint64
	for i, n := range h.Counts {
		count += n - base[i]
	}
	var seen uint64
	for i, n := range h.Counts {
		if seen += n - base[i]; seen*10 >= count*9 && count > 0 {
			if ub := h.Buckets[i+1]; !math.IsInf(ub, 1) {
				return ub, count
			}
			return h.Buckets[i], count
		}
	}
	return 0, count
}
