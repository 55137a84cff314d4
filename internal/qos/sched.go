package qos

import (
	"context"
	"errors"
	"math"
	"sort"
	"sync"
)

// ErrSchedulerClosed is returned by Push after Close.
var ErrSchedulerClosed = errors.New("qos: scheduler closed")

// ShedInfo reports one refused admission: the caller owns turning it into
// a typed error and an event — the scheduler only decides and counts.
type ShedInfo struct {
	Class         string  // resolved class name
	Reason        string  // ReasonDeadline | ReasonQueueFull | ReasonBrownout
	QueueDepth    int     // total scheduler depth at decision time
	EstimatedWait float64 // EWMA × depth estimate, seconds (deadline sheds)
}

// PopResult describes one dequeue.
type PopResult struct {
	// Shed is true when the item's deadline expired while queued: the
	// payload must be failed by the caller, not processed.
	Shed bool
	// Info is populated when Shed is true.
	Info ShedInfo
	// Class is the item's class name.
	Class string
	// Wait is the item's queue wait in seconds (non-shed pops).
	Wait float64
}

// schedItem is one queued entry. key is the EDF ordering key: the item's
// deadline, or +Inf for deadline-less items, tie-broken by seq (FIFO).
type schedItem[T any] struct {
	payload  T
	key      float64
	deadline float64
	at       float64 // enqueue time
	seq      uint64
}

// classQueue is one class's EDF heap plus its counters.
type classQueue[T any] struct {
	spec  ClassSpec
	items []schedItem[T]
	wfq   int // smooth-WRR current credit

	highWater int
	enqueued  uint64
	dequeued  uint64
	shed      [numReasons]uint64
}

func (c *classQueue[T]) less(i, j int) bool {
	if c.items[i].key != c.items[j].key {
		return c.items[i].key < c.items[j].key
	}
	return c.items[i].seq < c.items[j].seq
}

func (c *classQueue[T]) push(it schedItem[T]) {
	c.items = append(c.items, it)
	i := len(c.items) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !c.less(i, parent) {
			break
		}
		c.items[i], c.items[parent] = c.items[parent], c.items[i]
		i = parent
	}
	if len(c.items) > c.highWater {
		c.highWater = len(c.items)
	}
}

func (c *classQueue[T]) pop() schedItem[T] {
	top := c.items[0]
	n := len(c.items) - 1
	c.items[0] = c.items[n]
	var zero schedItem[T]
	c.items[n] = zero // release payload references
	c.items = c.items[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && c.less(l, smallest) {
			smallest = l
		}
		if r < n && c.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			break
		}
		c.items[i], c.items[smallest] = c.items[smallest], c.items[i]
		i = smallest
	}
	return top
}

// waitRingSize is the recent-queue-wait sample window behind the p99
// pressure signal.
const waitRingSize = 256

// defaultEWMAAlpha is the service-time EWMA step per observed mediation.
const defaultEWMAAlpha = 0.2

// Scheduler is one shard's class-aware submission queue, replacing the
// FIFO channel: weighted fair pick across class queues (strict-priority
// classes first), earliest-deadline-first within a class, deadline-based
// shedding at admission and at dequeue, and counters for everything.
//
// Push blocks only for classes without an explicit depth bound (the
// historical backpressure contract); every other refusal returns a typed
// ShedInfo immediately. Safe for concurrent use; Pop and Next are designed
// for one dedicated consumer goroutine (the shard loop uses Next).
//
// At most one item is in service at a time: the one Next handed out, or the
// one Admit let its submitter run, until Done. No pop hands out another
// before then.
type Scheduler[T any] struct {
	mu       sync.Mutex
	notEmpty *sync.Cond

	spec         Spec
	classes      []*classQueue[T]
	byName       map[string]int
	defaultIdx   int
	shedFrom     []int // shedOrder of spec.Classes
	brownout     int
	defaultDepth int // blocking bound for classes without MaxQueueDepth

	now    func() float64
	seq    uint64
	depth  int
	busy   bool // an item is in service (Next or Admit handed it out; Done clears)
	closed bool

	ewma float64 // observed mediation service seconds

	waits   [waitRingSize]float64
	waitIdx int
	waitN   int

	// space is closed and replaced on each dequeue while blocked pushers
	// wait; closedCh is closed by Close.
	space    chan struct{}
	waiters  int
	closedCh chan struct{}
}

// NewScheduler builds a shard scheduler: spec declares the class table
// (empty means one default class — the pre-QoS FIFO), defaultDepth is the
// blocking bound for classes without explicit MaxQueueDepth, now the
// engine clock.
func NewScheduler[T any](spec Spec, defaultDepth int, now func() float64) *Scheduler[T] {
	if defaultDepth < 1 {
		defaultDepth = 1024
	}
	s := &Scheduler[T]{
		defaultDepth: defaultDepth,
		now:          now,
		space:        make(chan struct{}),
		closedCh:     make(chan struct{}),
	}
	s.notEmpty = sync.NewCond(&s.mu)
	s.installLocked(spec.Normalized())
	return s
}

// installLocked (re)builds the class table, migrating queued items to the
// new table by class name (unmatched classes fold into the default).
func (s *Scheduler[T]) installLocked(spec Spec) {
	if len(spec.Classes) == 0 {
		spec.Classes = []ClassSpec{{Name: "", Weight: 1}}
		spec.DefaultClass = ""
	}
	old := s.classes
	s.spec = spec
	s.classes = make([]*classQueue[T], len(spec.Classes))
	s.byName = make(map[string]int, len(spec.Classes))
	for i, c := range spec.Classes {
		s.classes[i] = &classQueue[T]{spec: c}
		s.byName[c.Name] = i
	}
	s.defaultIdx = 0
	if i, ok := s.byName[spec.DefaultClass]; ok {
		s.defaultIdx = i
	}
	s.shedFrom = shedOrder(spec.Classes)
	if s.brownout > len(spec.Classes)-1 {
		s.brownout = len(spec.Classes) - 1
	}
	// Migrate queued items, preserving (key, seq) order per class; carry
	// the old counters over by name so reconfiguration never zeroes the
	// ledger of a surviving class. The class that takes in a dropped class's
	// items counts them as enqueued, so that per class enqueued = dequeued +
	// depth + shed at dequeue still holds after they pop.
	for _, oc := range old {
		ni, ok := s.byName[oc.spec.Name]
		if !ok {
			ni = s.defaultIdx
		}
		nc := s.classes[ni]
		if ok {
			nc.highWater = max(nc.highWater, oc.highWater)
			nc.enqueued += oc.enqueued
			nc.dequeued = oc.dequeued
			nc.shed = oc.shed
		} else {
			nc.enqueued += uint64(len(oc.items))
		}
		for _, it := range oc.items {
			nc.push(it)
		}
	}
}

// Configure hot-swaps the class table; queued items migrate by class name.
func (s *Scheduler[T]) Configure(spec Spec) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.installLocked(spec.Normalized())
	s.notEmpty.Broadcast()
	s.signalSpaceLocked()
}

// Spec returns the scheduler's current normalized spec.
func (s *Scheduler[T]) Spec() Spec {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.spec
}

// ClassIndex resolves a class name to its table index; empty names resolve
// to the default class, unknown names to (default, false).
func (s *Scheduler[T]) ClassIndex(name string) (int, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if name == "" {
		return s.defaultIdx, true
	}
	if i, ok := s.byName[name]; ok {
		return i, true
	}
	return s.defaultIdx, false
}

// SetBrownout sets the shed-widening level: level L immediately sheds
// admissions to the L most-sheddable classes (ascending weight,
// non-priority first). Clamped to [0, classes-1] so the top class always
// admits.
func (s *Scheduler[T]) SetBrownout(level int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if level < 0 {
		level = 0
	}
	if max := len(s.classes) - 1; level > max {
		level = max
	}
	s.brownout = level
}

// Brownout returns the current shed-widening level.
func (s *Scheduler[T]) Brownout() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.brownout
}

// browned reports whether the class index is currently shed by brownout.
func (s *Scheduler[T]) brownedLocked(class int) bool {
	for i := 0; i < s.brownout && i < len(s.shedFrom); i++ {
		if s.shedFrom[i] == class {
			return true
		}
	}
	return false
}

// Push admits one item to the class queue. A non-nil ShedInfo means the
// item was refused (deadline infeasible, class queue full, or brownout) —
// the caller owns failing it. The error is non-nil only for a done ctx
// while blocked on backpressure, or a closed scheduler.
func (s *Scheduler[T]) Push(ctx context.Context, class int, deadline float64, payload T) (*ShedInfo, error) {
	_, _, info, err := s.Admit(ctx, class, deadline, payload, false)
	return info, err
}

// Admit is Push for a caller that can serve the item on its own goroutine.
// With serve set, an item that passes every admission check while nothing
// is queued and nothing is in service is not queued: it is counted enqueued
// and dequeued with a zero wait, and run reports that the caller holds it.
// res is then what Next would have returned for it: Shed when its deadline
// has already passed (nothing is in service), else the item is in service
// and the caller serves it and reports Done. Such an item overtakes nothing,
// so class and deadline order hold. Every other outcome is Push's.
func (s *Scheduler[T]) Admit(ctx context.Context, class int, deadline float64, payload T, serve bool) (res PopResult, run bool, info *ShedInfo, err error) {
	s.mu.Lock()
	for {
		if s.closed {
			s.mu.Unlock()
			return res, false, nil, ErrSchedulerClosed
		}
		if class < 0 || class >= len(s.classes) {
			class = s.defaultIdx
		}
		cq := s.classes[class]
		if s.brownedLocked(class) {
			cq.shed[reasonBrownoutIdx]++
			info := &ShedInfo{Class: cq.spec.Name, Reason: ReasonBrownout, QueueDepth: s.depth}
			s.mu.Unlock()
			return res, false, info, nil
		}
		if deadline > 0 && s.ewma > 0 {
			est := s.ewma * float64(s.depth+1)
			if s.now()+est > deadline {
				cq.shed[reasonDeadlineIdx]++
				info := &ShedInfo{Class: cq.spec.Name, Reason: ReasonDeadline, QueueDepth: s.depth, EstimatedWait: est}
				s.mu.Unlock()
				return res, false, info, nil
			}
		}
		if cq.spec.MaxQueueDepth > 0 {
			if len(cq.items) >= cq.spec.MaxQueueDepth {
				cq.shed[reasonQueueFullIdx]++
				info := &ShedInfo{Class: cq.spec.Name, Reason: ReasonQueueFull, QueueDepth: s.depth}
				s.mu.Unlock()
				return res, false, info, nil
			}
		} else if len(cq.items) >= s.defaultDepth {
			// Historical backpressure: block until the shard drains, the
			// ctx is done, or the scheduler closes.
			ch := s.space
			s.waiters++
			s.mu.Unlock()
			select {
			case <-ch:
			case <-ctx.Done():
				s.mu.Lock()
				s.waiters--
				s.mu.Unlock()
				return res, false, nil, ctx.Err()
			case <-s.closedCh:
				s.mu.Lock()
				s.waiters--
				s.mu.Unlock()
				return res, false, nil, ErrSchedulerClosed
			}
			s.mu.Lock()
			s.waiters--
			continue
		}
		now := s.now()
		cq.enqueued++
		if serve && s.depth == 0 && !s.busy {
			res = s.dequeueLocked(cq, deadline, now, now)
			s.busy = !res.Shed
			s.mu.Unlock()
			return res, true, nil, nil
		}
		key := deadline
		if key <= 0 {
			key = math.Inf(1)
		}
		cq.push(schedItem[T]{payload: payload, key: key, deadline: deadline, at: now, seq: s.seq})
		s.seq++
		s.depth++
		if !s.busy { // else Done wakes the consumer
			s.notEmpty.Signal()
		}
		s.mu.Unlock()
		return res, false, nil, nil
	}
}

// pickLocked chooses the next class to serve: weighted fair (smooth WRR)
// over non-empty priority classes when any exist, else over the rest.
// Deterministic: iteration in table order, ties to the lower index.
func (s *Scheduler[T]) pickLocked() int {
	best, total := -1, 0
	for pass := 0; pass < 2 && best == -1; pass++ {
		wantPriority := pass == 0
		for i, cq := range s.classes {
			if len(cq.items) == 0 || cq.spec.Priority != wantPriority {
				continue
			}
			cq.wfq += cq.spec.Weight
			total += cq.spec.Weight
			if best == -1 || cq.wfq > s.classes[best].wfq {
				best = i
			}
		}
	}
	s.classes[best].wfq -= total
	return best
}

// Pop dequeues the next item per the scheduling discipline. ok=false means
// the scheduler is closed AND drained, with nothing in service. A result
// with Shed=true delivers a payload whose deadline expired while queued: the
// caller must fail it (typed error + event), never process it.
func (s *Scheduler[T]) Pop() (payload T, res PopResult, ok bool) { return s.pop(false) }

// Next is Pop for the consumer that serves what it pops: a non-shed item is
// in service until Done, and neither Pop nor Next hands out another before
// then. The shard loop drains with it, so Close waits for every mediation,
// the ones Admit let submitters run included.
func (s *Scheduler[T]) Next() (payload T, res PopResult, ok bool) { return s.pop(true) }

func (s *Scheduler[T]) pop(serve bool) (payload T, res PopResult, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.busy || s.depth == 0 {
		if s.closed && !s.busy && s.depth == 0 {
			return payload, res, false
		}
		s.notEmpty.Wait()
	}
	payload, res = s.popLocked()
	s.busy = serve && !res.Shed
	return payload, res, true
}

// TryPop is Pop's non-blocking form: ok=false means nothing can be handed
// out right now (empty, or an item in service) — it never parks.
// Single-threaded callers such as the lab's virtual-clock mediation station
// use it from an event loop that must not block.
func (s *Scheduler[T]) TryPop() (payload T, res PopResult, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.busy || s.depth == 0 {
		return payload, res, false
	}
	payload, res = s.popLocked()
	return payload, res, true
}

// popLocked dequeues one item (depth > 0 required): the shared body of Pop,
// Next and TryPop.
func (s *Scheduler[T]) popLocked() (T, PopResult) {
	cq := s.classes[s.pickLocked()]
	it := cq.pop()
	s.depth--
	s.signalSpaceLocked()
	return it.payload, s.dequeueLocked(cq, it.deadline, it.at, s.now())
}

// dequeueLocked accounts for one item of class cq, enqueued at at, leaving
// the scheduler at now: shed when its deadline has passed, else dequeued
// with its wait in the p99 ring.
func (s *Scheduler[T]) dequeueLocked(cq *classQueue[T], deadline, at, now float64) PopResult {
	if deadline > 0 && now > deadline {
		cq.shed[reasonDeadlineIdx]++
		return PopResult{
			Shed:  true,
			Class: cq.spec.Name,
			Info: ShedInfo{
				Class:         cq.spec.Name,
				Reason:        ReasonDeadline,
				QueueDepth:    s.depth,
				EstimatedWait: now - at,
			},
		}
	}
	cq.dequeued++
	wait := now - at
	s.waits[s.waitIdx] = wait
	s.waitIdx = (s.waitIdx + 1) % waitRingSize
	if s.waitN < waitRingSize {
		s.waitN++
	}
	return PopResult{Class: cq.spec.Name, Wait: wait}
}

// signalSpaceLocked releases blocked pushers after a dequeue (or close);
// the channel rotates only when someone is actually waiting, keeping the
// hot path allocation-free.
func (s *Scheduler[T]) signalSpaceLocked() {
	if s.waiters > 0 {
		close(s.space)
		s.space = make(chan struct{})
	}
}

// Done ends the service of an item after dt seconds of it: the item Next or
// Admit put in service, or one a single-threaded caller took with TryPop.
// The service-time EWMA takes dt when positive (a clock that did not move
// tells it nothing), and the consumer wakes if items arrived meanwhile or
// the scheduler closed.
func (s *Scheduler[T]) Done(dt float64) {
	s.mu.Lock()
	s.busy = false
	switch {
	case dt <= 0:
	case s.ewma == 0:
		s.ewma = dt
	default:
		s.ewma += defaultEWMAAlpha * (dt - s.ewma)
	}
	if s.depth > 0 || s.closed {
		s.notEmpty.Signal()
	}
	s.mu.Unlock()
}

// Close wakes the consumer and all blocked pushers. Pop drains what is
// queued and, once nothing is in service, reports ok=false; Push fails with
// ErrSchedulerClosed. Idempotent.
func (s *Scheduler[T]) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	close(s.closedCh)
	s.notEmpty.Broadcast()
	s.mu.Unlock()
}

// ClassStats is one class's shed ledger.
type ClassStats struct {
	Name string
	// Shed counts by reason ("deadline", "queue_full", "brownout").
	Shed map[string]uint64
}

// Stats is a scheduler snapshot.
type Stats struct {
	Classes   []ClassStats
	Depth     int
	HighWater int // sum of per-class high-water marks
	Enqueued  uint64
	Dequeued  uint64
	Shed      uint64
	Brownout  int
}

// Stats snapshots every counter.
func (s *Scheduler[T]) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{
		Classes:  make([]ClassStats, len(s.classes)),
		Depth:    s.depth,
		Brownout: s.brownout,
	}
	for i, cq := range s.classes {
		cs := ClassStats{Name: cq.spec.Name, Shed: make(map[string]uint64, numReasons)}
		var shed uint64
		for r := 0; r < numReasons; r++ {
			if cq.shed[r] > 0 {
				cs.Shed[Reasons[r]] = cq.shed[r]
			}
			shed += cq.shed[r]
		}
		st.Classes[i] = cs
		st.HighWater += cq.highWater
		st.Enqueued += cq.enqueued
		st.Dequeued += cq.dequeued
		st.Shed += shed
	}
	return st
}

// Pressure is the brownout controller's sensor reading.
type Pressure struct {
	// Enqueued and Shed are cumulative; the controller differences
	// successive readings for rates.
	Enqueued uint64
	Shed     uint64
	// WaitP99 is the p99 queue wait over the most recent dequeues
	// (waitRingSize samples), in seconds.
	WaitP99 float64
	// Depth is the instantaneous total queue depth.
	Depth int
}

// Pressure snapshots the overload signals.
func (s *Scheduler[T]) Pressure() Pressure {
	s.mu.Lock()
	defer s.mu.Unlock()
	p := Pressure{Depth: s.depth}
	for _, cq := range s.classes {
		p.Enqueued += cq.enqueued
		for r := 0; r < numReasons; r++ {
			p.Shed += cq.shed[r]
		}
	}
	if s.waitN > 0 {
		buf := make([]float64, s.waitN)
		copy(buf, s.waits[:s.waitN])
		sort.Float64s(buf)
		p.WaitP99 = buf[int(0.99*float64(len(buf)-1))]
	}
	return p
}
