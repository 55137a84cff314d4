package sim

import (
	"reflect"
	"testing"
)

// These tests pin the determinism contract documented in the package
// comment: (time, schedule-sequence) total order and stable FIFO among
// simultaneous events.

// TestSimultaneousFIFOSurvivesCancelInterleavings books many events at one
// instant with schedules at other instants interleaved between them, and
// checks the simultaneous ones fire in exact schedule order.
func TestSimultaneousFIFOSurvivesCancelInterleavings(t *testing.T) {
	e := NewEngine()
	const n = 64
	var fired []int
	for i := 0; i < n; i++ {
		i := i
		e.Schedule(5, func() { fired = append(fired, i) })
		e.Schedule(float64(i%3)*5, func() {}) // at 0, 5 or 10
	}
	runAll(e)
	var want []int
	for i := 0; i < n; i++ {
		want = append(want, i)
	}
	if !reflect.DeepEqual(fired, want) {
		t.Fatalf("fired order %v, want %v", fired, want)
	}
}

// TestRescheduleGetsFreshSequence verifies that an event re-booked for its
// own instant, from inside itself, goes to the back of that instant's FIFO.
func TestRescheduleGetsFreshSequence(t *testing.T) {
	e := NewEngine()
	var fired []string
	e.Schedule(2, func() {
		fired = append(fired, "a")
		e.ScheduleAt(2, func() { fired = append(fired, "a-rebooked") })
	})
	e.Schedule(2, func() { fired = append(fired, "b") })
	runAll(e)
	if want := []string{"a", "b", "a-rebooked"}; !reflect.DeepEqual(fired, want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
}

// TestScheduleAtClampFIFO: past-time schedules clamp to "now" and must
// still fire after already-queued events at the current instant.
func TestScheduleAtClampFIFO(t *testing.T) {
	e := NewEngine()
	var fired []string
	e.Schedule(3, func() {
		fired = append(fired, "first")
		// Clamped to now (=3): fires after "second", which was booked for
		// t=3 earlier and therefore holds an older sequence.
		e.ScheduleAt(1, func() { fired = append(fired, "clamped") })
	})
	e.Schedule(3, func() { fired = append(fired, "second") })
	runAll(e)
	if want := []string{"first", "second", "clamped"}; !reflect.DeepEqual(fired, want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
}

// refEvent backs the brute-force reference model used by the fuzzer.
type refEvent struct {
	at    float64
	seq   int
	id    int
	fired bool
}

// refModel is an O(n²) but obviously-correct executive: fire the lowest
// (at, seq) live event, one at a time.
type refModel struct {
	now    float64
	seq    int
	events []*refEvent
}

func (m *refModel) schedule(delay float64, id int) {
	if delay < 0 {
		delay = 0
	}
	m.events = append(m.events, &refEvent{at: m.now + delay, seq: m.seq, id: id})
	m.seq++
}

func (m *refModel) step() (int, bool) {
	var best *refEvent
	for _, ev := range m.events {
		if ev.fired {
			continue
		}
		if best == nil || ev.at < best.at || (ev.at == best.at && ev.seq < best.seq) {
			best = ev
		}
	}
	if best == nil {
		return 0, false
	}
	best.fired = true
	m.now = best.at
	return best.id, true
}

// FuzzEventOrder drives the heap-backed engine and the reference model
// through the same randomized Schedule/Step interleaving (with
// coarsely quantized times to force heavy ties) and requires identical
// fire sequences — fuzzing the heap's (time, seq) invariant.
func FuzzEventOrder(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 250, 7})
	f.Add([]byte{10, 10, 10, 240, 0, 250, 250, 250})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 512 {
			t.Skip("bounded op budget")
		}
		eng := NewEngine()
		ref := &refModel{}
		var engFired, refFired []int
		nextID := 0
		for _, op := range ops {
			switch {
			case op < 240:
				// Schedule with one of 8 quantized delays — ties everywhere.
				delay := float64(op%8) * 0.5
				id := nextID
				nextID++
				eng.Schedule(delay, func() { engFired = append(engFired, id) })
				ref.schedule(delay, id)
			default:
				// Step both.
				engRan := eng.Step()
				refID, refRan := ref.step()
				if engRan != refRan {
					t.Fatalf("step divergence: engine ran=%v, reference ran=%v", engRan, refRan)
				}
				if refRan {
					refFired = append(refFired, refID)
				}
				if eng.Now() != ref.now {
					t.Fatalf("clock divergence: engine %v, reference %v", eng.Now(), ref.now)
				}
			}
		}
		// Drain both completely.
		for eng.Step() {
		}
		for {
			id, ok := ref.step()
			if !ok {
				break
			}
			refFired = append(refFired, id)
		}
		if !reflect.DeepEqual(engFired, refFired) {
			t.Fatalf("fire order diverged:\nengine:    %v\nreference: %v", engFired, refFired)
		}
	})
}
