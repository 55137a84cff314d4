package satisfaction

import (
	"encoding/binary"
	"math"
	"testing"

	"sbqa/internal/model"
)

// naiveConsumerMean is Definition 1 summed straight over the exported ring
// in slot order, the way the tracker summed it before head and tail.
func naiveConsumerMean(st ConsumerState) float64 {
	if len(st.Records) == 0 {
		return Neutral
	}
	var sum float64
	for _, r := range st.Records {
		sum += r.Obtained
	}
	return sum / float64(len(st.Records))
}

// naiveProviderMean is Definition 2 summed straight over the exported ring.
func naiveProviderMean(st ProviderState) float64 {
	if len(st.Records) == 0 {
		return Neutral
	}
	var sum float64
	count := 0
	for _, r := range st.Records {
		if r.Performed {
			sum += r.Intention
			count++
		}
	}
	if count == 0 {
		return 0
	}
	return sum / float64(count)
}

// windowPair is one live tracker of each kind and a copy fed the same
// records that is rebuilt from its own export whenever restore is called.
type windowPair struct {
	c, cr *ConsumerTracker
	p, pr *ProviderTracker
}

func newWindowPair(k int) *windowPair {
	return &windowPair{c: NewConsumer(k), cr: NewConsumer(k), p: NewProvider(k), pr: NewProvider(k)}
}

func (w *windowPair) record(v float64, performed bool) {
	w.c.Record(v, v, v)
	w.cr.Record(v, v, v)
	w.p.Record(model.Intention(v), performed)
	w.pr.Record(model.Intention(v), performed)
}

func (w *windowPair) restore(t testing.TB) {
	var err error
	if w.cr, err = NewConsumerFromState(w.cr.ExportState()); err != nil {
		t.Fatal(err)
	}
	if w.pr, err = NewProviderFromState(w.pr.ExportState()); err != nil {
		t.Fatal(err)
	}
}

// check holds the invariants the O(1) read rests on: live and restored
// copies read the same bits, the read stays within 1e-14 of the slot-order
// mean, and δs stays in [0, 1]. Both provider trackers' published δs — what
// Registry.ProviderSatisfaction reads without a lock — equals Satisfaction()
// bit for bit after every record, lap freeze and restore.
func (w *windowPair) check(t testing.TB, step int) {
	t.Helper()
	cs, ps := w.c.Satisfaction(), w.p.Satisfaction()
	for _, tr := range []*ProviderTracker{w.p, w.pr} {
		if got, want := tr.published(), tr.Satisfaction(); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("step %d: provider published δs %v, Satisfaction() %v", step, got, want)
		}
	}
	if crs := w.cr.Satisfaction(); math.Float64bits(cs) != math.Float64bits(crs) {
		t.Fatalf("step %d: consumer δs live %v restored %v", step, cs, crs)
	}
	if prs := w.pr.Satisfaction(); math.Float64bits(ps) != math.Float64bits(prs) {
		t.Fatalf("step %d: provider δs live %v restored %v", step, ps, prs)
	}
	if naive := naiveConsumerMean(w.c.ExportState()); !(math.Abs(cs-naive) <= 1e-14) {
		t.Fatalf("step %d: consumer δs %v, slot-order mean %v", step, cs, naive)
	}
	if naive := naiveProviderMean(w.p.ExportState()); !(math.Abs(ps-naive) <= 1e-14) {
		t.Fatalf("step %d: provider δs %v, slot-order mean %v", step, ps, naive)
	}
	if !(cs >= 0 && cs <= 1 && ps >= 0 && ps <= 1) {
		t.Fatalf("step %d: δs(c) %v, δs(p) %v outside [0, 1]", step, cs, ps)
	}
}

// FuzzTrackerWindow drives both tracker kinds with arbitrary intentions
// (out-of-range values, ±0, ±Inf and NaN included) and restores the copy
// from its export at arbitrary points. Each op in data is a control byte —
// bit 0 restores instead of recording, bit 1 is the performed flag, bit 2
// takes the next eight bytes as raw float64 bits rather than a value in
// [-1, 1] — followed by eight bytes of value.
func FuzzTrackerWindow(f *testing.F) {
	op := func(ctl byte, v float64) []byte {
		b := []byte{ctl | 4, 0, 0, 0, 0, 0, 0, 0, 0}
		binary.LittleEndian.PutUint64(b[1:], math.Float64bits(v))
		return b
	}
	var seed []byte
	for _, v := range []float64{1, -1, 0, math.Copysign(0, -1), 0.3, 2, -3, math.NaN(), math.Inf(1), 0.7} {
		seed = append(seed, op(2, v)...)
		seed = append(seed, op(0, v)...)
	}
	seed = append(seed, 1)
	f.Add(uint16(1), seed)
	f.Add(uint16(3), seed)
	f.Add(uint16(7), append(seed, seed...))
	f.Add(uint16(100), seed)
	f.Fuzz(func(t *testing.T, k uint16, data []byte) {
		w := newWindowPair(int(k)%300 + 1)
		for step := 0; len(data) > 0; step++ {
			ctl := data[0]
			data = data[1:]
			if ctl&1 == 1 {
				w.restore(t)
				w.check(t, step)
				continue
			}
			var raw [8]byte
			data = data[copy(raw[:], data):]
			bits := binary.LittleEndian.Uint64(raw[:])
			v := float64(bits>>11)/(1<<52) - 1
			if ctl&4 != 0 {
				v = math.Float64frombits(bits)
			}
			w.record(v, ctl&2 != 0)
			w.check(t, step)
		}
	})
}

// TestTrackerWindowOfOne: with k = 1 every record wraps the ring, so the
// whole window lives in the frozen tail and head is always empty.
func TestTrackerWindowOfOne(t *testing.T) {
	w := newWindowPair(1)
	for i, v := range []float64{0.25, -1, 1, 0.5} {
		w.record(v, i%2 == 0)
		w.restore(t)
		w.check(t, i)
	}
	if got := w.c.Satisfaction(); got != 0.5 {
		t.Errorf("consumer δs = %v, want the last record 0.5", got)
	}
	if got := w.p.Satisfaction(); got != 0 {
		t.Errorf("provider δs = %v, want 0 (last proposal not performed)", got)
	}
}

// TestTrackerWindowAroundWrap checks the reads on the records just before
// and just after the cursor wraps, with a restore at each of those points.
func TestTrackerWindowAroundWrap(t *testing.T) {
	const k = 4
	vals := []float64{0.2, 0.6, -0.4, 1, 0.8, -1}
	// Provider unit intentions (v+1)/2 of the performed records so far,
	// oldest evicted once k have been written; performed = even index.
	wantP := []float64{0.6, 0.6, (0.6 + 0.3) / 2, (0.6 + 0.3) / 2, (0.3 + 0.9) / 2, (0.3 + 0.9) / 2}
	for i, v := range vals {
		w := newWindowPair(k)
		for j := 0; j <= i; j++ {
			w.record(vals[j], j%2 == 0)
		}
		w.restore(t)
		w.check(t, i)
		if got := w.p.Satisfaction(); math.Abs(got-wantP[i]) > 1e-15 {
			t.Errorf("after %d records: provider δs = %v, want %v", i+1, got, wantP[i])
		}
		w.record(v, true)
		w.check(t, i)
	}
}

// TestProviderTrackerNaNIntention: a NaN intention carries no preference, so
// it is recorded as indifferent (unit 0.5) rather than poisoning the window.
func TestProviderTrackerNaNIntention(t *testing.T) {
	tr := NewProvider(3)
	tr.Record(model.Intention(math.NaN()), true)
	if got := tr.Satisfaction(); got != 0.5 {
		t.Errorf("δs(p) after a NaN intention = %v, want 0.5", got)
	}
	if got := tr.Adequation(); got != 0.5 {
		t.Errorf("δa(p) after a NaN intention = %v, want 0.5", got)
	}
}
