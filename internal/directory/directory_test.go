package directory

import (
	"math"
	"sync"
	"testing"

	"sbqa/internal/model"
)

// stub is a minimal provider; classes nil means universal, non-nil is
// reported through Capabilities.
type stub struct {
	id       model.ProviderID
	classes  []int // declared capabilities; nil = universal
	consumer model.ConsumerID
}

func (s *stub) ProviderID() model.ProviderID { return s.id }
func (s *stub) Snapshot(float64) model.ProviderSnapshot {
	return model.ProviderSnapshot{ID: s.id, Capacity: 1}
}
func (s *stub) Intention(model.Query) model.Intention { return 0 }
func (s *stub) Bid(model.Query) float64               { return 1 }
func (s *stub) Capabilities() []int                   { return s.classes }

type consumerStub struct{ id model.ConsumerID }

func (c consumerStub) ConsumerID() model.ConsumerID { return c.id }
func (c consumerStub) Intention(model.Query, model.ProviderSnapshot) model.Intention {
	return 0
}

func ids(ps []Provider) []model.ProviderID {
	out := make([]model.ProviderID, len(ps))
	for i, p := range ps {
		out[i] = p.ProviderID()
	}
	return out
}

func equalIDs(a, b []model.ProviderID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestCandidatesOrderedMerge(t *testing.T) {
	d := New()
	// Universal providers 5, 1; class-1 specialists 3, 7; class-2 specialist 2.
	d.RegisterProvider(&stub{id: 5})
	d.RegisterProvider(&stub{id: 1})
	d.RegisterProvider(&stub{id: 3, classes: []int{1}})
	d.RegisterProvider(&stub{id: 7, classes: []int{1}})
	d.RegisterProvider(&stub{id: 2, classes: []int{2}})

	got := ids(d.Candidates(model.Query{Class: 1}, nil))
	if want := []model.ProviderID{1, 3, 5, 7}; !equalIDs(got, want) {
		t.Errorf("class 1 candidates = %v, want %v", got, want)
	}
	got = ids(d.Candidates(model.Query{Class: 2}, nil))
	if want := []model.ProviderID{1, 2, 5}; !equalIDs(got, want) {
		t.Errorf("class 2 candidates = %v, want %v", got, want)
	}
	// A class with no specialists still reaches the universal providers.
	got = ids(d.Candidates(model.Query{Class: 9}, nil))
	if want := []model.ProviderID{1, 5}; !equalIDs(got, want) {
		t.Errorf("class 9 candidates = %v, want %v", got, want)
	}
}

func TestCandidatesOrderIndependentOfRegistration(t *testing.T) {
	build := func(order []model.ProviderID) *Directory {
		d := New()
		for _, id := range order {
			d.RegisterProvider(&stub{id: id})
		}
		return d
	}
	a := build([]model.ProviderID{4, 2, 9, 1, 7})
	b := build([]model.ProviderID{7, 1, 9, 2, 4})
	ga := ids(a.Candidates(model.Query{}, nil))
	gb := ids(b.Candidates(model.Query{}, nil))
	if !equalIDs(ga, gb) {
		t.Errorf("candidate order depends on registration order: %v vs %v", ga, gb)
	}
	for i := 1; i < len(ga); i++ {
		if ga[i-1] >= ga[i] {
			t.Fatalf("candidates not in ascending ID order: %v", ga)
		}
	}
}

func TestReplaceReindexes(t *testing.T) {
	d := New()
	d.RegisterProvider(&stub{id: 1, classes: []int{1}})
	// Re-register the same ID as a class-2 specialist.
	d.RegisterProvider(&stub{id: 1, classes: []int{2}})
	if got := d.Candidates(model.Query{Class: 1}, nil); len(got) != 0 {
		t.Errorf("stale class-1 index entry survived replacement: %v", ids(got))
	}
	if got := d.Candidates(model.Query{Class: 2}, nil); len(got) != 1 {
		t.Errorf("replacement not indexed under class 2: %v", ids(got))
	}
	// And replacement with a universal provider.
	d.RegisterProvider(&stub{id: 1})
	if got := d.Candidates(model.Query{Class: 7}, nil); len(got) != 1 {
		t.Errorf("universal replacement missing: %v", ids(got))
	}
}

func TestUnregisterProvider(t *testing.T) {
	d := New()
	d.RegisterProvider(&stub{id: 1})
	d.RegisterProvider(&stub{id: 2, classes: []int{3}})
	d.UnregisterProvider(1)
	d.UnregisterProvider(2)
	d.UnregisterProvider(99) // unknown: no-op
	if d.NumProviders() != 0 {
		t.Errorf("NumProviders = %d", d.NumProviders())
	}
	if got := d.Candidates(model.Query{Class: 3}, nil); len(got) != 0 {
		t.Errorf("unregistered providers still discoverable: %v", ids(got))
	}
	if d.Provider(1) != nil {
		t.Error("Provider(1) should be nil after unregistration")
	}
}

func TestConsumers(t *testing.T) {
	d := New()
	d.RegisterConsumer(consumerStub{id: 4})
	if d.NumConsumers() != 1 || d.Consumer(4) == nil {
		t.Error("consumer not registered")
	}
	d.UnregisterConsumer(4)
	if d.NumConsumers() != 0 || d.Consumer(4) != nil {
		t.Error("consumer not unregistered")
	}
}

// TestConcurrentChurn exercises the directory under -race: readers discover
// candidates while writers register and unregister providers.
func TestConcurrentChurn(t *testing.T) {
	d := New()
	for i := 0; i < 8; i++ {
		d.RegisterProvider(&stub{id: model.ProviderID(i)})
	}
	var writers, readers sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		w := w
		writers.Add(1)
		go func() {
			defer writers.Done()
			id := model.ProviderID(100 + w)
			for i := 0; i < 500; i++ {
				d.RegisterProvider(&stub{id: id, classes: []int{w % 2}})
				d.UnregisterProvider(id)
			}
		}()
	}
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			var buf []Provider
			for {
				select {
				case <-stop:
					return
				default:
				}
				buf = d.Candidates(model.Query{Class: 1}, buf[:0])
				if len(buf) < 8 {
					t.Errorf("lost permanent providers: %d", len(buf))
					return
				}
				_ = d.Provider(3)
				_ = d.NumProviders()
			}
		}()
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	if d.NumProviders() != 8 {
		t.Errorf("NumProviders after churn = %d, want 8", d.NumProviders())
	}
}

// TestViewsUnderConcurrentChurn runs under -race: while registrars add and
// remove universal providers and specialists, every view a reader loads is
// internally consistent — ascending by ID, Len and At in agreement, Find
// resolving every member — never loses a permanent provider, and is stable
// (the same pointer) between writes; and once UnregisterProvider returns, no
// later view holds the departed provider.
func TestViewsUnderConcurrentChurn(t *testing.T) {
	d := New()
	for i := 0; i < 8; i++ {
		d.RegisterProvider(&stub{id: model.ProviderID(2 * i), classes: []int{i % 2}})
	}
	var writers, readers sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		w := w
		writers.Add(1)
		go func() {
			defer writers.Done()
			id := model.ProviderID(101 + 2*w)
			var classes []int // writers 0 and 1 churn universal providers
			if w >= 2 {
				classes = []int{w % 2, 7 + w} // 7+w: a class that comes and goes
			}
			for i := 0; i < 400; i++ {
				d.RegisterProvider(&stub{id: id, classes: classes})
				if d.View(w%2).Find(id) == nil {
					t.Errorf("provider %d missing from the view after registration returned", id)
					return
				}
				d.UnregisterProvider(id)
				for _, class := range []int{0, 1, 7 + w} {
					if d.View(class).Find(id) != nil {
						t.Errorf("provider %d in class %d's view after unregistration returned", id, class)
						return
					}
				}
			}
		}()
	}
	for r := 0; r < 4; r++ {
		class := r % 2
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				v := d.View(class)
				permanent := 0
				for i := 0; i < v.Len(); i++ {
					id := v.At(i).ProviderID()
					if i > 0 && v.At(i-1).ProviderID() >= id {
						t.Errorf("view not ascending at %d: %d then %d", i, v.At(i-1).ProviderID(), id)
						return
					}
					if v.Find(id) != v.At(i) {
						t.Errorf("Find(%d) disagrees with At(%d)", id, i)
						return
					}
					if id < 100 {
						permanent++
					}
				}
				if permanent != 4 {
					t.Errorf("class %d view holds %d permanent providers, want 4", class, permanent)
					return
				}
			}
		}()
	}
	writers.Wait()
	close(stop)
	readers.Wait()

	// Quiescent: the view is published once and handed out as is.
	if a, b := d.View(0), d.View(0); a != b {
		t.Error("View rebuilt with no write in between")
	}
	before := d.View(0)
	d.RegisterProvider(&stub{id: 500, classes: []int{1}})
	if d.View(0) != before {
		t.Error("a write to class 1 invalidated class 0's view")
	}
	d.RegisterProvider(&stub{id: 501})
	if after := d.View(0); after == before || after.Find(501) == nil {
		t.Error("a universal registration did not reach class 0's view")
	}
	if v := d.View(12345); v.Len() != 1 || v.Find(501) == nil {
		t.Errorf("class without specialists: view of %d providers, want the universal one", v.Len())
	}
}

// TestHostileClassesAllocateNothing pins the claim the lazily published class
// map was built on: once the map and the universal view are published, a View
// of a class nobody registered — negative, math.MaxInt, a fresh one every
// call, as a hostile client's "class" field would have it — is the lock-free
// fast path: no allocation, and no entry added to the published map.
func TestHostileClassesAllocateNothing(t *testing.T) {
	d := New()
	for id := 0; id < 8; id++ {
		d.RegisterProvider(&stub{id: model.ProviderID(id)})
	}
	d.RegisterProvider(&stub{id: 8, classes: []int{1}})
	d.View(0) // no specialists: publishes the class map and the universal view
	d.View(1)
	published := len(*d.classes.Load())

	fresh := 1 << 20
	hostile := map[string]func() int{
		"negative":            func() int { return -7 },
		"MaxInt":              func() int { return math.MaxInt },
		"fresh every request": func() int { fresh++; return fresh },
	}
	for name, class := range hostile {
		if v := d.View(class()); v.Len() != 8 {
			t.Errorf("%s: view of an unregistered class has %d providers, want the 8 universal ones", name, v.Len())
		}
		if n := testing.AllocsPerRun(1000, func() { d.View(class()) }); n != 0 {
			t.Errorf("%s: View allocates %v times per call, want 0", name, n)
		}
	}
	if got := len(*d.classes.Load()); got != published {
		t.Errorf("published class map grew from %d to %d entries under unregistered classes", published, got)
	}
}
