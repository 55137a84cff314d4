package cluster

import (
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sbqa/internal/model"
)

// TestRaceMembershipChurnUnderRoutingLoad hammers the read side of the
// node — routing, the submit guard, ring reads, and status snapshots —
// while a flapping peer drives constant health transitions, ring
// rebuilds, and failover replays. Run under -race this proves the live
// ring swap and the membership bookkeeping are coherent.
func TestRaceMembershipChurnUnderRoutingLoad(t *testing.T) {
	peer := newNode(t, fastConfig(Peer{ID: "b"}, Peer{ID: "a", Addr: "http://a.test"}))
	var up atomic.Bool
	up.Store(true)
	mn := newMemNet()
	mn.listen(t, "b", func(w http.ResponseWriter, r *http.Request) {
		if !up.Load() {
			http.Error(w, "flap", http.StatusServiceUnavailable)
			return
		}
		peer.AcceptLink(w, r)
	})

	cfg := fastConfig(Peer{ID: "a"}, Peer{ID: "b", Addr: "http://b.test"})
	cfg.HeartbeatInterval = 2 * time.Millisecond
	cfg.StateDir = t.TempDir()
	cfg.Dial = mn.dial
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n.Start()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // flapper: down is a refused upgrade and no link, long enough for downAfter probes to fail
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			case <-time.After(20 * time.Millisecond):
				up.Store(i%2 == 0)
				if i%2 != 0 {
					mn.drop("b")
				}
			}
		}
	}()
	guard := n.SubmitGuard()
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				c := model.ConsumerID(i % 257)
				owner, self, rerr := n.Route(c)
				if !self && owner.ID != "b" && rerr == nil {
					t.Errorf("Route(%d) returned foreign owner %+v", c, owner)
					return
				}
				_ = guard(model.Query{Consumer: c})
				if ring := n.mem.liveRing(); ring.Len() < 1 || !ring.Contains("a") {
					t.Errorf("live ring lost self: %v", ring.Nodes())
					return
				}
				if g == 0 && i%64 == 0 {
					_ = n.Status()
				}
			}
		}(g)
	}
	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()
	n.Close()
}
