package cluster

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sbqa/internal/event"
	"sbqa/internal/model"
	"sbqa/internal/persist"
	"sbqa/internal/satisfaction"
)

// serveOn serves h as the upgrade route on pn — the only route a node
// mounts for its peers — until the test ends.
func serveOn(t testing.TB, pn *pipeNet, h http.HandlerFunc) {
	mux := http.NewServeMux()
	mux.HandleFunc("GET "+ForwardPath, h)
	srv := &http.Server{Handler: mux}
	go srv.Serve(pn)
	t.Cleanup(func() { srv.Close() })
}

// memNet is a cluster's network in memory: each member listens on a
// pipeNet of its own, and a dial reaches the listener of the peer it names
// or is refused, as a dial to a host that is down is.
type memNet struct {
	mu        sync.Mutex
	listeners map[string]*pipeNet
}

func newMemNet() *memNet { return &memNet{listeners: map[string]*pipeNet{}} }

// listen makes h node id's upgrade route.
func (m *memNet) listen(t testing.TB, id string, h http.HandlerFunc) {
	pn := newPipeNet()
	serveOn(t, pn, h)
	m.mu.Lock()
	m.listeners[id] = pn
	m.mu.Unlock()
}

// serveNode puts n on the network under its own ID.
func (m *memNet) serveNode(t testing.TB, n *Node) { m.listen(t, n.cfg.Self.ID, n.AcceptLink) }

// drop cuts every connection to node id, as a restart does.
func (m *memNet) drop(id string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if pn := m.listeners[id]; pn != nil {
		pn.kill()
	}
}

// down takes node id off the network, as a crash does: its connections drop
// and dials to it are refused.
func (m *memNet) down(id string) {
	m.mu.Lock()
	pn := m.listeners[id]
	delete(m.listeners, id)
	m.mu.Unlock()
	if pn != nil {
		pn.Close()
		pn.kill()
	}
}

func (m *memNet) dial(ctx context.Context, p Peer) (net.Conn, error) {
	m.mu.Lock()
	pn := m.listeners[p.ID]
	m.mu.Unlock()
	if pn == nil {
		return nil, fmt.Errorf("memnet: dial %s: connection refused", p.ID)
	}
	return pn.dial(ctx, p)
}

// fastConfig: probe and replicate aggressively so tests converge in
// tens of milliseconds.
func fastConfig(self Peer, peers ...Peer) Config {
	return Config{
		Self:              self,
		Peers:             peers,
		HeartbeatInterval: 10 * time.Millisecond,
		HeartbeatTimeout:  50 * time.Millisecond,
		ReplicateInterval: 10 * time.Millisecond,
	}
}

// newNode builds a node from cfg that is closed when the test ends.
func newNode(t testing.TB, cfg Config) *Node {
	t.Helper()
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Close)
	return n
}

// health is peer id's health as n sees it.
func health(n *Node, id string) Health {
	_, h, _ := n.mem.peerInfo(id)
	return h
}

func waitFor(t testing.TB, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestMembershipStateMachine drives a peer alive -> suspect -> down by
// taking it off the network, checks the live ring and routing shrink, then
// verifies the typed PeerChange trail.
func TestMembershipStateMachine(t *testing.T) {
	mn := newMemNet()
	mn.serveNode(t, newNode(t, fastConfig(Peer{ID: "b"}, Peer{ID: "a", Addr: "http://a.test"})))

	var mu sync.Mutex
	var changes []event.PeerChange
	obs := event.Funcs{PeerChange: func(pc event.PeerChange) {
		mu.Lock()
		changes = append(changes, pc)
		mu.Unlock()
	}}

	cfg := fastConfig(Peer{ID: "a"}, Peer{ID: "b", Addr: "http://b.test"})
	cfg.Observer = obs
	cfg.Dial = mn.dial
	n := newNode(t, cfg)
	n.Start()

	if got := n.mem.liveRing().Nodes(); len(got) != 2 {
		t.Fatalf("live ring at boot = %v, want both nodes", got)
	}
	// Some consumer b owns while alive.
	var remote model.ConsumerID = -1
	for c := model.ConsumerID(0); c < 100; c++ {
		if n.mem.liveRing().Owner(c) == "b" {
			remote = c
			break
		}
	}
	if remote < 0 {
		t.Fatal("no consumer owned by peer b")
	}
	if p, self, err := n.Route(remote); self || err != nil || p.ID != "b" {
		t.Fatalf("Route(%d) = (%v, %v, %v), want remote b", remote, p, self, err)
	}
	if err := n.SubmitGuard()(model.Query{Consumer: remote}); err != ErrNotOwner {
		t.Fatalf("guard on remote consumer = %v, want ErrNotOwner", err)
	}

	mn.down("b")
	waitFor(t, "peer b down", func() bool { return health(n, "b") == HealthDown })

	// Down: b leaves the routing ring, its consumers re-resolve to a.
	if got := n.mem.liveRing().Nodes(); len(got) != 1 || got[0] != "a" {
		t.Fatalf("live ring after down = %v, want [a]", got)
	}
	if _, self, err := n.Route(remote); !self || err != nil {
		t.Fatalf("Route after down = (self=%v, %v), want local", self, err)
	}
	if err := n.SubmitGuard()(model.Query{Consumer: remote}); err != nil {
		t.Fatalf("guard after takeover = %v, want nil", err)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(changes) < 2 {
		t.Fatalf("peer changes = %v, want alive->suspect and suspect->down", changes)
	}
	first, last := changes[0], changes[len(changes)-1]
	if first.Node != "b" || first.From != "alive" || first.To != "suspect" || first.Err == "" {
		t.Errorf("first transition = %+v, want alive->suspect with error", first)
	}
	if last.From != "suspect" || last.To != "down" {
		t.Errorf("last transition = %+v, want suspect->down", last)
	}

	st := n.Status()
	if len(st.Live) != 1 || len(st.Nodes) != 2 {
		t.Errorf("status rings: live %v full %v", st.Live, st.Nodes)
	}
	if len(st.Peers) != 1 || st.Peers[0].Health != "down" || st.Peers[0].LastError == "" {
		t.Errorf("peer status = %+v, want down with error", st.Peers)
	}
}

// TestMembershipRecovery: a peer that answers the upgrade 503 — as a daemon
// still restoring its journal does — is not Alive; once it takes the link
// it returns to alive and re-enters the routing ring.
func TestMembershipRecovery(t *testing.T) {
	peer := newNode(t, fastConfig(Peer{ID: "b"}, Peer{ID: "a", Addr: "http://a.test"}))
	var ready atomic.Bool
	mn := newMemNet()
	mn.listen(t, "b", func(w http.ResponseWriter, r *http.Request) {
		if !ready.Load() {
			http.Error(w, "starting: engine restoring persisted state", http.StatusServiceUnavailable)
			return
		}
		peer.AcceptLink(w, r)
	})

	cfg := fastConfig(Peer{ID: "a"}, Peer{ID: "b", Addr: "http://b.test"})
	cfg.Dial = mn.dial
	n := newNode(t, cfg)
	n.Start()
	waitFor(t, "peer down while booting", func() bool { return health(n, "b") == HealthDown })
	ready.Store(true)
	waitFor(t, "peer recovery", func() bool { return health(n, "b") == HealthAlive })
	if got := n.mem.liveRing().Nodes(); len(got) != 2 {
		t.Fatalf("live ring after recovery = %v", got)
	}
}

// newStoreWithRecords opens a journal in dir and appends one outcome
// per consumer in consumers, leaving the records in the active segment.
func newStoreWithRecords(t testing.TB, dir string, consumers []model.ConsumerID) (*persist.Store, *satisfaction.Registry) {
	t.Helper()
	st, err := persist.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	reg := satisfaction.NewRegistry(satisfaction.DefaultWindow)
	if _, err := st.Restore(reg); err != nil {
		t.Fatal(err)
	}
	for i, c := range consumers {
		rec := outcome(int64(i+1), c)
		rec.Apply(reg)
		if err := st.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	return st, reg
}

// outcome is query qid's one-provider outcome record for consumer c.
func outcome(qid int64, c model.ConsumerID) *persist.Record {
	return &persist.Record{Type: persist.RecordOutcome, Outcome: persist.OutcomeRecord{
		QueryID:  qid,
		Consumer: c,
		N:        1,
		Proposed: []model.ProviderID{1},
		CI:       []model.Intention{0.5},
		PI:       []model.Intention{0.5},
		Selected: []bool{true},
	}}
}

// TestReplicationShipsAndFailoverRestoresMemory is the package-level
// end-to-end: owner a ships its journal to follower b over the link; when a
// dies, b replays exactly the consumers the shrunken ring hands it, and the
// replica files are byte-identical to the owner's sealed segments.
func TestReplicationShipsAndFailoverRestoresMemory(t *testing.T) {
	ownerDir, followerDir := t.TempDir(), t.TempDir()
	consumers := make([]model.ConsumerID, 2000) // a segment of several chunks
	for i := range consumers {
		consumers[i] = model.ConsumerID(i)
	}
	store, ownerReg := newStoreWithRecords(t, ownerDir, consumers)
	defer store.Close()

	mn := newMemNet()
	followerReg := satisfaction.NewRegistry(satisfaction.DefaultWindow)
	fCfg := fastConfig(Peer{ID: "b"}, Peer{ID: "a", Addr: "http://a.test"})
	fCfg.StateDir = followerDir
	fCfg.Registry = followerReg
	fCfg.Dial = mn.dial
	follower := newNode(t, fCfg)
	mn.serveNode(t, follower)
	// An empty reading, taken before anything ships: each shipment must
	// make Status look again.
	if rs := follower.Status().Replicas; len(rs) != 0 {
		t.Fatalf("replicas before any shipment = %+v", rs)
	}

	oCfg := fastConfig(Peer{ID: "a"}, Peer{ID: "b", Addr: "http://b.test"})
	oCfg.StateDir = ownerDir
	oCfg.Store = store
	oCfg.Dial = mn.dial
	owner := newNode(t, oCfg)
	owner.Start()

	// The replicator rotates the dirty active segment and ships it.
	waitFor(t, "segment shipped", func() bool {
		seqs, _ := follower.heldSegments("a")
		return len(seqs) >= 1
	})
	seqs, _ := follower.heldSegments("a")
	for _, seq := range seqs {
		want, err := os.ReadFile(persist.SegmentFilePath(ownerDir, seq))
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(persist.SegmentFilePath(filepath.Join(followerDir, "replica", "a"), seq))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want, got) {
			t.Fatalf("replica of segment %d differs from owner's sealed file", seq)
		}
		if len(want) <= segmentChunk {
			t.Fatalf("segment %d is %d bytes: one chunk, the multi-chunk path untested", seq, len(want))
		}
	}

	// Lag drains to zero once everything sealed is shipped.
	waitFor(t, "lag zero", func() bool {
		st := owner.Status()
		return len(st.Peers) == 1 && st.Peers[0].LagSegments == 0 && st.Peers[0].LagBytes == 0
	})
	if st := owner.Status(); !st.Peers[0].Follower || st.Peers[0].Shipped == 0 {
		t.Fatalf("owner peer status = %+v, want follower with shipped > 0", st.Peers[0])
	}

	// Now the follower notices a is dead (a is on no network) and replays
	// the shipped WAL.
	follower.Start()
	waitFor(t, "owner down at follower", func() bool { return health(follower, "a") == HealthDown })
	waitFor(t, "failover replay", func() bool {
		st := follower.Status()
		return len(st.Replicas) == 1 && st.Replicas[0].Replayed > 0
	})

	// Two-node cluster, one dead: b owns every consumer, so the replay
	// must reproduce the owner's satisfaction memory exactly.
	for _, c := range consumers {
		if got, want := followerReg.ConsumerSatisfaction(c), ownerReg.ConsumerSatisfaction(c); got != want {
			t.Fatalf("consumer %d: replayed δs %v, owner had %v", c, got, want)
		}
	}
	owner.Close() // no shipment from here on
	st := follower.Status()
	if st.Replicas[0].Origin != "a" || st.Replicas[0].ReplayErr != "" {
		t.Fatalf("replica status = %+v", st.Replicas[0])
	}

	// Status agrees with the disk, and between shipments it answers from
	// its cached reading: with the files moved away behind its back it
	// still says the same, because it did not look.
	replicaDir := filepath.Join(followerDir, "replica", "a")
	held, _ := follower.heldSegments("a")
	var onDisk int64
	for _, seq := range held {
		size, err := statFile(persist.SegmentFilePath(replicaDir, seq))
		if err != nil {
			t.Fatal(err)
		}
		onDisk += size
	}
	if rs := st.Replicas[0]; rs.Segments != len(held) || rs.Bytes != onDisk {
		t.Fatalf("replicas = %+v, disk holds %d segments, %d bytes", rs, len(held), onDisk)
	}
	if err := os.Rename(replicaDir, replicaDir+".moved"); err != nil {
		t.Fatal(err)
	}
	if rs := follower.Status().Replicas; len(rs) != 1 || rs[0] != st.Replicas[0] {
		t.Fatalf("Status re-read the disk between shipments: %+v, was %+v", rs, st.Replicas[0])
	}
}

// TestFailoverReplayFiltersToOwnedRange: with a third live node, the
// follower replays only consumers the live ring assigns to it — the
// rest belong to the survivor and must not pollute local memory.
func TestFailoverReplayFiltersToOwnedRange(t *testing.T) {
	consumers := make([]model.ConsumerID, 60)
	for i := range consumers {
		consumers[i] = model.ConsumerID(i)
	}
	seq, data := sealedSegment(t, consumers)

	mn := newMemNet()
	mn.serveNode(t, newNode(t, fastConfig(Peer{ID: "c"}, Peer{ID: "b", Addr: "http://b.test"}, Peer{ID: "dead", Addr: "http://dead.test"})))

	reg := satisfaction.NewRegistry(satisfaction.DefaultWindow)
	cfg := fastConfig(Peer{ID: "b"},
		Peer{ID: "dead", Addr: "http://dead.test"},
		Peer{ID: "c", Addr: "http://c.test"})
	cfg.StateDir = t.TempDir()
	cfg.Registry = reg
	cfg.Dial = mn.dial
	n := newNode(t, cfg)

	// Pre-seed the replica dir as if "dead" had shipped its journal.
	if status, msg := landWhole(n, "dead", seq, data, segmentChunk); status != http.StatusOK {
		t.Fatal(status, msg)
	}

	n.Start()
	waitFor(t, "dead peer down", func() bool { return health(n, "dead") == HealthDown })
	waitFor(t, "replay recorded", func() bool {
		st := n.Status()
		return len(st.Replicas) == 1 && st.Replicas[0].Replayed > 0
	})

	live := n.mem.liveRing()
	if nodes := live.Nodes(); len(nodes) != 2 {
		t.Fatalf("live ring = %v, want b and c", nodes)
	}
	present := make(map[model.ConsumerID]bool)
	for _, c := range reg.ConsumerIDs() {
		present[c] = true
	}
	kept, skipped := 0, 0
	for _, c := range consumers {
		has := present[c]
		if live.Owner(c) == "b" {
			if !has {
				t.Errorf("consumer %d owned by b but not replayed", c)
			}
			kept++
		} else {
			if has {
				t.Errorf("consumer %d owned by %s but replayed into b", c, live.Owner(c))
			}
			skipped++
		}
	}
	if kept == 0 || skipped == 0 {
		t.Fatalf("filter vacuous: kept %d skipped %d", kept, skipped)
	}
	if got := n.Status().Replicas[0].Replayed; got != kept {
		t.Errorf("replayed count = %d, want %d", got, kept)
	}
}
