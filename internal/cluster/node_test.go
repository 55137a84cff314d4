package cluster

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"sbqa/internal/event"
	"sbqa/internal/model"
	"sbqa/internal/persist"
	"sbqa/internal/satisfaction"
)

// serveNode exposes a node's intra-cluster surface the way the daemon
// does: healthz, the segments inventory/acceptance endpoints and the link
// upgrade.
func serveNode(t *testing.T, n *Node) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("GET "+ForwardPath, n.AcceptLink)
	mux.HandleFunc(HealthzPath, func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	})
	mux.HandleFunc(SegmentsPath, func(w http.ResponseWriter, r *http.Request) {
		origin := r.URL.Query().Get("origin")
		switch r.Method {
		case http.MethodGet:
			seqs, err := n.HeldSegments(origin)
			if err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			json.NewEncoder(w).Encode(map[string]any{"seqs": seqs})
		case http.MethodPost:
			seq, err := strconv.ParseUint(r.URL.Query().Get("seq"), 10, 64)
			if err != nil {
				http.Error(w, "bad seq", http.StatusBadRequest)
				return
			}
			if refused, err := n.AcceptSegment(origin, seq, r.Body); err != nil {
				http.Error(w, "storing the segment failed", http.StatusInternalServerError)
				return
			} else if refused != nil {
				http.Error(w, refused.Error(), http.StatusBadRequest)
				return
			}
			w.WriteHeader(http.StatusOK)
		default:
			http.Error(w, "method", http.StatusMethodNotAllowed)
		}
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

// fastConfig: probe and replicate aggressively so tests converge in
// tens of milliseconds.
func fastConfig(self Peer, peers ...Peer) Config {
	return Config{
		Self:              self,
		Peers:             peers,
		HeartbeatInterval: 10 * time.Millisecond,
		HeartbeatTimeout:  50 * time.Millisecond,
		SuspectAfter:      2,
		DownAfter:         4,
		ReplicateInterval: 10 * time.Millisecond,
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
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
// killing its server, checks the live ring and routing shrink, then
// verifies the typed PeerChange trail.
func TestMembershipStateMachine(t *testing.T) {
	peerMux := http.NewServeMux()
	peerMux.HandleFunc(HealthzPath, func(w http.ResponseWriter, r *http.Request) { w.WriteHeader(200) })
	peerSrv := httptest.NewServer(peerMux)
	defer peerSrv.Close()

	var mu sync.Mutex
	var changes []event.PeerChange
	obs := event.Funcs{PeerChange: func(pc event.PeerChange) {
		mu.Lock()
		changes = append(changes, pc)
		mu.Unlock()
	}}

	cfg := fastConfig(Peer{ID: "a", Addr: "http://self.invalid"}, Peer{ID: "b", Addr: peerSrv.URL})
	cfg.Observer = obs
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	n.Start()

	if got := n.LiveRing().Nodes(); len(got) != 2 {
		t.Fatalf("live ring at boot = %v, want both nodes", got)
	}
	// Some consumer b owns while alive.
	var remote model.ConsumerID = -1
	for c := model.ConsumerID(0); c < 100; c++ {
		if n.LiveRing().Owner(c) == "b" {
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

	peerSrv.Close()
	waitFor(t, "peer b down", func() bool { return n.mem.health("b") == HealthDown })

	// Down: b leaves the routing ring, its consumers re-resolve to a.
	if got := n.LiveRing().Nodes(); len(got) != 1 || got[0] != "a" {
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

// TestMembershipRecovery: a down peer that answers again returns to
// alive and re-enters the routing ring.
func TestMembershipRecovery(t *testing.T) {
	var up sync.Map
	up.Store("ok", false)
	mux := http.NewServeMux()
	mux.HandleFunc(HealthzPath, func(w http.ResponseWriter, r *http.Request) {
		if ok, _ := up.Load("ok"); !ok.(bool) {
			http.Error(w, "booting", http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(200)
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	n, err := New(fastConfig(Peer{ID: "a"}, Peer{ID: "b", Addr: srv.URL}))
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	n.Start()
	// Non-200 healthz is a failure: not-ready peers get no traffic.
	waitFor(t, "peer down while booting", func() bool { return n.mem.health("b") == HealthDown })
	up.Store("ok", true)
	waitFor(t, "peer recovery", func() bool { return n.mem.health("b") == HealthAlive })
	if got := n.LiveRing().Nodes(); len(got) != 2 {
		t.Fatalf("live ring after recovery = %v", got)
	}
}

// newStoreWithRecords opens a journal in dir and appends one outcome
// per consumer in consumers, leaving the records in the active segment.
func newStoreWithRecords(t *testing.T, dir string, consumers []model.ConsumerID) (*persist.Store, *satisfaction.Registry) {
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
		rec := &persist.Record{Type: persist.RecordOutcome, Outcome: persist.OutcomeRecord{
			QueryID:  int64(i + 1),
			Consumer: c,
			N:        1,
			Proposed: []model.ProviderID{1},
			CI:       []model.Intention{0.5},
			PI:       []model.Intention{0.5},
			Selected: []bool{true},
		}}
		rec.Apply(reg)
		if err := st.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	return st, reg
}

// TestReplicationShipsAndFailoverRestoresMemory is the package-level
// end-to-end: owner a ships its journal to follower b; when a dies, b
// replays exactly the consumers the shrunken ring hands it, and the
// replica files are byte-identical to the owner's sealed segments.
func TestReplicationShipsAndFailoverRestoresMemory(t *testing.T) {
	ownerDir, followerDir := t.TempDir(), t.TempDir()
	consumers := make([]model.ConsumerID, 40)
	for i := range consumers {
		consumers[i] = model.ConsumerID(i)
	}
	store, ownerReg := newStoreWithRecords(t, ownerDir, consumers)
	defer store.Close()

	followerReg := satisfaction.NewRegistry(satisfaction.DefaultWindow)
	fCfg := fastConfig(Peer{ID: "b"}, Peer{ID: "a", Addr: "http://a.invalid"})
	fCfg.StateDir = followerDir
	fCfg.Registry = followerReg
	follower, err := New(fCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	fSrv := serveNode(t, follower)
	// An empty reading, taken before anything ships: each shipment must
	// make Status look again.
	if rs := follower.Status().Replicas; len(rs) != 0 {
		t.Fatalf("replicas before any shipment = %+v", rs)
	}

	oCfg := fastConfig(Peer{ID: "a"}, Peer{ID: "b", Addr: fSrv.URL})
	oCfg.StateDir = ownerDir
	oCfg.Store = store
	owner, err := New(oCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer owner.Close()
	owner.Start()

	// The replicator rotates the dirty active segment and ships it.
	waitFor(t, "segment shipped", func() bool {
		seqs, _ := follower.HeldSegments("a")
		return len(seqs) >= 1
	})
	seqs, _ := follower.HeldSegments("a")
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
	}

	// Lag drains to zero once everything sealed is shipped.
	waitFor(t, "lag zero", func() bool {
		st := owner.Status()
		return len(st.Peers) == 1 && st.Peers[0].LagSegments == 0 && st.Peers[0].LagBytes == 0
	})
	if st := owner.Status(); !st.Peers[0].Follower || st.Peers[0].Shipped == 0 {
		t.Fatalf("owner peer status = %+v, want follower with shipped > 0", st.Peers[0])
	}

	// Now the follower notices a is dead (its probe address never
	// resolved) and replays the shipped WAL.
	follower.Start()
	waitFor(t, "owner down at follower", func() bool { return follower.mem.health("a") == HealthDown })
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
	held, _ := follower.HeldSegments("a")
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
	deadDir := t.TempDir()
	consumers := make([]model.ConsumerID, 60)
	for i := range consumers {
		consumers[i] = model.ConsumerID(i)
	}
	store, _ := newStoreWithRecords(t, deadDir, consumers)
	if _, err := store.RotateIfDirty(); err != nil {
		t.Fatal(err)
	}
	seq := store.SealedSegmentSeqs()[0]
	store.Close()

	aliveMux := http.NewServeMux()
	aliveMux.HandleFunc(HealthzPath, func(w http.ResponseWriter, r *http.Request) { w.WriteHeader(200) })
	aliveSrv := httptest.NewServer(aliveMux)
	defer aliveSrv.Close()

	reg := satisfaction.NewRegistry(satisfaction.DefaultWindow)
	cfg := fastConfig(Peer{ID: "b"},
		Peer{ID: "dead", Addr: "http://dead.invalid"},
		Peer{ID: "c", Addr: aliveSrv.URL})
	cfg.StateDir = t.TempDir()
	cfg.Registry = reg
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	// Pre-seed the replica dir as if "dead" had shipped its journal.
	data, err := os.ReadFile(persist.SegmentFilePath(deadDir, seq))
	if err != nil {
		t.Fatal(err)
	}
	if refused, err := n.AcceptSegment("dead", seq, bytes.NewReader(data)); refused != nil || err != nil {
		t.Fatal(refused, err)
	}

	n.Start()
	waitFor(t, "dead peer down", func() bool { return n.mem.health("dead") == HealthDown })
	waitFor(t, "replay recorded", func() bool {
		st := n.Status()
		return len(st.Replicas) == 1 && st.Replicas[0].Replayed > 0
	})

	live := n.LiveRing()
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

// TestAcceptSegmentValidation: torn bodies, wrong seqs, and unknown
// origins are refused; re-shipping a held segment is a quiet success.
func TestAcceptSegmentValidation(t *testing.T) {
	srcDir := t.TempDir()
	store, _ := newStoreWithRecords(t, srcDir, []model.ConsumerID{1, 2, 3})
	if _, err := store.RotateIfDirty(); err != nil {
		t.Fatal(err)
	}
	seq := store.SealedSegmentSeqs()[0]
	store.Close()
	data, err := os.ReadFile(persist.SegmentFilePath(srcDir, seq))
	if err != nil {
		t.Fatal(err)
	}

	cfg := fastConfig(Peer{ID: "b"}, Peer{ID: "a", Addr: "http://a.invalid"})
	cfg.StateDir = t.TempDir()
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	// A refusal is the upload's fault and goes back to the sender: it may
	// name origin and seq, never where this node keeps its replicas.
	for _, tc := range []struct {
		what, origin string
		seq          uint64
		body         []byte
	}{
		{"a segment from an origin not on the ring", "stranger", seq, data},
		{"a segment from self as origin", "b", seq, data},
		{"a segment whose header seq disagrees with the transfer", "a", seq + 9, data},
		{"a torn segment", "a", seq, data[:len(data)-2]},
		{"a segment with the wrong magic", "a", seq, append([]byte("NOTAWAL!"), data[8:]...)},
	} {
		refused, err := n.AcceptSegment(tc.origin, tc.seq, bytes.NewReader(tc.body))
		if refused == nil || err != nil {
			t.Errorf("%s: refused = %v, err = %v, want a refusal", tc.what, refused, err)
		} else if strings.Contains(refused.Error(), cfg.StateDir) {
			t.Errorf("%s: the refusal names a local path: %v", tc.what, refused)
		}
	}
	if held, _ := n.HeldSegments("a"); len(held) != 0 {
		t.Fatalf("rejected transfers left replicas behind: %v", held)
	}
	if refused, err := n.AcceptSegment("a", seq, bytes.NewReader(data)); refused != nil || err != nil {
		t.Fatal(refused, err)
	}
	if refused, err := n.AcceptSegment("a", seq, bytes.NewReader(data)); refused != nil || err != nil {
		t.Fatalf("re-ship of held segment = %v, %v, want idempotent success", refused, err)
	}
	held, _ := n.HeldSegments("a")
	if len(held) != 1 || held[0] != seq {
		t.Fatalf("held = %v, want [%d]", held, seq)
	}

	// This node's own disk failing is not a refusal: a good segment whose
	// replica directory cannot be made (a file sits where it would go).
	if err := os.RemoveAll(filepath.Join(n.cfg.ReplicaDir, "a")); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(n.cfg.ReplicaDir, "a"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if refused, err := n.AcceptSegment("a", seq, bytes.NewReader(data)); refused != nil || err == nil {
		t.Fatalf("unwritable replica dir: refused = %v, err = %v, want a local error", refused, err)
	}
}
