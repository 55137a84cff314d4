package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sbqa/internal/event"
	"sbqa/internal/model"
	"sbqa/internal/persist"
	"sbqa/internal/satisfaction"
)

// Typed routing failures. The gateway maps these onto 503 responses
// with machine-readable codes so a client can distinguish "retry
// against the right node" from "the owner is gone".
var (
	// ErrNotOwner: this node does not own the consumer and must not
	// serve the request locally (returned by the submit guard and by a
	// forward receiver whose ring disagrees with the sender's).
	ErrNotOwner = errors.New("cluster: consumer owned by another node")
	// ErrPeerDown: the consumer's owner is known-dead and its keyspace
	// has not yet been re-absorbed by this node.
	ErrPeerDown = errors.New("cluster: owning peer is down")
)

// The intra-cluster surface on the daemon's listener. Exported so the daemon
// mounts its handler and this package's links dial it from one definition.
const (
	// ForwardPath is where a peer opens its link (link.go): a GET that
	// upgrades the connection, after which everything that peer sends this
	// node — forwarded query submissions and consumer registrations,
	// heartbeats, WAL segments — is a frame on it.
	ForwardPath = "/v1/internal/forward"
	// ForwardedFromHeader carries the sender's node ID on a link's
	// upgrade request and on a proxied SSE subscription. What arrives
	// under it is never forwarded again: a receiver that still disagrees
	// about ownership answers ErrNotOwner rather than risking a routing
	// loop between nodes with divergent rings.
	ForwardedFromHeader = "X-Sbqa-Forwarded-From"
)

// Peer identifies one cluster member.
type Peer struct {
	ID   string `json:"id"`
	Addr string `json:"addr"` // base URL, e.g. http://10.0.0.7:8080
}

// SegmentSource is the slice of the durability store the replicator
// consumes. *persist.Store satisfies it.
type SegmentSource interface {
	SealedSegmentSeqs() []uint64
	OpenSealedSegment(seq uint64) (io.ReadCloser, int64, error)
	ActiveSegmentBytes() int64
	RotateIfDirty() (bool, error)
}

// Config assembles a cluster node. Self and at least an ID are
// mandatory; everything else has serviceable defaults.
type Config struct {
	Self  Peer
	Peers []Peer // remote members; Self must not appear here

	// HeartbeatInterval between probe rounds (default 1s) and
	// HeartbeatTimeout per probe (default half the interval).
	HeartbeatInterval time.Duration
	HeartbeatTimeout  time.Duration

	// ReplicateInterval between WAL shipping rounds (default 500ms).
	ReplicateInterval time.Duration
	// Store is the local journal to ship; StateDir its directory (used
	// to stat sealed segments for lag accounting). Both empty disables
	// outbound replication. Segments shipped here land under
	// StateDir/replica, one subdirectory per origin node; without a
	// StateDir none are accepted.
	Store    SegmentSource
	StateDir string
	// Registry receives the failover replay when an origin dies; nil
	// disables replay (segments are still stored).
	Registry *satisfaction.Registry

	// Observer receives PeerChange events; nil for none.
	Observer event.Observer
	// Dial opens the connection a link to a peer runs on — the peer
	// transport's one seam, every byte between two nodes crosses it (tests
	// hand out net.Pipe ends); nil dials the host of the peer's base URL.
	Dial func(ctx context.Context, p Peer) (net.Conn, error)
	// Serve answers the forwarded queries and consumer registrations of
	// the links peers open to this node; nil answers them 404.
	Serve LinkHandler
	// Logf for operational messages; nil for silence.
	Logf func(format string, args ...any)
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.HeartbeatInterval <= 0 {
		out.HeartbeatInterval = time.Second
	}
	if out.HeartbeatTimeout <= 0 {
		out.HeartbeatTimeout = out.HeartbeatInterval / 2
	}
	if out.ReplicateInterval <= 0 {
		out.ReplicateInterval = 500 * time.Millisecond
	}
	if out.Observer == nil {
		out.Observer = event.Discard
	}
	if out.Dial == nil {
		out.Dial = dialPeer
	}
	if out.Serve == nil {
		out.Serve = func(_ context.Context, _ string, _, reply *Frame) { reply.Status = http.StatusNotFound }
	}
	if out.Logf == nil {
		out.Logf = func(string, ...any) {}
	}
	return out
}

// Node is one member's view of the cluster: the static full ring, the
// health-trimmed live ring, and the WAL replication machinery.
type Node struct {
	cfg  Config
	full *Ring
	mem  *membership
	repl *replicator
	// links carries all traffic between this node and its peers: one
	// outbound link per peer, and the links peers opened to this node.
	links links

	startOnce sync.Once
	stop      chan struct{}
	wg        sync.WaitGroup
	closed    atomic.Bool

	replayMu   sync.Mutex
	replayed   map[string]int // origin -> records replayed on failover
	replayErrs map[string]string

	// replicaDir holds shipped segments, one subdirectory per origin
	// node: StateDir/replica, or "" without a StateDir.
	replicaDir string
	// replicaMu serialises replicaDir's one writer, serveSegment, and
	// guards replicas: what replicaStatuses last read from that directory,
	// cached until a segment lands there, so a Status between two
	// shipments touches no file.
	replicaMu    sync.Mutex
	replicas     []ReplicaStatus
	replicasRead bool
}

// New validates cfg and builds a node. The node is inert until Start.
func New(cfg Config) (*Node, error) {
	if cfg.Self.ID == "" {
		return nil, errors.New("cluster: Self.ID is required")
	}
	seen := map[string]bool{cfg.Self.ID: true}
	ids := []string{cfg.Self.ID}
	for _, p := range cfg.Peers {
		if p.ID == "" || p.Addr == "" {
			return nil, fmt.Errorf("cluster: peer %+v needs both id and addr", p)
		}
		if seen[p.ID] {
			return nil, fmt.Errorf("cluster: duplicate node id %q", p.ID)
		}
		seen[p.ID] = true
		ids = append(ids, p.ID)
	}
	c := cfg.withDefaults()
	n := &Node{
		cfg:        c,
		full:       NewRing(ids, DefaultVNodes),
		stop:       make(chan struct{}),
		replayed:   make(map[string]int),
		replayErrs: make(map[string]string),
	}
	if c.StateDir != "" {
		n.replicaDir = filepath.Join(c.StateDir, "replica")
	}
	n.links = links{out: make(map[string]*link), in: make(map[*inLink]struct{})}
	n.links.ctx, n.links.cancel = context.WithCancel(context.Background())
	n.mem = newMembership(c.Self.ID, c.Peers, n.onPeerTransition)
	if c.Store != nil && c.StateDir != "" {
		n.repl = newReplicator(n)
	}
	return n, nil
}

// Start launches the heartbeat and replication loops. Idempotent.
func (n *Node) Start() {
	n.startOnce.Do(func() {
		if len(n.cfg.Peers) > 0 {
			n.wg.Add(1)
			go n.heartbeatLoop()
		}
		if n.repl != nil && len(n.cfg.Peers) > 0 {
			n.wg.Add(1)
			go n.repl.loop()
		}
	})
}

// Close stops the loops, ends every link — pending forwards fail, frames
// being served answer first — and waits for all of it. Idempotent.
func (n *Node) Close() {
	if n.closed.CompareAndSwap(false, true) {
		close(n.stop)
	}
	n.closeLinks()
	n.wg.Wait()
}

// Self returns this node's identity.
func (n *Node) Self() Peer { return n.cfg.Self }

// Route resolves the owner of consumer c on the live ring. self is
// true when this node must serve the request locally. A non-nil error
// is ErrPeerDown: the owner exists but is unreachable (only possible
// transiently, while a Down transition is being absorbed).
func (n *Node) Route(c model.ConsumerID) (owner Peer, self bool, err error) {
	id := n.mem.liveRing().Owner(c)
	if id == "" || id == n.cfg.Self.ID {
		return n.cfg.Self, true, nil
	}
	p, health, ok := n.mem.peerInfo(id)
	if !ok {
		return n.cfg.Self, true, nil
	}
	if health == HealthDown {
		return p, false, ErrPeerDown
	}
	return p, false, nil
}

// SubmitGuard returns the ownership predicate the gateway installs on
// the live engine: every submission that is not this node's to mediate
// fails with ErrNotOwner before touching a shard queue.
func (n *Node) SubmitGuard() func(model.Query) error {
	return func(q model.Query) error {
		if _, self, _ := n.Route(q.Consumer); !self {
			return ErrNotOwner
		}
		return nil
	}
}

// onPeerTransition runs on every membership state change: emit the
// typed event, log, and on a Down transition replay the dead peer's
// replicated WAL for the consumer ranges this node just inherited.
func (n *Node) onPeerTransition(p Peer, from, to Health, lastErr string) {
	n.cfg.Logf("cluster: peer %s (%s) %s -> %s %s", p.ID, p.Addr, from, to, lastErr)
	n.cfg.Observer.OnPeerChange(event.PeerChange{
		Node: p.ID,
		Addr: p.Addr,
		From: from.String(),
		To:   to.String(),
		Err:  lastErr,
	})
	if to == HealthDown {
		n.failLink(p.ID, ErrPeerDown)
		n.failover(p.ID)
	}
}

// failover replays origin's replicated WAL segments — filtered to the
// consumers the live ring now assigns to this node — into the local
// satisfaction registry. At most once per origin per process lifetime:
// a flapping peer must not replay twice (satisfaction windows would
// double-count outcomes), so a second Down transition serves whatever
// memory the first replay restored.
func (n *Node) failover(origin string) {
	if n.cfg.Registry == nil || n.replicaDir == "" {
		return
	}
	n.replayMu.Lock()
	defer n.replayMu.Unlock()
	if _, done := n.replayed[origin]; done {
		return
	}
	live := n.mem.liveRing()
	mine := func(c model.ConsumerID) bool { return live.Owner(c) == n.cfg.Self.ID }
	keep := func(rec *persist.Record) bool {
		switch rec.Type {
		case persist.RecordOutcome:
			return mine(rec.Outcome.Consumer)
		case persist.RecordForgetConsumer:
			return mine(model.ConsumerID(rec.Forget))
		default:
			// Policy and provider records describe the dead node's own
			// configuration and its provider-side memory; neither maps
			// onto a consumer range, so a range takeover skips them.
			return false
		}
	}
	dir := filepath.Join(n.replicaDir, origin)
	replayed, err := persist.ReplayDir(dir, keep, n.cfg.Registry)
	n.replayed[origin] = replayed
	if err != nil {
		n.replayErrs[origin] = err.Error()
		n.cfg.Logf("cluster: failover replay of %s: %v (after %d records)", origin, err, replayed)
		return
	}
	n.cfg.Logf("cluster: peer %s down: replayed %d records into local satisfaction memory", origin, replayed)
}

// otherMember reports whether id names a member of the full ring other than
// this node — the only senders a link is accepted from.
func (n *Node) otherMember(id string) bool {
	return id != "" && id != n.cfg.Self.ID && n.full.Contains(id)
}

// heartbeatLoop probes every peer each interval, first round instantly
// so a booting cluster converges before the first tick.
func (n *Node) heartbeatLoop() {
	defer n.wg.Done()
	t := time.NewTicker(n.cfg.HeartbeatInterval)
	defer t.Stop()
	for {
		n.probeAll()
		select {
		case <-n.stop:
			return
		case <-t.C:
		}
	}
}

// probeAll pings every peer over the link to it. Anything but a 200 pong
// within HeartbeatTimeout fails the probe: a silent peer, a failed dial,
// and a refused upgrade — which is how a peer still restoring its journal
// answers, so it gets no traffic yet.
func (n *Node) probeAll() {
	var wg sync.WaitGroup
	for _, p := range n.cfg.Peers {
		wg.Add(1)
		go func(p Peer) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(n.links.ctx, n.cfg.HeartbeatTimeout)
			defer cancel()
			start := time.Now()
			call, err := n.Forward(ctx, p, FramePing, model.TraceContext{}, nil)
			if err == nil {
				if call.Status != http.StatusOK {
					err = fmt.Errorf("ping: status %d", call.Status)
				}
				call.Release()
			}
			if !n.closed.Load() { // a ping this node's own Close cut short says nothing of p
				n.mem.observe(p.ID, time.Since(start), err)
			}
		}(p)
	}
	wg.Wait()
}

// PeerStatus is one peer's health and replication position as seen by
// this node.
type PeerStatus struct {
	Peer
	Health      string    `json:"health"`
	Failures    int       `json:"failures,omitempty"`
	LastSeen    time.Time `json:"last_seen,omitzero"`
	RTTMillis   float64   `json:"rtt_ms,omitempty"`
	LastError   string    `json:"last_error,omitempty"`
	Follower    bool      `json:"follower"` // a WAL shipping target of this node
	LagSegments int       `json:"lag_segments"`
	LagBytes    int64     `json:"lag_bytes"`
	Shipped     uint64    `json:"shipped_segments"`
}

// ReplicaStatus describes segments held locally for one origin node.
type ReplicaStatus struct {
	Origin    string `json:"origin"`
	Segments  int    `json:"segments"`
	Bytes     int64  `json:"bytes"`
	Replayed  int    `json:"replayed_records,omitempty"`
	ReplayErr string `json:"replay_error,omitempty"`
}

// Status is the /v1/cluster payload.
type Status struct {
	Self     Peer            `json:"self"`
	VNodes   int             `json:"vnodes"`
	Nodes    []string        `json:"nodes"`      // full ring
	Live     []string        `json:"live_nodes"` // routing ring
	Peers    []PeerStatus    `json:"peers"`
	Replicas []ReplicaStatus `json:"replicas,omitempty"`
}

// Status snapshots the node for the control surface and the metrics
// endpoint. It reads memory, except right after a change on disk: a newly
// shipped replica is listed and a newly sealed local segment sized, once.
func (n *Node) Status() Status {
	st := Status{
		Self:   n.cfg.Self,
		VNodes: DefaultVNodes,
		Nodes:  n.full.Nodes(),
		Live:   n.mem.liveRing().Nodes(),
	}
	var lag map[string]replLag
	followers := map[string]bool{}
	if n.repl != nil {
		lag = n.repl.lag()
		for _, f := range n.full.Followers(n.cfg.Self.ID) {
			followers[f] = true
		}
	}
	for _, p := range n.cfg.Peers {
		ps := n.mem.status(p.ID)
		ps.Follower = followers[p.ID]
		if l, ok := lag[p.ID]; ok {
			ps.LagSegments, ps.LagBytes, ps.Shipped = l.segments, l.bytes, l.shipped
		}
		st.Peers = append(st.Peers, ps)
	}
	if n.replicaDir != "" {
		st.Replicas = n.replicaStatuses()
	}
	return st
}

func (n *Node) replicaStatuses() []ReplicaStatus {
	n.replicaMu.Lock()
	if !n.replicasRead {
		n.replicas = n.replicas[:0]
		for _, origin := range n.full.Nodes() {
			if origin == n.cfg.Self.ID {
				continue
			}
			dir := filepath.Join(n.replicaDir, origin)
			seqs, err := persist.ScanSegmentDir(dir)
			if err != nil || len(seqs) == 0 {
				continue
			}
			rs := ReplicaStatus{Origin: origin, Segments: len(seqs)}
			for _, seq := range seqs {
				if fi, err := statFile(persist.SegmentFilePath(dir, seq)); err == nil {
					rs.Bytes += fi
				}
			}
			n.replicas = append(n.replicas, rs)
		}
		sort.Slice(n.replicas, func(i, j int) bool { return n.replicas[i].Origin < n.replicas[j].Origin })
		n.replicasRead = true
	}
	out := append([]ReplicaStatus(nil), n.replicas...)
	n.replicaMu.Unlock()
	n.replayMu.Lock()
	for i := range out {
		out[i].Replayed = n.replayed[out[i].Origin]
		out[i].ReplayErr = n.replayErrs[out[i].Origin]
	}
	n.replayMu.Unlock()
	return out
}
