package cluster

import (
	"sync"
	"sync/atomic"
	"time"
)

// Health is a peer's position in the failure-detection state machine:
//
//	Alive ──(suspectAfter consecutive probe failures)──> Suspect
//	Suspect ──(downAfter consecutive probe failures)──> Down
//	any ──(one successful probe)──> Alive
//
// Only Down changes routing: Suspect peers still receive forwards (a
// slow peer beats a spurious failover), Down peers are dropped from
// the live ring so their keyspace re-resolves to the survivors.
type Health uint8

const (
	HealthAlive Health = iota
	HealthSuspect
	HealthDown
)

func (h Health) String() string {
	switch h {
	case HealthAlive:
		return "alive"
	case HealthSuspect:
		return "suspect"
	case HealthDown:
		return "down"
	}
	return "unknown"
}

type peerState struct {
	peer     Peer
	health   Health
	failures int // consecutive probe failures
	lastSeen time.Time
	rtt      time.Duration
	lastErr  string
}

// membership owns peer health and derives the live routing ring from
// it. The live ring hangs off an atomic pointer: the submit guard and
// every forwarded request read it lock-free.
type membership struct {
	self         string
	onTransition func(p Peer, from, to Health, lastErr string)

	live atomic.Pointer[Ring]

	mu    sync.Mutex
	peers map[string]*peerState
}

func newMembership(self string, peers []Peer, onTransition func(Peer, Health, Health, string)) *membership {
	m := &membership{
		self:         self,
		onTransition: onTransition,
		peers:        make(map[string]*peerState, len(peers)),
	}
	for _, p := range peers {
		// Optimistic start: peers begin Alive so a booting cluster
		// routes correctly before the first probe round completes.
		m.peers[p.ID] = &peerState{peer: p, health: HealthAlive}
	}
	m.live.Store(m.buildLiveLocked())
	return m
}

// liveRing returns the current routing ring (never nil).
func (m *membership) liveRing() *Ring { return m.live.Load() }

// buildLiveLocked derives the routing ring: self plus every peer not
// Down. Callers hold mu (or run before the membership is shared).
func (m *membership) buildLiveLocked() *Ring {
	nodes := make([]string, 0, len(m.peers)+1)
	nodes = append(nodes, m.self)
	for id, ps := range m.peers {
		if ps.health != HealthDown {
			nodes = append(nodes, id)
		}
	}
	return NewRing(nodes, DefaultVNodes)
}

// observe folds one probe result into the state machine, rebuilding
// the live ring and firing the transition hook when health changes.
// The hook runs outside the lock: it replays WAL and emits events.
func (m *membership) observe(id string, rtt time.Duration, err error) {
	m.mu.Lock()
	ps, ok := m.peers[id]
	if !ok {
		m.mu.Unlock()
		return
	}
	from := ps.health
	if err == nil {
		ps.failures = 0
		ps.health = HealthAlive
		ps.lastSeen = time.Now()
		ps.rtt = rtt
		ps.lastErr = ""
	} else {
		ps.failures++
		ps.lastErr = err.Error()
		switch {
		case ps.failures >= downAfter:
			ps.health = HealthDown
		case ps.failures >= suspectAfter:
			ps.health = HealthSuspect
		}
	}
	to := ps.health
	peer, lastErr := ps.peer, ps.lastErr
	if from != to {
		m.live.Store(m.buildLiveLocked())
	}
	m.mu.Unlock()
	if from != to && m.onTransition != nil {
		m.onTransition(peer, from, to, lastErr)
	}
}

// peerInfo returns a peer's identity and health.
func (m *membership) peerInfo(id string) (Peer, Health, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ps, ok := m.peers[id]
	if !ok {
		return Peer{}, 0, false
	}
	return ps.peer, ps.health, true
}

// status snapshots one peer for the control surface.
func (m *membership) status(id string) PeerStatus {
	m.mu.Lock()
	defer m.mu.Unlock()
	ps, ok := m.peers[id]
	if !ok {
		return PeerStatus{Peer: Peer{ID: id}, Health: "unknown"}
	}
	return PeerStatus{
		Peer:      ps.peer,
		Health:    ps.health.String(),
		Failures:  ps.failures,
		LastSeen:  ps.lastSeen,
		RTTMillis: float64(ps.rtt) / float64(time.Millisecond),
		LastError: ps.lastErr,
	}
}
