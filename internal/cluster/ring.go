// Package cluster turns independent sbqad daemons into a mediation
// cluster: a consistent-hash ring over consumer IDs decides which node
// owns each consumer's queries and satisfaction memory, a heartbeat
// membership layer tracks peer health and shrinks the routing ring when
// a node dies, and a WAL replicator ships sealed journal segments to
// ring followers so a failed node's consumers arrive at their new owner
// with satisfaction memory intact.
//
// The package deliberately stops short of consensus: the member list is
// static configuration, there is no leader, and rebalancing is the
// ring's arithmetic consequence of a node leaving — not a coordinated
// data migration.
package cluster

import (
	"encoding/binary"
	"sort"

	"sbqa/internal/model"
)

// DefaultVNodes is the number of virtual points each node contributes
// to the ring. 64 points per node keeps the largest/smallest ownership
// share within a few percent for small clusters while the full ring
// stays tiny (a 16-node cluster is 1024 points, ~24 KiB).
const DefaultVNodes = 64

// A peer is Suspect after suspectAfter consecutive probe failures and Down,
// out of the routing ring, after downAfter.
const (
	suspectAfter = 2
	downAfter    = 4
)

// The ring hashes with FNV-1a/64 implemented by hand rather than via
// hash/fnv or maphash: ownership must be identical across Go versions,
// architectures, and processes — a follower replaying a dead peer's WAL
// filters records by "does the ring assign this consumer to me now",
// and two nodes disagreeing on that predicate would duplicate or drop
// satisfaction memory.
const (
	fnvOffset64 = uint64(14695981039346656037)
	fnvPrime64  = uint64(1099511628211)
)

// fnvBytes folds b into the running FNV-1a state h.
func fnvBytes(h uint64, b []byte) uint64 {
	for _, c := range b {
		h ^= uint64(c)
		h *= fnvPrime64
	}
	return h
}

// fnvU64 folds v, big-endian, into the running FNV-1a state h.
func fnvU64(h uint64, v uint64) uint64 {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	return fnvBytes(h, b[:])
}

// mix64 is the MurmurHash3 64-bit finalizer. Raw FNV-1a barely diffuses
// small sequential inputs — consecutive consumer IDs differ in a couple
// of low bytes and land adjacent on the circle, piling every consumer
// into one node's arc. The finalizer avalanches those bits across the
// whole word; its constants are fixed here so the keyspace never shifts
// under a stdlib change.
func mix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// KeyHash maps a consumer onto the ring's keyspace: FNV-1a over the
// 8-byte big-endian ID, then finalized for avalanche (see mix64).
func KeyHash(c model.ConsumerID) uint64 {
	return mix64(fnvU64(fnvOffset64, uint64(int64(c))))
}

// ringPoint is one virtual node: a position on the keyspace circle and
// the node that owns the arc ending at it.
type ringPoint struct {
	hash uint64
	node string
}

// Ring is an immutable consistent-hash ring over a set of node IDs.
// Build a new one on membership change; readers hold it via an atomic
// pointer and never see a half-updated ring.
type Ring struct {
	nodes  []string // distinct node IDs, sorted
	points []ringPoint
}

// NewRing builds a ring from node IDs with vnodes virtual points each
// (DefaultVNodes when vnodes <= 0). Duplicate IDs collapse; the input
// order never matters — two rings built from permutations of the same
// set behave identically.
func NewRing(nodes []string, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	seen := make(map[string]bool, len(nodes))
	distinct := make([]string, 0, len(nodes))
	for _, n := range nodes {
		if n == "" || seen[n] {
			continue
		}
		seen[n] = true
		distinct = append(distinct, n)
	}
	sort.Strings(distinct)
	r := &Ring{nodes: distinct}
	r.points = make([]ringPoint, 0, len(distinct)*vnodes)
	for _, n := range distinct {
		base := fnvBytes(fnvOffset64, []byte(n))
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{hash: mix64(fnvU64(base, uint64(v))), node: n})
		}
	}
	// Ties broken by node ID so a hash collision between two nodes'
	// points still yields one deterministic owner everywhere.
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].node < r.points[j].node
	})
	return r
}

// Nodes returns the ring's distinct node IDs, sorted.
func (r *Ring) Nodes() []string {
	out := make([]string, len(r.nodes))
	copy(out, r.nodes)
	return out
}

// Len reports the number of distinct nodes on the ring.
func (r *Ring) Len() int { return len(r.nodes) }

// Contains reports whether node is on the ring.
func (r *Ring) Contains(node string) bool {
	i := sort.SearchStrings(r.nodes, node)
	return i < len(r.nodes) && r.nodes[i] == node
}

// ownerIdx finds the first point at or clockwise after h, wrapping.
func (r *Ring) ownerIdx(h uint64) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return i
}

// OwnerOfHash returns the node owning keyspace position h, or "" on an
// empty ring.
func (r *Ring) OwnerOfHash(h uint64) string {
	if len(r.points) == 0 {
		return ""
	}
	return r.points[r.ownerIdx(h)].node
}

// Owner returns the node that owns consumer c, or "" on an empty ring.
func (r *Ring) Owner(c model.ConsumerID) string {
	return r.OwnerOfHash(KeyHash(c))
}

// Followers returns, sorted, the distinct nodes that immediately
// succeed any of node's points — the nodes that inherit parts of its
// keyspace if it leaves, and therefore the replication targets for its
// WAL. Empty when node is absent or alone on the ring.
func (r *Ring) Followers(node string) []string {
	if len(r.points) == 0 || !r.Contains(node) {
		return nil
	}
	set := make(map[string]bool)
	for i, p := range r.points {
		if p.node != node {
			continue
		}
		for j := 1; j < len(r.points); j++ {
			q := r.points[(i+j)%len(r.points)]
			if q.node != node {
				set[q.node] = true
				break
			}
		}
	}
	if len(set) == 0 {
		return nil
	}
	out := make([]string, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
