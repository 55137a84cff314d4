package cluster

import (
	"context"
	"sync"
	"time"

	"sbqa/internal/persist"
)

// replicator ships the local journal's sealed segments to this node's
// ring followers. Each tick it rotates the active segment if it holds
// records (bounding loss to ReplicateInterval of traffic plus whatever
// the last rotation missed), then sends every sealed segment a live
// follower does not yet hold. Shipping is idempotent and resumable:
// the shipped-set is seeded from the follower's own inventory on first
// contact, so an owner restart or follower restart never re-ships more
// than it must and never skips a hole.
type replicator struct {
	n *Node

	mu      sync.Mutex
	shipped map[string]map[uint64]bool // follower ID -> segment seqs confirmed held
	seeded  map[string]bool            // follower ID -> inventory fetched
	count   map[string]uint64          // follower ID -> segments shipped by this process
	sizes   map[uint64]int64           // sealed segment seq -> bytes; a sealed segment is sized once
}

type replLag struct {
	segments int
	bytes    int64
	shipped  uint64
}

func newReplicator(n *Node) *replicator {
	return &replicator{
		n:       n,
		shipped: make(map[string]map[uint64]bool),
		seeded:  make(map[string]bool),
		count:   make(map[string]uint64),
		sizes:   make(map[uint64]int64),
	}
}

func (r *replicator) loop() {
	defer r.n.wg.Done()
	t := time.NewTicker(r.n.cfg.ReplicateInterval)
	defer t.Stop()
	for {
		select {
		case <-r.n.stop:
			return
		case <-t.C:
			r.tick()
		}
	}
}

// followers returns this node's shipping targets that are not Down.
// Down followers keep their shipped-set; they catch up on recovery.
func (r *replicator) followers() []Peer {
	var out []Peer
	for _, id := range r.n.full.Followers(r.n.cfg.Self.ID) {
		if p, h, ok := r.n.mem.peerInfo(id); ok && h != HealthDown {
			out = append(out, p)
		}
	}
	return out
}

func (r *replicator) tick() {
	store := r.n.cfg.Store
	if _, err := store.RotateIfDirty(); err != nil {
		r.n.cfg.Logf("cluster: replication rotate: %v", err)
		return
	}
	sealed := store.SealedSegmentSeqs()
	if len(sealed) == 0 {
		return
	}
	for _, p := range r.followers() {
		r.shipTo(p, sealed)
	}
}

// shipTo sends p every sealed segment it is missing, oldest first so a
// partial round leaves a prefix, never a hole.
func (r *replicator) shipTo(p Peer, sealed []uint64) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*r.n.cfg.ReplicateInterval+5*time.Second)
	defer cancel()
	r.mu.Lock()
	if !r.seeded[p.ID] {
		r.mu.Unlock()
		held, err := r.n.tr.heldSegments(ctx, p.Addr)
		if err != nil {
			r.n.cfg.Logf("cluster: seeding shipped set from %s: %v", p.ID, err)
			return
		}
		r.mu.Lock()
		set := r.shipped[p.ID]
		if set == nil {
			set = make(map[uint64]bool)
			r.shipped[p.ID] = set
		}
		for _, seq := range held {
			set[seq] = true
		}
		r.seeded[p.ID] = true
	}
	set := r.shipped[p.ID]
	if set == nil {
		set = make(map[uint64]bool)
		r.shipped[p.ID] = set
	}
	var todo []uint64
	for _, seq := range sealed {
		if !set[seq] {
			todo = append(todo, seq)
		}
	}
	r.mu.Unlock()

	for _, seq := range todo {
		rc, size, err := r.n.cfg.Store.OpenSealedSegment(seq)
		if err != nil {
			// Sealed set moved under us (compaction); next tick re-lists.
			r.n.cfg.Logf("cluster: opening sealed segment %d: %v", seq, err)
			return
		}
		err = r.n.tr.shipSegment(ctx, p.Addr, seq, rc, size)
		rc.Close()
		if err != nil {
			r.n.cfg.Logf("cluster: shipping segment %d to %s: %v", seq, p.ID, err)
			return
		}
		r.mu.Lock()
		set[seq] = true
		r.count[p.ID]++
		r.mu.Unlock()
	}
}

// lag reports, per follower, how far its replica trails the local
// journal: sealed segments (and their bytes) not yet confirmed held,
// plus the active segment's unsealed bytes — the tail a crash right
// now would lose for that follower. A sealed segment never changes, so
// its size is read from disk the first time it is seen and remembered
// until compaction prunes it: a status or metrics read between rotations
// touches no file.
func (r *replicator) lag() map[string]replLag {
	store := r.n.cfg.Store
	sealed := store.SealedSegmentSeqs()
	active := store.ActiveSegmentBytes()
	out := make(map[string]replLag)
	r.mu.Lock()
	defer r.mu.Unlock()
	sizes := make(map[uint64]int64, len(sealed))
	for _, seq := range sealed {
		sz, known := r.sizes[seq]
		if !known {
			var err error
			if sz, err = statFile(persist.SegmentFilePath(r.n.cfg.StateDir, seq)); err != nil {
				continue
			}
		}
		sizes[seq] = sz
	}
	r.sizes = sizes
	for _, id := range r.n.full.Followers(r.n.cfg.Self.ID) {
		l := replLag{bytes: active, shipped: r.count[id]}
		for _, seq := range sealed {
			if !r.shipped[id][seq] {
				l.segments++
				l.bytes += sizes[seq]
			}
		}
		out[id] = l
	}
	return out
}
