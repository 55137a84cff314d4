package cluster

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"sbqa/internal/model"
	"sbqa/internal/persist"
)

// replicator ships the local journal's sealed segments to this node's
// ring followers. Each tick it rotates the active segment if it holds
// records (bounding loss to ReplicateInterval of traffic plus whatever
// the last rotation missed), then sends every sealed segment a live
// follower does not yet hold, as FrameSegment chunks on the link to it.
// Shipping is idempotent and resumable: the shipped-set is seeded from the
// follower's own inventory (FrameHeld) whenever the link to it is new, so
// an owner restart never re-ships more than it must, and a follower that
// restarted with less than it had — a wiped or torn replica directory — is
// sent what it lost.
type replicator struct {
	n *Node

	mu      sync.Mutex
	shipped map[string]map[uint64]bool // follower ID -> segment seqs confirmed held
	seeded  map[string]*link           // follower ID -> the link its shipped-set was seeded over
	count   map[string]uint64          // follower ID -> segments shipped by this process
	sizes   map[uint64]int64           // sealed segment seq -> bytes; a sealed segment is sized once

	buf []byte // one chunk's body; the loop's alone
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
		seeded:  make(map[string]*link),
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
// Down followers keep their shipped-set until the next link to them.
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
	ctx, cancel := context.WithTimeout(r.n.links.ctx, 2*r.n.cfg.ReplicateInterval+5*time.Second)
	defer cancel()
	l, err := r.n.linkTo(p)
	if err != nil {
		return // closing
	}
	r.mu.Lock()
	if r.seeded[p.ID] != l {
		r.mu.Unlock()
		held, err := r.held(ctx, p)
		if err != nil {
			r.n.cfg.Logf("cluster: seeding shipped set from %s: %v", p.ID, err)
			return
		}
		r.mu.Lock()
		r.shipped[p.ID], r.seeded[p.ID] = held, l
	}
	set := r.shipped[p.ID]
	var todo []uint64
	for _, seq := range sealed {
		if !set[seq] {
			todo = append(todo, seq)
		}
	}
	r.mu.Unlock()

	for _, seq := range todo {
		if err := r.ship(ctx, p, seq); err != nil {
			r.n.cfg.Logf("cluster: shipping segment %d to %s: %v", seq, p.ID, err)
			return
		}
		r.mu.Lock()
		set[seq] = true
		r.count[p.ID]++
		r.mu.Unlock()
	}
}

// held asks p which of this node's segments it holds.
func (r *replicator) held(ctx context.Context, p Peer) (map[uint64]bool, error) {
	call, err := r.n.Forward(ctx, p, FrameHeld, model.TraceContext{}, nil)
	if err != nil {
		return nil, err
	}
	defer call.Release()
	if call.Status != http.StatusOK || len(call.Body)%8 != 0 {
		return nil, fmt.Errorf("held segments: status %d: %s", call.Status, call.Body)
	}
	set := make(map[uint64]bool, len(call.Body)/8)
	for b := call.Body; len(b) > 0; b = b[8:] {
		set[binary.BigEndian.Uint64(b)] = true
	}
	return set, nil
}

// ship sends sealed segment seq to p one chunk per call, so a forward on the
// same link waits behind one chunk at most. A 200 to the last chunk means
// the follower validated the whole segment and made it durable.
func (r *replicator) ship(ctx context.Context, p Peer, seq uint64) error {
	rc, size, err := r.n.cfg.Store.OpenSealedSegment(seq)
	if err != nil {
		return err // the sealed set moved under us (compaction); next tick re-lists
	}
	defer rc.Close()
	if r.buf == nil {
		r.buf = make([]byte, chunkHeaderLen+segmentChunk)
	}
	for off := int64(0); ; {
		n := min(int64(segmentChunk), size-off)
		body := r.buf[:chunkHeaderLen+n]
		putChunkHeader(body, seq, uint64(off), off+n == size)
		if _, err := io.ReadFull(rc, body[chunkHeaderLen:]); err != nil {
			return err
		}
		call, err := r.n.Forward(ctx, p, FrameSegment, model.TraceContext{}, body)
		if err != nil {
			return err
		}
		if call.Status != http.StatusOK {
			err = fmt.Errorf("chunk at offset %d: status %d: %s", off, call.Status, call.Body)
		}
		call.Release()
		if off += n; err != nil || off == size {
			return err
		}
	}
}

// putChunkHeader writes a segment chunk's seq, offset and last flag into
// the front of body.
func putChunkHeader(body []byte, seq, offset uint64, last bool) {
	binary.BigEndian.PutUint64(body, seq)
	binary.BigEndian.PutUint64(body[8:], offset)
	body[16] = 0
	if last {
		body[16] = 1
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

// The receiving half. The origin of every segment request is the sender of
// the link it came on, which AcceptLink held to the ring before the link
// existed: no name from the network becomes a path here unchecked.

// serveHeld answers a FrameHeld: the seqs of origin's segments held here.
func (n *Node) serveHeld(origin string, reply *Frame) {
	seqs, err := n.heldSegments(origin)
	if err != nil {
		n.cfg.Logf("cluster: listing the segments held for %s: %v", origin, err)
		reply.Status = http.StatusInternalServerError
		return
	}
	reply.Status = http.StatusOK
	for _, seq := range seqs {
		reply.Body = binary.BigEndian.AppendUint64(reply.Body, seq)
	}
}

// heldSegments lists the replicated segment seqs stored for origin.
func (n *Node) heldSegments(origin string) ([]uint64, error) {
	if n.replicaDir == "" {
		return nil, nil
	}
	return persist.ScanSegmentDir(filepath.Join(n.replicaDir, origin))
}

// serveSegment answers a FrameSegment: it lands the chunk in body (as
// putChunkHeader lays it out) in origin's replica directory — see
// persist.LandSegmentChunk for the transfer rules — and answers 200; 400,
// naming origin and seq, for a chunk at fault; 500 when this node's own disk
// fails it, the cause, which names local paths, going to the log.
func (n *Node) serveSegment(origin string, body []byte, reply *Frame) {
	reply.Status = http.StatusBadRequest
	switch {
	case n.replicaDir == "":
		reply.Body = append(reply.Body, "cluster: this node keeps no replicas"...)
		return
	case len(body) < chunkHeaderLen:
		reply.Body = fmt.Appendf(reply.Body, "cluster: a %d-byte segment chunk from %q", len(body), origin)
		return
	}
	seq, last := binary.BigEndian.Uint64(body), body[16] != 0
	n.replicaMu.Lock()
	refused, err := persist.LandSegmentChunk(filepath.Join(n.replicaDir, origin), seq, binary.BigEndian.Uint64(body[8:]), body[chunkHeaderLen:], last)
	n.replicasRead = n.replicasRead && !last
	n.replicaMu.Unlock()
	switch {
	case err != nil:
		n.cfg.Logf("cluster: storing segment %d from %s: %v", seq, origin, err)
		reply.Status = http.StatusInternalServerError
		reply.Body = append(reply.Body, "storing the segment failed on this node"...)
	case refused != nil:
		reply.Body = fmt.Appendf(reply.Body, "cluster: segment %d from %q: %v", seq, origin, refused)
	default:
		reply.Status = http.StatusOK
	}
}

// statFile returns a file's size, for lag and replica accounting.
func statFile(path string) (int64, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}
