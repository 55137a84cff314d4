package cluster

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"sbqa/internal/model"
	"sbqa/internal/persist"
)

// sealedSegment journals one outcome per consumer and returns the sealed
// segment's seq and bytes.
func sealedSegment(t testing.TB, consumers []model.ConsumerID) (uint64, []byte) {
	t.Helper()
	dir := t.TempDir()
	store, _ := newStoreWithRecords(t, dir, consumers)
	defer store.Close()
	if _, err := store.RotateIfDirty(); err != nil {
		t.Fatal(err)
	}
	seq := store.SealedSegmentSeqs()[0]
	data, err := os.ReadFile(persist.SegmentFilePath(dir, seq))
	if err != nil {
		t.Fatal(err)
	}
	return seq, data
}

// chunkBody is a FrameSegment body as the replicator lays it out.
func chunkBody(seq, offset uint64, last bool, data []byte) []byte {
	body := make([]byte, chunkHeaderLen, chunkHeaderLen+len(data))
	putChunkHeader(body, seq, offset, last)
	return append(body, data...)
}

// land hands n one chunk from origin and returns its answer.
func land(n *Node, origin string, body []byte) (status int, msg string) {
	var reply Frame
	n.serveSegment(origin, body, &reply)
	return reply.Status, string(reply.Body)
}

// landWhole hands n segment seq from origin in chunks of size bytes, in
// order, and returns the answer to the first chunk refused or the last.
func landWhole(n *Node, origin string, seq uint64, data []byte, size int) (status int, msg string) {
	for off := 0; ; off += size {
		end := min(off+size, len(data))
		status, msg = land(n, origin, chunkBody(seq, uint64(off), end == len(data), data[off:end]))
		if status != http.StatusOK || end == len(data) {
			return status, msg
		}
	}
}

// n0 is the receiving node of the tests that ship from a member n1.
var n0 = Peer{ID: "n0", Addr: "http://n0.test"}

// newReceiver builds node n0 with its state under stateDir, serving member
// n1's links on mn.
func newReceiver(t testing.TB, mn *memNet, stateDir string) *Node {
	cfg := fastConfig(Peer{ID: "n0"}, Peer{ID: "n1", Addr: "http://n1.test"})
	cfg.StateDir = stateDir
	n := newNode(t, cfg)
	mn.serveNode(t, n)
	return n
}

// newSender builds node n1, whose links to n0 run on mn.
func newSender(t testing.TB, mn *memNet) *Node {
	cfg := fastConfig(Peer{ID: "n1"}, n0)
	cfg.Dial = mn.dial
	cfg.HeartbeatTimeout = 2 * time.Second // the dial's bound; -race on a busy box is slow
	return newNode(t, cfg)
}

// TestAcceptSegmentValidation: a chunk too short to parse, chunks out of
// order, torn bodies, wrong seqs and bad magic are refused — 400, in words
// that name origin and seq and no local path — and leave nothing behind; a
// segment landed in many chunks is the sender's byte for byte; and
// re-shipping it is a quiet success.
func TestAcceptSegmentValidation(t *testing.T) {
	seq, data := sealedSegment(t, []model.ConsumerID{1, 2, 3})
	cfg := fastConfig(Peer{ID: "b"}, Peer{ID: "a", Addr: "http://a.test"})
	cfg.StateDir = t.TempDir()
	n := newNode(t, cfg)
	dir := filepath.Join(n.replicaDir, "a")

	for _, tc := range []struct {
		what   string
		chunks [][]byte
	}{
		{"a chunk too short to say what it is", [][]byte{make([]byte, chunkHeaderLen-1)}},
		{"a first chunk not at offset 0", [][]byte{chunkBody(seq, 5, true, data[5:])}},
		{"a gap mid-transfer", [][]byte{chunkBody(seq, 0, false, data[:10]), chunkBody(seq, 11, true, data[11:])}},
		{"an overlap mid-transfer", [][]byte{chunkBody(seq, 0, false, data[:10]), chunkBody(seq, 9, true, data[9:])}},
		{"a segment whose header seq disagrees with the transfer", [][]byte{chunkBody(seq+9, 0, true, data)}},
		{"a torn segment", [][]byte{chunkBody(seq, 0, true, data[:len(data)-2])}},
		{"a segment with the wrong magic", [][]byte{chunkBody(seq, 0, true, append([]byte("NOTAWAL!"), data[8:]...))}},
	} {
		status, msg := http.StatusOK, ""
		for _, c := range tc.chunks {
			if status, msg = land(n, "a", c); status != http.StatusOK {
				break
			}
		}
		if status != http.StatusBadRequest || !strings.Contains(msg, `"a"`) || strings.Contains(msg, cfg.StateDir) {
			t.Errorf("%s: %d %q, want a 400 that names the origin and no local path", tc.what, status, msg)
		}
		if entries, _ := os.ReadDir(dir); len(entries) != 0 {
			t.Fatalf("%s: left %v behind", tc.what, entries)
		}
	}

	if status, msg := landWhole(n, "a", seq, data, 7); status != http.StatusOK {
		t.Fatal(status, msg)
	}
	if got, err := os.ReadFile(persist.SegmentFilePath(dir, seq)); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("segment landed in 7-byte chunks differs from the sender's (%v)", err)
	}
	if status, msg := landWhole(n, "a", seq, data, segmentChunk); status != http.StatusOK {
		t.Fatalf("re-ship of held segment = %d %q, want idempotent success", status, msg)
	}
	held, _ := n.heldSegments("a")
	if len(held) != 1 || held[0] != seq {
		t.Fatalf("held = %v, want [%d]", held, seq)
	}
}

// TestSegmentUploadDiskFailureIs500: a good segment this node cannot store
// (a file sits where n1's replica directory would go) is the node's
// failure, not the sender's: the reply is a 500 that names no path — it
// used to be a 400 that carried one.
func TestSegmentUploadDiskFailureIs500(t *testing.T) {
	seq, data := sealedSegment(t, []model.ConsumerID{1})
	root := t.TempDir()
	mn := newMemNet()
	receiver := newReceiver(t, mn, root)
	if err := os.MkdirAll(receiver.replicaDir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(receiver.replicaDir, "n1"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	call, err := newSender(t, mn).Forward(context.Background(), n0, FrameSegment, model.TraceContext{}, chunkBody(seq, 0, true, data))
	if err != nil {
		t.Fatal(err)
	}
	defer call.Release()
	if call.Status != http.StatusInternalServerError || bytes.Contains(call.Body, []byte(root)) {
		t.Fatalf("status %d (%s), want a 500 that names no path", call.Status, call.Body)
	}
}

// TestFollowerRestartIsReshipped: a follower that comes back with less than
// it had — its replica directory wiped — is re-seeded over the new link to
// it and sent the whole sealed set again. The shipped-set used to be seeded
// once per process: the origin believed the segments shipped and sent
// nothing until it restarted itself.
func TestFollowerRestartIsReshipped(t *testing.T) {
	ownerDir, followerDir := t.TempDir(), t.TempDir()
	store, _ := newStoreWithRecords(t, ownerDir, []model.ConsumerID{1, 2, 3})
	defer store.Close()
	if _, err := store.RotateIfDirty(); err != nil {
		t.Fatal(err)
	}
	if err := store.Append(outcome(4, 4)); err != nil { // the second segment, sealed by the replicator
		t.Fatal(err)
	}

	mn := newMemNet()
	fCfg := fastConfig(Peer{ID: "b"}, Peer{ID: "a", Addr: "http://a.test"})
	fCfg.StateDir = followerDir
	follower := newNode(t, fCfg)
	mn.serveNode(t, follower)
	oCfg := fastConfig(Peer{ID: "a"}, Peer{ID: "b", Addr: "http://b.test"})
	oCfg.StateDir, oCfg.Store, oCfg.Dial = ownerDir, store, mn.dial
	newNode(t, oCfg).Start()

	shippedAll := func() bool {
		held, _ := follower.heldSegments("a")
		sealed := store.SealedSegmentSeqs()
		return len(sealed) == 2 && fmt.Sprint(held) == fmt.Sprint(sealed)
	}
	waitFor(t, "both segments shipped", shippedAll)

	mn.down("b")
	follower.Close()
	if err := os.RemoveAll(filepath.Join(followerDir, "replica")); err != nil {
		t.Fatal(err)
	}
	follower = newNode(t, fCfg)
	mn.serveNode(t, follower)
	waitFor(t, "the whole sealed set re-shipped to the restarted follower", shippedAll)
}

// segmentStream is a run of FrameSegment bodies as FuzzSegmentFrames reads
// them: each a 2-byte big-endian length and the body.
func segmentStream(bodies ...[]byte) []byte {
	var out []byte
	for _, b := range bodies {
		out = binary.BigEndian.AppendUint16(out, uint16(len(b)))
		out = append(out, b...)
	}
	return out
}

// FuzzSegmentFrames sends arbitrary runs of segment chunks — seq, offset,
// last flag and bytes, laid out as the replicator sends them — from member
// n1 to node n0 over a real link, and holds n0 to what must be true
// whatever a peer ships: no panic; no 5xx, n0's disk being sound; no path
// of n0's in any reply; after a refused or last chunk, nothing under the
// replica directory but the segments accepted; and FrameHeld lists exactly
// those. Each input starts from an empty replica directory.
func FuzzSegmentFrames(f *testing.F) {
	seq, seg := sealedSegment(f, []model.ConsumerID{1, 2, 3})
	k := len(seg) / 3
	c := chunkBody
	whole := c(seq, 0, true, seg)
	for _, seed := range [][][]byte{
		{whole},
		{c(seq, 0, false, seg[:k]), c(seq, uint64(k), true, seg[k:])},
		{c(seq, 0, false, seg[:k]), c(seq, uint64(k), false, seg[k:2*k]), c(seq, uint64(2*k), true, seg[2*k:])},
		{c(seq, 0, true, seg[:len(seg)-1])},                                                        // torn
		{c(seq+1, 0, true, seg)},                                                                   // header seq disagrees
		{c(seq, 0, false, seg[:k]), c(seq, uint64(k+1), true, seg[k+1:])},                          // gap
		{c(seq, 0, false, seg[:k]), c(seq, uint64(k-1), true, seg[k-1:])},                          // overlap
		{c(seq, 5, true, seg[5:])},                                                                 // first chunk not at 0
		{c(seq, 0, false, seg[:k]), c(seq, 0, true, seg)},                                          // restarted transfer
		{c(seq, 0, false, seg[:k]), c(seq+1, 0, false, seg[:k]), c(seq, uint64(k), true, seg[k:])}, // interleaved
		{make([]byte, chunkHeaderLen-1)},                                                           // too short to be a chunk
		{nil},
		{c(seq, 0, true, nil)},
		{c(seq, 1<<62, true, seg)},
		{c(seq, 0, true, append([]byte("NOTAWAL!"), seg[8:]...))},
		{whole, whole},                       // re-ship
		{c(seq+1, 0, false, seg[:k]), whole}, // a transfer left open
		{c(seq, 0, true, make([]byte, len(seg)))},
		{c(seq, ^uint64(0), false, seg[:1])},
		{c(seq, 0, false, seg[:k])},
	} {
		f.Add(segmentStream(seed...))
	}
	f.Add([]byte("GET /v1/internal/forward HTTP/1.1\r\n\r\n"))

	root := f.TempDir()
	mn := newMemNet()
	receiver := newReceiver(f, mn, filepath.Join(root, "state"))
	sender := newSender(f, mn)
	replicaDir := receiver.replicaDir
	call := func(t *testing.T, kind FrameKind, body []byte) (int, []byte) {
		t.Helper()
		c, err := sender.Forward(context.Background(), n0, kind, model.TraceContext{}, body)
		if err != nil {
			t.Fatalf("the link failed: %v", err)
		}
		defer c.Release()
		if c.Status >= 500 || bytes.Contains(c.Body, []byte(root)) {
			t.Fatalf("kind %d: status %d (%s), want no 5xx and no path of n0's", kind, c.Status, c.Body)
		}
		return c.Status, bytes.Clone(c.Body)
	}

	f.Fuzz(func(t *testing.T, stream []byte) {
		if err := os.RemoveAll(replicaDir); err != nil {
			t.Fatal(err)
		}
		accepted := map[uint64]bool{}
		for len(stream) >= 2 {
			n := int(binary.BigEndian.Uint16(stream))
			body := stream[2:min(2+n, len(stream))]
			stream = stream[2+len(body):]
			status, msg := call(t, FrameSegment, body)
			if len(body) < chunkHeaderLen {
				if status != http.StatusBadRequest {
					t.Fatalf("a %d-byte body answered %d (%s)", len(body), status, msg)
				}
				continue
			}
			last := body[16] != 0
			if status == http.StatusOK && last {
				accepted[binary.BigEndian.Uint64(body)] = true
			}
			if status == http.StatusOK && !last {
				continue // a transfer in progress may leave its incoming file
			}
			var want, got []string
			for seq := range accepted {
				want = append(want, persist.SegmentFilePath("n1", seq))
			}
			err := filepath.WalkDir(replicaDir, func(path string, d fs.DirEntry, err error) error {
				if err == nil && !d.IsDir() {
					rel, _ := filepath.Rel(replicaDir, path)
					got = append(got, rel)
				}
				return err
			})
			if err != nil && !os.IsNotExist(err) {
				t.Fatal(err)
			}
			sort.Strings(want)
			sort.Strings(got)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("after a chunk answered %d (%s): files %v, want %v", status, msg, got, want)
			}
		}
		_, inventory := call(t, FrameHeld, nil)
		held := map[uint64]bool{}
		for b := inventory; len(b) >= 8; b = b[8:] {
			held[binary.BigEndian.Uint64(b)] = true
		}
		if len(inventory)%8 != 0 || fmt.Sprint(held) != fmt.Sprint(accepted) {
			t.Fatalf("FrameHeld lists %v, accepted %v", held, accepted)
		}
	})
}
