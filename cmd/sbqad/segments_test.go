package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"sbqa"
	"sbqa/internal/cluster"
)

// TestSegmentsEndpointChecksOrigin: segments used to arrive on their own
// route, whose origin parameter was joined into a path unchecked — ".."
// listed the node's own journal, "../.." whatever lay above the state dir, a
// non-directory answered 500 with the joined path. They now ride the link a
// peer opens on the daemon's forward route, and the sender's ID that names
// their directory is held to ring membership at the upgrade: a hostile one is
// a 400 before the connection is taken over and leaves nothing on disk, while
// a real peer's segments are refused or stored as before.
func TestSegmentsEndpointChecksOrigin(t *testing.T) {
	// Everything lives under root, laid out so that every escape from the
	// replica dir has something to find: the node's own journal one level up
	// (root/state), and a segment-shaped decoy two levels up (root/wal-…).
	root := t.TempDir()
	stateDir := filepath.Join(root, "state")
	replica := filepath.Join(stateDir, "replica")

	// A throwaway engine's journal is the valid segment: closing it seals
	// and syncs wal-<seq>.wal.
	donorDir := t.TempDir()
	capacity := sbqa.WithPolicy(sbqa.PolicySpec{Kind: sbqa.PolicyCapacity})
	donor, err := newGateway(capacity, sbqa.WithPersistence(donorDir, sbqa.PersistSyncEvery(1)))
	if err != nil {
		t.Fatal(err)
	}
	donor.close()
	wals, _ := filepath.Glob(filepath.Join(donorDir, "wal-*.wal"))
	if len(wals) == 0 {
		t.Fatal("donor engine left no journal segment")
	}
	segment, err := os.ReadFile(wals[0])
	if err != nil {
		t.Fatal(err)
	}
	decoy := filepath.Base(wals[0])
	seq, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(decoy, "wal-"), ".wal"), 16, 64)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, decoy), segment, 0o644); err != nil {
		t.Fatal(err)
	}

	// The daemon n0; its only peer n1 is a stub as far as n0's own links go.
	g := newGatewayShell()
	srv := httptest.NewServer(g.handler())
	t.Cleanup(srv.Close)
	err = g.init(&clusterSettings{
		nodeID:            "n0",
		peers:             []sbqa.ClusterPeer{{ID: "n1", Addr: "http://n1.test"}},
		heartbeatInterval: time.Hour, // one probe at start, then quiet
		heartbeatTimeout:  time.Second,
		replicateInterval: time.Hour,
		stateDir:          stateDir,
		dial:              (&stubPeer{}).dial,
	}, capacity, sbqa.WithConcurrency(1), sbqa.WithPersistence(stateDir, sbqa.PersistSyncEvery(1)))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.close)

	// stored holds the files under the replica dir to what was accepted.
	accepted := map[uint64]bool{}
	stored := func(what string) {
		t.Helper()
		var want, got []string
		for n := range accepted {
			want = append(want, filepath.Join("n1", fmt.Sprintf("wal-%016x.wal", n)))
		}
		err := filepath.WalkDir(replica, func(path string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() {
				rel, _ := filepath.Rel(replica, path)
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
			t.Fatalf("%s: files under the replica dir = %v, want %v", what, got, want)
		}
	}

	hostile := []string{
		"..", "../..", root, stateDir, "", "n0", "stranger",
		"n1/..", "n1/../..", "./n1", "n1/", "n1\x00", "../replica/n1",
		"../../" + decoy, // a non-directory used to answer 500 with the joined path
	}
	for _, origin := range hostile {
		// A recorder cannot be hijacked: a 400 here was written before any
		// attempt to.
		req := httptest.NewRequest(http.MethodGet, sbqa.ClusterForwardPath, nil)
		req.Header.Set("Connection", "Upgrade")
		req.Header.Set("Upgrade", "sbqa-link/2")
		req.Header[sbqa.ClusterForwardedFromHeader] = []string{origin}
		rec := httptest.NewRecorder()
		g.handler().ServeHTTP(rec, req)
		what := fmt.Sprintf("a link from %q", origin)
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "unknown node") {
			t.Errorf("%s: status %d (%s), want the unknown-node 400", what, rec.Code, strings.TrimSpace(rec.Body.String()))
		}
		if strings.Contains(rec.Body.String(), root) && !strings.Contains(origin, root) {
			t.Errorf("%s: a filesystem path in the body: %s", what, rec.Body)
		}
		stored(what)
	}

	// The real n1, over a real link to the daemon.
	n1, err := sbqa.NewClusterNode(sbqa.ClusterConfig{
		Self:             sbqa.ClusterPeer{ID: "n1"},
		Peers:            []sbqa.ClusterPeer{{ID: "n0", Addr: srv.URL}},
		HeartbeatTimeout: 2 * time.Second, // the dial's bound
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n1.Close)
	call := func(kind cluster.FrameKind, body []byte) (int, string) {
		t.Helper()
		c, err := n1.Forward(context.Background(), sbqa.ClusterPeer{ID: "n0", Addr: srv.URL}, kind, sbqa.TraceContext{}, body)
		if err != nil {
			t.Fatalf("n1's link to the daemon: %v", err)
		}
		defer c.Release()
		if c.Status >= 500 || strings.Contains(string(c.Body), root) {
			t.Fatalf("kind %d: status %d (%s), want no 5xx and no path", kind, c.Status, c.Body)
		}
		return c.Status, string(c.Body)
	}
	held := func() (seqs []uint64) {
		t.Helper()
		status, body := call(cluster.FrameHeld, nil)
		if status != http.StatusOK || len(body)%8 != 0 {
			t.Fatalf("inventory of n1: status %d (%q)", status, body)
		}
		for b := []byte(body); len(b) >= 8; b = b[8:] {
			seqs = append(seqs, binary.BigEndian.Uint64(b))
		}
		return seqs
	}
	// chunk is the whole of data as one segment chunk: seq, offset 0, last.
	chunk := func(data []byte) []byte {
		body := binary.BigEndian.AppendUint64(nil, seq)
		body = binary.BigEndian.AppendUint64(body, 0)
		return append(append(body, 1), data...)
	}

	if got := held(); len(got) != 0 {
		t.Fatalf("n1 holds %v before anything was shipped", got)
	}
	status, body := call(cluster.FrameSegment, chunk(segment[:len(segment)-1]))
	if status != http.StatusBadRequest || !strings.Contains(body, fmt.Sprintf(`segment %d from "n1"`, seq)) {
		t.Errorf("torn segment: status %d (%s), want a 400 naming origin and seq", status, body)
	}
	stored("after a torn segment")
	if status, body := call(cluster.FrameSegment, chunk(segment)); status != http.StatusOK {
		t.Fatalf("valid segment from a ring member: status %d (%s)", status, body)
	}
	accepted[seq] = true
	stored("after a valid segment")
	if got := held(); len(got) != 1 || got[0] != seq {
		t.Errorf("n1 holds %v, want [%d]", got, seq)
	}
}
