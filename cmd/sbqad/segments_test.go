package main

import (
	"encoding/json"
	"fmt"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"net/url"
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

// segmentsFixture is one cluster gateway "n0" whose only peer "n1" is a
// stub that answers heartbeats, on a state dir laid out so that every
// escape from ReplicaDir has something to find: the node's own journal one
// level up (root/state), and a segment-shaped decoy two levels up
// (root/wal-…, what origin=../.. would list).
type segmentsFixture struct {
	h        http.Handler
	root     string // the temp dir everything lives under
	replica  string // root/state/replica
	segment  []byte // a valid journal segment…
	seq      uint64 // …and the sequence number in its header
	decoy    string // the segment's file name; a copy sits at root/decoy
	accepted map[uint64]bool
}

func newSegmentsFixture(t testing.TB) *segmentsFixture {
	t.Helper()
	fx := &segmentsFixture{root: t.TempDir(), accepted: map[uint64]bool{}}
	stateDir := filepath.Join(fx.root, "state")
	fx.replica = filepath.Join(stateDir, "replica")

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
	if fx.segment, err = os.ReadFile(wals[0]); err != nil {
		t.Fatal(err)
	}
	fx.decoy = filepath.Base(wals[0])
	hexSeq := strings.TrimSuffix(strings.TrimPrefix(fx.decoy, "wal-"), ".wal")
	if fx.seq, err = strconv.ParseUint(hexSeq, 16, 64); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(fx.root, fx.decoy), fx.segment, 0o644); err != nil {
		t.Fatal(err)
	}

	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != cluster.HealthzPath {
			http.NotFound(w, r)
		}
	}))
	t.Cleanup(peer.Close)
	g := newGatewayShell()
	err = g.init(&clusterSettings{
		nodeID:            "n0",
		peers:             []sbqa.ClusterPeer{{ID: "n1", Addr: peer.URL}},
		heartbeatInterval: time.Hour, // one probe at start, then quiet
		heartbeatTimeout:  time.Second,
		replicateInterval: time.Hour,
		stateDir:          stateDir,
	}, capacity, sbqa.WithConcurrency(1), sbqa.WithPersistence(stateDir, sbqa.PersistSyncEvery(1)))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.close)
	fx.h = g.handler()
	return fx
}

// call sends one segments request and holds the answer to what must be true
// of every origin, seq and body: no panic (the recorder would not return),
// no 5xx, 400 unless the origin is the ring member n1, no filesystem path in
// any body but the origin itself, quoted back — a ring member's rejected
// upload used to be answered with the node's incoming-*.tmp path — and on
// disk nothing under ReplicaDir but the segments accepted for n1: a refused
// upload leaves nothing behind.
func (fx *segmentsFixture) call(t *testing.T, method, origin, seq string, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	target := sbqa.ClusterSegmentsPath + "?origin=" + url.QueryEscape(origin) + "&seq=" + url.QueryEscape(seq)
	rec := handle(fx.h, method, target, body)
	what := fmt.Sprintf("%s origin=%q seq=%q", method, origin, seq)
	if rec.Code >= 500 {
		t.Fatalf("%s: status %d (%s)", what, rec.Code, rec.Body)
	}
	if origin != "n1" && rec.Code != http.StatusBadRequest {
		t.Fatalf("%s: status %d (%s), want 400 for an origin that is no other ring member", what, rec.Code, rec.Body)
	}
	if strings.Contains(rec.Body.String(), fx.root) && !strings.Contains(origin, fx.root) {
		t.Fatalf("%s: a filesystem path in the body: %s", what, rec.Body)
	}
	if method == http.MethodPost && rec.Code == http.StatusOK {
		n, _ := strconv.ParseUint(seq, 10, 64)
		fx.accepted[n] = true
	}
	var want []string
	for n := range fx.accepted {
		want = append(want, filepath.Join("n1", fmt.Sprintf("wal-%016x.wal", n)))
	}
	var got []string
	err := filepath.WalkDir(fx.replica, func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			rel, _ := filepath.Rel(fx.replica, path)
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
	return rec
}

// held reads n1's inventory through the endpoint.
func (fx *segmentsFixture) held(t *testing.T) []uint64 {
	t.Helper()
	rec := fx.call(t, http.MethodGet, "n1", "", nil)
	var out struct {
		Seqs []uint64 `json:"seqs"`
	}
	if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &out) != nil {
		t.Fatalf("inventory of n1: status %d (%s)", rec.Code, rec.Body)
	}
	return out.Seqs
}

// TestSegmentsEndpointChecksOrigin: GET /v1/internal/segments joined its
// origin parameter into a path unchecked — ".." listed the node's own
// journal, "../.." whatever lay above the state dir, a non-directory
// answered 500 with the joined path. Both verbs now hold origin to ring
// membership; a real peer is served as before.
func TestSegmentsEndpointChecksOrigin(t *testing.T) {
	fx := newSegmentsFixture(t)
	seq := strconv.FormatUint(fx.seq, 10)
	hostile := []string{
		"..", "../..", fx.root, filepath.Join(fx.root, "state"), "", "n0", "stranger",
		"n1/..", "n1/../..", "./n1", "n1/", "n1\x00", "../replica/n1",
		"../../" + fx.decoy, // a non-directory used to answer 500 with the joined path
	}
	for _, origin := range hostile {
		for _, method := range []string{http.MethodGet, http.MethodPost} {
			rec := fx.call(t, method, origin, seq, fx.segment)
			if !strings.Contains(rec.Body.String(), "unknown origin") {
				t.Errorf("%s origin=%q: body %s, want the unknown-origin refusal", method, origin, rec.Body)
			}
		}
	}

	if got := fx.held(t); len(got) != 0 {
		t.Fatalf("n1 holds %v before anything was shipped", got)
	}
	rec := fx.call(t, http.MethodPost, "n1", seq, fx.segment[:len(fx.segment)-1])
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), `segment `+seq+` from \"n1\"`) {
		t.Errorf("torn segment: status %d (%s), want a 400 naming origin and seq", rec.Code, rec.Body)
	}
	if rec := fx.call(t, http.MethodPost, "n1", seq, fx.segment); rec.Code != http.StatusOK {
		t.Fatalf("valid segment from a ring member: status %d (%s)", rec.Code, rec.Body)
	}
	if got := fx.held(t); len(got) != 1 || got[0] != fx.seq {
		t.Errorf("n1 holds %v, want [%d]", got, fx.seq)
	}
}

// TestSegmentUploadDiskFailureIs500: a good segment this node cannot store
// (a file sits where n1's replica directory would go) is the node's failure,
// not the sender's — it was answered 400 with the path in the body.
func TestSegmentUploadDiskFailureIs500(t *testing.T) {
	fx := newSegmentsFixture(t)
	if err := os.MkdirAll(fx.replica, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(fx.replica, "n1"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	target := sbqa.ClusterSegmentsPath + "?origin=n1&seq=" + strconv.FormatUint(fx.seq, 10)
	rec := handle(fx.h, http.MethodPost, target, fx.segment)
	if rec.Code != http.StatusInternalServerError || strings.Contains(rec.Body.String(), fx.root) {
		t.Fatalf("status %d (%s), want a 500 that names no path", rec.Code, rec.Body)
	}
}

// FuzzSegmentsEndpoint throws arbitrary origins, seqs and bodies at both
// verbs of /v1/internal/segments (see segmentsFixture.call for the
// property), and checks the inventory n1 is served against what was
// accepted.
func FuzzSegmentsEndpoint(f *testing.F) {
	fx := newSegmentsFixture(f)
	seq := strconv.FormatUint(fx.seq, 10)
	for _, origin := range []string{"n1", "..", "../..", fx.root, "", "n0", "n1/../..", "n1\x00"} {
		f.Add(origin, seq, fx.segment, true)
		f.Add(origin, seq, fx.segment, false)
	}
	f.Add("n1", "-1", fx.segment, true)
	f.Add("n1", "18446744073709551616", []byte{}, true)
	f.Add("n1", seq, fx.segment[:len(fx.segment)/2], true)
	f.Add("n1", seq+"0", fx.segment, true) // header seq disagrees with the transfer
	f.Fuzz(func(t *testing.T, origin, seq string, body []byte, post bool) {
		method := http.MethodGet
		if post {
			method = http.MethodPost
		}
		fx.call(t, method, origin, seq, body)
		got := fx.held(t)
		if len(got) != len(fx.accepted) {
			t.Fatalf("n1 is served %v, accepted %v", got, fx.accepted)
		}
		for _, n := range got {
			if !fx.accepted[n] {
				t.Fatalf("n1 is served %v, accepted %v", got, fx.accepted)
			}
		}
	})
}
