package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sbqa"
	"sbqa/internal/cluster"
)

// testClusterNode is one in-process cluster member: a gateway plus its
// HTTP server, wired to its peers over loopback.
type testClusterNode struct {
	id  string
	g   *gateway
	srv *httptest.Server
	dir string // state dir; "" when the cluster runs without persistence
}

// startTestCluster boots n gateways into one cluster with fast
// heartbeat/replication cadences. With withState each node persists to
// its own temp dir with per-outcome fsync, so every mediation outcome is
// in the journal before the response returns.
func startTestCluster(t testing.TB, n int, withState bool, opts ...sbqa.EngineOption) []*testClusterNode {
	t.Helper()
	return startTestClusterDial(t, n, withState, nil, opts...)
}

// peerDial opens the connection a peer link runs on.
type peerDial = func(context.Context, sbqa.ClusterPeer) (net.Conn, error)

// startTestClusterDial is startTestCluster with each node's peer links
// opened through dialFrom(its ID) (nil: the real dial).
func startTestClusterDial(t testing.TB, n int, withState bool, dialFrom func(self string) peerDial, opts ...sbqa.EngineOption) []*testClusterNode {
	t.Helper()
	nodes := make([]*testClusterNode, n)
	for i := range nodes {
		nodes[i] = &testClusterNode{id: fmt.Sprintf("n%d", i), g: newGatewayShell()}
		// The server can start before init: the handler resolves the
		// engine and cluster node per request, exactly like the daemon's
		// bind-before-restore boot.
		nodes[i].srv = httptest.NewServer(nodes[i].g.handler())
		t.Cleanup(nodes[i].srv.Close)
	}
	for i, cn := range nodes {
		var peers []sbqa.ClusterPeer
		for j, other := range nodes {
			if j != i {
				peers = append(peers, sbqa.ClusterPeer{ID: other.id, Addr: other.srv.URL})
			}
		}
		cs := &clusterSettings{
			nodeID:            cn.id,
			peers:             peers,
			heartbeatInterval: 20 * time.Millisecond,
			heartbeatTimeout:  250 * time.Millisecond,
			replicateInterval: 20 * time.Millisecond,
		}
		if dialFrom != nil {
			cs.dial = dialFrom(cn.id)
		}
		o := append([]sbqa.EngineOption{}, opts...)
		if withState {
			cn.dir = t.TempDir()
			cs.stateDir = cn.dir
			o = append(o, sbqa.WithPersistence(cn.dir, sbqa.PersistSyncEvery(1)))
		}
		if err := cn.g.init(cs, o...); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(cn.g.close)
	}
	return nodes
}

// deterministicOpts pins the engine to one shard and a fixed-seed SbQA
// allocator so two engines fed identical traffic allocate identically.
func deterministicOpts() []sbqa.EngineOption {
	return []sbqa.EngineOption{
		sbqa.WithWindow(50),
		sbqa.WithConcurrency(1),
		sbqa.WithPolicy(sbqa.PolicySpec{Kind: sbqa.PolicySbQA, K: 4, Kn: 1, Seed: 7}),
	}
}

// deterministicQoSOpts is deterministicOpts with spec as the qos block of
// the same allocator's policy — the way a QoS spec reaches sbqad's engine.
func deterministicQoSOpts(spec sbqa.QoSSpec) []sbqa.EngineOption {
	return []sbqa.EngineOption{
		sbqa.WithWindow(50),
		sbqa.WithConcurrency(1),
		sbqa.WithPolicy(sbqa.PolicySpec{Kind: sbqa.PolicySbQA, K: 4, Kn: 1, Seed: 7, QoS: &spec}),
	}
}

// registerWorkers installs the same three constant-intention workers.
func registerWorkers(t testing.TB, baseURL string) {
	t.Helper()
	for id := 1; id <= 3; id++ {
		resp := postJSON(t, baseURL+"/v1/workers", workerRequest{
			ID: id, Capacity: 100, Intention: 0.2 * float64(id),
		}, nil)
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("register worker %d: %d", id, resp.StatusCode)
		}
	}
}

// ownerIndex resolves which cluster node owns consumer c right now.
func ownerIndex(t testing.TB, nodes []*testClusterNode, c int) int {
	t.Helper()
	owner, self, _ := nodes[0].g.node.Route(sbqa.ConsumerID(c))
	if self {
		return 0
	}
	for i, cn := range nodes {
		if cn.id == owner.ID {
			return i
		}
	}
	t.Fatalf("consumer %d owned by unknown node %q", c, owner.ID)
	return -1
}

// consumerOwnedBy finds a consumer ID the given node owns, searching up
// from `from` (so distinct calls can yield distinct consumers).
func consumerOwnedBy(t testing.TB, nodes []*testClusterNode, idx, from int) int {
	t.Helper()
	for c := from; c < from+10_000; c++ {
		if ownerIndex(t, nodes, c) == idx {
			return c
		}
	}
	t.Fatalf("no consumer owned by %s in [%d,%d)", nodes[idx].id, from, from+10_000)
	return -1
}

// waitCondition polls until cond or the deadline.
func waitCondition(t testing.TB, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

// submitAlloc submits one query through baseURL waiting for the
// allocation and returns the response.
func submitAlloc(t testing.TB, baseURL string, consumer int) queryResponse {
	return submitWait(t, baseURL, consumer, "allocation")
}

func submitWait(t testing.TB, baseURL string, consumer int, wait string) queryResponse {
	t.Helper()
	var qr queryResponse
	resp := postJSON(t, baseURL+"/v1/queries", queryRequest{
		Consumer: consumer, N: 1, Work: 0.1, Wait: wait,
	}, &qr)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("submit consumer %d: status %d (%+v)", consumer, resp.StatusCode, qr)
	}
	return qr
}

// TestClusterForwardedSubmitMatchesSingleNode drives identical traffic
// into (a) a two-node cluster through the NON-owner gateway and (b) a
// plain single-node gateway with the same deterministic policy, and
// asserts the allocation sequences match: consistent-hash forwarding is
// transparent to the allocation process.
func TestClusterForwardedSubmitMatchesSingleNode(t *testing.T) {
	nodes := startTestCluster(t, 2, false, deterministicOpts()...)
	single, err := newGateway(deterministicOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	defer single.close()
	singleSrv := httptest.NewServer(single.handler())
	defer singleSrv.Close()

	for _, cn := range nodes {
		registerWorkers(t, cn.srv.URL)
	}
	registerWorkers(t, singleSrv.URL)

	c := consumerOwnedBy(t, nodes, 0, 100)
	entry := nodes[1] // never the owner: every request must forward
	for _, url := range []string{entry.srv.URL, singleSrv.URL} {
		resp := postJSON(t, url+"/v1/consumers", consumerRequest{ID: c, Intention: 0.9}, nil)
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("register consumer at %s: %d", url, resp.StatusCode)
		}
	}
	// Registration forwarded to the owner: it must exist there, not here.
	waitCondition(t, 5*time.Second, "consumer registered on owner", func() bool {
		return nodes[0].g.eng.Stats().Consumers == 1
	})
	if got := entry.g.eng.Stats().Consumers; got != 0 {
		t.Fatalf("non-owner registered the consumer locally (consumers=%d)", got)
	}

	// wait:"results" serializes fully: each query executes to completion
	// before the next mediates, so worker utilization — which feeds the
	// allocator's view of providers — is identical at every step in both
	// deployments.
	for i := 0; i < 8; i++ {
		clu := submitWait(t, entry.srv.URL, c, "results")
		ref := submitWait(t, singleSrv.URL, c, "results")
		if fmt.Sprint(clu.Selected) != fmt.Sprint(ref.Selected) {
			t.Fatalf("submission %d: cluster selected %v, single node %v", i, clu.Selected, ref.Selected)
		}
	}
	// The queries mediated on the owner; the entry node only forwarded.
	if m := nodes[0].g.eng.Stats().QueriesSubmitted; m != 8 {
		t.Fatalf("owner mediated %d queries, want 8", m)
	}
	if m := entry.g.eng.Stats().QueriesSubmitted; m != 0 {
		t.Fatalf("non-owner mediated %d queries, want 0", m)
	}
	if fq := entry.g.cmx.fwdQueries.Load(); fq != 8 {
		t.Fatalf("forwarded-query counter = %d, want 8", fq)
	}
	if fc := entry.g.cmx.fwdConsumers.Load(); fc != 1 {
		t.Fatalf("forwarded-consumer counter = %d, want 1", fc)
	}
}

// TestClusterForwardedHopAnswersNotOwner: a frame that arrives over a peer
// link for a consumer the receiver does not own answers a typed 503
// not_owner instead of being forwarded again (loop prevention).
func TestClusterForwardedHopAnswersNotOwner(t *testing.T) {
	nodes := startTestCluster(t, 2, false, deterministicOpts()...)
	c := consumerOwnedBy(t, nodes, 0, 0)
	entry := nodes[1]

	// A node that calls itself n0 and believes n1 owns the consumer: its
	// ring disagrees with n1's.
	n1 := sbqa.ClusterPeer{ID: entry.id, Addr: entry.srv.URL}
	sender, err := cluster.New(cluster.Config{Self: cluster.Peer{ID: "n0"}, Peers: []cluster.Peer{n1}})
	if err != nil {
		t.Fatal(err)
	}
	defer sender.Close()
	body, _ := json.Marshal(queryRequest{Consumer: c, N: 1, Wait: "allocation"})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	call, err := sender.Forward(ctx, n1, cluster.FrameQuery, sbqa.TraceContext{}, body)
	if err != nil {
		t.Fatal(err)
	}
	defer call.Release()
	if call.Status != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", call.Status)
	}
	var out struct {
		Error string `json:"error"`
		Code  string `json:"code"`
		Owner string `json:"owner"`
	}
	if err := json.Unmarshal(call.Body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Code != "not_owner" || out.Owner != "n0" || out.Error == "" {
		t.Fatalf("typed error = %+v, want code not_owner owner n0", out)
	}
	if no, fq := entry.g.cmx.notOwner.Load(), entry.g.cmx.fwdQueries.Load(); no != 1 || fq != 0 {
		t.Fatalf("not_owner counter %d, forwarded counter %d: want the frame refused once and never forwarded", no, fq)
	}
}

// linkTap is a peer link's connection at the entry node that keeps what
// crossed it: the frames as this node sent them, the owner's as they came.
type linkTap struct {
	net.Conn
	mu             sync.Mutex
	sent, received bytes.Buffer
}

func (c *linkTap) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.sent.Write(p)
	c.mu.Unlock()
	return c.Conn.Write(p)
}

func (c *linkTap) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.mu.Lock()
	c.received.Write(p[:n])
	c.mu.Unlock()
	return n, err
}

// last returns the newest forwarded request in the tapped stream and the
// owner's reply to it, decoded from what follows the Upgrade exchange's
// blank line; the heartbeats riding the same link are skipped.
func (c *linkTap) last(t *testing.T) (request, reply cluster.Frame) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	frames := func(stream []byte) (out []cluster.Frame) {
		_, rest, ok := bytes.Cut(stream, []byte("\r\n\r\n"))
		if !ok {
			t.Fatalf("no handshake in %q", stream)
		}
		for br := bufio.NewReader(bytes.NewReader(rest)); ; {
			var f cluster.Frame
			if err := f.Decode(br); err != nil {
				if err != io.EOF {
					t.Fatalf("tapped stream: %v", err)
				}
				return out
			}
			out = append(out, f)
		}
	}
	for _, f := range frames(c.sent.Bytes()) {
		if f.Kind != cluster.FramePing {
			request = f
		}
	}
	for _, f := range frames(c.received.Bytes()) {
		if f.ID == request.ID {
			reply = f
		}
	}
	return request, reply
}

// TestClusterForwardRelaysRefusalsWhole: a 429 from the owner's token
// buckets and a 503 from its scheduler reach the client of a non-owner
// node as the owner's reply frame carried them — status, body bytes and the
// Retry-After hint, under the JSON Content-Type — and forwarding sends the
// client's own bytes, members this node does not know included.
func TestClusterForwardRelaysRefusalsWhole(t *testing.T) {
	spec := sbqa.DefaultQoSSpec()
	spec.ConsumerRate = 0.001 // one query per ~17 min: the second submit must reject
	spec.ConsumerBurst = 1
	var tap atomic.Pointer[linkTap] // the entry node's link to the owner
	dialFrom := func(self string) peerDial {
		return func(ctx context.Context, p sbqa.ClusterPeer) (net.Conn, error) {
			conn, err := (&net.Dialer{}).DialContext(ctx, "tcp", strings.TrimPrefix(p.Addr, "http://"))
			if err != nil || self != "n1" || p.ID != "n0" {
				return conn, err
			}
			lt := &linkTap{Conn: conn}
			tap.Store(lt)
			return lt, nil
		}
	}
	nodes := startTestClusterDial(t, 3, false, dialFrom, deterministicQoSOpts(spec)...)
	registerWorkers(t, nodes[0].srv.URL)
	limited := consumerOwnedBy(t, nodes, 0, 0)
	shed := consumerOwnedBy(t, nodes, 0, limited+1)
	for _, c := range []int{limited, shed} {
		postJSON(t, nodes[0].srv.URL+"/v1/consumers", consumerRequest{ID: c, Intention: 0.8}, nil)
	}
	entry := nodes[1]

	post := func(body string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Post(entry.srv.URL+"/v1/queries", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		got, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, got
	}
	// The first query spends the consumer's only token and gives the
	// owner's scheduler a service time to estimate waits from. The unknown
	// member rides along to the owner, which ignores it.
	first := fmt.Sprintf(`{"consumer":%d,"n":1,"work":0.1,"from_a_newer_client":true}`, limited)
	if resp, body := post(first); resp.StatusCode != http.StatusOK {
		t.Fatalf("first forwarded submit: %d %s", resp.StatusCode, body)
	}
	if sent, _ := tap.Load().last(t); string(sent.Body) != first || sent.Kind != cluster.FrameQuery {
		t.Errorf("forwarded %q as kind %d, the client sent %q", sent.Body, sent.Kind, first)
	}
	for _, tc := range []struct {
		name, body string
		status     int
	}{
		{"rate limited", fmt.Sprintf(`{"consumer":%d,"n":1,"work":0.1}`, limited), http.StatusTooManyRequests},
		{"shed", fmt.Sprintf(`{"consumer":%d,"n":1,"work":0.1,"deadline_ms":0.00001}`, shed), http.StatusServiceUnavailable},
	} {
		resp, body := post(tc.body)
		_, owner := tap.Load().last(t)
		if resp.StatusCode != tc.status || owner.Status != tc.status {
			t.Fatalf("%s: client saw %d, owner answered %d, want %d (%s)", tc.name, resp.StatusCode, owner.Status, tc.status, body)
		}
		if ra := resp.Header.Get("Retry-After"); owner.RetryAfter < 1 || ra != strconv.Itoa(owner.RetryAfter) {
			t.Errorf("%s: Retry-After %q at the client, %d from the owner", tc.name, ra, owner.RetryAfter)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s: Content-Type %q at the client", tc.name, ct)
		}
		if !bytes.Equal(body, owner.Body) {
			t.Errorf("%s: body %q at the client, %q from the owner", tc.name, body, owner.Body)
		}
	}
}

// stubPeer is a peer that is nothing but the far end of a link, handed out
// by its dial: it takes the upgrade, answers every ping with a pong — all a
// heartbeat needs to keep it Alive — and passes every other request frame to
// onFrame, unanswered.
type stubPeer struct {
	onFrame func(*cluster.Frame)

	mu      sync.Mutex
	crashed bool
	conns   []net.Conn
}

func (s *stubPeer) dial(context.Context, sbqa.ClusterPeer) (net.Conn, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.crashed {
		return nil, errors.New("stub peer: connection refused")
	}
	ours, theirs := net.Pipe()
	s.conns = append(s.conns, theirs)
	go s.serve(theirs)
	return ours, nil
}

func (s *stubPeer) serve(conn net.Conn) {
	defer conn.Close()
	br := bufio.NewReader(conn)
	if _, err := http.ReadRequest(br); err != nil {
		return
	}
	io.WriteString(conn, "HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: sbqa-link/2\r\n\r\n")
	for {
		var f cluster.Frame
		if f.Decode(br) != nil {
			return
		}
		if f.Kind != cluster.FramePing {
			if s.onFrame != nil {
				s.onFrame(&f)
			}
			continue
		}
		pong := binary.BigEndian.AppendUint32(nil, 1+8+2+4) // kind, id, status, retry-after
		pong = append(pong, byte(cluster.FrameReply))
		pong = binary.BigEndian.AppendUint64(pong, f.ID)
		pong = binary.BigEndian.AppendUint16(pong, http.StatusOK)
		conn.Write(binary.BigEndian.AppendUint32(pong, 0))
	}
}

// crash drops the stub's links and refuses every dial after.
func (s *stubPeer) crash() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.crashed = true
	for _, c := range s.conns {
		c.Close()
	}
}

// TestClusterForwardAnswersPeerDown: when the owner is unreachable the
// non-owner must answer a typed 503 peer_down promptly, not hang.
func TestClusterForwardAnswersPeerDown(t *testing.T) {
	// A stub peer that is healthy at boot, then vanishes. The huge
	// heartbeat interval freezes membership after the first probe round,
	// so the peer stays Alive on the ring while its link is dead —
	// exactly the window between a crash and its detection.
	stub := &stubPeer{}
	g := newGatewayShell()
	srv := httptest.NewServer(g.handler())
	defer srv.Close()
	cs := &clusterSettings{
		nodeID:            "a",
		peers:             []sbqa.ClusterPeer{{ID: "b", Addr: "http://b.test"}},
		heartbeatInterval: time.Hour,
		heartbeatTimeout:  time.Second,
		dial:              stub.dial,
	}
	if err := g.init(cs, deterministicOpts()...); err != nil {
		t.Fatal(err)
	}
	defer g.close()
	stub.crash() // crash the owner

	c := 0
	for ; ; c++ {
		if _, self, _ := g.node.Route(sbqa.ConsumerID(c)); !self {
			break
		}
	}
	var out struct {
		Code string `json:"code"`
	}
	start := time.Now()
	resp := postJSON(t, srv.URL+"/v1/queries", queryRequest{Consumer: c, N: 1, Wait: "allocation"}, &out)
	if resp.StatusCode != http.StatusServiceUnavailable || out.Code != "peer_down" {
		t.Fatalf("status %d code %q, want 503 peer_down", resp.StatusCode, out.Code)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("peer_down answer took %v, want prompt failure", d)
	}
}

// TestClusterForwardPropagatesClientDeadline: a forwarded request carries
// the client's deadline both ways. At the entry node a silent owner ends the
// forward when the client's context expires, long before the link's own
// ceiling, and the frame it sent says how little time was left; at the owner
// a wait:"results" ends no later than the budget its frame carried, however
// slow the worker.
func TestClusterForwardPropagatesClientDeadline(t *testing.T) {
	// The owner: a stub that answers pings, so that it stays on the ring,
	// and reads every forwarded frame and answers none.
	budgets := make(chan time.Duration, 1)
	stub := &stubPeer{onFrame: func(f *cluster.Frame) { budgets <- f.Budget }}

	g := newGatewayShell()
	cs := &clusterSettings{
		nodeID:            "a",
		peers:             []sbqa.ClusterPeer{{ID: "b", Addr: "http://b.test"}},
		heartbeatInterval: time.Hour,
		heartbeatTimeout:  time.Second,
		dial:              stub.dial,
	}
	if err := g.init(cs, deterministicOpts()...); err != nil {
		t.Fatal(err)
	}
	defer g.close()

	remote, local := -1, -1
	for c := 0; remote < 0 || local < 0; c++ {
		if _, self, _ := g.node.Route(sbqa.ConsumerID(c)); self {
			local = c
		} else {
			remote = c
		}
	}
	body, _ := json.Marshal(queryRequest{Consumer: remote, N: 1, Wait: "allocation"})
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	req := httptest.NewRequest(http.MethodPost, "/v1/queries", bytes.NewReader(body)).WithContext(ctx)
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	start := time.Now()
	g.handleSubmit(rec, req)
	elapsed := time.Since(start)
	if elapsed > 5*time.Second {
		t.Fatalf("forward held the handler %v past the client deadline", elapsed)
	}
	var out struct {
		Code string `json:"code"`
	}
	if err := json.NewDecoder(rec.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if rec.Code != http.StatusServiceUnavailable || out.Code != "peer_down" {
		t.Fatalf("status %d code %q, want 503 peer_down", rec.Code, out.Code)
	}
	if b := <-budgets; b <= 0 || b > 150*time.Millisecond {
		t.Fatalf("the frame carried a budget of %v, want what was left of the client's 150ms", b)
	}

	// The owner's half: a frame with 100ms left, waiting for the results of
	// a query whose worker needs minutes.
	handle(g.handler(), http.MethodPost, "/v1/workers", []byte(`{"id":1,"capacity":0.001,"intention":0.5}`))
	handle(g.handler(), http.MethodPost, "/v1/consumers", fmt.Appendf(nil, `{"id":%d,"intention":0.8}`, local))
	frame := sbqa.ClusterFrame{
		Kind: sbqa.ClusterFrameQuery, Budget: 100 * time.Millisecond,
		Body: fmt.Appendf(nil, `{"consumer":%d,"n":1,"work":1,"wait":"results"}`, local),
	}
	var reply sbqa.ClusterFrame
	start = time.Now()
	g.serveFrame(context.Background(), "b", &frame, &reply)
	if elapsed := time.Since(start); elapsed < 100*time.Millisecond || elapsed > 5*time.Second {
		t.Fatalf("the owner waited %v for results under a 100ms budget", elapsed)
	}
	var qr queryResponse
	if err := json.Unmarshal(reply.Body, &qr); err != nil {
		t.Fatalf("reply %q: %v", reply.Body, err)
	}
	if reply.Status != http.StatusOK || len(qr.Selected) != 1 || !strings.Contains(qr.Error, "deadline exceeded") || len(qr.Results) != 0 {
		t.Fatalf("reply %d %+v, want the allocation, no results and the deadline's error", reply.Status, qr)
	}
}

// TestClusterStatusAndMetrics exercises the /v1/cluster surface and the
// sbqa_cluster_* metric families after real forwarded traffic.
func TestClusterStatusAndMetrics(t *testing.T) {
	nodes := startTestCluster(t, 2, false, deterministicOpts()...)
	for _, cn := range nodes {
		registerWorkers(t, cn.srv.URL)
	}
	c := consumerOwnedBy(t, nodes, 0, 0)
	entry := nodes[1]
	postJSON(t, entry.srv.URL+"/v1/consumers", consumerRequest{ID: c, Intention: 0.8}, nil)
	submitAlloc(t, entry.srv.URL, c)

	var st cluster.Status
	resp, err := http.Get(entry.srv.URL + "/v1/cluster")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Self.ID != "n1" || len(st.Nodes) != 2 || len(st.Peers) != 1 {
		t.Fatalf("cluster status = %+v", st)
	}
	waitCondition(t, 5*time.Second, "peer alive in status", func() bool {
		r, err := http.Get(entry.srv.URL + "/v1/cluster")
		if err != nil {
			return false
		}
		defer r.Body.Close()
		var s cluster.Status
		if json.NewDecoder(r.Body).Decode(&s) != nil {
			return false
		}
		return len(s.Peers) == 1 && s.Peers[0].Health == "alive"
	})

	mresp, err := http.Get(entry.srv.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	text, _ := io.ReadAll(mresp.Body)
	for _, want := range []string{
		`sbqa_cluster_nodes 2`,
		`sbqa_cluster_live_nodes 2`,
		`sbqa_cluster_peer_health{peer="n0",state="alive"} 1`,
		`sbqa_cluster_forwarded_total{kind="query"} 1`,
		`sbqa_cluster_forwarded_total{kind="consumer"} 1`,
		`sbqa_cluster_forward_seconds_count 2`,
		`sbqa_cluster_not_owner_total 0`,
	} {
		if !strings.Contains(string(text), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestGatewayWithoutClusterUnchanged: a gateway built without cluster
// settings has no node, no guard, no /v1/cluster, and no sbqa_cluster_*
// metric families — the single-node daemon is byte-identical to before.
func TestGatewayWithoutClusterUnchanged(t *testing.T) {
	gw, err := newGateway(deterministicOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	defer gw.close()
	if gw.node != nil {
		t.Fatal("single-node gateway constructed a cluster node")
	}
	srv := httptest.NewServer(gw.handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/v1/cluster")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /v1/cluster without cluster mode = %d, want 404", resp.StatusCode)
	}
	mresp, err := http.Get(srv.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	text, _ := io.ReadAll(mresp.Body)
	if strings.Contains(string(text), "sbqa_cluster_") {
		t.Fatal("single-node metrics expose cluster families")
	}
}

// TestClusterEndToEndFailover is the acceptance test: a three-node
// cluster with durable state serves forwarded traffic, ships WAL
// segments to ring followers (byte-identical to the owner's journal),
// and on an owner's death the follower serves the rebalanced consumers
// with their satisfaction memory intact — only the unsynced tail could
// be lost, and with a drained replication lag that tail is empty.
func TestClusterEndToEndFailover(t *testing.T) {
	nodes := startTestCluster(t, 3, true, deterministicOpts()...)
	for _, cn := range nodes {
		registerWorkers(t, cn.srv.URL)
	}

	// One consumer owned by each node, all registered and driven through
	// node 2 — registration and submission forward transparently.
	consumers := make([]int, 3)
	for i := range nodes {
		consumers[i] = consumerOwnedBy(t, nodes, i, 1000*i)
		resp := postJSON(t, nodes[2].srv.URL+"/v1/consumers",
			consumerRequest{ID: consumers[i], Intention: 0.7}, nil)
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("register consumer %d: %d", consumers[i], resp.StatusCode)
		}
	}
	for round := 0; round < 5; round++ {
		for i, c := range consumers {
			qr := submitAlloc(t, nodes[(i+round)%3].srv.URL, c)
			if len(qr.Selected) == 0 {
				t.Fatalf("consumer %d round %d: no allocation (%+v)", c, round, qr)
			}
		}
	}

	victim := 0
	victimConsumer := consumers[0]
	// The victim's satisfaction memory for its consumer, as ground truth.
	wantSat := nodes[victim].g.eng.Registry().ConsumerSatisfaction(sbqa.ConsumerID(victimConsumer))

	// Quiesce: wait until every follower of the victim reports zero lag —
	// all sealed segments shipped and the active tail rotated out.
	waitCondition(t, 15*time.Second, "replication lag drained", func() bool {
		st := nodes[victim].g.node.Status()
		saw := false
		for _, p := range st.Peers {
			if !p.Follower {
				continue
			}
			saw = true
			if p.LagSegments != 0 || p.LagBytes != 0 || p.Shipped == 0 {
				return false
			}
		}
		return saw
	})

	// Byte-level check: every sealed segment in the victim's state dir
	// must exist, bit-identical, in each follower's replica dir.
	segs, err := filepath.Glob(filepath.Join(nodes[victim].dir, "wal-*.wal"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("victim sealed segments: %v (err %v)", segs, err)
	}
	active := "" // the newest segment is the active tail, not yet shipped
	for _, s := range segs {
		if active == "" || s > active {
			active = s
		}
	}
	followers := 0
	for i, cn := range nodes {
		if i == victim {
			continue
		}
		replicaDir := filepath.Join(cn.dir, "replica", nodes[victim].id)
		if _, err := os.Stat(replicaDir); err != nil {
			continue // not a ring follower of the victim
		}
		followers++
		for _, seg := range segs {
			if seg == active {
				continue
			}
			want, err := os.ReadFile(seg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(filepath.Join(replicaDir, filepath.Base(seg)))
			if err != nil {
				t.Fatalf("follower %s missing shipped segment %s: %v", cn.id, filepath.Base(seg), err)
			}
			if !bytes.Equal(want, got) {
				t.Fatalf("follower %s: segment %s differs from origin", cn.id, filepath.Base(seg))
			}
		}
	}
	if followers == 0 {
		t.Fatal("victim has no followers holding replicas")
	}

	// Kill the victim (its HTTP server and the links its peers hold to it
	// vanish mid-cluster, like a crashed process) and wait for a survivor to
	// mark it down.
	nodes[victim].g.beginShutdown()
	nodes[victim].srv.Close()
	waitCondition(t, 15*time.Second, "survivors mark victim down", func() bool {
		for i, cn := range nodes {
			if i == victim {
				continue
			}
			for _, n := range cn.g.node.Status().Live {
				if n == nodes[victim].id {
					return false
				}
			}
		}
		return true
	})

	// The victim's consumer now routes to a survivor, with its memory
	// restored from the replicated WAL — awaited, because a node drops the
	// victim from its live ring before it runs the failover replay.
	newOwner := ownerIndex(t, nodes[1:], victimConsumer) + 1
	waitCondition(t, 15*time.Second, fmt.Sprintf("restored satisfaction = %v (victim's value)", wantSat), func() bool {
		return nodes[newOwner].g.eng.Registry().ConsumerSatisfaction(sbqa.ConsumerID(victimConsumer)) == wantSat
	})

	// And the survivor serves it: re-register (participants are runtime
	// objects) through the OTHER survivor so the hop still forwards.
	other := 1
	if other == newOwner {
		other = 2
	}
	resp := postJSON(t, nodes[other].srv.URL+"/v1/consumers",
		consumerRequest{ID: victimConsumer, Intention: 0.7}, nil)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("re-register after failover: %d", resp.StatusCode)
	}
	qr := submitAlloc(t, nodes[other].srv.URL, victimConsumer)
	if len(qr.Selected) == 0 {
		t.Fatalf("post-failover allocation empty: %+v", qr)
	}
}

// TestClusterEventsRoutedSubscription: an SSE subscription with
// ?consumer=N made at a non-owner is proxied to the owner, so the
// subscriber sees the owner's events for that consumer.
func TestClusterEventsRoutedSubscription(t *testing.T) {
	nodes := startTestCluster(t, 2, false, deterministicOpts()...)
	for _, cn := range nodes {
		registerWorkers(t, cn.srv.URL)
	}
	c := consumerOwnedBy(t, nodes, 0, 0)
	entry := nodes[1]
	postJSON(t, entry.srv.URL+"/v1/consumers", consumerRequest{ID: c, Intention: 0.8}, nil)

	events, closeSSE := openSSE(t, entry.srv.URL+"/v1/events?consumer="+fmt.Sprint(c))
	defer closeSSE()
	submitAlloc(t, entry.srv.URL, c)
	awaitEvent(t, events, "allocation", func(data string) bool {
		return strings.Contains(data, fmt.Sprintf(`"consumer":%d`, c))
	})
}

// TestClusterLinkParkedWaitAndShutdown: a wait:"results" parked on a slow
// worker at the owner does not hold up an allocation submitted after it
// through the same entry node — both ride one link, replies return out of
// order — and closing the gateways with that call still in flight answers it
// (peer_down: its link went away) and leaves no goroutine behind: a hijacked
// link is invisible to the HTTP server, so the gateway must end it itself.
func TestClusterLinkParkedWaitAndShutdown(t *testing.T) {
	before := settledGoroutines(func() bool { return true })
	var dials atomic.Int32 // the entry's; the owner's link to it carries only the owner's heartbeats
	dialFrom := func(self string) peerDial {
		return func(ctx context.Context, p sbqa.ClusterPeer) (net.Conn, error) {
			if self == "n1" {
				dials.Add(1)
			}
			return (&net.Dialer{}).DialContext(ctx, "tcp", strings.TrimPrefix(p.Addr, "http://"))
		}
	}
	nodes := startTestClusterDial(t, 2, false, dialFrom, deterministicOpts()...)
	owner, entry := nodes[0], nodes[1]
	// One worker that needs a quarter of an hour per unit of work.
	postJSON(t, owner.srv.URL+"/v1/workers", workerRequest{ID: 1, Capacity: 0.001, Intention: 0.5}, nil)
	c := consumerOwnedBy(t, nodes, 0, 0)
	postJSON(t, entry.srv.URL+"/v1/consumers", consumerRequest{ID: c, Intention: 0.8}, nil)

	type answer struct {
		status int
		body   string
	}
	parked := make(chan answer, 1)
	go func() {
		resp, err := http.Post(entry.srv.URL+"/v1/queries", "application/json",
			strings.NewReader(fmt.Sprintf(`{"consumer":%d,"n":1,"work":1,"wait":"results"}`, c)))
		if err != nil {
			parked <- answer{body: err.Error()}
			return
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		parked <- answer{resp.StatusCode, string(body)}
	}()
	waitCondition(t, 10*time.Second, "the results wait to reach the owner's worker", func() bool {
		return owner.g.eng.Stats().QueriesSubmitted == 1
	})
	start := time.Now()
	for i := 0; i < 5; i++ {
		if qr := submitAlloc(t, entry.srv.URL, c); len(qr.Selected) != 1 {
			t.Fatalf("allocation %d behind the parked wait: %+v", i, qr)
		}
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("five allocations took %v behind a parked wait", d)
	}
	select {
	case a := <-parked:
		t.Fatalf("the parked wait returned: %+v", a)
	default:
	}
	if d := dials.Load(); d != 1 {
		t.Fatalf("%d links dialled, want the one both kinds of wait shared", d)
	}

	entry.g.close()
	if a := <-parked; a.status != http.StatusServiceUnavailable || !strings.Contains(a.body, `"peer_down"`) {
		t.Fatalf("the call in flight when its gateway closed: %+v, want 503 peer_down", a)
	}
	owner.g.close()
	for _, cn := range nodes {
		cn.srv.Close()
	}
	http.DefaultClient.CloseIdleConnections()
	after := settledGoroutines(func() bool { return runtime.NumGoroutine() <= before })
	if after > before {
		buf := make([]byte, 1<<20)
		t.Fatalf("%d goroutines before the cluster, %d after it closed:\n%s", before, after, buf[:runtime.Stack(buf, true)])
	}
}
