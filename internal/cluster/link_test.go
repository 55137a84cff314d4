package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sbqa/internal/model"
)

// pipeNet is the link's transport in memory: Dial hands out one end of a
// net.Pipe and the listener an HTTP server accepts from yields the other, so
// the real Upgrade handshake runs with no socket.
type pipeNet struct {
	conns chan net.Conn
	done  chan struct{}
	dials atomic.Int32

	mu     sync.Mutex
	served []net.Conn // the serving ends handed out so far
}

func newPipeNet() *pipeNet {
	return &pipeNet{conns: make(chan net.Conn), done: make(chan struct{})}
}

func (p *pipeNet) Accept() (net.Conn, error) {
	select {
	case c := <-p.conns:
		return c, nil
	case <-p.done:
		return nil, net.ErrClosed
	}
}

func (p *pipeNet) Close() error {
	select {
	case <-p.done:
	default:
		close(p.done)
	}
	return nil
}

func (p *pipeNet) Addr() net.Addr { return &net.UnixAddr{Name: "pipe", Net: "pipe"} }

func (p *pipeNet) dial(ctx context.Context, _ Peer) (net.Conn, error) {
	p.dials.Add(1)
	ours, theirs := net.Pipe()
	select {
	case p.conns <- theirs:
		p.mu.Lock()
		p.served = append(p.served, theirs)
		p.mu.Unlock()
		return ours, nil
	case <-p.done:
		return nil, errors.New("pipe: connection refused")
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// kill drops every connection at the serving end, as a crashed owner does.
func (p *pipeNet) kill() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, c := range p.served {
		c.Close()
	}
	p.served = nil
}

// linkPair builds an entry node "a" and an owner "b" that serves serve, with
// a's links to b running over pipes.
func linkPair(t *testing.T, serve LinkHandler) (entry, owner *Node, pn *pipeNet) {
	t.Helper()
	pn = newPipeNet()
	ownerCfg := fastConfig(Peer{ID: "b"}, Peer{ID: "a", Addr: "http://a.test"})
	ownerCfg.Serve = serve
	owner = newNode(t, ownerCfg)
	serveOn(t, pn, owner.AcceptLink)
	entryCfg := fastConfig(Peer{ID: "a"}, peerB)
	entryCfg.Dial = pn.dial
	entryCfg.HeartbeatTimeout = 2 * time.Second // the dial's bound; -race on a busy box is slow
	return newNode(t, entryCfg), owner, pn
}

var peerB = Peer{ID: "b", Addr: "http://b.test"}

// TestLinkCarriesRequestAndReplyWhole: the owner's handler sees the sender,
// the kind, the client's bytes, the trace context and a budget no longer than
// the caller's deadline; the caller gets back status, Retry-After and body
// byte for byte — and every call after the first rides the same connection.
func TestLinkCarriesRequestAndReplyWhole(t *testing.T) {
	type seen struct {
		from   string
		kind   FrameKind
		body   string
		trace  model.TraceContext
		budget time.Duration
	}
	got := make(chan seen, 1)
	answer := []byte("{\"error\":\"rate_limited\",\"retry_after_ms\":16500.5}\n")
	entry, _, pn := linkPair(t, func(_ context.Context, from string, req, reply *Frame) {
		got <- seen{from, req.Kind, string(req.Body), req.Trace, req.Budget}
		reply.Status, reply.RetryAfter = http.StatusTooManyRequests, 17
		reply.Body = append(reply.Body, answer...)
	})
	tc := model.TraceContext{ID: model.TraceID{Hi: 0x0123456789abcdef, Lo: 42}, Span: 7, Sampled: true}
	body := `{"consumer":9,"n":1,"work":0.1,"from_a_newer_client":true}`
	for i, kind := range []FrameKind{FrameQuery, FrameConsumer, FrameQuery} {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		call, err := entry.Forward(ctx, peerB, kind, tc, []byte(body))
		cancel()
		if err != nil {
			t.Fatalf("forward %d: %v", i, err)
		}
		s := <-got
		if s.from != "a" || s.kind != kind || s.body != body || s.trace != tc {
			t.Errorf("forward %d: owner saw %+v", i, s)
		}
		if s.budget <= 0 || s.budget > 10*time.Second {
			t.Errorf("forward %d: budget %v, want within the caller's 10s", i, s.budget)
		}
		if call.Status != http.StatusTooManyRequests || call.RetryAfter != 17 || !bytes.Equal(call.Body, answer) {
			t.Errorf("forward %d: got %d, Retry-After %d, %q", i, call.Status, call.RetryAfter, call.Body)
		}
		call.Release()
	}
	if d := pn.dials.Load(); d != 1 {
		t.Errorf("%d dials for three forwards, want one link", d)
	}
	// No deadline of the caller's: the budget is the link's own ceiling.
	call, err := entry.Forward(context.Background(), peerB, FrameQuery, model.TraceContext{}, []byte(body))
	if err != nil {
		t.Fatal(err)
	}
	call.Release()
	if s := <-got; s.budget > ForwardTimeout || s.budget < ForwardTimeout-5*time.Second || s.trace != (model.TraceContext{}) {
		t.Errorf("without a deadline the owner saw budget %v, trace %+v", s.budget, s.trace)
	}
}

// TestLinkNoHeadOfLineBlocking: a request parked at the owner (a
// wait:"results" on a slow worker) does not delay one sent after it on the
// same link, and replies come back to their own callers out of order.
func TestLinkNoHeadOfLineBlocking(t *testing.T) {
	release := make(chan struct{})
	parked := make(chan struct{})
	entry, _, pn := linkPair(t, func(_ context.Context, _ string, req, reply *Frame) {
		if string(req.Body) == "slow" {
			close(parked)
			<-release
		}
		reply.Status = http.StatusOK
		reply.Body = append(reply.Body, req.Body...)
	})
	slow := make(chan error, 1)
	go func() {
		call, err := entry.Forward(context.Background(), peerB, FrameQuery, model.TraceContext{}, []byte("slow"))
		if err == nil {
			if string(call.Body) != "slow" {
				err = fmt.Errorf("slow call answered %q", call.Body)
			}
			call.Release()
		}
		slow <- err
	}()
	<-parked
	for i := 0; i < 10; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		call, err := entry.Forward(ctx, peerB, FrameQuery, model.TraceContext{}, []byte("fast"))
		cancel()
		if err != nil {
			t.Fatalf("fast call %d behind a parked one: %v", i, err)
		}
		if string(call.Body) != "fast" {
			t.Fatalf("fast call answered %q", call.Body)
		}
		call.Release()
	}
	select {
	case err := <-slow:
		t.Fatalf("the parked call returned early: %v", err)
	default:
	}
	close(release)
	if err := <-slow; err != nil {
		t.Fatal(err)
	}
	if d := pn.dials.Load(); d != 1 {
		t.Errorf("%d dials, want one link for all of it", d)
	}
}

// TestLinkOwnerKilledMidCall: when the owner's end of the link goes away,
// every pending call fails at once — not at its deadline — and the next
// forward dials a new link, which works once the owner is back.
func TestLinkOwnerKilledMidCall(t *testing.T) {
	var parked sync.WaitGroup
	var hold atomic.Bool
	hold.Store(true)
	entry, _, pn := linkPair(t, func(ctx context.Context, _ string, req, reply *Frame) {
		if hold.Load() {
			parked.Done()
			<-ctx.Done() // ends when the link does
		}
		reply.Status = http.StatusOK
		reply.Body = append(reply.Body, req.Body...)
	})
	const pending = 8
	parked.Add(pending)
	errs := make(chan error, pending)
	for i := 0; i < pending; i++ {
		go func() {
			call, err := entry.Forward(context.Background(), peerB, FrameQuery, model.TraceContext{}, []byte("x"))
			if err == nil {
				call.Release()
			}
			errs <- err
		}()
	}
	parked.Wait()
	start := time.Now()
	pn.kill()
	for i := 0; i < pending; i++ {
		if err := <-errs; err == nil {
			t.Error("a call pending on a killed link got an answer")
		}
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("pending calls took %v to fail, want prompt", d)
	}
	hold.Store(false)
	call, err := entry.Forward(context.Background(), peerB, FrameQuery, model.TraceContext{}, []byte("again"))
	if err != nil {
		t.Fatalf("forward after the owner returned: %v", err)
	}
	if string(call.Body) != "again" {
		t.Errorf("answered %q", call.Body)
	}
	call.Release()
	if d := pn.dials.Load(); d != 2 {
		t.Errorf("%d dials, want the first link and one redial", d)
	}

	// An owner that cannot be reached at all: the dial fails, the call with it.
	pn.Close()
	pn.kill()
	start = time.Now()
	if call, err := entry.Forward(context.Background(), peerB, FrameQuery, model.TraceContext{}, []byte("x")); err == nil {
		call.Release()
		t.Error("forward to an unreachable owner got an answer")
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("unreachable owner took %v to fail", d)
	}
}

// TestPeerDownFailsPendingCalls: when the heartbeats give the owner up, the
// calls waiting on the link to it end then, whatever their deadlines — a
// connection to a host that vanished says nothing for minutes.
func TestPeerDownFailsPendingCalls(t *testing.T) {
	parked := make(chan struct{})
	entry, _, _ := linkPair(t, func(ctx context.Context, _ string, _, reply *Frame) {
		close(parked)
		<-ctx.Done()
		reply.Status = http.StatusConflict
	})
	done := make(chan error, 1)
	go func() {
		call, err := entry.Forward(context.Background(), peerB, FrameQuery, model.TraceContext{}, []byte("x"))
		if err == nil {
			call.Release()
		}
		done <- err
	}()
	<-parked
	for i := 0; i < downAfter; i++ {
		entry.mem.observe("b", 0, errors.New("probe: no route to host"))
	}
	select {
	case err := <-done:
		if !errors.Is(err, ErrPeerDown) {
			t.Fatalf("the pending call ended with %v, want ErrPeerDown", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the call still waits on a peer the heartbeats marked down")
	}
}

// TestLinkConcurrentForwards: 64 callers share one link, and each reply
// reaches the call that asked — run under -race.
func TestLinkConcurrentForwards(t *testing.T) {
	entry, _, pn := linkPair(t, func(_ context.Context, _ string, req, reply *Frame) {
		n := binary.BigEndian.Uint32(req.Body)
		reply.Status, reply.RetryAfter = 200+int(n%300), int(n)
		reply.Body = append(append(reply.Body, "re:"...), req.Body...)
	})
	var wg sync.WaitGroup
	for g := 0; g < 64; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				n := uint32(g*1000 + i)
				body := binary.BigEndian.AppendUint32(nil, n)
				body = append(body, bytes.Repeat([]byte{byte(g)}, g*7)...)
				call, err := entry.Forward(context.Background(), peerB, FrameQuery, model.TraceContext{}, body)
				if err != nil {
					t.Errorf("caller %d call %d: %v", g, i, err)
					return
				}
				if call.Status != 200+int(n%300) || call.RetryAfter != int(n) || !bytes.Equal(call.Body, append([]byte("re:"), body...)) {
					t.Errorf("caller %d call %d got another call's reply: %d %d %q", g, i, call.Status, call.RetryAfter, call.Body)
				}
				call.Release()
			}
		}(g)
	}
	wg.Wait()
	if d := pn.dials.Load(); d != 1 {
		t.Errorf("%d dials, want one link", d)
	}
}

// TestLinkCallerDeadline: a caller whose context expires gets its error at
// the deadline while the owner is still busy; the owner's late reply finds no
// pending call and is dropped, and the link carries on.
func TestLinkCallerDeadline(t *testing.T) {
	release := make(chan struct{})
	budget := make(chan time.Duration, 2)
	entry, _, pn := linkPair(t, func(_ context.Context, _ string, req, reply *Frame) {
		budget <- req.Budget
		if string(req.Body) == "slow" {
			<-release
		}
		reply.Status = http.StatusOK
		reply.Body = append(reply.Body, req.Body...)
	})
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	if call, err := entry.Forward(ctx, peerB, FrameQuery, model.TraceContext{}, []byte("slow")); err == nil {
		call.Release()
		t.Fatal("a call past its deadline got an answer")
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("the call outlived its 100ms deadline by %v", d)
	}
	if b := <-budget; b <= 0 || b > 100*time.Millisecond {
		t.Errorf("the frame carried budget %v, want what was left of 100ms", b)
	}
	close(release) // the late reply goes out now
	call, err := entry.Forward(context.Background(), peerB, FrameQuery, model.TraceContext{}, []byte("next"))
	if err != nil {
		t.Fatalf("forward after a timed-out one: %v", err)
	}
	if string(call.Body) != "next" {
		t.Errorf("answered %q: the dropped reply reached the wrong call", call.Body)
	}
	call.Release()
	if d := pn.dials.Load(); d != 1 {
		t.Errorf("%d dials, want the one link to survive a caller's timeout", d)
	}
}

// TestLinkDrainAnswersFramesBeingServed: DrainLinks stops an accepted link
// from reading, the frame already being served still gets its answer back,
// and the next forward finds the link gone.
func TestLinkDrainAnswersFramesBeingServed(t *testing.T) {
	release := make(chan struct{})
	parked := make(chan struct{}, 1)
	entry, owner, _ := linkPair(t, func(_ context.Context, _ string, req, reply *Frame) {
		parked <- struct{}{}
		<-release
		reply.Status = http.StatusOK
		reply.Body = append(reply.Body, req.Body...)
	})
	done := make(chan error, 1)
	go func() {
		call, err := entry.Forward(context.Background(), peerB, FrameQuery, model.TraceContext{}, []byte("in flight"))
		if err == nil {
			if string(call.Body) != "in flight" {
				err = fmt.Errorf("answered %q", call.Body)
			}
			call.Release()
		}
		done <- err
	}()
	<-parked
	owner.DrainLinks()
	owner.DrainLinks() // idempotent
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("the frame being served when the owner began to drain: %v", err)
	}
	waitFor(t, "the drained link to end", func() bool {
		entry.links.mu.Lock()
		defer entry.links.mu.Unlock()
		return entry.links.out["b"].dead()
	})
}

// TestAcceptLinkRefusals: only this protocol version from another member of
// the ring is upgraded; anything else is a 400 on an ordinary HTTP response,
// before the connection is taken over. The sender's ID names the directory
// its segments land in, so the hostile ones — the names that once escaped the
// replica directory through a query string — must leave nothing on disk; a
// node from before heartbeats and segments rode the link fails the
// handshake, told which protocol to speak, not a frame later.
func TestAcceptLinkRefusals(t *testing.T) {
	root := t.TempDir()
	cfg := fastConfig(Peer{ID: "n0"}, Peer{ID: "n1", Addr: "http://n1.test"})
	cfg.StateDir = filepath.Join(root, "state")
	cfg.Serve = func(context.Context, string, *Frame, *Frame) { t.Error("a refused link served a frame") }
	owner := newNode(t, cfg)
	for _, tc := range []struct{ name, from, upgrade string }{
		{"a stranger", "mallory", linkProtocol},
		{"no sender", "", linkProtocol},
		{"this node itself", "n0", linkProtocol},
		{"the parent directory", "..", linkProtocol},
		{"the state dir's parent", "../..", linkProtocol},
		{"an absolute path", root, linkProtocol},
		{"a member's parent", "n1/..", linkProtocol},
		{"a member and a NUL", "n1\x00", linkProtocol},
		{"the first link protocol", "n1", "sbqa-link/1"},
		{"another protocol", "n1", "websocket"},
		{"no upgrade", "n1", ""},
	} {
		// A recorder cannot be hijacked: a 400 here was written before any
		// attempt to.
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodGet, ForwardPath, nil)
		if tc.upgrade != "" {
			req.Header.Set("Connection", "Upgrade")
			req.Header.Set("Upgrade", tc.upgrade)
		}
		req.Header[ForwardedFromHeader] = []string{tc.from}
		owner.AcceptLink(rec, req)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s), want 400", tc.name, rec.Code, strings.TrimSpace(rec.Body.String()))
		}
		if tc.from == "n1" && !strings.Contains(rec.Body.String(), linkProtocol) {
			t.Errorf("%s: %q does not name the protocol to speak", tc.name, rec.Body)
		}
	}
	if entries, err := os.ReadDir(cfg.StateDir); !os.IsNotExist(err) {
		t.Errorf("refused links left %v (%v) in the state dir", entries, err)
	}

	// A node built without a handler still takes links — they carry its
	// heartbeats and segments — and answers a forwarded request 404.
	entry, _, _ := linkPair(t, nil)
	for kind, want := range map[FrameKind]int{FrameQuery: http.StatusNotFound, FramePing: http.StatusOK} {
		call, err := entry.Forward(context.Background(), peerB, kind, model.TraceContext{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if call.Status != want {
			t.Errorf("kind %d to a node with no handler: %d, want %d", kind, call.Status, want)
		}
		call.Release()
	}
}

// streamConn is a connection whose peer already said everything it will:
// reads drain in, writes vanish.
type streamConn struct{ in *bytes.Reader }

func (c streamConn) Read(p []byte) (int, error)     { return c.in.Read(p) }
func (streamConn) Write(p []byte) (int, error)      { return len(p), nil }
func (streamConn) Close() error                     { return nil }
func (streamConn) LocalAddr() net.Addr              { return &net.UnixAddr{} }
func (streamConn) RemoteAddr() net.Addr             { return &net.UnixAddr{} }
func (streamConn) SetDeadline(time.Time) error      { return nil }
func (streamConn) SetReadDeadline(time.Time) error  { return nil }
func (streamConn) SetWriteDeadline(time.Time) error { return nil }

// overStream points w at a stream that holds data and nothing else.
func (w *wire) overStream(data []byte) {
	c := streamConn{bytes.NewReader(data)}
	w.conn, w.br, w.bw = c, bufio.NewReader(c), bufio.NewWriter(c)
}

// wireBytes is f as it travels.
func wireBytes(f Frame) []byte { return append(f.appendHeader(nil), f.Body...) }

// TestFrameLengthRefusedBeforeAllocation: a length past the limit — or below
// any header — ends the stream with nothing allocated for the claimed size.
func TestFrameLengthRefusedBeforeAllocation(t *testing.T) {
	for _, n := range []uint32{0xFFFFFFFF, maxFrame + 1, 0, replyHeaderLen - 1} {
		var f Frame
		stream := append(binary.BigEndian.AppendUint32(nil, n), make([]byte, 64)...)
		err := f.Decode(bufio.NewReader(bytes.NewReader(stream)))
		if !errors.Is(err, errFrame) {
			t.Errorf("length %d: %v, want a frame error", n, err)
		}
		if f.buf != nil {
			t.Errorf("length %d: allocated %d bytes for a refused frame", n, cap(f.buf))
		}
	}
	// The largest body there is still fits.
	var f Frame
	big := Frame{Kind: FrameQuery, ID: 1, Budget: time.Second, Body: make([]byte, MaxFrameBody)}
	if err := f.Decode(bufio.NewReader(bytes.NewReader(wireBytes(big)))); err != nil || len(f.Body) != MaxFrameBody {
		t.Errorf("a body of MaxFrameBody: %v, %d bytes", err, len(f.Body))
	}
}

// FuzzLinkFrame: arbitrary bytes at either end of a link never panic. The
// serving end serves exactly the request frames that precede the first thing
// it should not have been sent — an over-long length, a truncated or
// unknown-kind frame, a reply — and stops there, handing its handler only
// the forwarded queries and registrations among them; the calling end drops
// a reply nobody waits for, hands a pending call its own, and ends on
// anything that is not a reply.
func FuzzLinkFrame(f *testing.F) {
	tc := model.TraceContext{ID: model.TraceID{Hi: 1, Lo: 2}, Span: 3, Sampled: true}
	query := wireBytes(Frame{Kind: FrameQuery, ID: 1, Budget: time.Second, Trace: tc, Body: []byte(`{"consumer":1,"n":1,"work":1}`)})
	consumer := wireBytes(Frame{Kind: FrameConsumer, ID: 2, Budget: ForwardTimeout, Body: []byte(`{"id":1,"intention":0.8}`)})
	reply := wireBytes(Frame{Kind: FrameReply, ID: 1, Status: 429, RetryAfter: 3, Body: []byte("{\"error\":\"rate_limited\"}\n")})
	ping := wireBytes(Frame{Kind: FramePing, ID: 4, Budget: time.Second})
	held := wireBytes(Frame{Kind: FrameHeld, ID: 5, Budget: time.Second})
	segment := wireBytes(Frame{Kind: FrameSegment, ID: 6, Budget: time.Second, Body: chunkBody(1, 0, true, []byte("SBQAWAL1"))})
	f.Add(query)
	f.Add(append(append([]byte{}, query...), consumer...))
	f.Add(reply)
	f.Add(append(append([]byte{}, reply...), wireBytes(Frame{Kind: FrameReply, ID: 99, Status: 200})...))
	f.Add(append(append([]byte{}, query...), reply...))
	f.Add(query[:len(query)-5])                                                // truncated
	f.Add(binary.BigEndian.AppendUint32(nil, 0xFFFFFFFF))                      // a length nobody may claim
	f.Add(append(binary.BigEndian.AppendUint32(nil, 20), make([]byte, 20)...)) // kind 0
	f.Add(wireBytes(Frame{Kind: FrameQuery, ID: 3, Budget: -1}))
	f.Add([]byte("GET /v1/internal/forward HTTP/1.1\r\n\r\n"))
	f.Add(append(append(append(append([]byte{}, ping...), held...), segment...), query...))
	f.Add(append(append([]byte{}, segment...), reply...))
	f.Add(wireBytes(Frame{Kind: FrameSegment, ID: 7, Budget: time.Second, Body: []byte{1, 2, 3}})) // shorter than a chunk header

	node, err := New(Config{Self: Peer{ID: "b"}, Peers: []Peer{{ID: "a", Addr: "http://a.test"}}})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(node.Close)
	var served atomic.Int32
	node.cfg.Serve = func(_ context.Context, _ string, req, reply *Frame) {
		if req.Kind != FrameQuery && req.Kind != FrameConsumer || len(req.Body) > MaxFrameBody || req.Budget <= 0 || req.Budget > ForwardTimeout {
			panic(fmt.Sprintf("served frame %+v", req))
		}
		served.Add(1)
		reply.Status = http.StatusOK
		reply.Body = append(reply.Body, req.Body...)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		// What a correct reader makes of the stream: the queries and
		// registrations before the first reply are the serving end's handler's,
		// the first reply to call 1 before any request is the calling end's.
		var requests int32
		var sawReply, sawRequest bool
		var answer *Frame
		var fr Frame
		for br := bufio.NewReader(bytes.NewReader(data)); fr.Decode(br) == nil; {
			if cap(fr.buf) > maxFrame {
				t.Fatalf("a %d-byte buffer for a frame", cap(fr.buf))
			}
			if fr.Kind == FrameReply {
				sawReply = true
				if fr.ID == 1 && !sawRequest && answer == nil {
					answer = &Frame{Status: fr.Status, RetryAfter: fr.RetryAfter, Body: bytes.Clone(fr.Body)}
				}
			} else if sawRequest = true; !sawReply && (fr.Kind == FrameQuery || fr.Kind == FrameConsumer) {
				requests++
			}
		}

		served.Store(0)
		in := &inLink{from: "a", sem: make(chan struct{}, maxLinkInFlight)}
		in.overStream(data)
		in.ctx, in.cancel = context.WithCancel(context.Background())
		node.serveLink(in)
		in.cancel()
		if got := served.Load(); got != requests {
			t.Fatalf("the serving end served %d frames, the stream opens with %d requests", got, requests)
		}

		out := &link{ready: make(chan struct{}), pending: make(map[uint64]*Call)}
		out.overStream(data)
		call := callPool.Get().(*Call)
		call.id = 1
		out.pending[1] = call
		if err := out.readLoop(); err == nil {
			t.Fatal("the calling end's read loop ended without an error")
		}
		out.fail(errLinkClosed)
		if verdict := <-call.done; (verdict == nil) != (answer != nil) {
			t.Fatalf("call 1 ended with %v; the stream's reply to it is %+v", verdict, answer)
		} else if verdict == nil && (call.Status != answer.Status || call.RetryAfter != answer.RetryAfter || !bytes.Equal(call.Body, answer.Body)) {
			t.Fatalf("call 1 got %d %d %q, the stream's reply to it is %+v", call.Status, call.RetryAfter, call.Body, answer)
		}
		call.Release()
	})
}
