package cluster

// The peer link: one persistent connection per (node → peer) pair that
// carries all traffic between the two — every forwarded submit and consumer
// registration, the heartbeats and WAL segment shipping — as length-prefixed
// frames, pipelined by request ID so replies return in any order. It is
// opened lazily by an HTTP Upgrade on the peer's ordinary listener
// (ForwardPath), so a cluster needs no second port, and it replaces a whole
// HTTP exchange per hop — client transport, request and header objects, the
// owner's net/http and mux — with two pooled slots and two buffered writes.
//
// A frame is a 4-byte big-endian payload length and the payload:
//
//	request  kind(1: query 1, consumer 2, ping 4, held 5, segment 6) id(8)
//	         budget-ns(8) trace-hi(8) trace-lo(8) span(8)
//	         flags(1: bit 0 sampled) body
//	reply    kind(1: 3) id(8) status(2) retry-after-s(4) body
//
// The sender's node ID is not in the frame: the Upgrade request names it
// once, the receiver checks it against the ring before it hijacks, and every
// frame on the link is that node's. A query's or consumer's body is the
// client's own bytes one way and the owner's response bytes the other;
// nothing is re-encoded. A ping's body is empty and its pong a 200; a held
// reply lists the sender's segments the receiver holds, 8 bytes a seq; a
// segment chunk's body is seq(8) offset(8) last(1) and at most a pooled
// frame's worth of the file.

import (
	"bufio"
	"context"
	"crypto/tls"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sbqa/internal/model"
)

const (
	// ForwardTimeout is the ceiling on one forwarded request when the client
	// supplied no deadline of its own: a silent owner must become a typed
	// 503, never a hung handler. The client's own deadline can only shorten
	// it, and what is left of either rides the frame as its budget.
	ForwardTimeout = 30 * time.Second
	// MaxFrameBody bounds the body of one frame, either way: the gateway's
	// own cap on a request body, so whatever a client may send fits.
	MaxFrameBody = 1 << 20

	linkProtocol     = "sbqa-link/2"
	requestHeaderLen = 1 + 8 + 8 + 8 + 8 + 8 + 1
	replyHeaderLen   = 1 + 8 + 2 + 4
	maxFrame         = requestHeaderLen + MaxFrameBody
	// maxPooledFrame is the largest buffer a pooled slot keeps: a rare
	// megabyte body must not pin a megabyte per slot.
	maxPooledFrame = 64 << 10
	// chunkHeaderLen leads a segment chunk's body; segmentChunk is the most
	// file data a chunk carries, so that its frame fits a pooled buffer and
	// a forward waits behind at most that much on the write lock.
	chunkHeaderLen = 8 + 8 + 1
	segmentChunk   = maxPooledFrame - requestHeaderLen - chunkHeaderLen
	// maxLinkInFlight bounds the frames one inbound link serves at once, each
	// on the goroutine that read it; past it the holder of the link's read
	// side waits, nothing reads and TCP pushes back. An entry node forwards
	// one frame per client request in flight, so this is far above anything
	// but a flood.
	maxLinkInFlight = 1024
	// linkDrainGrace is how long Close lets replies already being written to
	// a peer finish before the connection goes.
	linkDrainGrace = time.Second
)

// FrameKind says what a frame carries.
type FrameKind uint8

const (
	FrameQuery    FrameKind = 1 // request: the body of a POST /v1/queries
	FrameConsumer FrameKind = 2 // request: the body of a POST /v1/consumers
	FrameReply    FrameKind = 3 // the answer to the request of the same ID
	FramePing     FrameKind = 4 // request: a heartbeat, answered 200
	FrameHeld     FrameKind = 5 // request: the seqs of the sender's segments held here
	FrameSegment  FrameKind = 6 // request: one chunk of a sealed segment of the sender's
)

// errFrame is any frame a peer should not have sent: the link ends on it.
var errFrame = errors.New("cluster: malformed link frame")

// errBudget ends a call whose owner stayed silent for its whole budget.
var errBudget = errors.New("cluster: forward timed out")

// errLinkClosed ends the calls of a link its own node closed.
var errLinkClosed = errors.New("cluster: link closed")

// Frame is one decoded link frame. ID and Body are every kind's; Budget and
// Trace are a request's, Status and RetryAfter a reply's.
type Frame struct {
	Kind FrameKind
	ID   uint64

	// Budget is what was left of the sender's deadline when it wrote the
	// request: the receiver ends its own waiting no later. Trace is the
	// sender's sampled trace context, zero for none.
	Budget time.Duration
	Trace  model.TraceContext

	// Status is the HTTP status the owner answered, RetryAfter its back-off
	// hint in whole seconds (0 for none).
	Status     int
	RetryAfter int

	// Body aliases buf after Decode: it is dead at the next read.
	Body []byte
	buf  []byte
}

// Decode reads and decodes one frame, reusing f's storage. A length past
// maxFrame is refused before anything is allocated for it; a short, truncated
// or unknown-kind frame is an error too, and after any error the stream is
// unusable.
func (f *Frame) Decode(br *bufio.Reader) error {
	head, err := br.Peek(4)
	if err != nil {
		return err
	}
	n := int(binary.BigEndian.Uint32(head))
	if n < replyHeaderLen || n > maxFrame {
		return fmt.Errorf("%w: length %d", errFrame, n)
	}
	_, _ = br.Discard(4) // just peeked
	if cap(f.buf) < n {
		f.buf = make([]byte, n)
	}
	p := f.buf[:n]
	if _, err := io.ReadFull(br, p); err != nil {
		return err
	}
	f.Kind, f.ID = FrameKind(p[0]), binary.BigEndian.Uint64(p[1:])
	switch f.Kind {
	case FrameQuery, FrameConsumer, FramePing, FrameHeld, FrameSegment:
		if n < requestHeaderLen {
			return fmt.Errorf("%w: request of %d bytes", errFrame, n)
		}
		f.Budget = time.Duration(binary.BigEndian.Uint64(p[9:]))
		f.Trace = model.TraceContext{
			ID:      model.TraceID{Hi: binary.BigEndian.Uint64(p[17:]), Lo: binary.BigEndian.Uint64(p[25:])},
			Span:    binary.BigEndian.Uint64(p[33:]),
			Sampled: p[41]&1 != 0,
		}
		f.Body = p[requestHeaderLen:]
	case FrameReply:
		f.Status = int(binary.BigEndian.Uint16(p[9:]))
		f.RetryAfter = int(binary.BigEndian.Uint32(p[11:]))
		f.Body = p[replyHeaderLen:]
	default:
		return fmt.Errorf("%w: kind %d", errFrame, p[0])
	}
	return nil
}

// appendHeader appends f's length prefix and header; the body follows it on
// the wire.
func (f *Frame) appendHeader(dst []byte) []byte {
	if f.Kind == FrameReply {
		dst = binary.BigEndian.AppendUint32(dst, uint32(replyHeaderLen+len(f.Body)))
		dst = append(dst, byte(f.Kind))
		dst = binary.BigEndian.AppendUint64(dst, f.ID)
		dst = binary.BigEndian.AppendUint16(dst, uint16(f.Status))
		return binary.BigEndian.AppendUint32(dst, uint32(f.RetryAfter))
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(requestHeaderLen+len(f.Body)))
	dst = append(dst, byte(f.Kind))
	dst = binary.BigEndian.AppendUint64(dst, f.ID)
	dst = binary.BigEndian.AppendUint64(dst, uint64(f.Budget))
	dst = binary.BigEndian.AppendUint64(dst, f.Trace.ID.Hi)
	dst = binary.BigEndian.AppendUint64(dst, f.Trace.ID.Lo)
	dst = binary.BigEndian.AppendUint64(dst, f.Trace.Span)
	var flags byte
	if f.Trace.Sampled {
		flags = 1
	}
	return append(dst, flags)
}

// release drops storage too large to keep in a pool.
func (f *Frame) release() {
	if cap(f.buf) > maxPooledFrame {
		f.buf = nil
	}
	if cap(f.Body) > maxPooledFrame {
		f.Body = nil
	}
}

// wire is one end of a link: the connection and its buffered halves. Frames
// are written whole under wmu — copied into bw, so the caller's bytes are
// free once write returns — and a writer flushes only when no other writer
// is waiting behind it: under load a burst of frames shares one syscall, an
// idle link sends each frame at once.
type wire struct {
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer

	wmu     sync.Mutex
	writers atomic.Int32
	hdr     [4 + requestHeaderLen]byte // under wmu; here so it is not allocated per frame
}

func (w *wire) write(f *Frame) error {
	w.writers.Add(1)
	w.wmu.Lock()
	_, err := w.bw.Write(f.appendHeader(w.hdr[:0]))
	if err == nil {
		_, err = w.bw.Write(f.Body)
	}
	if w.writers.Add(-1) == 0 && err == nil {
		err = w.bw.Flush()
	}
	w.wmu.Unlock()
	return err
}

// Call is one forwarded request: the pending-table entry while it is in
// flight, the owner's answer once Forward has returned it, until Release.
type Call struct {
	Status     int
	RetryAfter int
	Body       []byte

	id    uint64
	done  chan error  // one verdict per registered call, from readLoop or fail
	timer *time.Timer // the call's budget; stopped between calls
}

var callPool = sync.Pool{New: func() any {
	t := time.NewTimer(time.Hour)
	t.Stop()
	return &Call{done: make(chan error, 1), timer: t}
}}

// Release returns the call, and the storage Body points into, to the pool.
func (c *Call) Release() {
	if cap(c.Body) > maxPooledFrame {
		c.Body = nil
	}
	callPool.Put(c)
}

// link is the calling end. A link is created the moment a forward needs one
// and dials on its own goroutine, so every caller that arrives meanwhile
// waits for the same dial under its own deadline; once it has failed — the
// dial, the handshake, a write, the peer hanging up — it stays failed, every
// pending call gets the error, and the next forward starts a new link.
type link struct {
	wire                // conn, br and bw are set before ready closes
	ready chan struct{} // closed once the link is up or has failed

	mu      sync.Mutex
	err     error // non-nil once the link is dead
	nextID  uint64
	pending map[uint64]*Call
}

func (l *link) dead() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err != nil
}

// fail kills the link: the connection closes and every pending call ends
// with err. Only the first failure counts.
func (l *link) fail(err error) {
	l.mu.Lock()
	if l.err != nil {
		l.mu.Unlock()
		return
	}
	l.err = err
	pending := l.pending
	l.pending = nil
	conn := l.conn
	l.mu.Unlock()
	if conn != nil {
		conn.Close()
	}
	for _, c := range pending {
		c.done <- err
	}
}

// forget takes c out of the pending table when its caller gives up. False
// means readLoop or fail claimed it first and its verdict is on the way.
func (l *link) forget(c *Call) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.pending[c.id] != c {
		return false
	}
	delete(l.pending, c.id)
	return true
}

// call sends one request and waits for its reply, ctx, the budget on c.timer
// or the link's end, whichever is first.
func (l *link) call(ctx context.Context, c *Call, kind FrameKind, tc model.TraceContext, deadline time.Time, body []byte) error {
	select {
	case <-l.ready:
	case <-ctx.Done():
		return ctx.Err()
	case <-c.timer.C:
		return errBudget
	}
	l.mu.Lock()
	if l.err != nil {
		l.mu.Unlock()
		return l.err
	}
	l.nextID++
	c.id = l.nextID
	l.pending[c.id] = c
	l.mu.Unlock()

	req := Frame{Kind: kind, ID: c.id, Budget: max(time.Until(deadline), 1), Trace: tc, Body: body}
	if err := l.write(&req); err != nil {
		l.fail(err) // which answers c with the rest
	}
	var err error
	select {
	case err = <-c.done:
		return err
	case <-ctx.Done():
		err = ctx.Err()
	case <-c.timer.C:
		err = errBudget
	}
	if l.forget(c) {
		return err // a reply that still comes finds no pending call and is dropped
	}
	return <-c.done
}

// readLoop hands each reply to the call that waits for it, until the
// connection ends or the peer sends something that is not a reply.
func (l *link) readLoop() error {
	var in Frame
	for {
		if err := in.Decode(l.br); err != nil {
			return err
		}
		if in.Kind != FrameReply {
			return fmt.Errorf("%w: kind %d from the serving end", errFrame, in.Kind)
		}
		l.mu.Lock()
		c := l.pending[in.ID]
		delete(l.pending, in.ID)
		l.mu.Unlock()
		if c != nil {
			c.Status, c.RetryAfter = in.Status, in.RetryAfter
			c.Body = append(c.Body[:0], in.Body...)
			c.done <- nil
		}
		in.release()
	}
}

// LinkHandler answers one forwarded query or consumer frame — the node
// answers the other kinds itself — on the goroutine that read the frame,
// which has passed the link's read side on, so it may block: it sets
// reply's Status and RetryAfter and appends the response to reply.Body.
// from is the node at the other end; ctx ends when the link does. req.Body is
// the serving goroutine's buffer and dead once the handler returns.
type LinkHandler func(ctx context.Context, from string, req, reply *Frame)

// inLink is the serving end of one accepted link. Its read side — the right
// to read the next frame off br — is held by one of its serving goroutines
// at a time and handed to another over readSide; see serveReads.
type inLink struct {
	wire
	from   string
	ctx    context.Context
	cancel context.CancelFunc
	sem    chan struct{} // maxLinkInFlight slots

	servers  sync.WaitGroup // the link's serving goroutines
	readSide chan struct{}  // unbuffered: the holder's hand-off; closed by the last holder
	idle     atomic.Int32   // servers waiting on readSide
	maxIdle  int32          // GOMAXPROCS when serving began: no more servers wait
}

// exchange is the storage of one serving goroutine's frames, pooled across
// the goroutines that come and go.
type exchange struct{ req, reply Frame }

var exchangePool = sync.Pool{New: func() any { return new(exchange) }}

// links is the node's link state: one outbound link per peer, every accepted
// inbound link, and the context all of them end with.
type links struct {
	ctx    context.Context
	cancel context.CancelFunc

	mu     sync.Mutex
	closed bool // no link starts or is accepted any more
	out    map[string]*link
	in     map[*inLink]struct{}
}

// dialPeer is the default dial: TCP (TLS for an https base URL) to the host
// of the peer's -peers address, on the scheme's port when it names none.
func dialPeer(ctx context.Context, p Peer) (net.Conn, error) {
	u, err := url.Parse(p.Addr)
	if err != nil {
		return nil, err
	}
	host := u.Host
	if u.Port() == "" {
		host = net.JoinHostPort(u.Hostname(), u.Scheme) // "http" and "https" are service names
	}
	if u.Scheme == "https" {
		return (&tls.Dialer{}).DialContext(ctx, "tcp", host)
	}
	return (&net.Dialer{}).DialContext(ctx, "tcp", host)
}

// Forward sends one request frame to peer over the link to it — starting
// one if none is up — and returns the peer's answer, which the caller
// Releases once done with it. body is copied into the link's buffer before
// Forward returns. An error means no answer came: the link could not be
// opened, broke, or stayed silent until ctx or ForwardTimeout ran out.
func (n *Node) Forward(ctx context.Context, peer Peer, kind FrameKind, tc model.TraceContext, body []byte) (*Call, error) {
	l, err := n.linkTo(peer)
	if err != nil {
		return nil, err
	}
	deadline := time.Now().Add(ForwardTimeout)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	c := callPool.Get().(*Call)
	c.timer.Reset(time.Until(deadline))
	err = l.call(ctx, c, kind, tc, deadline, body)
	c.timer.Stop()
	if err != nil {
		c.Release()
		return nil, fmt.Errorf("link to %s: %w", peer.ID, err)
	}
	return c, nil
}

// linkTo returns the live link to p, starting one when there is none.
func (n *Node) linkTo(p Peer) (*link, error) {
	ls := &n.links
	ls.mu.Lock()
	defer ls.mu.Unlock()
	if ls.closed {
		return nil, errLinkClosed
	}
	if l := ls.out[p.ID]; l != nil && !l.dead() {
		return l, nil
	}
	l := &link{ready: make(chan struct{}), pending: make(map[uint64]*Call)}
	ls.out[p.ID] = l
	n.wg.Add(1)
	go n.runLink(l, p)
	return l, nil
}

// runLink is an outbound link's goroutine: dial, handshake, then the read
// loop until the link dies. The dial is bounded by the heartbeat timeout —
// the node's one notion of how long a reachable peer takes to answer — not
// by whichever request happened to need the link first.
func (n *Node) runLink(l *link, p Peer) {
	defer n.wg.Done()
	ctx, cancel := context.WithTimeout(n.links.ctx, n.cfg.HeartbeatTimeout)
	conn, br, err := n.openLink(ctx, p)
	cancel()
	if err == nil {
		l.mu.Lock()
		if err = l.err; err == nil { // else Close got here first
			l.conn, l.br, l.bw = conn, br, bufio.NewWriter(conn)
		}
		l.mu.Unlock()
		if err != nil {
			conn.Close()
		}
	}
	if err != nil {
		l.fail(err)
		close(l.ready)
		return
	}
	close(l.ready)
	l.fail(l.readLoop())
}

// openLink dials p and upgrades the connection: a GET of ForwardPath that
// names the protocol and this node, answered 101.
func (n *Node) openLink(ctx context.Context, p Peer) (net.Conn, *bufio.Reader, error) {
	conn, err := n.cfg.Dial(ctx, p)
	if err != nil {
		return nil, nil, err
	}
	if d, ok := ctx.Deadline(); ok {
		_ = conn.SetDeadline(d) // the handshake shares the dial's bound
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.Addr+ForwardPath, nil)
	if err == nil {
		req.Header.Set("Connection", "Upgrade")
		req.Header.Set("Upgrade", linkProtocol)
		req.Header.Set(ForwardedFromHeader, n.cfg.Self.ID)
		err = req.Write(conn)
	}
	br := bufio.NewReader(conn)
	var resp *http.Response
	if err == nil {
		resp, err = http.ReadResponse(br, req)
	}
	if err == nil && resp.StatusCode != http.StatusSwitchingProtocols {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<10))
		err = fmt.Errorf("upgrade refused: %s: %s", resp.Status, strings.TrimSpace(string(msg)))
	}
	if err != nil {
		conn.Close()
		return nil, nil, err
	}
	_ = conn.SetDeadline(time.Time{})
	return conn, br, nil
}

// AcceptLink serves the Upgrade request of a peer's link on ForwardPath and
// then the link itself, returning when it ends. Anything but this protocol
// from another member of the ring is a 400 before the connection is taken
// over: the sender's ID names its replica directory, so nothing else may
// reach the file system.
func (n *Node) AcceptLink(w http.ResponseWriter, r *http.Request) {
	from := r.Header.Get(ForwardedFromHeader)
	switch {
	case !strings.EqualFold(r.Header.Get("Upgrade"), linkProtocol):
		http.Error(w, "cluster: expected an Upgrade to "+linkProtocol, http.StatusBadRequest)
		return
	case !n.otherMember(from):
		http.Error(w, fmt.Sprintf("cluster: refusing a link from unknown node %q", from), http.StatusBadRequest)
		return
	}
	conn, rw, err := http.NewResponseController(w).Hijack()
	if err != nil {
		http.Error(w, "cluster: connection cannot be upgraded", http.StatusInternalServerError)
		return
	}
	l := &inLink{from: from}
	l.conn, l.br, l.bw = conn, rw.Reader, rw.Writer
	l.ctx, l.cancel = context.WithCancel(n.links.ctx)
	if !n.trackInbound(l) {
		l.cancel()
		conn.Close()
		return
	}
	_, _ = l.bw.WriteString("HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: " + linkProtocol + "\r\n\r\n")
	if l.bw.Flush() == nil {
		n.serveLink(l)
	}
	n.links.mu.Lock()
	delete(n.links.in, l)
	n.links.mu.Unlock()
	l.cancel()
	conn.Close()
	n.wg.Done()
}

// trackInbound adds an accepted link to the set Close ends and waits for;
// false once the node is closing.
func (n *Node) trackInbound(l *inLink) bool {
	ls := &n.links
	ls.mu.Lock()
	defer ls.mu.Unlock()
	if ls.closed {
		return false
	}
	ls.in[l] = struct{}{}
	n.wg.Add(1)
	return true
}

// serveLink serves the link until the connection ends, the peer sends
// anything but a request, or the node stops reading, and returns once every
// goroutine serving it has: frames already being served answer first —
// unless the peer is gone, when there is nobody to answer and their waits
// are cut short. The caller's goroutine holds the read side first.
func (n *Node) serveLink(l *inLink) {
	l.sem = make(chan struct{}, maxLinkInFlight)
	l.readSide = make(chan struct{})
	l.maxIdle = int32(runtime.GOMAXPROCS(0))
	l.servers.Add(1)
	n.serveReads(l)
	l.servers.Wait()
}

// serveReads is one serving goroutine of a link; it holds the read side on
// entry. It reads a request frame, passes the read side on — to a goroutine
// of the link that waits for it or else to a new one — and serves the frame
// itself, so a frame is served where it was read and one parked on a slow
// worker delays nothing behind it. Having answered, it waits for the read
// side again, unless l.maxIdle others already wait: then, or once the link
// has ended, it returns. With maxLinkInFlight frames being served the holder
// waits for a slot and nothing reads, so TCP pushes back.
func (n *Node) serveReads(l *inLink) {
	defer l.servers.Done()
	x := exchangePool.Get().(*exchange)
	defer exchangePool.Put(x)
	for {
		if err := x.req.Decode(l.br); err != nil || x.req.Kind == FrameReply {
			if !errors.Is(err, os.ErrDeadlineExceeded) { // not DrainLinks: the link is broken
				l.cancel()
			}
			close(l.readSide) // only the holder sends on it, and it is done
			return
		}
		l.sem <- struct{}{}
		select {
		case l.readSide <- struct{}{}:
		default:
			l.servers.Add(1)
			go n.serveReads(l)
		}
		n.serveFrame(l, x)
		if !l.awaitReadSide() {
			return
		}
	}
}

// awaitReadSide waits for the read side once a server has answered its
// frame: false at once when maxIdle servers already wait, or once the last
// holder has closed readSide.
func (l *inLink) awaitReadSide() bool {
	defer l.idle.Add(-1)
	if l.idle.Add(1) > l.maxIdle {
		return false
	}
	_, ok := <-l.readSide
	return ok
}

func (n *Node) serveFrame(l *inLink, x *exchange) {
	if x.req.Budget <= 0 || x.req.Budget > ForwardTimeout {
		x.req.Budget = ForwardTimeout // nothing a peer sends makes this end wait longer
	}
	x.reply = Frame{Kind: FrameReply, ID: x.req.ID, Body: x.reply.Body[:0]}
	switch x.req.Kind {
	case FramePing:
		x.reply.Status = http.StatusOK
	case FrameHeld:
		n.serveHeld(l.from, &x.reply)
	case FrameSegment:
		n.serveSegment(l.from, x.req.Body, &x.reply)
	default:
		n.cfg.Serve(l.ctx, l.from, &x.req, &x.reply)
	}
	if len(x.reply.Body) > MaxFrameBody {
		x.reply.Status, x.reply.RetryAfter = http.StatusInternalServerError, 0
		x.reply.Body = append(x.reply.Body[:0], "{\"error\":\"response exceeds the link's frame limit\"}\n"...)
	}
	if err := l.write(&x.reply); err != nil {
		l.conn.Close() // which ends the read side too
	}
	x.req.release()
	x.reply.release()
	<-l.sem
}

// DrainLinks stops every accepted link from reading further frames; those
// being served still answer, and then the connection closes. A hijacked
// connection is invisible to http.Server.Shutdown, so a graceful shutdown
// calls this beside it. Idempotent.
func (n *Node) DrainLinks() {
	ls := &n.links
	ls.mu.Lock()
	defer ls.mu.Unlock()
	for l := range ls.in {
		_ = l.conn.SetReadDeadline(time.Unix(1, 0))
	}
}

// failLink ends the outbound link to peer, if there is one: its pending calls
// fail with err now, not at their deadlines. The heartbeats call it when they
// give a peer up — a connection to a host that vanished can stay silent for
// minutes before a write fails.
func (n *Node) failLink(peer string, err error) {
	n.links.mu.Lock()
	l := n.links.out[peer]
	n.links.mu.Unlock()
	if l != nil {
		l.fail(err)
	}
}

// closeLinks ends every link now: waits for results stop, outbound calls
// fail, and replies being written get linkDrainGrace to reach their peer.
func (n *Node) closeLinks() {
	n.DrainLinks()
	ls := &n.links
	ls.cancel()
	ls.mu.Lock()
	defer ls.mu.Unlock()
	ls.closed = true
	for l := range ls.in {
		_ = l.conn.SetWriteDeadline(time.Now().Add(linkDrainGrace))
	}
	for _, l := range ls.out {
		l.fail(errLinkClosed)
	}
}
