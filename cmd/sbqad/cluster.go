package main

// Cluster mode: with -node-id (and usually -peers) the daemon joins a
// static mediation cluster. A consistent-hash ring over consumer IDs
// decides which node owns each consumer; this file is the gateway half
// of that contract — transparent forwarding of misrouted traffic to the
// owner, the route a peer opens its link on (which then also carries the
// heartbeats and WAL shipping the internal/cluster node drives), and the
// /v1/cluster control surface.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"sbqa"
)

// clusterSettings carries the cluster flags from main to the gateway.
type clusterSettings struct {
	nodeID            string
	peers             []sbqa.ClusterPeer
	heartbeatInterval time.Duration
	heartbeatTimeout  time.Duration
	replicateInterval time.Duration
	stateDir          string
	// dial opens the connections peer links run on; nil, as main leaves it,
	// dials the peer's address.
	dial func(context.Context, sbqa.ClusterPeer) (net.Conn, error)
}

// parsePeers decodes the -peers flag: comma-separated id=baseURL pairs,
// e.g. "b=http://10.0.0.2:8080,c=http://10.0.0.3:8080".
func parsePeers(s string) ([]sbqa.ClusterPeer, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var peers []sbqa.ClusterPeer
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, addr, ok := strings.Cut(part, "=")
		if !ok || id == "" || addr == "" {
			return nil, fmt.Errorf("bad peer %q: want id=baseURL", part)
		}
		if !strings.HasPrefix(addr, "http://") && !strings.HasPrefix(addr, "https://") {
			return nil, fmt.Errorf("bad peer %q: address must be a base URL (http[s]://host:port)", part)
		}
		peers = append(peers, sbqa.ClusterPeer{ID: id, Addr: strings.TrimRight(addr, "/")})
	}
	return peers, nil
}

// clusterMetrics counts the gateway's forwarding activity for
// /v1/metrics. Latency is accumulated in microseconds so the Prometheus
// _sum/_count pair can be derived without floats in the hot path.
type clusterMetrics struct {
	fwdQueries      atomic.Uint64 // queries forwarded (attempts)
	fwdConsumers    atomic.Uint64 // consumer registrations forwarded
	fwdErrors       atomic.Uint64 // forwards that got no answer
	fwdLatencyMicro atomic.Uint64 // total round-trip time of answered forwards
	fwdCompleted    atomic.Uint64 // answered forwards: the latency observations
	notOwner        atomic.Uint64 // forwarded hops refused: ring disagreement
	peerDown        atomic.Uint64 // requests refused: owner down
}

// observe records one forward: its round trip when the owner answered, an
// error when nothing came back. A dead owner's timeouts are counted, not
// averaged into the hop time of the forwards that work.
func (c *clusterMetrics) observe(d time.Duration, answered bool) {
	if !answered {
		c.fwdErrors.Add(1)
		return
	}
	c.fwdCompleted.Add(1)
	c.fwdLatencyMicro.Add(uint64(d / time.Microsecond))
}

// initCluster builds and starts the cluster node against the freshly
// built engine: the engine's registry receives failover replays, its
// persistence store (when -state-dir is set) feeds WAL shipping, and
// the engine's submit guard enforces ownership below the HTTP layer.
func (g *gateway) initCluster(cs *clusterSettings) error {
	cfg := sbqa.ClusterConfig{
		Self:              sbqa.ClusterPeer{ID: cs.nodeID},
		Peers:             cs.peers,
		HeartbeatInterval: cs.heartbeatInterval,
		HeartbeatTimeout:  cs.heartbeatTimeout,
		ReplicateInterval: cs.replicateInterval,
		Registry:          g.eng.Registry(),
		Observer:          g.hub.observer(),
		Logf:              log.Printf,
		Dial:              cs.dial,
		Serve:             g.serveFrame,
	}
	if ps := g.eng.PersistStore(); ps != nil {
		cfg.Store = ps
		cfg.StateDir = cs.stateDir
	}
	node, err := sbqa.NewClusterNode(cfg)
	if err != nil {
		return err
	}
	g.node = node
	g.forwardedFrom = []string{node.Self().ID}
	g.eng.SetSubmitGuard(node.SubmitGuard())
	node.Start()
	return nil
}

// routedError is the body of a typed routing failure: the standard error
// JSON plus a machine-readable code ("not_owner" | "peer_down") and, when
// known, the owner so clients can re-aim instead of blind-retrying. It goes
// out under a 503.
func routedError(code string, owner sbqa.ClusterPeer, err error) map[string]string {
	body := map[string]string{"error": err.Error(), "code": code}
	if owner.ID != "" {
		body["owner"] = owner.ID
		if owner.Addr != "" {
			body["owner_addr"] = owner.Addr
		}
	}
	return body
}

// routeOrForward is the ownership gate of the two cores. It returns true
// when this node owns the consumer and the caller should proceed locally.
// Otherwise the answer is in sc already: body — the request's bytes as the
// client sent them — went to the owner over its peer link and what the owner
// answered came back, or a typed 503 (not_owner for a forwarded frame that
// still is not ours — one hop only, never a loop — peer_down for an
// unreachable owner).
func (g *gateway) routeOrForward(sc *scratch, h hop, consumer int, kind sbqa.ClusterFrameKind, tc sbqa.TraceContext, body []byte) bool {
	if g.node == nil {
		return true
	}
	owner, self, err := g.node.Route(sbqa.ConsumerID(consumer))
	if self {
		return true
	}
	if h.from != "" {
		g.cmx.notOwner.Add(1)
		sc.answer(http.StatusServiceUnavailable, routedError("not_owner", owner,
			fmt.Errorf("consumer %d is owned by node %s; sender's ring disagrees with this node's", consumer, owner.ID)))
		return false
	}
	if err != nil {
		g.cmx.peerDown.Add(1)
		sc.answer(http.StatusServiceUnavailable, routedError("peer_down", owner,
			fmt.Errorf("consumer %d is owned by node %s, which is down", consumer, owner.ID)))
		return false
	}
	if kind == sbqa.ClusterFrameQuery {
		g.cmx.fwdQueries.Add(1)
	} else {
		g.cmx.fwdConsumers.Add(1)
	}
	g.forward(sc, h, owner, kind, tc, body)
	return false
}

// forward calls the owner over the peer link with the request's own bytes —
// nothing is re-encoded, so the owner decodes exactly what the client sent,
// unknown members included — and leaves its answer in sc whole: status,
// Retry-After, body. The call ends with the inbound request's context — the
// client's cancellation and deadline propagate, and what is left of the
// deadline rides the frame — or after the link's ForwardTimeout, so a silent
// owner yields a typed 503 rather than a hang. A sampled submission takes its
// trace context along, so both nodes' segments share one trace ID.
func (g *gateway) forward(sc *scratch, h hop, owner sbqa.ClusterPeer, kind sbqa.ClusterFrameKind, tc sbqa.TraceContext, body []byte) {
	if !tc.Sampled {
		tc = sbqa.TraceContext{}
	}
	fwStart := sbqa.TraceNow()
	start := time.Now()
	call, err := g.node.Forward(h.ctx, owner, kind, tc, body)
	g.cmx.observe(time.Since(start), err == nil)
	if tc.Sampled {
		tr := g.eng.Tracer()
		tr.RecordSpan(tc.ID, sbqa.TraceSpan{
			Name: sbqa.StageForward, Class: owner.ID,
			Start: fwStart, End: sbqa.TraceNow(),
		})
		errStr := ""
		if err != nil {
			errStr = err.Error()
		}
		// This node's segment ends here; the owner records the rest of
		// the pipeline under the same trace ID.
		tr.Finish(tc.ID, "forwarded", errStr, nil)
	}
	if err != nil {
		sc.answer(http.StatusServiceUnavailable, routedError("peer_down", owner,
			fmt.Errorf("forwarding to node %s: %w", owner.ID, err)))
		return
	}
	sc.status, sc.retryAfter, sc.out = call.Status, call.RetryAfter, append(sc.out[:0], call.Body...)
	call.Release()
}

// handleLink serves the Upgrade request a peer opens its link with, and then
// the link, for as long as it lasts.
func (g *gateway) handleLink(w http.ResponseWriter, r *http.Request) {
	if _, ok := g.requireEngine(w); !ok {
		return // still restoring: the peer's dial fails and it answers peer_down
	}
	if g.node == nil {
		writeError(w, http.StatusNotFound, errors.New("cluster mode disabled"))
		return
	}
	g.node.AcceptLink(w, r)
}

// serveFrame answers one request frame of a peer link by running the same
// core the HTTP endpoint runs, on the frame's bytes: no http.Request, no
// ResponseWriter, no mux.
func (g *gateway) serveFrame(ctx context.Context, from string, req, reply *sbqa.ClusterFrame) {
	sc := getScratch()
	defer putScratch(sc)
	h := hop{ctx: ctx, from: from, trace: req.Trace, budget: req.Budget}
	switch eng := g.engine(); {
	case eng == nil:
		sc.answerError(http.StatusServiceUnavailable, errStarting)
	case req.Kind == sbqa.ClusterFrameQuery:
		g.submit(eng, sc, req.Body, h)
	default:
		g.registerConsumer(eng, sc, req.Body, h)
	}
	reply.Status, reply.RetryAfter, reply.Body = sc.status, sc.retryAfter, append(reply.Body, sc.out...)
}

// relay writes an owner's refusal of a proxied subscription back whole:
// status, body, and the headers a client acts on — Content-Type, and the
// Retry-After that is a back-off hint.
func relay(w http.ResponseWriter, resp *http.Response) {
	for _, h := range [...]string{"Content-Type", "Retry-After"} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body)
}

// handleCluster serves GET /v1/cluster: ring membership, peer health,
// and replication positions as seen by this node.
func (g *gateway) handleCluster(w http.ResponseWriter, _ *http.Request) {
	if g.node == nil {
		writeError(w, http.StatusNotFound, errors.New("cluster mode disabled (run with -node-id)"))
		return
	}
	writeJSON(w, http.StatusOK, g.node.Status())
}

// proxySSE streams the owner's /v1/events to this gateway's subscriber
// — the SSE leg of transparent forwarding. The stream lives until the
// client disconnects, the owner ends it, or this gateway shuts down.
func (g *gateway) proxySSE(w http.ResponseWriter, r *http.Request, owner sbqa.ClusterPeer, consumer string) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, fmt.Errorf("streaming unsupported"))
		return
	}
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	go func() {
		select {
		case <-g.shuttingDown:
			cancel()
		case <-ctx.Done():
		}
	}()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		owner.Addr+"/v1/events?consumer="+consumer, nil)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	req.Header[sbqa.ClusterForwardedFromHeader] = g.forwardedFrom
	resp, err := g.sseClient.Do(req)
	if err != nil {
		writeJSON(w, http.StatusServiceUnavailable, routedError("peer_down", owner, fmt.Errorf("subscribing at node %s: %w", owner.ID, err)))
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		relay(w, resp)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return
			}
			flusher.Flush()
		}
		if err != nil {
			return
		}
	}
}
