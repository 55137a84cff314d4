package main

// Cluster mode: with -node-id (and usually -peers) the daemon joins a
// static mediation cluster. A consistent-hash ring over consumer IDs
// decides which node owns each consumer; this file is the gateway half
// of that contract — transparent forwarding of misrouted traffic to the
// owner, the /v1/cluster control surface, and the intra-cluster
// replication endpoints the internal/cluster node drives.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"strconv"
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

// forwardTimeout is the ceiling on one forwarded request when the
// client supplied no deadline of its own: a dead owner must become a
// typed 503, never a hung handler. The client's own deadline (via its
// request context) propagates through and can only shorten this.
const forwardTimeout = 30 * time.Second

// clusterMetrics counts the gateway's forwarding activity for
// /v1/metrics. Latency is accumulated in microseconds so the Prometheus
// _sum/_count pair can be derived without floats in the hot path.
type clusterMetrics struct {
	fwdQueries      atomic.Uint64 // queries forwarded (attempts)
	fwdConsumers    atomic.Uint64 // consumer registrations forwarded
	fwdErrors       atomic.Uint64 // forwards failed in transport
	fwdLatencyMicro atomic.Uint64 // total forward round-trip time
	fwdCompleted    atomic.Uint64 // latency observations
	notOwner        atomic.Uint64 // forwarded hops refused: ring disagreement
	peerDown        atomic.Uint64 // requests refused: owner down
}

func (c *clusterMetrics) observe(d time.Duration, ok bool) {
	c.fwdCompleted.Add(1)
	c.fwdLatencyMicro.Add(uint64(d / time.Microsecond))
	if !ok {
		c.fwdErrors.Add(1)
	}
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

// writeRoutedError answers a typed routing failure: the standard error
// JSON plus a machine-readable code ("not_owner" | "peer_down") and,
// when known, the owner so clients can re-aim instead of blind-retrying.
func writeRoutedError(w http.ResponseWriter, code string, owner sbqa.ClusterPeer, err error) {
	body := map[string]string{"error": err.Error(), "code": code}
	if owner.ID != "" {
		body["owner"] = owner.ID
		if owner.Addr != "" {
			body["owner_addr"] = owner.Addr
		}
	}
	writeJSON(w, http.StatusServiceUnavailable, body)
}

// routeOrForward is the ownership gate on every consumer-keyed
// endpoint. It returns true when this node owns the consumer and the
// caller should proceed locally. Otherwise it has already answered:
// body — the request's bytes as the client sent them — was forwarded to
// the owner and its response relayed, or a typed 503 was written
// (not_owner for a forwarded hop that still is not ours — one hop only,
// never a loop — peer_down for an unreachable owner).
func (g *gateway) routeOrForward(w http.ResponseWriter, r *http.Request, consumer int, path string, counter *atomic.Uint64, body []byte) bool {
	if g.node == nil {
		return true
	}
	owner, self, err := g.node.Route(sbqa.ConsumerID(consumer))
	if self {
		return true
	}
	if r.Header.Get(sbqa.ClusterForwardedFromHeader) != "" {
		g.cmx.notOwner.Add(1)
		writeRoutedError(w, "not_owner", owner,
			fmt.Errorf("consumer %d is owned by node %s; sender's ring disagrees with this node's", consumer, owner.ID))
		return false
	}
	if err != nil {
		g.cmx.peerDown.Add(1)
		writeRoutedError(w, "peer_down", owner,
			fmt.Errorf("consumer %d is owned by node %s, which is down", consumer, owner.ID))
		return false
	}
	counter.Add(1)
	g.forward(w, r, owner, path, body)
	return false
}

// forward sends the request's own bytes to the owner's internal forward
// endpoint — nothing is re-encoded, so the owner decodes exactly what the
// client sent, unknown members included — and relays the response whole.
// The outbound request runs on the inbound request's context — the
// client's cancellation and deadline propagate — capped by forwardTimeout
// so a silent owner yields a typed 503 rather than a hang. body is the
// caller's pooled buffer, and the transport may still be writing the request
// after Do returns (an owner that answers before it has read it), so what
// goes out is a copy.
func (g *gateway) forward(w http.ResponseWriter, r *http.Request, owner sbqa.ClusterPeer, path string, body []byte) {
	ctx, cancel := context.WithTimeout(r.Context(), forwardTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, owner.Addr+path, bytes.NewReader(bytes.Clone(body)))
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	req.Header["Content-Type"] = jsonContentType
	req.Header[sbqa.ClusterForwardedFromHeader] = g.forwardedFrom
	// A sampled submission propagates its trace context to the owner as a
	// W3C traceparent, so both nodes' segments share one trace ID.
	tc, traced := traceContextFrom(r.Context())
	if traced {
		req.Header.Set(sbqa.TraceparentHeader, sbqa.FormatTraceparent(tc))
	}
	fwStart := sbqa.TraceNow()
	start := time.Now()
	resp, err := g.forwardClient.Do(req)
	g.cmx.observe(time.Since(start), err == nil)
	if traced {
		if tr := g.engine().Tracer(); tr != nil {
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
	}
	if err != nil {
		writeRoutedError(w, "peer_down", owner, fmt.Errorf("forwarding to node %s: %w", owner.ID, err))
		return
	}
	defer resp.Body.Close()
	relay(w, resp)
}

// relay writes the owner's answer back whole: status, body, and the headers
// a client acts on — Content-Type, and the Retry-After that is the back-off
// hint of a 429 or a shed 503.
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

// maxSegmentBody bounds one shipped WAL segment; segments rotate at a
// few MiB, so far below this.
const maxSegmentBody = 256 << 20

// handleSegmentsGet lists the segment seqs held for ?origin=<node> —
// the shipping handshake's inventory side.
func (g *gateway) handleSegmentsGet(w http.ResponseWriter, r *http.Request) {
	if g.node == nil {
		writeError(w, http.StatusNotFound, errors.New("cluster mode disabled"))
		return
	}
	origin := r.URL.Query().Get("origin")
	if err := g.node.CheckOrigin(origin); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	seqs, err := g.node.HeldSegments(origin)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	if seqs == nil {
		seqs = []uint64{}
	}
	writeJSON(w, http.StatusOK, map[string][]uint64{"seqs": seqs})
}

// handleSegmentsPost accepts one shipped WAL segment (raw journal bytes
// as the body) for ?origin=<node>&seq=<n>. Validation and atomic
// placement happen in the cluster node; a bad transfer is a 400 that names
// origin and seq, a failure of this node's own disk a 500, and neither
// leaves anything behind.
func (g *gateway) handleSegmentsPost(w http.ResponseWriter, r *http.Request) {
	if g.node == nil {
		writeError(w, http.StatusNotFound, errors.New("cluster mode disabled"))
		return
	}
	origin := r.URL.Query().Get("origin")
	seq, err := strconv.ParseUint(r.URL.Query().Get("seq"), 10, 64)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad seq: %w", err))
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, maxSegmentBody)
	refused, err := g.node.AcceptSegment(origin, seq, r.Body)
	if err != nil {
		// The node's own disk, not the upload: the cause names local paths,
		// so it goes to the log and the sender gets the bare fact (and
		// retries at its next replication round).
		log.Printf("sbqad: storing segment %d from %q: %v", seq, origin, err)
		writeError(w, http.StatusInternalServerError, errors.New("storing the segment failed on this node"))
		return
	}
	if refused != nil {
		writeError(w, http.StatusBadRequest, refused)
		return
	}
	writeJSON(w, http.StatusOK, map[string]uint64{"seq": seq})
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
	resp, err := g.forwardClient.Do(req)
	if err != nil {
		writeRoutedError(w, "peer_down", owner, fmt.Errorf("subscribing at node %s: %w", owner.ID, err))
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
