package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"mime"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"sbqa"
)

// gateway is the HTTP/JSON front end over the asynchronous Engine API:
// submit, register-worker/consumer (local or webhook-backed remote), stats,
// metrics, health/readiness, and a server-sent-events stream of the
// engine's observer events plus per-query results.
//
// The gateway separates liveness from readiness: the HTTP server may bind
// and answer /v1/healthz while the engine is still being built — in
// particular while a -state-dir restore replays a large journal. Until init
// completes, /v1/readyz (and every engine-backed endpoint) answers 503.
type gateway struct {
	// ready flips once init has built (and, with -state-dir, restored)
	// the engine; eng is written before the flip and only read by
	// handlers after observing it.
	ready atomic.Bool
	eng   *sbqa.Engine
	hub   *hub

	// node is non-nil in cluster mode (-node-id): it owns the consistent-
	// hash ring, peer health, WAL replication and the peer links that
	// carry forwarded submits and registrations. cmx counts the gateway's
	// forwarding traffic; sseClient proxies a routed event subscription
	// (no client-level timeout — the stream lives as long as its
	// subscriber). forwardedFrom is this node's ID as the value of the
	// forwarded-from header on that proxied request, built once: the ID
	// never changes after initCluster.
	node          *sbqa.ClusterNode
	cmx           clusterMetrics
	sseClient     *http.Client
	forwardedFrom []string

	// webhookClient performs the remote participants' intention calls. The
	// engine's per-participant deadline bounds each call through its
	// context; the client's own timeout is the hard upper bound that keeps
	// a hung webhook from wedging a shard when the daemon runs with
	// -participant-deadline 0 (gateway submissions run on a context no
	// request owns, so nothing would ever cancel the call).
	webhookClient *http.Client

	// shuttingDown closes when graceful shutdown begins, ending the SSE
	// streams so http.Server.Shutdown does not wait out its whole grace
	// period behind connected subscribers.
	shuttingDown chan struct{}

	// results receives the per-worker results of every query submitted while
	// the event stream has a subscriber — such a Submit names it through
	// submitResults, the one WithResults option built with the gateway — and
	// publishResults drains it to the stream for the gateway's whole life,
	// behind a buffer as deep as a subscriber's.
	// resultsDone ends the drain; close closes it only after the workers, so
	// a delivery never parks a worker on the way down.
	results       chan sbqa.LiveResult
	submitResults sbqa.QueryOption
	resultsDone   chan struct{}

	mu      sync.Mutex
	workers map[sbqa.ProviderID]managedWorker

	// policyMu serializes PUT /v1/policy so the generation echoed to each
	// caller is the one its own Reconfigure was assigned (the engine
	// serializes internally, but the counter read would otherwise race
	// with a concurrent PUT).
	policyMu sync.Mutex

	// limiter is the QoS admission filter applied before Submit: per-
	// consumer and per-class token buckets. Nil admits everything. Swapped
	// wholesale by -qos flags at boot and by PUT /v1/policy when the spec
	// carries a qos block, so admission reconfigures live with the
	// scheduler.
	limiter atomic.Pointer[sbqa.QoSLimiter]
	// admissionRejected accumulates 429s across limiter swaps (each
	// limiter's own counter dies with it).
	admissionRejected atomic.Uint64
}

// webhookClientTimeout is the transport-level ceiling on one intention
// webhook call, effective even with -participant-deadline 0.
const webhookClientTimeout = 30 * time.Second

// managedWorker is a worker the gateway started and owns: the plain local
// executor or its webhook-backed decoration.
type managedWorker interface {
	ProviderID() sbqa.ProviderID
	Close()
}

// newGatewayShell builds a gateway whose HTTP surface is immediately
// servable but not yet ready: every engine-backed endpoint answers 503
// until init completes. serve uses this to bind the
// listener before the (possibly long) state restore.
func newGatewayShell() *gateway {
	results := make(chan sbqa.LiveResult, subscriberBuffer)
	return &gateway{
		hub:           newHub(),
		webhookClient: &http.Client{Timeout: webhookClientTimeout},
		sseClient:     &http.Client{},
		shuttingDown:  make(chan struct{}),
		results:       results,
		submitResults: sbqa.WithResults(results),
		resultsDone:   make(chan struct{}),
		workers:       make(map[sbqa.ProviderID]managedWorker),
	}
}

// init builds the engine — restoring persisted state when the
// options carry WithPersistence — with the gateway's event hub installed as
// the engine observer, then marks the gateway ready. With cluster settings
// the node (ring, heartbeats, replication, submit guard) is built and
// started before the ready flip, so no unguarded submission can slip
// through the window between engine construction and guard installation.
func (g *gateway) init(cs *clusterSettings, opts ...sbqa.EngineOption) error {
	eng, err := sbqa.NewEngine(append(opts, sbqa.WithObserver(g.hub.observer()))...)
	if err != nil {
		return err
	}
	g.eng = eng
	g.syncLimiter()
	if cs != nil {
		if err := g.initCluster(cs); err != nil {
			eng.Close()
			g.eng = nil
			return err
		}
	}
	go g.publishResults()
	g.ready.Store(true)
	return nil
}

// hasAdmissionRates reports whether the spec configures any token bucket.
func hasAdmissionRates(qs sbqa.QoSSpec) bool {
	if qs.ConsumerRate > 0 {
		return true
	}
	for _, c := range qs.Classes {
		if c.Rate > 0 {
			return true
		}
	}
	return false
}

// newGateway builds a ready gateway in one step (tests and embedders that
// do not need the not-ready window).
func newGateway(opts ...sbqa.EngineOption) (*gateway, error) {
	g := newGatewayShell()
	if err := g.init(nil, opts...); err != nil {
		return nil, err
	}
	return g, nil
}

// syncLimiter derives the admission limiter from the QoS spec the engine
// runs now (the boot policy's qos block, or what the last PUT left)
// — one source of truth for token buckets and class queues. A spec with
// admission rates installs fresh token buckets (momentary amnesty — refused
// counts accumulate on the gateway, not the limiter); one without leaves the
// hot path limiter-free. The limiter runs on its own monotonic clock; it
// only ever differences times, so the origin is irrelevant.
func (g *gateway) syncLimiter() {
	qs := g.eng.QoSSpec()
	if !hasAdmissionRates(qs) {
		g.limiter.Store(nil)
		return
	}
	start := time.Now()
	g.limiter.Store(sbqa.NewQoSLimiter(qs, func() float64 {
		return time.Since(start).Seconds()
	}))
}

// engine returns the engine once the gateway is ready, nil before.
func (g *gateway) engine() *sbqa.Engine {
	if !g.ready.Load() {
		return nil
	}
	return g.eng
}

// requireEngine resolves the engine or answers 503 — the standard guard of
// every engine-backed handler during the restore window.
func (g *gateway) requireEngine(w http.ResponseWriter) (*sbqa.Engine, bool) {
	eng := g.engine()
	if eng == nil {
		writeError(w, http.StatusServiceUnavailable, errStarting)
		return nil, false
	}
	return eng, true
}

// errStarting is the not-ready answer while the engine restores.
var errStarting = errors.New("starting: engine restoring persisted state")

// beginShutdown ends the SSE streams and stops the peer links peers opened
// here from taking new frames (idempotent); call it before
// http.Server.Shutdown, which waits a whole grace period behind a connected
// subscriber and never sees a hijacked link at all.
func (g *gateway) beginShutdown() {
	closeOnce(g.shuttingDown)
	if g.node != nil {
		g.node.DrainLinks()
	}
}

// closeOnce closes a signal channel unless it is closed already. Shutdown
// runs on one goroutine, so the check does not race the close.
func closeOnce(ch chan struct{}) {
	select {
	case <-ch:
	default:
		close(ch)
	}
}

// close shuts the engine and every worker the gateway started. With
// persistence configured, Engine.Close drains the journal and flushes the
// final snapshot — this is the daemon's flush-on-SIGTERM path.
func (g *gateway) close() {
	g.beginShutdown()
	if g.node != nil {
		// Stop heartbeats and WAL shipping before the engine seals its
		// journal on the way down — and end the peer links while the
		// engine can still answer the frames being served.
		g.node.Close()
	}
	if g.eng != nil {
		g.eng.Close()
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, w := range g.workers {
		w.Close()
	}
	closeOnce(g.resultsDone)
}

// handler routes the gateway's endpoints.
func (g *gateway) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/consumers", g.handleRegisterConsumer)
	mux.HandleFunc("POST /v1/workers", g.handleRegisterWorker)
	mux.HandleFunc("DELETE /v1/workers/{id}", g.handleUnregisterWorker)
	mux.HandleFunc("POST /v1/queries", g.handleSubmit)
	mux.HandleFunc("GET /v1/queries/{id}/trace", g.handleQueryTrace)
	mux.HandleFunc("GET /v1/debug/traces", g.handleDebugTraces)
	mux.HandleFunc("GET /v1/debug/explain/{id}", g.handleDebugExplain)
	mux.HandleFunc("GET /v1/policy", g.handleGetPolicy)
	mux.HandleFunc("PUT /v1/policy", g.handlePutPolicy)
	mux.HandleFunc("POST /v1/policy/preview", g.handlePolicyPreview)
	mux.HandleFunc("GET /v1/stats", g.handleStats)
	mux.HandleFunc("GET /v1/metrics", g.handleMetrics)
	mux.HandleFunc("GET /v1/events", g.handleEvents)
	mux.HandleFunc("GET /v1/healthz", g.handleHealthz)
	mux.HandleFunc("GET /v1/readyz", g.handleReadyz)
	mux.HandleFunc("GET /v1/cluster", g.handleCluster)
	mux.HandleFunc("GET "+sbqa.ClusterForwardPath, g.handleLink)
	if enablePprof {
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// maxRequestBody bounds every JSON document the gateway reads: request
// bodies (413 past it) and webhook replies. 1 MiB — and what one frame of a
// peer link holds, so whatever a client may send can be forwarded.
const maxRequestBody = sbqa.ClusterMaxFrameBody

// readBody is the one place a request body is read — the HTTP half of every
// JSON endpoint: an explicit Content-Type other than application/json is a
// 415 (a missing one is tolerated for curl-friendliness), a body past the
// cap a 413 on a connection that serves nothing after it. The bytes read
// stay in sc.body, and false means the error response is written.
func readBody(w http.ResponseWriter, r *http.Request, sc *scratch) bool {
	if ct := r.Header.Get("Content-Type"); ct != "" && ct != "application/json" {
		mt, _, err := mime.ParseMediaType(ct)
		if err != nil || (mt != "application/json" && mt != "text/json") {
			writeError(w, http.StatusUnsupportedMediaType,
				fmt.Errorf("unsupported content type %q; use application/json", ct))
			return false
		}
	}
	if err := sc.read(r.Body); err != nil {
		status := http.StatusBadRequest
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			status, err = http.StatusRequestEntityTooLarge, fmt.Errorf("request body exceeds %d bytes", mbe.Limit)
			// The rest of the body is still on the wire and will not be
			// read: as http.MaxBytesReader did, end the connection with
			// this response.
			w.Header().Set("Connection", "close")
		}
		writeError(w, status, err)
		return false
	}
	return true
}

// decodeJSON reads the body and decodes it into v as one JSON document:
// malformed JSON or trailing data is a 400. False means the error response
// is written.
func decodeJSON(w http.ResponseWriter, r *http.Request, sc *scratch, v any) bool {
	if !readBody(w, r, sc) {
		return false
	}
	if err := unmarshal(sc.body.Bytes(), v); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return false
	}
	return true
}

// hop is what reaches a core beside the body bytes: where the request came
// from and how long its sender will wait. The zero hop but for ctx is a
// client's own request.
type hop struct {
	// ctx ends the wait for a query's results: the HTTP request's context,
	// or the peer link's.
	ctx context.Context
	// from is the node that forwarded the request over its link; what
	// arrives forwarded is never forwarded again.
	from string
	// trace is the trace context that came with the request — a client's
	// traceparent header, a frame's trace — zero for none.
	trace sbqa.TraceContext
	// budget is what was left of the forwarding node's deadline when it
	// sent the frame; 0 on a client's own request, whose ctx says it all.
	budget time.Duration
}

// serveCore is the HTTP shell of the two endpoints a peer link also feeds:
// read the body, run the core on its bytes, send what it left in the scratch.
func (g *gateway) serveCore(w http.ResponseWriter, r *http.Request, core func(*gateway, *sbqa.Engine, *scratch, []byte, hop)) {
	eng, ok := g.requireEngine(w)
	if !ok {
		return
	}
	sc := getScratch()
	defer putScratch(sc)
	if !readBody(w, r, sc) {
		return
	}
	h := hop{ctx: r.Context()}
	if eng.Tracer() != nil {
		if v := r.Header[sbqa.TraceparentKey]; len(v) > 0 {
			h.trace, _ = sbqa.ParseTraceparent(v[0])
		}
	}
	core(g, eng, sc, sc.body.Bytes(), h)
	sc.send(w)
}

// consumerRequest registers a consumer. Without intention_url the consumer
// is in-process: a constant intention toward every provider, optionally
// discounted by provider utilization ("prefer idle" — the useful default
// for load-aware consumers). With intention_url the consumer is a remote
// participant: the daemon gathers CI_q over the whole candidate batch from
// the webhook per mediation, under the engine's per-participant deadline,
// imputing from registry state when the webhook stays silent.
type consumerRequest struct {
	ID           int     `json:"id"`
	Intention    float64 `json:"intention"`
	PreferIdle   bool    `json:"prefer_idle"`
	IntentionURL string  `json:"intention_url"`
}

func (g *gateway) handleRegisterConsumer(w http.ResponseWriter, r *http.Request) {
	g.serveCore(w, r, (*gateway).registerConsumer)
}

// registerConsumer is the core of POST /v1/consumers: body in, answer in sc.
func (g *gateway) registerConsumer(eng *sbqa.Engine, sc *scratch, body []byte, h hop) {
	var req consumerRequest
	if err := unmarshal(body, &req); err != nil {
		sc.answerError(http.StatusBadRequest, err)
		return
	}
	if !g.routeOrForward(sc, h, req.ID, sbqa.ClusterFrameConsumer, sbqa.TraceContext{}, body) {
		return
	}
	if req.IntentionURL != "" {
		eng.RegisterConsumer(&remoteConsumer{
			id:       sbqa.ConsumerID(req.ID),
			url:      req.IntentionURL,
			fallback: sbqa.Intention(req.Intention).Clamp(),
			client:   g.webhookClient,
		})
		sc.answer(http.StatusCreated, map[string]int{"id": req.ID})
		return
	}
	base := req.Intention
	preferIdle := req.PreferIdle
	eng.RegisterConsumer(sbqa.LiveFuncConsumer{
		ID: sbqa.ConsumerID(req.ID),
		Fn: func(_ sbqa.Query, snap sbqa.ProviderSnapshot) sbqa.Intention {
			v := base
			if preferIdle {
				v -= snap.Utilization
			}
			return sbqa.Intention(v).Clamp()
		},
	})
	sc.answer(http.StatusCreated, map[string]int{"id": req.ID})
}

// workerRequest registers a worker with a constant intention,
// optionally class-restricted. With intention_url the worker's
// mediation-time intention is gathered from the webhook instead (the
// constant becomes the fallback for non-batched paths); execution still
// happens on the daemon's goroutines at the declared capacity.
type workerRequest struct {
	ID           int     `json:"id"`
	Capacity     float64 `json:"capacity"`
	QueueCap     int     `json:"queue_cap"`
	Intention    float64 `json:"intention"`
	Classes      []int   `json:"classes"`
	IntentionURL string  `json:"intention_url"`
}

// maxWorkerQueueCap is the largest task backlog a registration may ask for:
// a worker's ring grows with its backlog up to queue_cap (32 bytes a slot,
// so 2 MiB here), and an unchecked value let one client's backlog grow the
// heap unbounded — two trillion up-front slots once ended the process.
const maxWorkerQueueCap = 1 << 16

func (g *gateway) handleRegisterWorker(w http.ResponseWriter, r *http.Request) {
	eng, ok := g.requireEngine(w)
	if !ok {
		return
	}
	var req workerRequest
	sc := getScratch()
	defer putScratch(sc)
	if !decodeJSON(w, r, sc, &req) {
		return
	}
	if req.QueueCap > maxWorkerQueueCap {
		writeError(w, http.StatusBadRequest, fmt.Errorf("queue_cap %d exceeds the limit of %d", req.QueueCap, maxWorkerQueueCap))
		return
	}
	in := sbqa.Intention(req.Intention).Clamp()
	worker, err := sbqa.NewLiveWorker(sbqa.ProviderID(req.ID), req.Capacity, req.QueueCap,
		func(sbqa.Query) sbqa.Intention { return in })
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if len(req.Classes) > 0 {
		worker.SetClasses(req.Classes...)
	}
	var managed managedWorker = worker
	if req.IntentionURL != "" {
		managed = &remoteWorker{LiveWorker: worker, url: req.IntentionURL, client: g.webhookClient}
	}
	g.mu.Lock()
	if old, ok := g.workers[worker.ProviderID()]; ok {
		old.Close()
	}
	g.workers[worker.ProviderID()] = managed
	g.mu.Unlock()
	if rw, ok := managed.(*remoteWorker); ok {
		// Registered as a generic provider: the directory sees the webhook
		// decoration (ProviderParticipant), dispatch sees the embedded
		// executor.
		eng.RegisterProvider(rw)
	} else {
		eng.RegisterWorker(worker)
	}
	writeJSON(w, http.StatusCreated, map[string]int{"id": req.ID})
}

func (g *gateway) handleUnregisterWorker(w http.ResponseWriter, r *http.Request) {
	eng, ok := g.requireEngine(w)
	if !ok {
		return
	}
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad worker id: %w", err))
		return
	}
	pid := sbqa.ProviderID(id)
	g.mu.Lock()
	worker, ok := g.workers[pid]
	delete(g.workers, pid)
	g.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("worker %d not registered via this gateway", id))
		return
	}
	eng.UnregisterWorker(pid)
	worker.Close()
	writeJSON(w, http.StatusOK, map[string]int{"id": id})
}

// queryRequest submits one query. wait selects how much of the lifecycle
// the HTTP response covers: "none" returns the ticket's query ID
// immediately, "allocation" (the default) waits for the mediation outcome,
// "results" waits for every per-worker result; any other value is a 400
// before the query is routed or admitted. qos names the service class
// ("interactive", "batch", "background", or any class the running qos spec
// declares; unknown names fold into the default class); deadline_ms bounds
// the query's whole lifetime — a deadline the shard cannot meet sheds the
// query immediately with a 503 instead of queueing it to fail.
type queryRequest struct {
	Consumer   int     `json:"consumer"`
	Class      int     `json:"class"`
	N          int     `json:"n"`
	Work       float64 `json:"work"`
	Wait       string  `json:"wait"`
	QoS        string  `json:"qos"`
	DeadlineMS float64 `json:"deadline_ms"`
}

type queryResponse struct {
	QueryID  int64             `json:"query_id"`
	Selected []sbqa.ProviderID `json:"selected,omitempty"`
	Proposed []sbqa.ProviderID `json:"proposed,omitempty"`
	Results  []resultJSON      `json:"results,omitempty"`
	Error    string            `json:"error,omitempty"`
}

type resultJSON struct {
	QueryID   int64   `json:"query_id"`
	Provider  int     `json:"provider"`
	LatencyMS float64 `json:"latency_ms"`
}

func newResultJSON(res sbqa.LiveResult) resultJSON {
	return resultJSON{
		QueryID:   int64(res.Query.ID),
		Provider:  int(res.Provider),
		LatencyMS: float64(res.Latency) / float64(time.Millisecond),
	}
}

func (g *gateway) handleSubmit(w http.ResponseWriter, r *http.Request) {
	g.serveCore(w, r, (*gateway).submit)
}

// submit is the core of POST /v1/queries: the request's bytes in — from the
// HTTP shell or a peer link's frame — and status, back-off hint and response
// bytes left in sc for whichever it was to send.
func (g *gateway) submit(eng *sbqa.Engine, sc *scratch, body []byte, h hop) {
	admStart := sbqa.TraceNow()
	daemonProcs.tick(admStart)
	req := &sc.req
	if err := unmarshal(body, req); err != nil {
		sc.answerError(http.StatusBadRequest, err)
		return
	}
	switch req.Wait {
	case "", "none", "allocation", "results":
	default:
		sc.answerError(http.StatusBadRequest,
			fmt.Errorf("unknown wait %q; use none, allocation or results", req.Wait))
		return
	}
	// Tracing: adopt the trace context that came with the request (a
	// forwarded hop, or an upstream client carrying its own trace) or draw
	// this node's sampling decision. A sampled context goes along on a
	// cluster forward, which records the hop as a span.
	tr := eng.Tracer()
	var tc sbqa.TraceContext
	if tr != nil {
		if !h.trace.ID.IsZero() {
			tc = tr.StartRemote(h.trace)
		} else {
			tc, _ = tr.StartLocal()
		}
	}
	if !g.routeOrForward(sc, h, req.Consumer, sbqa.ClusterFrameQuery, tc, body) {
		return
	}
	if req.N < 1 {
		req.N = 1
	}
	// Token-bucket admission runs before the engine sees the query: an
	// over-limit consumer (or class) gets 429 + Retry-After here, costing
	// the shard nothing.
	if lim := g.limiter.Load(); lim != nil {
		class, _ := lim.Resolve(req.QoS)
		if d := lim.Allow(int64(req.Consumer), class); !d.OK {
			g.admissionRejected.Add(1)
			if tc.Sampled {
				tr.RecordSpan(tc.ID, sbqa.TraceSpan{
					Name: sbqa.StageAdmission, Class: req.QoS,
					Start: admStart, End: sbqa.TraceNow(),
				})
				tr.Finish(tc.ID, "rejected", "rate_limited", nil)
			}
			sc.answerRetryable(http.StatusTooManyRequests, rejectJSON{
				Error:        "rate_limited",
				Scope:        d.Scope,
				Class:        d.Class,
				RetryAfterMS: d.RetryAfter * 1000,
			})
			return
		}
	}
	q := sbqa.Query{
		Consumer: sbqa.ConsumerID(req.Consumer),
		Class:    req.Class,
		N:        req.N,
		Work:     req.Work,
		Trace:    tc,
	}
	// The admission span must land before Submit: from the moment the
	// ticket enqueues, the asynchronous pipeline may finish the trace at
	// any time, and spans recorded after Finish are not retained.
	if tc.Sampled {
		tr.RecordSpan(tc.ID, sbqa.TraceSpan{
			Name: sbqa.StageAdmission, Class: req.QoS,
			Start: admStart, End: sbqa.TraceNow(),
		})
	}
	// Results reach the SSE stream whatever the caller waits for — while the
	// stream has a subscriber. With none, nothing is handed to the drain.
	qopts := make([]sbqa.QueryOption, 0, 3)
	if g.hub.subscribed() {
		qopts = append(qopts, g.submitResults)
	}
	if req.QoS != "" {
		qopts = append(qopts, sbqa.WithQoSClass(req.QoS))
	}
	if req.DeadlineMS > 0 {
		qopts = append(qopts, sbqa.WithDeadline(deadlineFromMS(req.DeadlineMS)))
	}
	// Submit on a context no request owns: once the gateway accepts a query
	// its lifecycle must not be tied to the request that brought it —
	// net/http cancels r.Context() the moment the handler returns, which
	// would make wait:"none" submissions fail dispatch before the shard ever
	// picked them up. The hop still bounds how long the caller waits below.
	// A caller that waits for the allocation, unbounded, takes SubmitWait:
	// on an idle shard this goroutine mediates the query itself.
	var t *sbqa.Ticket
	switch req.Wait {
	case "none", "results":
		t = eng.Submit(context.Background(), q, qopts...)
	default:
		t = eng.SubmitWait(context.Background(), q, qopts...)
	}

	resp := queryResponse{QueryID: int64(t.Query().ID)}
	var lifeErr error
	switch req.Wait {
	case "none":
		// Sheds happen at enqueue, so a shed ticket is already finished
		// when Submit returns — answer the truth, not a hollow 202.
		if err := t.Err(); err != nil {
			if se, ok := sbqa.AsShedError(err); ok {
				sc.answerShed(se)
				return
			}
		}
		sc.answerQuery(http.StatusAccepted, &resp)
		return
	case "results":
		results, err := sc.await(t, h)
		lifeErr = err
		if err != nil {
			resp.Error = err.Error()
		}
		if a, _ := t.Allocation(); a != nil {
			resp.Selected, resp.Proposed = a.Selected, a.Proposed
		}
		for _, res := range results {
			resp.Results = append(resp.Results, newResultJSON(res))
		}
	default: // "allocation", also the meaning of an absent wait
		a, err := t.Allocation()
		lifeErr = err
		if err != nil {
			resp.Error = err.Error()
		}
		if a != nil {
			resp.Selected, resp.Proposed = a.Selected, a.Proposed
		}
	}
	status := http.StatusOK
	if resp.Error != "" && resp.Selected == nil {
		if se, ok := sbqa.AsShedError(lifeErr); ok {
			sc.answerShed(se)
			return
		}
		status = http.StatusConflict
	}
	sc.answerQuery(status, &resp)
}

// await is Ticket.Await under the hop's bounds: the caller's context and,
// for a forwarded frame, the budget its sender had left — on the scratch's
// own timer, so that a frame costs no context of its own.
func (sc *scratch) await(t *sbqa.Ticket, h hop) ([]sbqa.LiveResult, error) {
	if h.budget <= 0 {
		return t.Await(h.ctx)
	}
	if sc.timer == nil {
		sc.timer = time.NewTimer(h.budget)
	} else {
		sc.timer.Reset(h.budget)
	}
	defer sc.timer.Stop()
	select {
	case <-t.Done():
		return t.Await(h.ctx) // done: returns at once
	case <-h.ctx.Done():
		return nil, h.ctx.Err()
	case <-sc.timer.C:
		return nil, context.DeadlineExceeded
	}
}

// deadlineFromMS converts a deadline_ms to a Duration, saturating where the
// product leaves int64: an out-of-range float-to-int conversion is
// implementation-defined in Go (negative on amd64, which WithDeadline reads
// as "no deadline"), and an absurd deadline is still a deadline.
func deadlineFromMS(ms float64) time.Duration {
	ns := ms * float64(time.Millisecond)
	if ns >= math.MaxInt64 {
		return math.MaxInt64
	}
	return time.Duration(ns)
}

// rejectJSON is the structured body of a 429 (admission) or 503 (shed)
// refusal: machine-readable cause plus a retry hint.
type rejectJSON struct {
	Error        string  `json:"error"`
	Scope        string  `json:"scope,omitempty"`
	Class        string  `json:"class,omitempty"`
	Reason       string  `json:"reason,omitempty"`
	QueueDepth   int     `json:"queue_depth,omitempty"`
	RetryAfterMS float64 `json:"retry_after_ms,omitempty"`
}

// answerRetryable answers one refusal with a Retry-After (whole seconds,
// rounded up, only when the hint is finite) and the structured body.
func (sc *scratch) answerRetryable(status int, body rejectJSON) {
	sc.answer(status, body)
	if sec := body.RetryAfterMS / 1000; sec > 0 && !math.IsInf(sec, 1) {
		sc.retryAfter = int(min(math.Ceil(sec), math.MaxInt32))
	}
}

// answerShed maps a load-shed ticket to 503: the refusal is the engine
// protecting itself under overload, not a client error.
func (sc *scratch) answerShed(se *sbqa.ShedError) {
	sc.answerRetryable(http.StatusServiceUnavailable, rejectJSON{
		Error:        "shed",
		Class:        se.Class,
		Reason:       se.Reason,
		QueueDepth:   se.QueueDepth,
		RetryAfterMS: se.EstimatedWait * 1000,
	})
}

// publishResults forwards every worker delivery to the event stream as one
// "result" event, until close has stopped the workers.
func (g *gateway) publishResults() {
	for {
		select {
		case res := <-g.results:
			g.hub.publish("result", newResultJSON(res))
		case <-g.resultsDone:
			return
		}
	}
}

// handleStats serves Engine.Stats plus what only the gateway knows: the
// current satisfaction of every tracked participant, the event stream's drop
// count, admission rejections (429s) and the engine's brownout level (0 =
// none). The document is answerStats's.
func (g *gateway) handleStats(w http.ResponseWriter, _ *http.Request) {
	eng, ok := g.requireEngine(w)
	if !ok {
		return
	}
	sc := getScratch()
	defer putScratch(sc)
	ss := statsPool.Get().(*statsScratch)
	defer statsPool.Put(ss)
	st := eng.Stats()
	reg := eng.Registry()
	ss.consumers = reg.AppendConsumerReadings(ss.consumers[:0])
	ss.providers = reg.AppendProviderReadings(ss.providers[:0])
	sc.answerStats(ss, &st, g.hub.droppedEvents(), g.admissionRejected.Load())
	sc.send(w)
}

// handleHealthz reports liveness: the process is up and serving HTTP. It
// answers 200 even while the engine restores — restart loops must not kill
// a daemon replaying a large journal; use /v1/readyz to gate traffic.
func (g *gateway) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	eng := g.engine()
	if eng == nil {
		writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "ready": false})
		return
	}
	dir := eng.Directory()
	writeJSON(w, http.StatusOK, map[string]any{
		"status":    "ok",
		"ready":     true,
		"shards":    eng.Shards(),
		"providers": dir.NumProviders(),
		"consumers": dir.NumConsumers(),
	})
}

// handleReadyz reports readiness: 503 until the engine is built and any
// persisted state has been restored and replayed, 200 (with the restore
// summary) afterwards. Load balancers gate traffic on this.
func (g *gateway) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	eng := g.engine()
	if eng == nil {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "starting"})
		return
	}
	resp := map[string]any{"status": "ready"}
	if ps := eng.Stats().Persistence; ps != nil {
		resp["restore"] = ps.Restore
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleEvents streams the engine's event feed as server-sent events.
// In cluster mode a ?consumer=N parameter routes the subscription: when
// another node owns that consumer, the stream is proxied from the owner
// so clients can subscribe anywhere and still see their events.
func (g *gateway) handleEvents(w http.ResponseWriter, r *http.Request) {
	if c := r.URL.Query().Get("consumer"); c != "" && g.node != nil {
		id, err := strconv.Atoi(c)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad consumer: %w", err))
			return
		}
		owner, self, rerr := g.node.Route(sbqa.ConsumerID(id))
		if !self {
			if r.Header.Get(sbqa.ClusterForwardedFromHeader) != "" {
				g.cmx.notOwner.Add(1)
				writeJSON(w, http.StatusServiceUnavailable, routedError("not_owner", owner,
					fmt.Errorf("consumer %d is owned by node %s", id, owner.ID)))
				return
			}
			if rerr != nil {
				g.cmx.peerDown.Add(1)
				writeJSON(w, http.StatusServiceUnavailable, routedError("peer_down", owner,
					fmt.Errorf("consumer %d is owned by node %s, which is down", id, owner.ID)))
				return
			}
			g.proxySSE(w, r, owner, c)
			return
		}
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, fmt.Errorf("streaming unsupported"))
		return
	}
	// Subscribe before the headers go out: a client that has seen the 200
	// must not miss an event it causes next — its queries' results included,
	// which a submit hands to the stream only while someone is subscribed.
	ch, unsubscribe := g.hub.subscribe()
	defer unsubscribe()
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	for {
		select {
		case ev := <-ch:
			data, err := json.Marshal(ev.data)
			if err != nil {
				continue
			}
			fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.kind, data)
			flusher.Flush()
		case <-r.Context().Done():
			return
		case <-g.shuttingDown:
			return
		}
	}
}
