package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sbqa"
	"sbqa/internal/policy"
)

// gatewayWithDeadline builds a single-shard gateway with a per-participant
// deadline suitable for webhook tests.
func gatewayWithDeadline(t *testing.T, deadline time.Duration) (*gateway, *httptest.Server) {
	t.Helper()
	gw, err := newGateway(
		sbqa.WithWindow(50),
		sbqa.WithPolicy(sbqa.PolicySpec{Kind: sbqa.PolicySbQA, K: 4, Kn: 2, ParticipantDeadline: policy.Duration(deadline)}),
	)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(gw.close)
	srv := httptest.NewServer(gw.handler())
	t.Cleanup(srv.Close)
	return gw, srv
}

// TestRemoteParticipantsEndToEnd: a consumer and a worker both answer
// intention webhooks; the daemon gathers CI_q and PI_q over HTTP during
// mediation and the query executes on the worker's local executor.
func TestRemoteParticipantsEndToEnd(t *testing.T) {
	var consumerCalls, workerCalls atomic.Int64
	hook := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req intentionWebhookRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		switch r.URL.Path {
		case "/consumer":
			consumerCalls.Add(1)
			resp := consumerWebhookResponse{Intentions: make([]float64, len(req.Candidates))}
			for i := range resp.Intentions {
				resp.Intentions[i] = 0.9
			}
			json.NewEncoder(w).Encode(resp)
		case "/worker":
			workerCalls.Add(1)
			json.NewEncoder(w).Encode(workerWebhookResponse{Intention: 0.7})
		default:
			http.NotFound(w, r)
		}
	}))
	defer hook.Close()

	_, srv := gatewayWithDeadline(t, 2*time.Second)
	postJSON(t, srv.URL+"/v1/workers", workerRequest{
		ID: 1, Capacity: 1000, QueueCap: 16, IntentionURL: hook.URL + "/worker",
	}, nil)
	postJSON(t, srv.URL+"/v1/consumers", consumerRequest{
		ID: 0, IntentionURL: hook.URL + "/consumer",
	}, nil)

	var qr queryResponse
	postJSON(t, srv.URL+"/v1/queries", queryRequest{Consumer: 0, N: 1, Work: 0.5, Wait: "results"}, &qr)
	if qr.Error != "" {
		t.Fatalf("submit error: %s", qr.Error)
	}
	if len(qr.Selected) != 1 || qr.Selected[0] != 1 {
		t.Fatalf("selected %v, want the remote worker", qr.Selected)
	}
	if len(qr.Results) != 1 {
		t.Fatalf("results %v, want one local execution", qr.Results)
	}
	if consumerCalls.Load() == 0 || workerCalls.Load() == 0 {
		t.Errorf("webhooks consulted consumer=%d worker=%d times, want both > 0",
			consumerCalls.Load(), workerCalls.Load())
	}
}

// TestSlowWebhookImputedWithDeadline is the daemon-level acceptance
// scenario: a worker whose intention webhook stalls far past the configured
// per-participant deadline. The mediation completes within the deadline
// (plus margin), the missing PI_q is imputed from registry state, a typed
// "imputation" event reaches the SSE stream, and the stats counters record
// the timeout.
func TestSlowWebhookImputedWithDeadline(t *testing.T) {
	const deadline = 75 * time.Millisecond
	stall := make(chan struct{})
	hook := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Drain the body: the server only notices a client abort (the
		// fan-out's deadline firing) through reads.
		io.Copy(io.Discard, r.Body)
		if r.URL.Path == "/slow" {
			select {
			case <-stall:
			case <-r.Context().Done():
			}
			return
		}
		json.NewEncoder(w).Encode(workerWebhookResponse{Intention: 0.6})
	}))
	defer hook.Close()
	// Closed before hook.Close (defers are LIFO) so a handler still parked
	// on stall cannot wedge the webhook server's shutdown.
	defer close(stall)

	_, srv := gatewayWithDeadline(t, deadline)
	events, closeSSE := openSSE(t, srv.URL+"/v1/events")
	defer closeSSE()

	postJSON(t, srv.URL+"/v1/workers", workerRequest{
		ID: 1, Capacity: 1000, QueueCap: 16, IntentionURL: hook.URL + "/slow",
	}, nil)
	postJSON(t, srv.URL+"/v1/workers", workerRequest{
		ID: 2, Capacity: 1000, QueueCap: 16, IntentionURL: hook.URL + "/fast",
	}, nil)
	postJSON(t, srv.URL+"/v1/consumers", consumerRequest{ID: 0, Intention: 0.8}, nil)

	start := time.Now()
	var qr queryResponse
	postJSON(t, srv.URL+"/v1/queries", queryRequest{Consumer: 0, N: 2, Work: 0.5, Wait: "allocation"}, &qr)
	elapsed := time.Since(start)
	if qr.Error != "" {
		t.Fatalf("submit error: %s", qr.Error)
	}
	if elapsed > deadline+2*time.Second {
		t.Fatalf("allocation took %v despite the %v participant deadline", elapsed, deadline)
	}
	if len(qr.Selected) != 2 {
		t.Fatalf("selected %v, want both workers (silent one imputed, not dropped)", qr.Selected)
	}

	// The typed imputation event names the silent worker and the timeout.
	ev := awaitEvent(t, events, "imputation", func(data string) bool {
		return strings.Contains(data, fmt.Sprintf(`"query_id":%d`, qr.QueryID))
	})
	var im imputationEvent
	if err := json.Unmarshal([]byte(ev.data), &im); err != nil {
		t.Fatal(err)
	}
	if im.Provider != 1 || !im.Timeout {
		t.Errorf("imputation event %+v, want provider 1 with timeout=true", im)
	}

	// Stats counted it.
	var st statsResponse
	resp, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	var imputations, timeouts uint64
	for _, sh := range st.Shards {
		imputations += sh.Imputations
		timeouts += sh.IntentionTimeouts
	}
	if imputations == 0 || timeouts == 0 {
		t.Errorf("stats imputations=%d intention_timeouts=%d, want both > 0", imputations, timeouts)
	}
}

// TestOversizedWebhookReplyImputed: a worker whose webhook answers with a
// well-formed reply larger than the 1 MiB body bound is treated like a silent
// participant — its PI_q is imputed and the query still allocates — instead
// of the daemon buffering and accepting whatever a participant sends.
func TestOversizedWebhookReplyImputed(t *testing.T) {
	hook := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		if r.URL.Path == "/huge" {
			// Valid JSON whose leading padding field alone exceeds the bound:
			// an unbounded decoder would skip it and accept the intention.
			fmt.Fprintf(w, `{"pad":%q,"intention":1}`, strings.Repeat("x", maxRequestBody+1))
			return
		}
		json.NewEncoder(w).Encode(workerWebhookResponse{Intention: 0.6})
	}))
	defer hook.Close()

	_, srv := gatewayWithDeadline(t, 5*time.Second)
	events, closeSSE := openSSE(t, srv.URL+"/v1/events")
	defer closeSSE()
	postJSON(t, srv.URL+"/v1/workers", workerRequest{
		ID: 1, Capacity: 1000, QueueCap: 16, IntentionURL: hook.URL + "/huge",
	}, nil)
	postJSON(t, srv.URL+"/v1/workers", workerRequest{
		ID: 2, Capacity: 1000, QueueCap: 16, IntentionURL: hook.URL + "/fine",
	}, nil)
	postJSON(t, srv.URL+"/v1/consumers", consumerRequest{ID: 0, Intention: 0.8}, nil)

	var qr queryResponse
	postJSON(t, srv.URL+"/v1/queries", queryRequest{Consumer: 0, N: 2, Work: 0.5, Wait: "allocation"}, &qr)
	if qr.Error != "" {
		t.Fatalf("submit error: %s", qr.Error)
	}
	if len(qr.Selected) != 2 {
		t.Fatalf("selected %v, want both workers (oversized one imputed, not dropped)", qr.Selected)
	}
	ev := awaitEvent(t, events, "imputation", func(data string) bool {
		return strings.Contains(data, fmt.Sprintf(`"query_id":%d`, qr.QueryID))
	})
	var im imputationEvent
	if err := json.Unmarshal([]byte(ev.data), &im); err != nil {
		t.Fatal(err)
	}
	if im.Provider != 1 || im.Timeout || im.Imputed == 1 || !strings.Contains(im.Error, "too large") {
		t.Errorf("imputation event %+v, want provider 1 imputed on a too-large reply (not a timeout, not its claimed 1)", im)
	}
}

// TestHealthzAndGracefulShutdown: the daemon answers /v1/healthz while
// serving, and a context cancel (the SIGTERM path) shuts it down cleanly —
// serve returns nil and the listener stops accepting.
func TestHealthzAndGracefulShutdown(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + ln.Addr().String()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- serve(ctx, ln, nil, sbqa.PolicySpec{Kind: sbqa.PolicySbQA}, sbqa.WithWindow(10))
	}()

	// Healthz answers while serving (retry briefly while the server spins
	// up).
	var resp *http.Response
	for i := 0; i < 50; i++ {
		resp, err = http.Get(base + "/v1/healthz")
		if err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("healthz never became reachable: %v", err)
	}
	var health map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || health["status"] != "ok" {
		t.Fatalf("healthz = %d %v", resp.StatusCode, health)
	}

	// Attach an SSE subscriber: graceful shutdown must end the stream
	// promptly rather than waiting out the whole shutdown grace behind it.
	events, closeSSE := openSSE(t, base+"/v1/events")
	defer closeSSE()

	// SIGTERM path: cancel the context; serve must return cleanly, well
	// inside the grace period even with the subscriber connected.
	cancel()
	start := time.Now()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve returned %v on graceful shutdown", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("serve did not return after context cancel")
	}
	if elapsed := time.Since(start); elapsed > shutdownGrace/2 {
		t.Errorf("shutdown took %v with an SSE subscriber attached; the stream must end at shutdown", elapsed)
	}
	// The subscriber's stream terminated.
	select {
	case _, open := <-events:
		if open {
			// Drain any buffered event; the channel must close shortly.
			for range events {
			}
		}
	case <-time.After(5 * time.Second):
		t.Error("SSE stream still open after shutdown")
	}
	if _, err := http.Get(base + "/v1/healthz"); err == nil {
		t.Error("listener still accepting after shutdown")
	}
}

// TestHubSlowSubscriberNeverBlocks documents and enforces the SSE hub's
// drop/buffer policy: each subscriber gets a subscriberBuffer-deep backlog;
// once it is full, further events are dropped for that subscriber and
// publish returns immediately — a stalled SSE client can never block the
// engine's observer callbacks.
func TestHubSlowSubscriberNeverBlocks(t *testing.T) {
	h := newHub()
	ch, unsubscribe := h.subscribe()
	defer unsubscribe()

	const extra = 100
	start := time.Now()
	for i := 0; i < subscriberBuffer+extra; i++ {
		h.publish("allocation", i)
	}
	elapsed := time.Since(start)
	// Publishing past the buffer must not block: generous bound, but a
	// blocking publish would hang forever, not just run slowly.
	if elapsed > 2*time.Second {
		t.Fatalf("publishing %d events took %v; publish must never block", subscriberBuffer+extra, elapsed)
	}
	if n := len(ch); n != subscriberBuffer {
		t.Fatalf("subscriber backlog = %d, want exactly subscriberBuffer (%d) with the rest dropped", n, subscriberBuffer)
	}
	// The retained events are the oldest; the dropped ones are the newest.
	first := <-ch
	if first.data.(int) != 0 {
		t.Errorf("first buffered event = %v, want 0 (drop-newest policy)", first.data)
	}
	// A draining subscriber keeps receiving.
	h.publish("allocation", "fresh")
	found := false
	for len(ch) > 0 {
		if ev := <-ch; ev.data == "fresh" {
			found = true
		}
	}
	if !found {
		t.Error("event published after draining never arrived")
	}
}
