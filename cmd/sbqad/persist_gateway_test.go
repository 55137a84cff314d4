package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"sbqa"
)

// TestReadyzNotReadyWindow drives the gateway through its startup sequence:
// before init, /v1/healthz is alive, /v1/readyz and every engine-backed
// endpoint answer 503; after init, readyz flips to 200.
func TestReadyzNotReadyWindow(t *testing.T) {
	gw := newGatewayShell()
	defer gw.close()
	srv := httptest.NewServer(gw.handler())
	defer srv.Close()

	get := func(path string) (*http.Response, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp, string(body)
	}

	// Liveness holds during the window; readiness does not.
	if resp, body := get("/v1/healthz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz before init: %d %s", resp.StatusCode, body)
	} else if !strings.Contains(body, `"ready":false`) {
		t.Errorf("healthz before init should report ready:false, got %s", body)
	}
	if resp, _ := get("/v1/readyz"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz before init: %d, want 503", resp.StatusCode)
	}
	if resp, body := get("/v1/stats"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("stats before init: %d %s, want 503", resp.StatusCode, body)
	}
	var posted struct {
		Error string `json:"error"`
	}
	resp := postJSON(t, srv.URL+"/v1/queries", map[string]any{"consumer": 0, "n": 1, "work": 1}, &posted)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit before init: %d, want 503", resp.StatusCode)
	}
	if !strings.Contains(posted.Error, "starting") {
		t.Errorf("submit before init error %q, want a starting notice", posted.Error)
	}
	// Metrics stay scrapeable and report not-ready.
	if resp, body := get("/v1/metrics"); resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics before init: %d", resp.StatusCode)
	} else if !strings.Contains(body, "sbqa_ready 0") {
		t.Errorf("metrics before init missing sbqa_ready 0:\n%s", body)
	}

	if err := gw.init(nil, sbqa.WithWindow(10), sbqa.WithPolicy(sbqa.PolicySpec{Kind: sbqa.PolicySbQA})); err != nil {
		t.Fatal(err)
	}

	if resp, body := get("/v1/readyz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz after init: %d %s", resp.StatusCode, body)
	} else if !strings.Contains(body, `"status":"ready"`) {
		t.Errorf("readyz after init: %s", body)
	}
	if resp, _ := get("/v1/stats"); resp.StatusCode != http.StatusOK {
		t.Fatalf("stats after init: %d", resp.StatusCode)
	}
	if _, body := get("/v1/healthz"); !strings.Contains(body, `"ready":true`) {
		t.Errorf("healthz after init should report ready:true, got %s", body)
	}
}

// TestMetricsEndpoint checks the Prometheus text exposition: content type,
// HELP/TYPE preambles, per-shard labels, and the persistence family when a
// state dir is configured.
func TestMetricsEndpoint(t *testing.T) {
	dir := t.TempDir()
	gw, err := newGateway(
		sbqa.WithWindow(10),
		sbqa.WithConcurrency(2),
		sbqa.WithPolicy(sbqa.PolicySpec{Kind: sbqa.PolicySbQA}),
		sbqa.WithPersistence(dir, sbqa.PersistSyncEvery(1)),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer gw.close()
	srv := httptest.NewServer(gw.handler())
	defer srv.Close()

	var reg struct {
		ID int `json:"id"`
	}
	postJSON(t, srv.URL+"/v1/workers", map[string]any{"id": 1, "capacity": 100, "intention": 0.5}, &reg)
	postJSON(t, srv.URL+"/v1/consumers", map[string]any{"id": 0, "intention": 0.6}, &reg)
	var qr queryResponse
	postJSON(t, srv.URL+"/v1/queries", map[string]any{"consumer": 0, "n": 1, "work": 1, "wait": "results"}, &qr)
	if qr.Error != "" {
		t.Fatalf("query failed: %s", qr.Error)
	}

	resp, err := http.Get(srv.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("content type %q", ct)
	}
	for _, want := range []string{
		"# HELP sbqa_queries_submitted_total",
		"# TYPE sbqa_queries_submitted_total counter",
		"sbqa_queries_submitted_total 1",
		"sbqa_ready 1",
		"sbqa_providers 1",
		"sbqa_consumers 1",
		`sbqa_shard_mediations_total{shard="0"}`,
		`sbqa_shard_mediations_total{shard="1"}`,
		`sbqa_shard_queue_depth{shard="0"}`,
		`sbqa_worker_queue_depth{worker="1"}`,
		"sbqa_events_dropped_total",
		"# TYPE sbqa_persist_records_appended_total counter",
		"sbqa_persist_restore_snapshot_loaded 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q\n%s", want, text)
		}
	}
}

// TestDaemonRestartWalkthrough is the operator story from the README: run a
// gateway with -state-dir, accumulate satisfaction, stop it (graceful flush),
// start a new gateway over the same directory, and find the learned state —
// satisfaction, policy generation, query counter — already there.
func TestDaemonRestartWalkthrough(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "state")
	boot := []sbqa.EngineOption{
		sbqa.WithWindow(20),
		sbqa.WithPolicy(sbqa.PolicySpec{Kind: sbqa.PolicySbQA}),
		sbqa.WithPersistence(dir, sbqa.PersistSyncEvery(1)),
	}

	gw1, err := newGateway(boot...)
	if err != nil {
		t.Fatal(err)
	}
	srv1 := httptest.NewServer(gw1.handler())
	var reg struct {
		ID int `json:"id"`
	}
	postJSON(t, srv1.URL+"/v1/workers", map[string]any{"id": 7, "capacity": 100, "intention": 0.8}, &reg)
	postJSON(t, srv1.URL+"/v1/consumers", map[string]any{"id": 0, "intention": 0.6}, &reg)
	const queries = 12
	for i := 0; i < queries; i++ {
		var qr queryResponse
		postJSON(t, srv1.URL+"/v1/queries", map[string]any{"consumer": 0, "n": 1, "work": 1, "wait": "results"}, &qr)
		if qr.Error != "" {
			t.Fatalf("query %d: %s", i, qr.Error)
		}
	}
	// Reconfigure so the restart has a generation to restore.
	req, _ := http.NewRequest(http.MethodPut, srv1.URL+"/v1/policy", strings.NewReader(`{"kind":"sbqa","k":8,"kn":4,"name":"tuned"}`))
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("PUT /v1/policy: %d", resp.StatusCode)
	}
	var before statsResponse
	getJSON(t, srv1.URL+"/v1/stats", &before)
	srv1.Close()
	gw1.close() // graceful: drains the journal, flushes the final snapshot

	gw2, err := newGateway(boot...)
	if err != nil {
		t.Fatal(err)
	}
	defer gw2.close()
	srv2 := httptest.NewServer(gw2.handler())
	defer srv2.Close()

	var ready map[string]any
	getJSON(t, srv2.URL+"/v1/readyz", &ready)
	if ready["status"] != "ready" {
		t.Fatalf("restarted daemon not ready: %v", ready)
	}
	var after statsResponse
	getJSON(t, srv2.URL+"/v1/stats", &after)
	if after.Persistence == nil || !after.Persistence.Restore.SnapshotLoaded {
		t.Fatal("restart did not restore a snapshot")
	}
	if after.QueriesSubmitted != before.QueriesSubmitted {
		t.Errorf("query counter %d after restart, want %d", after.QueriesSubmitted, before.QueriesSubmitted)
	}
	if after.PolicyGeneration != before.PolicyGeneration {
		t.Errorf("policy generation %d after restart, want %d", after.PolicyGeneration, before.PolicyGeneration)
	}
	// The learned satisfaction survived the restart — before any new
	// traffic, and with the participants themselves not yet re-registered.
	for id, want := range before.Satisfaction.Consumers {
		if got, ok := after.Satisfaction.Consumers[id]; !ok || got != want {
			t.Errorf("consumer %s δs after restart %v, want %v", id, got, want)
		}
	}
	for id, want := range before.Satisfaction.Providers {
		if got, ok := after.Satisfaction.Providers[id]; !ok || got != want {
			t.Errorf("provider %s δs after restart %v, want %v", id, got, want)
		}
	}
	var policy policyResponse
	getJSON(t, srv2.URL+"/v1/policy", &policy)
	if policy.Policy.Name != "tuned" {
		t.Errorf("restored policy %+v, want the reconfigured \"tuned\" spec", policy.Policy)
	}
}

// TestWarmRestartKeepsRateLimit is the gateway twin of the engine's
// TestWarmRestartKeepsQoS: a consumer_rate PUT before a graceful stop still
// answers 429 + Retry-After after a restart on the same -state-dir. The token
// buckets derive from the QoS spec the schedulers run, which restore used to
// leave at the boot spec's — the limits silently disappeared on restart.
func TestWarmRestartKeepsRateLimit(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "state")
	bootSpec := sbqa.PolicySpec{Name: "boot", Kind: sbqa.PolicySbQA} // no qos block: unlimited
	boot := []sbqa.EngineOption{
		sbqa.WithWindow(20),
		sbqa.WithPolicy(bootSpec),
		sbqa.WithPersistence(dir, sbqa.PersistSyncEvery(1)),
	}
	gw1, err := newGateway(boot...)
	if err != nil {
		t.Fatal(err)
	}
	if line := policyInForce(gw1.eng, bootSpec); !strings.Contains(line, `policy "boot" (sbqa) generation 0: the boot spec`) {
		t.Errorf("first boot logged %q", line)
	}
	srv1 := httptest.NewServer(gw1.handler())
	limited := sbqa.DefaultQoSSpec()
	limited.ConsumerRate = 0.001 // one query per ~17 min: a second submit must reject
	limited.ConsumerBurst = 1
	putPolicy(t, srv1.URL, sbqa.PolicySpec{Name: "limited", Kind: sbqa.PolicySbQA, QoS: &limited})
	srv1.Close()
	gw1.close()

	gw2, err := newGateway(boot...)
	if err != nil {
		t.Fatal(err)
	}
	defer gw2.close()
	if line := policyInForce(gw2.eng, bootSpec); !strings.Contains(line, `policy "limited" (sbqa) generation 1: restored from -state-dir (boot spec "boot"`) {
		t.Errorf("restart logged %q", line)
	}
	srv2 := httptest.NewServer(gw2.handler())
	defer srv2.Close()
	postJSON(t, srv2.URL+"/v1/workers", workerRequest{ID: 0, Capacity: 1000, QueueCap: 64, Intention: 0.5}, nil)
	postJSON(t, srv2.URL+"/v1/consumers", consumerRequest{ID: 0, Intention: 0.8}, nil)

	submit := queryRequest{Consumer: 0, N: 1, Work: 0.5, Wait: "allocation"}
	if resp := postJSON(t, srv2.URL+"/v1/queries", submit, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("first submit after restart: %d, want 200 (the burst)", resp.StatusCode)
	}
	var rej rejectJSON
	resp := postJSON(t, srv2.URL+"/v1/queries", submit, &rej)
	if resp.StatusCode != http.StatusTooManyRequests || rej.Error != "rate_limited" || rej.Scope != "consumer" {
		t.Fatalf("over-limit submit after restart: %d %+v, want 429 rate_limited/consumer", resp.StatusCode, rej)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Fatalf("Retry-After = %q, want a positive number of seconds", ra)
	}
}

// getJSON fetches and decodes one JSON endpoint.
func getJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET %s: %d %s", url, resp.StatusCode, body)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}

// TestDurableGatewayCloseMidService: closing a durable gateway whose workers
// are mid-service, with a backlog and wait:"results" callers parked on it,
// returns promptly, answers every caller and leaves no goroutine behind —
// the path a SIGTERM takes through a busy node.
func TestDurableGatewayCloseMidService(t *testing.T) {
	before := settledGoroutines(func() bool { return true })
	gw, err := newGateway(
		sbqa.WithWindow(10),
		sbqa.WithConcurrency(2),
		sbqa.WithPolicy(sbqa.PolicySpec{Kind: sbqa.PolicyCapacity}),
		sbqa.WithPersistence(t.TempDir(), sbqa.PersistSyncEvery(1)),
	)
	if err != nil {
		t.Fatal(err)
	}
	h := gw.handler()
	post := func(path string, v any) *httptest.ResponseRecorder {
		body, err := json.Marshal(v)
		if err != nil {
			t.Error(err)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		return rec
	}
	const workers, callers = 3, 12
	for id := 0; id < workers; id++ {
		// A query of work 1e6 needs a million seconds here.
		if rec := post("/v1/workers", workerRequest{ID: id, Capacity: 1, QueueCap: 64, Intention: 0.5}); rec.Code != http.StatusCreated {
			t.Fatalf("register worker %d: %d %s", id, rec.Code, rec.Body)
		}
	}
	if rec := post("/v1/consumers", consumerRequest{ID: 0, Intention: 0.6}); rec.Code != http.StatusCreated {
		t.Fatalf("register consumer: %d %s", rec.Code, rec.Body)
	}
	answers := make(chan *httptest.ResponseRecorder, callers)
	for i := 0; i < callers; i++ {
		go func() { answers <- post("/v1/queries", queryRequest{Consumer: 0, N: 1, Work: 1e6, Wait: "results"}) }()
	}
	waitCondition(t, 10*time.Second, "every caller's query to be parked on a worker", func() bool {
		parked, busy := 0, 0
		for _, d := range gw.eng.Stats().WorkerQueueDepths {
			parked += d
			if d > 1 {
				busy++
			}
		}
		return parked == callers && busy == workers
	})

	closed := make(chan struct{})
	go func() { gw.close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		buf := make([]byte, 1<<20)
		t.Fatalf("gateway.close took over 5 s:\n%s", buf[:runtime.Stack(buf, true)])
	}
	for i := 0; i < callers; i++ {
		select {
		case rec := <-answers:
			if rec.Code != http.StatusOK {
				t.Errorf("a caller parked at close got %d %s", rec.Code, rec.Body)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%d of %d callers never got an answer", callers-i, callers)
		}
	}
	if after := settledGoroutines(func() bool { return runtime.NumGoroutine() <= before }); after > before {
		buf := make([]byte, 1<<20)
		t.Fatalf("%d goroutines before the gateway, %d after it closed:\n%s", before, after, buf[:runtime.Stack(buf, true)])
	}
}
