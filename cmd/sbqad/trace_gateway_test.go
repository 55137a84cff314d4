package main

// Tests for the flight-recorder debug surface: the per-query trace endpoint,
// the slow-trace log, the explain endpoint, inbound traceparent adoption,
// cross-node propagation over a cluster forward, and the pprof flag gate.
//
// TestGatewayTraceSmoke is the trace the CI tracegate step greps: it logs
// the /v1/debug/traces body, which must name all six pipeline stages.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"sbqa"
	"sbqa/internal/trace"
)

// traceViewJSON mirrors the wire form of sbqa.TraceView for assertions.
type traceViewJSON struct {
	TraceID string `json:"trace_id"`
	QueryID int64  `json:"query_id"`
	Status  string `json:"status"`
	Spans   []struct {
		Name    string `json:"name"`
		Class   string `json:"class"`
		StartNS int64  `json:"start_ns"`
		EndNS   int64  `json:"end_ns"`
	} `json:"spans"`
	Explain *struct {
		Allocator string `json:"allocator"`
		Entries   []struct {
			Rank     int     `json:"rank"`
			Provider int     `json:"provider"`
			Omega    float64 `json:"omega"`
			Score    float64 `json:"score"`
		} `json:"entries"`
	} `json:"explain"`
}

func getJSONStatus(t testing.TB, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

// awaitTrace polls the trace endpoint until the trace reaches a terminal
// status (the shard goroutine finishes it after releasing the waiter).
func awaitTrace(t testing.TB, baseURL, id string) traceViewJSON {
	t.Helper()
	var v traceViewJSON
	deadline := time.Now().Add(2 * time.Second)
	for {
		code := getJSONStatus(t, fmt.Sprintf("%s/v1/queries/%s/trace", baseURL, id), &v)
		if code == http.StatusOK && v.Status != "" {
			return v
		}
		if time.Now().After(deadline) {
			t.Fatalf("trace %q never finished (last status %d, %+v)", id, code, v)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func traceGateway(t *testing.T, opts ...sbqa.EngineOption) *httptest.Server {
	t.Helper()
	gw, err := newGateway(append([]sbqa.EngineOption{
		sbqa.WithWindow(50),
		sbqa.WithConcurrency(1),
		sbqa.WithPolicy(sbqa.PolicySpec{Kind: sbqa.PolicySbQA, K: 4, Kn: 2, Seed: 1}),
	}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(gw.close)
	srv := httptest.NewServer(gw.handler())
	t.Cleanup(srv.Close)
	registerWorkers(t, srv.URL)
	postJSON(t, srv.URL+"/v1/consumers", consumerRequest{ID: 0, Intention: 0.8}, nil)
	return srv
}

// TestGatewayTraceSmoke: at -trace-sample 1 a submitted query yields a
// finished trace whose spans cover all six pipeline stages, a complete
// explain record, and shows up in the slow-trace log and stage histograms.
func TestGatewayTraceSmoke(t *testing.T) {
	srv := traceGateway(t, sbqa.WithTracing(1, 64))

	qr := submitWait(t, srv.URL, 0, "allocation")
	v := awaitTrace(t, srv.URL, fmt.Sprintf("%d", qr.QueryID))
	if v.Status != "allocated" {
		t.Fatalf("trace status %q, want allocated", v.Status)
	}
	if len(v.TraceID) != 32 {
		t.Fatalf("trace_id %q, want 32 hex digits", v.TraceID)
	}
	stages := make(map[string]bool)
	for _, s := range v.Spans {
		if s.StartNS > s.EndNS {
			t.Errorf("span %s: start %d after end %d", s.Name, s.StartNS, s.EndNS)
		}
		stages[s.Name] = true
	}
	for _, want := range []string{
		sbqa.StageAdmission, trace.StageQueue, trace.StageFanout,
		trace.StageImpute, trace.StageScore, trace.StageDispatch,
	} {
		if !stages[want] {
			t.Errorf("trace missing stage %q (spans: %+v)", want, v.Spans)
		}
	}
	if v.Explain == nil || len(v.Explain.Entries) == 0 {
		t.Fatalf("trace carries no explain entries: %+v", v.Explain)
	}
	for i, e := range v.Explain.Entries {
		if e.Rank != i+1 {
			t.Errorf("explain entry %d: rank %d, want %d", i, e.Rank, i+1)
		}
	}

	// The explain endpoint serves the same record standalone.
	var ex struct {
		TraceID string          `json:"trace_id"`
		Explain json.RawMessage `json:"explain"`
	}
	if code := getJSONStatus(t, fmt.Sprintf("%s/v1/debug/explain/%d", srv.URL, qr.QueryID), &ex); code != http.StatusOK {
		t.Fatalf("explain endpoint status %d", code)
	}
	if ex.TraceID != v.TraceID || len(ex.Explain) == 0 {
		t.Fatalf("explain endpoint returned trace %q with body %q", ex.TraceID, ex.Explain)
	}

	// The slow-trace log lists the finished trace; its raw body is what the
	// CI tracegate greps for the stage names.
	resp, err := http.Get(srv.URL + "/v1/debug/traces?min_ms=0")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	t.Logf("debug traces body: %s", body)
	if !strings.Contains(body, v.TraceID) {
		t.Errorf("slow-trace log does not list trace %s", v.TraceID)
	}
	for _, want := range []string{"admission", "queue", "fanout", "impute", "score", "dispatch"} {
		if !strings.Contains(body, fmt.Sprintf("%q", want)) {
			t.Errorf("slow-trace log missing stage %q", want)
		}
	}

	// Stage histograms reached the metrics exposition.
	mresp, err := http.Get(srv.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mraw, err := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	metrics := string(mraw)
	for _, want := range []string{
		`sbqa_stage_seconds_count{stage="score"}`,
		"sbqa_traces_started_total",
		"sbqa_build_info",
		"sbqa_go_goroutines",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics exposition missing %s", want)
		}
	}

	// Bad query parameters answer 400, not a panic or an empty 200.
	if code := getJSONStatus(t, srv.URL+"/v1/debug/traces?min_ms=-1", nil); code != http.StatusBadRequest {
		t.Errorf("min_ms=-1 status %d, want 400", code)
	}
}

// TestGatewayTraceAdoptsInboundTraceparent: a client-supplied W3C
// traceparent pins the gateway's trace identity (and forces sampling), so
// an upstream system can stitch the mediation into its own trace.
func TestGatewayTraceAdoptsInboundTraceparent(t *testing.T) {
	srv := traceGateway(t, sbqa.WithTracing(0, 64)) // sample 0: only the inbound header traces

	const wantID = "4bf92f3577b34da6a3ce929d0e0e4736"
	body := strings.NewReader(`{"consumer": 0, "n": 1, "work": 0.1, "wait": "allocation"}`)
	req, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/queries", body)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(sbqa.TraceparentHeader, "00-"+wantID+"-00f067aa0ba902b7-01")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var qr queryResponse
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || qr.QueryID == 0 {
		t.Fatalf("submit status %d resp %+v", resp.StatusCode, qr)
	}
	v := awaitTrace(t, srv.URL, wantID)
	if int64(v.QueryID) != qr.QueryID {
		t.Errorf("trace %s annotated query %d, submitted %d", wantID, v.QueryID, qr.QueryID)
	}
	if v.Status != "allocated" {
		t.Errorf("trace status %q, want allocated", v.Status)
	}
}

// TestGatewayTraceAdoptsLowerCaseTraceparent: a client that writes the
// header as W3C spells it, in lower case, is adopted too — net/http
// canonicalises incoming keys, and the gateway looks the canonical one up.
func TestGatewayTraceAdoptsLowerCaseTraceparent(t *testing.T) {
	if got := http.CanonicalHeaderKey(sbqa.TraceparentHeader); got != sbqa.TraceparentKey {
		t.Fatalf("canonical %q is %q, TraceparentKey says %q", sbqa.TraceparentHeader, got, sbqa.TraceparentKey)
	}
	srv := traceGateway(t, sbqa.WithTracing(0, 64)) // sample 0: only the inbound header traces

	const wantID = "0af7651916cd43dd8448eb211c80319c"
	const body = `{"consumer":0,"n":1,"work":0.1,"wait":"allocation"}`
	conn, err := net.Dial("tcp", srv.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Written by hand: http.Header.Set would canonicalise the key on the
	// client side already.
	if _, err := fmt.Fprintf(conn, "POST /v1/queries HTTP/1.1\r\nHost: test\r\nContent-Type: application/json\r\n"+
		"traceparent: 00-%s-b7ad6b7169203331-01\r\nContent-Length: %d\r\n\r\n%s", wantID, len(body), body); err != nil {
		t.Fatal(err)
	}
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	var qr queryResponse
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || qr.QueryID == 0 {
		t.Fatalf("submit status %d resp %+v", resp.StatusCode, qr)
	}
	if v := awaitTrace(t, srv.URL, wantID); int64(v.QueryID) != qr.QueryID {
		t.Errorf("trace %s annotated query %d, submitted %d", wantID, v.QueryID, qr.QueryID)
	}
}

// TestGatewayDebugEndpointsWithoutTracer: a daemon booted without
// -trace-sample answers 404 on the whole debug surface.
func TestGatewayDebugEndpointsWithoutTracer(t *testing.T) {
	srv := traceGateway(t)
	for _, path := range []string{
		"/v1/queries/1/trace",
		"/v1/debug/traces",
		"/v1/debug/explain/1",
	} {
		if code := getJSONStatus(t, srv.URL+path, nil); code != http.StatusNotFound {
			t.Errorf("GET %s status %d without tracer, want 404", path, code)
		}
	}
}

// TestClusterForwardPropagatesTrace: a sampled submit through the NON-owner
// node forwards with a traceparent header, so both nodes record segments of
// ONE trace — the hop node with a "forward" span and status "forwarded",
// the owner with the full mediation pipeline.
func TestClusterForwardPropagatesTrace(t *testing.T) {
	opts := append(deterministicOpts(), sbqa.WithTracing(1, 64))
	nodes := startTestCluster(t, 2, false, opts...)
	for _, cn := range nodes {
		registerWorkers(t, cn.srv.URL)
	}
	// A consumer owned by node 1, submitted through node 0: forwarded.
	c := consumerOwnedBy(t, nodes, 1, 0)
	resp := postJSON(t, nodes[0].srv.URL+"/v1/consumers", consumerRequest{ID: c, Intention: 0.9}, nil)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("register consumer: %d", resp.StatusCode)
	}
	waitCondition(t, 5*time.Second, "consumer registered on owner", func() bool {
		return nodes[1].g.eng.Stats().Consumers == 1
	})
	qr := submitWait(t, nodes[0].srv.URL, c, "allocation")

	// The owner's trace carries the mediation pipeline.
	owner := awaitTrace(t, nodes[1].srv.URL, fmt.Sprintf("%d", qr.QueryID))
	if owner.Status != "allocated" {
		t.Fatalf("owner trace status %q, want allocated", owner.Status)
	}
	ownerStages := make(map[string]bool)
	for _, s := range owner.Spans {
		ownerStages[s.Name] = true
	}
	for _, want := range []string{trace.StageQueue, trace.StageFanout, trace.StageScore, trace.StageDispatch} {
		if !ownerStages[want] {
			t.Errorf("owner trace missing stage %q (spans: %+v)", want, owner.Spans)
		}
	}

	// The hop node holds a segment under the SAME trace ID: the forward
	// span, finished with status "forwarded".
	hop := awaitTrace(t, nodes[0].srv.URL, owner.TraceID)
	if hop.TraceID != owner.TraceID {
		t.Fatalf("hop trace %s, owner trace %s — want one stitched trace", hop.TraceID, owner.TraceID)
	}
	if hop.Status != "forwarded" {
		t.Errorf("hop trace status %q, want forwarded", hop.Status)
	}
	var fwd bool
	for _, s := range hop.Spans {
		if s.Name == sbqa.StageForward {
			fwd = true
			if s.Class != nodes[1].id {
				t.Errorf("forward span class %q, want owner node %q", s.Class, nodes[1].id)
			}
		}
	}
	if !fwd {
		t.Errorf("hop trace has no forward span: %+v", hop.Spans)
	}
}

// TestPprofFlagGate: /debug/pprof/ exists only when -debug-pprof was given.
func TestPprofFlagGate(t *testing.T) {
	srv := traceGateway(t)
	if code := getJSONStatus(t, srv.URL+"/debug/pprof/", nil); code != http.StatusNotFound {
		t.Errorf("pprof without flag: status %d, want 404", code)
	}

	enablePprof = true
	defer func() { enablePprof = false }()
	srvOn := traceGateway(t)
	if code := getJSONStatus(t, srvOn.URL+"/debug/pprof/", nil); code != http.StatusOK {
		t.Errorf("pprof with flag: status %d, want 200", code)
	}
}
