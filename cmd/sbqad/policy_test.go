package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"sbqa"
	"sbqa/internal/policy"
)

// newPolicyGateway builds a gateway running a declarative policy, as the
// daemon's main() does.
func newPolicyGateway(t *testing.T, spec sbqa.PolicySpec, extra ...sbqa.EngineOption) (*gateway, *httptest.Server) {
	t.Helper()
	opts := append([]sbqa.EngineOption{
		sbqa.WithWindow(50),
		sbqa.WithPolicy(spec),
	}, extra...)
	gw, err := newGateway(opts...)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(gw.handler())
	t.Cleanup(func() {
		srv.Close()
		gw.close()
	})
	return gw, srv
}

func putJSON(t *testing.T, url string, v any, out any) *http.Response {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPut, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s response: %v", url, err)
		}
	}
	return resp
}

// TestPolicyEndpointsEndToEnd: GET the boot policy, PUT a replacement,
// watch the policy_change SSE event, confirm the stats generation, and see
// the new policy actually mediating.
func TestPolicyEndpointsEndToEnd(t *testing.T) {
	boot := sbqa.PolicySpec{Name: "boot", Kind: sbqa.PolicySbQA, K: 4, Kn: 2, Seed: 1}
	_, srv := newPolicyGateway(t, boot)

	events, closeSSE := openSSE(t, srv.URL+"/v1/events")
	defer closeSSE()

	// GET: the normalized boot policy.
	var got policyResponse
	resp, err := http.Get(srv.URL + "/v1/policy")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	// Every engine runs a policy: the member is an object, never null.
	if !bytes.Contains(body, []byte(`"policy":{"name":"boot","kind":"sbqa"`)) {
		t.Fatalf("GET /v1/policy = %s, want a policy object", body)
	}
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if got.Policy.Kind != sbqa.PolicySbQA || got.Policy.K != 4 {
		t.Fatalf("GET /v1/policy = %+v", got)
	}
	if got.Generation != 0 {
		t.Fatalf("boot generation = %d, want 0", got.Generation)
	}

	// PUT: swap to a wider policy.
	var putResp map[string]uint64
	wider := sbqa.PolicySpec{Name: "wider", Kind: sbqa.PolicySbQA, K: 8, Kn: 4, Seed: 2}
	if resp := putJSON(t, srv.URL+"/v1/policy", wider, &putResp); resp.StatusCode != http.StatusOK {
		t.Fatalf("PUT /v1/policy status = %d", resp.StatusCode)
	}
	if putResp["generation"] != 1 {
		t.Fatalf("PUT generation = %d, want 1", putResp["generation"])
	}
	awaitEvent(t, events, "policy_change", func(data string) bool {
		return strings.Contains(data, `"name":"wider"`) && strings.Contains(data, `"generation":1`)
	})

	// An invalid PUT is rejected with 400 and changes nothing.
	bad := map[string]any{"kind": "warp-drive"}
	if resp := putJSON(t, srv.URL+"/v1/policy", bad, nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid PUT status = %d, want 400", resp.StatusCode)
	}

	// Mediate once so the shard adopts the generation, then check stats.
	postJSON(t, srv.URL+"/v1/workers", map[string]any{"id": 1, "capacity": 100, "intention": 0.5}, nil)
	postJSON(t, srv.URL+"/v1/consumers", map[string]any{"id": 0, "intention": 0.6}, nil)
	var qr queryResponse
	postJSON(t, srv.URL+"/v1/queries", map[string]any{"consumer": 0, "n": 1, "work": 1, "wait": "allocation"}, &qr)
	if qr.Error != "" {
		t.Fatalf("query failed: %s", qr.Error)
	}

	var st statsResponse
	resp, err = http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.PolicyGeneration != 1 {
		t.Fatalf("stats policy_generation = %d, want 1", st.PolicyGeneration)
	}
	if st.Shards[0].PolicyGeneration != 1 || st.Shards[0].PolicySwaps != 1 {
		t.Fatalf("shard policy stats = %+v", st.Shards[0])
	}

	// GET reflects the swap and the per-shard adoption.
	resp, err = http.Get(srv.URL + "/v1/policy")
	if err != nil {
		t.Fatal(err)
	}
	got = policyResponse{}
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got.Policy.Name != "wider" || got.Generation != 1 {
		t.Fatalf("GET after PUT = %+v", got)
	}
	if len(got.Shards) != 1 || got.Shards[0].PolicySwaps != 1 {
		t.Fatalf("GET shard adoption = %+v", got.Shards)
	}
}

// TestPolicyPreviewDryRun ranks a submitted candidate set under a candidate
// policy without touching the engine.
func TestPolicyPreviewDryRun(t *testing.T) {
	_, srv := newPolicyGateway(t, sbqa.PolicySpec{Kind: sbqa.PolicySbQA, K: 4, Kn: 2, Seed: 1})

	f := func(v float64) *float64 { return &v }
	req := map[string]any{
		"policy": sbqa.PolicySpec{Kind: sbqa.PolicySbQA, K: 3, Kn: 3, OmegaMode: policy.OmegaFixed, Seed: 1},
		"query":  map[string]any{"consumer": 0, "n": 1, "work": 2},
		"candidates": []previewCandidate{
			{ID: 1, Utilization: 0.5, Capacity: 1, CI: f(0.9), PI: f(0.1)},
			{ID: 2, Utilization: 0.2, Capacity: 1, CI: f(-0.5), PI: f(0.8)},
			{ID: 3, Utilization: 0.1, Capacity: 1, CI: f(0.4), PI: f(0.4)},
		},
	}
	var got previewResponse
	if resp := postJSON(t, srv.URL+"/v1/policy/preview", req, &got); resp.StatusCode != http.StatusOK {
		t.Fatalf("preview status = %d", resp.StatusCode)
	}
	// ω = 0 scores purely by the consumer's intentions: provider 1 wins.
	if len(got.Selected) != 1 || got.Selected[0] != 1 {
		t.Fatalf("preview selected %v, want [1]", got.Selected)
	}
	if len(got.Proposed) != 3 || len(got.Scores) != 3 {
		t.Fatalf("preview proposal = %v scores = %v, want all 3 ranked", got.Proposed, got.Scores)
	}

	// The engine itself was untouched: still generation 0, zero mediations.
	var st statsResponse
	resp, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.PolicyGeneration != 0 || st.Shards[0].Mediations != 0 {
		t.Fatalf("preview touched the engine: %+v", st)
	}

	// A capacity-kind preview ranks by free capacity, no intentions needed.
	req["policy"] = sbqa.PolicySpec{Kind: sbqa.PolicyCapacity}
	got = previewResponse{}
	postJSON(t, srv.URL+"/v1/policy/preview", req, &got)
	if len(got.Selected) != 1 || got.Selected[0] != 3 {
		t.Fatalf("capacity preview selected %v, want [3] (least utilized)", got.Selected)
	}

	// Bad specs and empty candidate sets are 400s.
	if resp := postJSON(t, srv.URL+"/v1/policy/preview", map[string]any{"policy": map[string]string{"kind": "bogus"}, "candidates": []previewCandidate{{ID: 1}}}, nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bogus-kind preview status = %d, want 400", resp.StatusCode)
	}
	if resp := postJSON(t, srv.URL+"/v1/policy/preview", map[string]any{"policy": sbqa.PolicySpec{Kind: sbqa.PolicyCapacity}}, nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty-candidates preview status = %d, want 400", resp.StatusCode)
	}
}

// TestRequestHardening exercises the JSON guardrails on every mutating
// endpoint: oversized bodies get 413, non-JSON content types get 415.
func TestRequestHardening(t *testing.T) {
	_, srv := newPolicyGateway(t, sbqa.PolicySpec{Kind: sbqa.PolicySbQA, K: 4, Kn: 2, Seed: 1})

	huge := append([]byte(`{"pad":"`), bytes.Repeat([]byte("x"), maxRequestBody+1024)...)
	huge = append(huge, []byte(`"}`)...)
	endpoints := []struct {
		method, path string
	}{
		{http.MethodPost, "/v1/consumers"},
		{http.MethodPost, "/v1/workers"},
		{http.MethodPost, "/v1/queries"},
		{http.MethodPut, "/v1/policy"},
		{http.MethodPost, "/v1/policy/preview"},
	}
	for _, ep := range endpoints {
		req, err := http.NewRequest(ep.method, srv.URL+ep.path, bytes.NewReader(huge))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s %s oversized body: status %d, want 413", ep.method, ep.path, resp.StatusCode)
		}

		req, err = http.NewRequest(ep.method, srv.URL+ep.path, strings.NewReader(`{"id":1}`))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/xml")
		resp, err = http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusUnsupportedMediaType {
			t.Errorf("%s %s xml body: status %d, want 415", ep.method, ep.path, resp.StatusCode)
		}
	}

	// A missing Content-Type stays accepted (curl-friendliness).
	req, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/consumers", strings.NewReader(`{"id":7,"intention":0.5}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Del("Content-Type")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("missing content-type: status %d, want 201", resp.StatusCode)
	}
}

// TestStatsCountsDroppedEvents wedges a deliberately slow SSE subscriber
// (never reads) and floods the hub past its per-subscriber buffer; the
// stats endpoint must surface the drops while the engine stays unblocked.
func TestStatsCountsDroppedEvents(t *testing.T) {
	gw, srv := newPolicyGateway(t, sbqa.PolicySpec{Kind: sbqa.PolicySbQA, K: 4, Kn: 2, Seed: 1})

	// A raw subscriber that never drains stands in for a stalled client.
	_, unsubscribe := gw.hub.subscribe()
	defer unsubscribe()

	const floods = subscriberBuffer + 50
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < floods; i++ {
			gw.hub.publish("flood", map[string]int{"i": i})
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("publish blocked behind a stalled subscriber")
	}

	var st statsResponse
	resp, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.EventsDropped != 50 {
		t.Fatalf("events_dropped = %d, want 50", st.EventsDropped)
	}
}
