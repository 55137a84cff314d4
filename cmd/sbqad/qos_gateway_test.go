package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"sbqa"
)

// qosGateway builds a gateway + test server with the given QoS spec and a
// registered worker/consumer pair, ready to take submissions.
func qosGateway(t *testing.T, spec sbqa.QoSSpec) (*gateway, *httptest.Server) {
	t.Helper()
	gw, err := newGateway(
		sbqa.WithWindow(20),
		sbqa.WithConcurrency(1),
		sbqa.WithPolicy(sbqa.PolicySpec{Kind: sbqa.PolicySbQA, K: 4, Kn: 2, Seed: 1, QoS: &spec}),
	)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(gw.close)
	srv := httptest.NewServer(gw.handler())
	t.Cleanup(srv.Close)
	postJSON(t, srv.URL+"/v1/workers", workerRequest{ID: 0, Capacity: 1000, QueueCap: 64, Intention: 0.5}, nil)
	postJSON(t, srv.URL+"/v1/consumers", consumerRequest{ID: 0, Intention: 0.8}, nil)
	return gw, srv
}

// TestGatewayAdmission429 pins the rate-limit regression surface: an
// over-limit consumer gets 429 with the structured body and a Retry-After
// header, the rejection is counted in /v1/stats and /v1/metrics, and a
// policy PUT that raises the rate re-admits immediately.
func TestGatewayAdmission429(t *testing.T) {
	spec := sbqa.DefaultQoSSpec()
	spec.ConsumerRate = 0.001 // one query per ~17 min: the second submit must reject
	spec.ConsumerBurst = 1
	_, srv := qosGateway(t, spec)

	var qr queryResponse
	postJSON(t, srv.URL+"/v1/queries", queryRequest{Consumer: 0, N: 1, Work: 0.5, Wait: "allocation"}, &qr)
	if qr.Error != "" {
		t.Fatalf("first submit rejected: %s", qr.Error)
	}

	var rej rejectJSON
	resp := postJSON(t, srv.URL+"/v1/queries", queryRequest{Consumer: 0, N: 1, Work: 0.5, Wait: "allocation"}, &rej)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second submit status = %d, want 429", resp.StatusCode)
	}
	if rej.Error != "rate_limited" || rej.Scope != "consumer" {
		t.Fatalf("429 body = %+v, want error=rate_limited scope=consumer", rej)
	}
	if rej.RetryAfterMS <= 0 {
		t.Fatalf("429 body retry_after_ms = %v, want > 0", rej.RetryAfterMS)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Fatalf("Retry-After header = %q, want a positive number of seconds", ra)
	}

	var st statsResponse
	getJSON(t, srv.URL+"/v1/stats", &st)
	if st.AdmissionRejected != 1 {
		t.Fatalf("stats admission_rejected = %d, want 1", st.AdmissionRejected)
	}
	metrics := getText(t, srv.URL+"/v1/metrics")
	if !strings.Contains(metrics, "sbqa_admission_rejected_total 1") {
		t.Fatalf("metrics missing sbqa_admission_rejected_total 1:\n%s", metrics)
	}

	// Hot-swap: a policy with a permissive qos block re-admits at once.
	relaxed := sbqa.DefaultQoSSpec()
	relaxed.ConsumerRate = 1e6
	putPolicy(t, srv.URL, sbqa.PolicySpec{Kind: "sbqa", K: 4, Kn: 2, Seed: 1, QoS: &relaxed})
	var qr2 queryResponse
	if resp := postJSON(t, srv.URL+"/v1/queries", queryRequest{Consumer: 0, N: 1, Work: 0.5, Wait: "allocation"}, &qr2); resp.StatusCode != http.StatusOK {
		t.Fatalf("post-relax submit status = %d, want 200", resp.StatusCode)
	}
}

// TestGatewayShed503 pins the shed regression surface: a browned-out class
// answers 503 with the structured shed body on both the waiting and the
// wait=none paths, the shed appears on the SSE stream, and the per-class
// shed counter reaches /v1/metrics.
func TestGatewayShed503(t *testing.T) {
	gw, srv := qosGateway(t, sbqa.DefaultQoSSpec())
	events, closeSSE := openSSE(t, srv.URL+"/v1/events")
	defer closeSSE()

	// Brown out the bottom class (background) directly — the tuner's move,
	// forced here for determinism.
	gw.eng.SetBrownout(1)

	var rej rejectJSON
	resp := postJSON(t, srv.URL+"/v1/queries", queryRequest{Consumer: 0, N: 1, Work: 0.5, Wait: "allocation", QoS: "background"}, &rej)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("shed submit status = %d, want 503", resp.StatusCode)
	}
	if rej.Error != "shed" || rej.Class != "background" || rej.Reason != "brownout" {
		t.Fatalf("503 body = %+v, want error=shed class=background reason=brownout", rej)
	}
	awaitEvent(t, events, "shed", func(data string) bool {
		return strings.Contains(data, `"class":"background"`) && strings.Contains(data, `"reason":"brownout"`)
	})

	// wait=none must not answer a hollow 202 for a query already shed.
	var rej2 rejectJSON
	resp = postJSON(t, srv.URL+"/v1/queries", queryRequest{Consumer: 0, N: 1, Work: 0.5, Wait: "none", QoS: "background"}, &rej2)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("wait=none shed status = %d, want 503", resp.StatusCode)
	}
	if rej2.Error != "shed" {
		t.Fatalf("wait=none 503 body = %+v, want error=shed", rej2)
	}

	// The interactive class is untouched by brownout level 1.
	var qr queryResponse
	if resp := postJSON(t, srv.URL+"/v1/queries", queryRequest{Consumer: 0, N: 1, Work: 0.5, Wait: "allocation", QoS: "interactive"}, &qr); resp.StatusCode != http.StatusOK {
		t.Fatalf("interactive submit status = %d, want 200", resp.StatusCode)
	}

	var st statsResponse
	getJSON(t, srv.URL+"/v1/stats", &st)
	if st.Brownout != 1 {
		t.Fatalf("stats brownout = %d, want 1", st.Brownout)
	}
	metrics := getText(t, srv.URL+"/v1/metrics")
	if !strings.Contains(metrics, `sbqa_shed_total{class="background",reason="brownout"} 2`) {
		t.Fatalf("metrics missing background brownout shed count:\n%s", metrics)
	}
	if !strings.Contains(metrics, "sbqa_brownout_level 1") {
		t.Fatalf("metrics missing sbqa_brownout_level 1:\n%s", metrics)
	}
	if !strings.Contains(metrics, "sbqa_queue_enqueued_total") || !strings.Contains(metrics, "sbqa_shard_queue_high_water") {
		t.Fatalf("metrics missing queue ledger families:\n%s", metrics)
	}
}

// getText fetches url as plain text.
func getText(t testing.TB, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// putPolicy PUTs a policy spec and requires acceptance.
func putPolicy(t testing.TB, base string, spec sbqa.PolicySpec) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPut, base+"/v1/policy", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("policy put status = %d", resp.StatusCode)
	}
}
