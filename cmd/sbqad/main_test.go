package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"sbqa"
)

// postJSON posts v to url and decodes the JSON response into out.
func postJSON(t testing.TB, url string, v any, out any) *http.Response {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
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

// sseClient reads an SSE stream and delivers (event, data) pairs.
type sseLine struct {
	event string
	data  string
}

func openSSE(t *testing.T, url string) (<-chan sseLine, func()) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events content-type = %q", ct)
	}
	ch := make(chan sseLine, 64)
	go func() {
		defer close(ch)
		scanner := bufio.NewScanner(resp.Body)
		var ev sseLine
		for scanner.Scan() {
			line := scanner.Text()
			switch {
			case strings.HasPrefix(line, "event: "):
				ev.event = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: "):
				ev.data = strings.TrimPrefix(line, "data: ")
			case line == "" && ev.event != "":
				ch <- ev
				ev = sseLine{}
			}
		}
	}()
	return ch, func() { resp.Body.Close() }
}

// awaitEvent drains the stream until an event of the given kind satisfies
// match (nil matches any), or the deadline passes.
func awaitEvent(t *testing.T, ch <-chan sseLine, kind string, match func(data string) bool) sseLine {
	t.Helper()
	deadline := time.After(15 * time.Second)
	for {
		select {
		case ev, ok := <-ch:
			if !ok {
				t.Fatalf("event stream closed while waiting for %q", kind)
			}
			if ev.event == kind && (match == nil || match(ev.data)) {
				return ev
			}
		case <-deadline:
			t.Fatalf("no %q event within deadline", kind)
		}
	}
}

// TestGatewayEndToEnd drives the full network lifecycle: register a worker
// and a consumer over HTTP, watch the registrations on the event stream,
// submit a query, read its allocation from the response, observe the
// allocation and the execution result on the stream, and confirm the stats
// endpoint counted it all.
func TestGatewayEndToEnd(t *testing.T) {
	gw, err := newGateway(
		sbqa.WithWindow(50),
		sbqa.WithConcurrency(2),
		sbqa.WithPolicy(sbqa.PolicySpec{Kind: sbqa.PolicySbQA, K: 4, Kn: 2, Seed: 1}),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer gw.close()
	srv := httptest.NewServer(gw.handler())
	defer srv.Close()

	events, closeSSE := openSSE(t, srv.URL+"/v1/events")
	defer closeSSE()

	// Register two workers and a consumer; the stream reports the churn.
	for id := 0; id < 2; id++ {
		resp := postJSON(t, srv.URL+"/v1/workers", workerRequest{ID: id, Capacity: 1000, QueueCap: 64, Intention: 0.5}, nil)
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("worker registration status %d", resp.StatusCode)
		}
	}
	postJSON(t, srv.URL+"/v1/consumers", consumerRequest{ID: 0, Intention: 0.8, PreferIdle: true}, nil)
	awaitEvent(t, events, "registered", func(data string) bool {
		return strings.Contains(data, `"kind":"consumer"`)
	})

	// Submit: the response carries the allocation.
	var qr queryResponse
	postJSON(t, srv.URL+"/v1/queries", queryRequest{Consumer: 0, N: 1, Work: 0.5, Wait: "allocation"}, &qr)
	if qr.Error != "" {
		t.Fatalf("submit error: %s", qr.Error)
	}
	if qr.QueryID == 0 || len(qr.Selected) != 1 {
		t.Fatalf("submit response %+v, want an assigned ID and one selected worker", qr)
	}

	// The allocation and its execution result arrive on the stream.
	idTag := fmt.Sprintf(`"query_id":%d`, qr.QueryID)
	awaitEvent(t, events, "allocation", func(data string) bool { return strings.Contains(data, idTag) })
	resultEv := awaitEvent(t, events, "result", func(data string) bool { return strings.Contains(data, idTag) })
	var res resultJSON
	if err := json.Unmarshal([]byte(resultEv.data), &res); err != nil {
		t.Fatal(err)
	}
	if res.Provider != int(qr.Selected[0]) {
		t.Errorf("result from provider %d, allocation selected %v", res.Provider, qr.Selected)
	}

	// wait=results blocks through execution and returns the results inline.
	var qr2 queryResponse
	postJSON(t, srv.URL+"/v1/queries", queryRequest{Consumer: 0, N: 1, Work: 0.5, Wait: "results"}, &qr2)
	if qr2.Error != "" || len(qr2.Results) != 1 {
		t.Fatalf("wait=results response %+v, want one inline result", qr2)
	}

	// wait=none returns 202 immediately, yet the query still executes — its
	// lifecycle is detached from the HTTP request (the result arrives on
	// the stream).
	var qrNone queryResponse
	respNone := postJSON(t, srv.URL+"/v1/queries", queryRequest{Consumer: 0, N: 1, Work: 0.5, Wait: "none"}, &qrNone)
	if respNone.StatusCode != http.StatusAccepted || qrNone.QueryID == 0 {
		t.Fatalf("wait=none: status %d resp %+v", respNone.StatusCode, qrNone)
	}
	noneTag := fmt.Sprintf(`"query_id":%d`, qrNone.QueryID)
	awaitEvent(t, events, "result", func(data string) bool { return strings.Contains(data, noneTag) })

	// A rejected query reports its reason and shows up on the stream.
	var qr3 queryResponse
	resp := postJSON(t, srv.URL+"/v1/queries", queryRequest{Consumer: 42, N: 1, Work: 1}, &qr3)
	if resp.StatusCode != http.StatusConflict || qr3.Error == "" {
		t.Fatalf("unregistered-consumer submit: status %d resp %+v", resp.StatusCode, qr3)
	}
	awaitEvent(t, events, "rejection", nil)

	// Stats counted the lifecycle.
	var st statsResponse
	sresp, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	if err := json.NewDecoder(sresp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	var mediations, rejections uint64
	for _, sh := range st.Shards {
		mediations += sh.Mediations
		rejections += sh.Rejections
	}
	if mediations != 3 || rejections != 1 {
		t.Errorf("stats: mediations=%d rejections=%d, want 3/1", mediations, rejections)
	}
	if st.Providers != 2 || st.Consumers != 1 {
		t.Errorf("stats: providers=%d consumers=%d, want 2/1", st.Providers, st.Consumers)
	}
	if st.QueriesSubmitted != 4 {
		t.Errorf("stats: queries_submitted=%d, want 4", st.QueriesSubmitted)
	}
	if len(st.Shards) != 2 {
		t.Errorf("stats: %d shards, want 2", len(st.Shards))
	}
	if s, ok := st.Satisfaction.Consumers["0"]; !ok || s <= 0 {
		t.Errorf("consumer 0 satisfaction %v (present=%v), want positive", s, ok)
	}

	// Worker deregistration round-trips and the departure hits the stream.
	req, err := http.NewRequest(http.MethodDelete, srv.URL+"/v1/workers/1", nil)
	if err != nil {
		t.Fatal(err)
	}
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("unregister status %d", dresp.StatusCode)
	}
	awaitEvent(t, events, "departed", func(data string) bool {
		return strings.Contains(data, `"kind":"provider"`) && strings.Contains(data, `"id":1`)
	})
}

// TestGatewayValidation: malformed bodies and unknown workers produce clean
// HTTP errors, not engine panics.
func TestGatewayValidation(t *testing.T) {
	gw, err := newGateway(sbqa.WithWindow(10), sbqa.WithPolicy(sbqa.PolicySpec{Kind: sbqa.PolicyCapacity}))
	if err != nil {
		t.Fatal(err)
	}
	defer gw.close()
	srv := httptest.NewServer(gw.handler())
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/v1/queries", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed submit status %d, want 400", resp.StatusCode)
	}

	// A worker with non-positive capacity is rejected by the engine's
	// validation and surfaces as a 400.
	r2 := postJSON(t, srv.URL+"/v1/workers", workerRequest{ID: 1, Capacity: 0}, nil)
	if r2.StatusCode != http.StatusBadRequest {
		t.Errorf("invalid worker status %d, want 400", r2.StatusCode)
	}

	req, err := http.NewRequest(http.MethodDelete, srv.URL+"/v1/workers/77", nil)
	if err != nil {
		t.Fatal(err)
	}
	r3, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	r3.Body.Close()
	if r3.StatusCode != http.StatusNotFound {
		t.Errorf("unknown worker delete status %d, want 404", r3.StatusCode)
	}
}
