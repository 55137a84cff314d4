package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"sbqa"
)

// The edge's contract on what it reads: one request body is one JSON
// document, a policy document has one parser whoever sends it, and an
// unknown wait is refused before the query costs anything.

// handle runs one JSON request through the handler in process.
func handle(h http.Handler, method, path string, body []byte) *httptest.ResponseRecorder {
	// A guard, not a budget: wait:"results" on a query whose work a fuzzer
	// chose may take as long as the fuzzer likes.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	req := httptest.NewRequest(method, path, bytes.NewReader(body)).WithContext(ctx)
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// oneDocument reports whether body is exactly one JSON value, white space
// aside.
func oneDocument(body []byte) bool {
	dec := json.NewDecoder(bytes.NewReader(body))
	var v json.RawMessage
	if dec.Decode(&v) != nil {
		return false
	}
	_, err := dec.Token()
	return err == io.EOF
}

// TestBodyIsOneDocument: every JSON endpoint accepts its valid document and
// answers 400 once anything follows it — trailing junk or a second valid
// document that a streaming decoder would have dropped unread.
func TestBodyIsOneDocument(t *testing.T) {
	gw, _ := newPolicyGateway(t, sbqa.PolicySpec{Kind: sbqa.PolicySbQA, K: 4, Kn: 2, Seed: 1})
	h := gw.handler()
	for _, ep := range []struct {
		method, path, valid string
		status              int
	}{
		{http.MethodPost, "/v1/workers", `{"id":1,"capacity":10,"intention":0.5}`, http.StatusCreated},
		{http.MethodPost, "/v1/consumers", `{"id":1,"intention":0.5}`, http.StatusCreated},
		{http.MethodPost, "/v1/queries", `{"consumer":1,"n":1,"work":0.1}`, http.StatusOK},
		{http.MethodPut, "/v1/policy", `{"kind":"sbqa","k":4,"kn":2}`, http.StatusOK},
		{http.MethodPost, "/v1/policy/preview", `{"policy":{"kind":"capacity"},"candidates":[{"id":1,"capacity":1}]}`, http.StatusOK},
	} {
		if rec := handle(h, ep.method, ep.path, []byte(ep.valid+"\n")); rec.Code != ep.status {
			t.Errorf("%s %s valid document: status %d, want %d (%s)", ep.method, ep.path, rec.Code, ep.status, rec.Body)
		}
		for _, tail := range []string{"junk", " " + ep.valid, "}"} {
			if rec := handle(h, ep.method, ep.path, []byte(ep.valid+tail)); rec.Code != http.StatusBadRequest {
				t.Errorf("%s %s document followed by %q: status %d, want 400", ep.method, ep.path, tail, rec.Code)
			}
		}
	}
	// A preview's policy member is a policy document like any other.
	rec := handle(h, http.MethodPost, "/v1/policy/preview",
		[]byte(`{"policy":{"kind":"sbqa","kn_":5},"candidates":[{"id":1,"capacity":1}]}`))
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "kn_") {
		t.Errorf("preview with a misspelled tunable: status %d (%s), want 400 naming the field", rec.Code, rec.Body)
	}
}

// TestPutPolicyRejectsUnknownField: the HTTP control plane refuses a
// misspelled tunable exactly as the -policy file does, instead of accepting
// the document with the default in its place.
func TestPutPolicyRejectsUnknownField(t *testing.T) {
	gw, _ := newPolicyGateway(t, sbqa.PolicySpec{Kind: sbqa.PolicySbQA, K: 4, Kn: 2, Seed: 1})
	before := gw.eng.PolicyGeneration()
	rec := handle(gw.handler(), http.MethodPut, "/v1/policy", []byte(`{"kind":"sbqa","kn_":5}`))
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "kn_") {
		t.Fatalf("status %d (%s), want 400 naming the field", rec.Code, rec.Body)
	}
	if got := gw.eng.PolicyGeneration(); got != before {
		t.Fatalf("generation moved %d -> %d on a refused document", before, got)
	}
}

// TestUnknownWaitRefusedBeforeRouting: a mistyped wait is a 400 at the
// node that received it — not forwarded, no query ID assigned, no admission
// token spent — where it used to be answered like "allocation".
func TestUnknownWaitRefusedBeforeRouting(t *testing.T) {
	spec := sbqa.DefaultQoSSpec()
	spec.ConsumerRate = 0.001
	spec.ConsumerBurst = 1 // one token: a refused query must leave it
	nodes := startTestCluster(t, 2, false, deterministicQoSOpts(spec)...)
	registerWorkers(t, nodes[0].srv.URL)
	c := consumerOwnedBy(t, nodes, 0, 0)
	postJSON(t, nodes[0].srv.URL+"/v1/consumers", consumerRequest{ID: c, Intention: 0.8}, nil)
	entry := nodes[1]

	for _, wait := range []string{"result", "Results", "all"} {
		resp := postJSON(t, entry.srv.URL+"/v1/queries", queryRequest{Consumer: c, N: 1, Work: 0.1, Wait: wait}, nil)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("wait %q: status %d, want 400", wait, resp.StatusCode)
		}
	}
	if n := entry.g.cmx.fwdQueries.Load(); n != 0 {
		t.Errorf("%d refused queries were forwarded", n)
	}
	if n := nodes[0].g.eng.Stats().QueriesSubmitted; n != 0 {
		t.Errorf("%d query IDs assigned to refused queries", n)
	}
	// The token is still there, and the spelling the client meant works.
	if qr := submitWait(t, entry.srv.URL, c, "results"); len(qr.Results) == 0 {
		t.Errorf("wait \"results\" answered without results: %+v", qr)
	}
}

// fuzzGateway is the gateway the fuzz targets drive: one consumer, and one
// worker fast enough that no finite amount of work holds it for long.
func fuzzGateway(f *testing.F) *gateway {
	gw, err := newGateway(sbqa.WithWindow(20), sbqa.WithConcurrency(1),
		sbqa.WithPolicy(sbqa.PolicySpec{Kind: sbqa.PolicySbQA, K: 4, Kn: 2, Seed: 1}))
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(gw.close)
	worker, err := sbqa.NewLiveWorker(1, math.MaxFloat64, 1024, func(sbqa.Query) sbqa.Intention { return 0.5 })
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(worker.Close)
	gw.eng.RegisterWorker(worker)
	if rec := handle(gw.handler(), http.MethodPost, "/v1/consumers", []byte(`{"id":1,"intention":0.5}`)); rec.Code != http.StatusCreated {
		f.Fatalf("register consumer: %d", rec.Code)
	}
	return gw
}

// checkEdgeAnswer is the property both fuzz targets hold the handler to:
// whatever the bytes, the answer is a client error or a success — a 5xx
// only as the structured 503 of a shed query — and a success means the
// body was one JSON document, nothing dropped unread after it.
func checkEdgeAnswer(t *testing.T, body []byte, rec *httptest.ResponseRecorder) {
	t.Helper()
	switch {
	case rec.Code >= 500:
		var rej rejectJSON
		if rec.Code != http.StatusServiceUnavailable || json.Unmarshal(rec.Body.Bytes(), &rej) != nil || rej.Error != "shed" {
			t.Fatalf("status %d (%s) for body %q", rec.Code, rec.Body, body)
		}
	case rec.Code < 300 && !oneDocument(body):
		t.Fatalf("status %d for a body that is not one JSON document: %q", rec.Code, body)
	}
}

// FuzzDecodeQuery throws arbitrary bytes at POST /v1/queries.
func FuzzDecodeQuery(f *testing.F) {
	f.Add([]byte(`{"consumer":1,"n":1,"work":1,"wait":"allocation"}`))
	f.Add([]byte(`{"consumer":1,"qos":"batch","deadline_ms":1000,"wait":"none"}`))
	f.Add([]byte(`{"consumer":1,"work":0.001,"wait":"results"}`))
	f.Add([]byte(`{"consumer":1,"work":1}{"consumer":2} junk`)) // the stream decoder answered 200
	f.Add([]byte(`{"consumer":1,"work":1,"wait":"Results"}`))   // answered like "allocation"
	f.Add([]byte(`{"consumer":1,"work":1,"deadline_ms":1e-5}`)) // shed: the one 5xx a body can earn
	f.Add([]byte(`{"consumer":-1,"class":-7,"n":-3,"work":-1e308}`))
	f.Add([]byte(`[{"consumer":1}]`))
	f.Add([]byte(`{"consumer":1e99}`))
	f.Add([]byte("\xff\xfe{}"))
	f.Add([]byte(``))
	// Nanoseconds that leave int64: used to convert to "no deadline" on amd64.
	f.Add([]byte(`{"consumer":1,"work":1,"deadline_ms":1e300}`))
	f.Add([]byte(`{"consumer":1,"work":1,"deadline_ms":9.3e12}`))
	h := fuzzGateway(f).handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := handle(h, http.MethodPost, "/v1/queries", body)
		checkEdgeAnswer(t, body, rec)
		if rec.Code < 300 {
			var req queryRequest
			if err := json.Unmarshal(body, &req); err != nil {
				t.Fatalf("status %d for a body the request type refuses (%v): %q", rec.Code, err, body)
			}
			switch req.Wait {
			case "", "none", "allocation", "results":
			default:
				t.Fatalf("status %d for wait %q", rec.Code, req.Wait)
			}
		}
	})
}

// FuzzPolicyPut throws arbitrary bytes at PUT /v1/policy: what is accepted
// is exactly what the strict parser accepts, and only an accepted document
// moves the generation.
func FuzzPolicyPut(f *testing.F) {
	f.Add([]byte(`{"kind":"sbqa","k":30,"kn":15}`))
	f.Add([]byte(`{"kind":"sbqa","kn_":5}`)) // was accepted with the default kn
	f.Add([]byte(`{"kind":"capacity"} {"kind":"random"}`))
	f.Add([]byte(`{"kind":"sbqa","qos":{"classes":[{"name":"a","weight":1}],"default":"a"}}`))
	f.Add([]byte(`{"kind":"economic","participant_deadline":"-1s"}`))
	f.Add([]byte(`{"kind":"nope"}`))
	f.Add([]byte(`null`))
	gw := fuzzGateway(f)
	h := gw.handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		before := gw.eng.PolicyGeneration()
		rec := handle(h, http.MethodPut, "/v1/policy", body)
		checkEdgeAnswer(t, body, rec)
		after := gw.eng.PolicyGeneration()
		if rec.Code == http.StatusOK {
			if _, err := sbqa.ParsePolicy(body); err != nil || after != before+1 {
				t.Fatalf("accepted %q: strict parse says %v, generation %d -> %d", body, err, before, after)
			}
		} else if after != before {
			t.Fatalf("status %d moved the generation %d -> %d: %q", rec.Code, before, after, body)
		}
	})
}

// TestRegisterWorkerRefusesHugeQueue: queue_cap went unchecked into
// make(chan task, queueCap), so one registration asking for two trillion
// slots ended the daemon with "fatal error: runtime: out of memory" — not a
// panic, nothing recovers it. It is a 400 now and the gateway keeps serving;
// the largest cap still allowed registers.
func TestRegisterWorkerRefusesHugeQueue(t *testing.T) {
	gw, err := newGateway(sbqa.WithWindow(10), sbqa.WithPolicy(sbqa.PolicySpec{Kind: sbqa.PolicyCapacity}))
	if err != nil {
		t.Fatal(err)
	}
	defer gw.close()
	h := gw.handler()
	for _, body := range []string{
		`{"id":1,"capacity":1,"queue_cap":2000000000000}`,
		fmt.Sprintf(`{"id":1,"capacity":1,"queue_cap":%d}`, maxWorkerQueueCap+1),
	} {
		if rec := handle(h, http.MethodPost, "/v1/workers", []byte(body)); rec.Code != http.StatusBadRequest {
			t.Fatalf("%s: status %d (%s), want 400", body, rec.Code, rec.Body)
		}
	}
	if rec := handle(h, http.MethodGet, "/v1/healthz", nil); rec.Code != http.StatusOK {
		t.Fatalf("healthz after the refusals: %d", rec.Code)
	}
	body := fmt.Sprintf(`{"id":1,"capacity":1,"queue_cap":%d}`, maxWorkerQueueCap)
	if rec := handle(h, http.MethodPost, "/v1/workers", []byte(body)); rec.Code != http.StatusCreated {
		t.Fatalf("%s: status %d (%s), want 201", body, rec.Code, rec.Body)
	}
}

// TestHostileClassCostsNothing: a client's "class" is an int it chooses. A
// class nobody serves — here the largest a 32-bit client can send, against a
// directory of one class-1 specialist — is a typed rejection (409, no
// candidates), and ten thousand of them leave the directory and the heap
// where they were: no per-class state is created for a class a request names.
func TestHostileClassCostsNothing(t *testing.T) {
	gw, err := newGateway(sbqa.WithWindow(10), sbqa.WithPolicy(sbqa.PolicySpec{Kind: sbqa.PolicyCapacity}))
	if err != nil {
		t.Fatal(err)
	}
	defer gw.close()
	h := gw.handler()
	for path, body := range map[string]string{
		"/v1/workers":   `{"id":1,"capacity":100,"intention":0.5,"classes":[1]}`,
		"/v1/consumers": `{"id":0,"intention":0.5}`,
	} {
		if rec := handle(h, http.MethodPost, path, []byte(body)); rec.Code != http.StatusCreated {
			t.Fatalf("%s: %d %s", path, rec.Code, rec.Body)
		}
	}
	hostile := []byte(`{"consumer":0,"class":2147483647,"n":1,"work":1}`)
	submit := func() {
		rec := handle(h, http.MethodPost, "/v1/queries", hostile)
		var resp queryResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if rec.Code != http.StatusConflict || !strings.Contains(resp.Error, "no online provider can perform") {
			t.Fatalf("hostile class: %d %s, want 409 \"no online provider can perform query\"", rec.Code, rec.Body)
		}
	}
	heapInuse := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapInuse
	}
	for i := 0; i < 100; i++ {
		submit() // warm pools, scratch buffers and the published class map
	}
	before := heapInuse()
	for i := 0; i < 10000; i++ {
		submit()
	}
	// Slack for span rounding and the runtime's own churn: 1 MiB is 100 bytes
	// a request, below what any per-class entry would cost.
	if after := heapInuse(); after > before+1<<20 {
		t.Errorf("heap in use grew %d bytes over 10,000 hostile-class submits", after-before)
	}
	if metrics := handle(h, http.MethodGet, "/v1/metrics", nil).Body.String(); !strings.Contains(metrics, "sbqa_providers 1\n") {
		t.Errorf("sbqa_providers moved; metrics:\n%s", metrics)
	}
}

// FuzzRegisterWorker throws arbitrary bytes at POST /v1/workers: never a
// panic or a 5xx, and a worker starts for exactly the bodies that are one
// JSON document of the request type with a positive capacity and a queue
// the gateway allows. Each started worker is unregistered again, so its
// goroutine does not outlive the input.
func FuzzRegisterWorker(f *testing.F) {
	f.Add([]byte(`{"id":7,"capacity":100,"queue_cap":64,"intention":0.5,"classes":[1,2]}`))
	f.Add([]byte(`{"id":1,"capacity":1,"queue_cap":2000000000000}`)) // ended the process
	f.Add([]byte(`{"id":1,"capacity":1,"queue_cap":-5}`))
	f.Add([]byte(`{"id":1,"capacity":0}`))
	f.Add([]byte(`{"id":1,"capacity":-1e308}`))
	f.Add([]byte(`{"id":-9223372036854775808,"capacity":1e308,"intention":1e308,"classes":[-1,9223372036854775807]}`))
	f.Add([]byte(`{"id":1,"capacity":1,"intention_url":"http://[::1"}`))
	f.Add([]byte(`{"id":1,"capacity":1}{"id":2,"capacity":1}`))
	f.Add([]byte(`{"id":1.5,"capacity":1}`))
	f.Add([]byte(`null`))
	f.Add([]byte("\xff\xfe{}"))
	h := fuzzGateway(f).handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := handle(h, http.MethodPost, "/v1/workers", body)
		checkEdgeAnswer(t, body, rec)
		var req workerRequest
		want := json.Unmarshal(body, &req) == nil && req.Capacity > 0 && req.QueueCap <= maxWorkerQueueCap
		if got := rec.Code == http.StatusCreated; got != want {
			t.Fatalf("status %d (%s) for %q: registration expected %v", rec.Code, rec.Body, body, want)
		}
		if want {
			if rec := handle(h, http.MethodDelete, "/v1/workers/"+strconv.Itoa(req.ID), nil); rec.Code != http.StatusOK {
				t.Fatalf("unregistering worker %d: status %d (%s)", req.ID, rec.Code, rec.Body)
			}
		}
	})
}

// FuzzRegisterConsumer throws arbitrary bytes at POST /v1/consumers: never
// a panic or a 5xx, and a consumer is registered for exactly the bodies
// that are one JSON document of the request type.
func FuzzRegisterConsumer(f *testing.F) {
	f.Add([]byte(`{"id":3,"intention":0.8,"prefer_idle":true}`))
	f.Add([]byte(`{"id":3,"intention_url":"http://127.0.0.1:1/intentions"}`))
	f.Add([]byte(`{"id":-9223372036854775808,"intention":-1e308}`))
	f.Add([]byte(`{"id":1}{"id":2}`))
	f.Add([]byte(`{"id":"1"}`))
	f.Add([]byte(`{"id":1e99}`))
	f.Add([]byte(`[]`))
	f.Add([]byte(``))
	gw := fuzzGateway(f)
	h := gw.handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := handle(h, http.MethodPost, "/v1/consumers", body)
		checkEdgeAnswer(t, body, rec)
		var req consumerRequest
		want := json.Unmarshal(body, &req) == nil
		if got := rec.Code == http.StatusCreated; got != want {
			t.Fatalf("status %d (%s) for %q: registration expected %v", rec.Code, rec.Body, body, want)
		}
		if want && gw.eng.Directory().Consumer(sbqa.ConsumerID(req.ID)) == nil {
			t.Fatalf("201 for %q, but consumer %d is not in the directory", body, req.ID)
		}
	})
}
