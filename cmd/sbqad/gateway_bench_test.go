package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"sbqa"
)

// recorder is the benchmark's ResponseWriter: it keeps the status and the
// body in storage reused across requests, so what the benchmark counts is
// the handler's own work and nothing of net/http's connection handling.
type recorder struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func (r *recorder) Header() http.Header         { return r.header }
func (r *recorder) WriteHeader(status int)      { r.status = status }
func (r *recorder) Write(p []byte) (int, error) { return r.body.Write(p) }

func (r *recorder) reset() {
	clear(r.header)
	r.status = 0
	r.body.Reset()
}

// reusableBody is a request body the benchmark rewinds instead of rebuilding.
type reusableBody struct{ *bytes.Reader }

func (reusableBody) Close() error { return nil }

// BenchmarkGatewaySubmit measures one POST /v1/queries through the real
// handler() with no socket on either side: routing, body decode, ticket,
// mediation, the wait for the allocation and the response encode. The body
// is the wire harness's own submit document. With no HTTP client or server
// in the loop allocs/op is a property of the compiled handler, so CI holds
// it to a ceiling.
func BenchmarkGatewaySubmit(b *testing.B) {
	submit := gatewaySubmitter(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		submit()
	}
}

// TestGatewaySubmitAllocs: one wait:"allocation" submit through the real
// handler allocates the ticket and the Allocation's three objects, and the
// edge around them nothing.
func TestGatewaySubmitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop pooled scratch at random")
	}
	if n := testing.AllocsPerRun(200, gatewaySubmitter(t)); n != 4 {
		t.Fatalf("%v allocations per submit, want 4", n)
	}
}

// gatewaySubmitter returns one POST /v1/queries of the wire harness's own
// submit document through the handler of a warm three-worker gateway, with
// a rewound body and a recorder reused across calls; it fails tb on any
// answer but a 200.
func gatewaySubmitter(tb testing.TB) func() {
	gw, err := newGateway(
		sbqa.WithWindow(50),
		sbqa.WithConcurrency(1),
		sbqa.WithPolicy(sbqa.PolicySpec{Kind: sbqa.PolicySbQA, K: 4, Kn: 2, Seed: 1}),
	)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(gw.close)
	h := gw.handler()

	payload := []byte(`{"consumer":1,"class":0,"n":1,"work":1,"wait":"allocation"}`)
	body := reusableBody{bytes.NewReader(nil)}
	req, err := http.NewRequest(http.MethodPost, "/v1/queries", nil)
	if err != nil {
		tb.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	rec := &recorder{header: make(http.Header)}
	do := func(path string, doc []byte) {
		rec.reset()
		body.Reset(doc)
		req.URL.Path = path
		req.Body = body
		req.ContentLength = int64(len(doc))
		h.ServeHTTP(rec, req)
	}
	for id := 1; id <= 3; id++ {
		do("/v1/workers", fmt.Appendf(nil, `{"id":%d,"capacity":1000000,"intention":0.5}`, id))
		if rec.status != http.StatusCreated {
			tb.Fatalf("register worker %d: %d %s", id, rec.status, rec.body.String())
		}
	}
	do("/v1/consumers", []byte(`{"id":1,"intention":0.8}`))
	if rec.status != http.StatusCreated {
		tb.Fatalf("register consumer: %d %s", rec.status, rec.body.String())
	}
	submit := func() {
		do("/v1/queries", payload)
		if rec.status != http.StatusOK {
			tb.Fatalf("submit: %d %s", rec.status, rec.body.String())
		}
	}
	submit() // warm the shard's scratch buffers
	return submit
}

// statsFixture is a two-shard gateway with the given number of workers and
// 64 consumers, after a round of mediations has given the registry trackers
// on both sides: what a scrape of a busy daemon reads.
func statsFixture(tb testing.TB, workers int) http.Handler {
	tb.Helper()
	gw, err := newGateway(
		sbqa.WithWindow(50),
		sbqa.WithConcurrency(2),
		sbqa.WithPolicy(sbqa.PolicySpec{Kind: sbqa.PolicySbQA, Seed: 1}),
	)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(gw.close)
	h := gw.handler()
	must := func(status int, path string, doc []byte) {
		if rec := handle(h, http.MethodPost, path, doc); rec.Code != status {
			tb.Fatalf("POST %s %s: %d %s", path, doc, rec.Code, rec.Body)
		}
	}
	for id := 0; id < workers; id++ {
		must(http.StatusCreated, "/v1/workers", fmt.Appendf(nil, `{"id":%d,"capacity":1000000,"queue_cap":16,"intention":0.5}`, id))
	}
	for id := 0; id < 64; id++ {
		must(http.StatusCreated, "/v1/consumers", fmt.Appendf(nil, `{"id":%d,"intention":0.8}`, id))
	}
	for i := 0; i < 256; i++ {
		must(http.StatusOK, "/v1/queries", fmt.Appendf(nil, `{"consumer":%d,"n":1,"work":1}`, i%64))
	}
	return h
}

// BenchmarkGatewayStats measures one GET /v1/stats through the real handler
// with no socket, on a fleet the size of churn_mixed's (400 workers, 64
// consumers): the engine's snapshot, the registry walk and the encoding.
func BenchmarkGatewayStats(b *testing.B) {
	h := statsFixture(b, 400)
	req := httptest.NewRequest(http.MethodGet, "/v1/stats", nil)
	rec := &recorder{header: make(http.Header)}
	b.ReportAllocs()
	for b.Loop() {
		rec.reset()
		h.ServeHTTP(rec, req)
		if rec.status != http.StatusOK {
			b.Fatalf("scrape: %d %s", rec.status, rec.body.String())
		}
	}
}

// BenchmarkWireSubmit puts a handler behind a real net/http server on
// loopback and drives it with a client that allocates nothing — one
// kept-alive connection, the request written as prepared bytes, the response
// read into a fixed buffer — so allocs/op is the server side's alone:
// net/http's connection handling plus the handler. "bare" drains the wire
// harness's own submit and answers with fixed bytes: the floor under any
// handler of this design. "sbqad" is the gateway; the difference is what a
// query costs on top of HTTP/1.1 itself (EXPERIMENTS.md, "Where a wire
// query's allocations and CPU go").
func BenchmarkWireSubmit(b *testing.B) {
	const payload = `{"consumer":1,"class":0,"n":1,"work":1,"wait":"allocation"}`
	b.Run("bare", func(b *testing.B) {
		reply := []byte(`{"query_id":1,"selected":[1]}` + "\n")
		benchWire(b, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			_, _ = io.Copy(io.Discard, r.Body)
			w.Header()["Content-Type"] = jsonContentType
			_, _ = w.Write(reply)
		}), payload)
	})
	b.Run("sbqad", func(b *testing.B) {
		gw, err := newGateway(
			sbqa.WithWindow(50),
			sbqa.WithConcurrency(1),
			sbqa.WithPolicy(sbqa.PolicySpec{Kind: sbqa.PolicySbQA, K: 4, Kn: 2, Seed: 1}),
		)
		if err != nil {
			b.Fatal(err)
		}
		defer gw.close()
		h := gw.handler()
		for id := 1; id <= 3; id++ {
			handle(h, http.MethodPost, "/v1/workers", fmt.Appendf(nil, `{"id":%d,"capacity":1000000,"intention":0.5}`, id))
		}
		handle(h, http.MethodPost, "/v1/consumers", []byte(`{"id":1,"intention":0.8}`))
		benchWire(b, h, payload)
	})
}

// benchWire times POST /v1/queries round trips of payload against h over one
// loopback connection, requiring a 200 each time.
func benchWire(b *testing.B, h http.Handler, payload string) {
	srv := httptest.NewServer(h)
	defer srv.Close()
	benchWireTo(b, srv, payload)
}

// benchWireTo is benchWire against a server that is already up.
func benchWireTo(b *testing.B, srv *httptest.Server, payload string) {
	conn, err := net.Dial("tcp", srv.Listener.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer conn.Close()
	req := []byte("POST /v1/queries HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: " +
		strconv.Itoa(len(payload)) + "\r\n\r\n" + payload)
	buf := make([]byte, 4096)
	roundTrip := func() {
		if _, err := conn.Write(req); err != nil {
			b.Fatal(err)
		}
		// A response is complete when the bytes after the blank line number
		// what Content-Length said.
		for n := 0; ; {
			m, err := conn.Read(buf[n:])
			if err != nil {
				b.Fatal(err)
			}
			n += m
			head, body, ok := bytes.Cut(buf[:n], []byte("\r\n\r\n"))
			if !ok {
				continue
			}
			_, cl, _ := bytes.Cut(head, []byte("Content-Length: "))
			cl, _, _ = bytes.Cut(cl, []byte("\r\n"))
			if want, err := strconv.Atoi(string(cl)); err != nil || !bytes.HasPrefix(head, []byte("HTTP/1.1 200 ")) {
				b.Fatalf("response %q", buf[:n])
			} else if len(body) >= want {
				return
			}
		}
	}
	roundTrip() // connection set-up, scratch buffers
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		roundTrip()
	}
}
