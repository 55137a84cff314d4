package main

import (
	"bytes"
	"fmt"
	"net/http"
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
	gw, err := newGateway(
		sbqa.WithWindow(50),
		sbqa.WithConcurrency(1),
		sbqa.WithAllocatorFactory(func(int) sbqa.Allocator {
			return sbqa.NewSbQA(sbqa.SbQAConfig{KnBest: sbqa.KnBestParams{K: 4, Kn: 2}, Seed: 1})
		}),
	)
	if err != nil {
		b.Fatal(err)
	}
	defer gw.close()
	h := gw.handler()

	payload := []byte(`{"consumer":1,"class":0,"n":1,"work":1,"wait":"allocation"}`)
	body := reusableBody{bytes.NewReader(nil)}
	req, err := http.NewRequest(http.MethodPost, "/v1/queries", nil)
	if err != nil {
		b.Fatal(err)
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
			b.Fatalf("register worker %d: %d %s", id, rec.status, rec.body.String())
		}
	}
	do("/v1/consumers", []byte(`{"id":1,"intention":0.8}`))
	if rec.status != http.StatusCreated {
		b.Fatalf("register consumer: %d %s", rec.status, rec.body.String())
	}
	do("/v1/queries", payload) // warm the shard's scratch buffers

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		do("/v1/queries", payload)
		if rec.status != http.StatusOK {
			b.Fatalf("submit: %d %s", rec.status, rec.body.String())
		}
	}
}
