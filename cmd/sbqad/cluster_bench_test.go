package main

import (
	"fmt"
	"testing"

	"sbqa"
)

// BenchmarkForwardedSubmit measures one query's full forwarded hop over
// loopback: POST /v1/queries at the non-owner gateway, consistent-hash
// route, a frame on the peer link to the owner, mediation there, and the
// reply frame relayed as the HTTP response. The client is benchWire's — one
// kept-alive connection, prepared request bytes, a fixed read buffer — and
// allocates nothing, so allocs/op is the two servers' alone: the entry
// node's net/http, the link, and the owner's core. The delta against
// BenchmarkWireSubmit/sbqad is the cluster's routing tax, and CI holds it to
// a ceiling.
func BenchmarkForwardedSubmit(b *testing.B) {
	nodes := startTestCluster(b, 2, false,
		sbqa.WithWindow(50),
		sbqa.WithConcurrency(1),
		sbqa.WithPolicy(sbqa.PolicySpec{Kind: sbqa.PolicySbQA, K: 4, Kn: 2, Seed: 1}),
	)
	for _, cn := range nodes {
		registerWorkers(b, cn.srv.URL)
	}
	c := consumerOwnedBy(b, nodes, 0, 0)
	entry := nodes[1]
	postJSON(b, entry.srv.URL+"/v1/consumers", consumerRequest{ID: c, Intention: 0.8}, nil)

	before := entry.g.cmx.fwdQueries.Load()
	benchWireTo(b, entry.srv, fmt.Sprintf(`{"consumer":%d,"class":0,"n":1,"work":0.0001,"wait":"allocation"}`, c))
	if fq := entry.g.cmx.fwdQueries.Load() - before; fq != uint64(b.N)+1 { // and benchWire's warm-up
		b.Fatalf("forwarded %d queries, want %d", fq, b.N+1)
	}
}
