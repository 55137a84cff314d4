package main

import (
	"testing"

	"sbqa"
)

// BenchmarkForwardedSubmit measures one query's full forwarded hop over
// loopback: POST /v1/queries at the non-owner gateway, consistent-hash
// route, proxied HTTP call to the owner, mediation there, and the
// relayed allocation response. The delta against a direct submission is
// the cluster's routing tax. ns/op is dominated by two real HTTP
// round-trips, so the committed baseline gates it only through the
// normalized relative gate, not the exact allocs/op gate.
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
	submitAlloc(b, entry.srv.URL, c) // warm connections and the owner's shard

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		submitAlloc(b, entry.srv.URL, c)
	}
	b.StopTimer()
	if fq := entry.g.cmx.fwdQueries.Load(); fq != uint64(b.N)+1 {
		b.Fatalf("forwarded %d queries, want %d", fq, b.N+1)
	}
}
