package main

import (
	"strings"
	"testing"

	"sbqa/bench/control"
)

func TestCheckOpSelectionRule(t *testing.T) {
	fx, _ := newFixture("churn_mixed", 1)
	q := &op{kind: opQuery, class: 2, n: 1}
	ok := func(status int, body string) (opResult, error) { return checkOp(fx, q, status, []byte(body)) }

	if r, err := ok(200, `{"query_id":9,"selected":[101],"proposed":[101,102]}`); err != nil || !r.ok || r.queryID != 9 {
		t.Errorf("worker 101 is of class 2: %+v, %v", r, err)
	}
	for _, bad := range []string{
		`{"query_id":9,"selected":[1]}`,       // class 0 worker
		`{"query_id":9,"selected":[101,102]}`, // two for n=1
		`{"query_id":9}`,                      // none
		`{"query_id":9,"selected":[9999]}`,    // unknown worker
		`{"query_id":`,                        // malformed
	} {
		if _, err := ok(200, bad); err == nil {
			t.Errorf("accepted %s", bad)
		}
	}
	// A refusal is a failed operation, not an incorrect output.
	for _, status := range []int{409, 429, 503} {
		if r, err := ok(status, `{"error":"shed"}`); err != nil || r.ok {
			t.Errorf("status %d: %+v, %v", status, r, err)
		}
	}
	async := &op{kind: opQuery, class: 2, n: 1, async: true}
	if r, err := checkOp(fx, async, 202, []byte(`{"query_id":4}`)); err != nil || !r.ok {
		t.Errorf("wait:none 202: %+v, %v", r, err)
	}
	if _, err := checkOp(fx, async, 202, []byte(`{}`)); err == nil {
		t.Error("wait:none 202 without an id accepted")
	}

	// An unrestricted fleet accepts any of its workers, and only those of
	// the owning node.
	cl, _ := newFixture("cluster_durable", 1)
	fwd := &op{kind: opQuery, n: 1, owner: 2}
	if _, err := checkOp(cl, fwd, 200, []byte(`{"query_id":1,"selected":[2001]}`)); err != nil {
		t.Error(err)
	}
	if _, err := checkOp(cl, fwd, 200, []byte(`{"query_id":1,"selected":[1]}`)); err == nil {
		t.Error("n2's query allocated to a worker of n0 accepted")
	}
}

func TestCheckOpControlAndStats(t *testing.T) {
	c := &op{kind: opControl}
	if r, err := checkOp(nil, c, 200, []byte(control.ResponseBody)); err != nil || !r.ok {
		t.Errorf("%+v, %v", r, err)
	}
	if _, err := checkOp(nil, c, 200, []byte(strings.Replace(control.ResponseBody, "7", "8", 1))); err == nil {
		t.Error("a changed control body accepted")
	}
	st := &op{kind: opStats}
	good := `{"shards":[{"mediations":3}],"satisfaction":{"consumers":{"1":0.5},"providers":{"2":1}}}`
	if r, err := checkOp(nil, st, 200, []byte(good)); err != nil || !r.ok {
		t.Errorf("%+v, %v", r, err)
	}
	for _, bad := range []string{
		`{"shards":[{"mediations":3}],"satisfaction":{"consumers":{"1":1.5}}}`,
		`{"shards":[{"mediations":3}],"satisfaction":{"providers":{"1":-0.1}}}`,
		`{"shards":[]}`,
	} {
		if _, err := checkOp(nil, st, 200, []byte(bad)); err == nil {
			t.Errorf("accepted %s", bad)
		}
	}
}

func TestPromParsing(t *testing.T) {
	doc := []byte("# HELP x y\nsbqa_cluster_forwarded_total{kind=\"query\"} 1234\nsbqa_cluster_forwarded_total{kind=\"consumer\"} 96\n" +
		"sbqa_cluster_shipped_segments_total{peer=\"n1\"} 3\nsbqa_cluster_shipped_segments_total{peer=\"n2\"} 4\nsbqa_cluster_shipped_segments_totally 100\n")
	if v, ok := promValue(doc, `sbqa_cluster_forwarded_total{kind="query"}`); !ok || v != 1234 {
		t.Errorf("promValue = %v, %v", v, ok)
	}
	if _, ok := promValue(doc, "absent"); ok {
		t.Error("found an absent series")
	}
	if v := promSum(doc, "sbqa_cluster_shipped_segments_total"); v != 7 {
		t.Errorf("promSum = %v, want 7", v)
	}
}
