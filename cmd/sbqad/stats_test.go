package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"sbqa"
	"sbqa/internal/qos"
)

// hostileClass is a QoS class name carrying every character the exposition
// format escapes (quote, backslash, line feed) and one it does not (tab).
const hostileClass = "a\tb\"c\\d\ne"

// parseExposition reads a Prometheus text document the way a scraper does —
// only \\, \" and \n are escapes inside a label value, anything else after a
// backslash is a parse error — and returns every sample keyed by its metric
// name followed by "|label=value" per label, values unescaped.
func parseExposition(t *testing.T, text string) map[string]float64 {
	t.Helper()
	samples := make(map[string]float64)
	for n, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		fail := func(why string) { t.Fatalf("metrics line %d %q: %s", n+1, line, why) }
		i := strings.IndexAny(line, "{ ")
		if i < 0 {
			fail("no value")
		}
		key, rest := line[:i], line[i:]
		for rest[0] != ' ' {
			rest = rest[1:] // the '{' or the ',' before a label
			eq := strings.Index(rest, `="`)
			if eq < 0 {
				fail("label without a quoted value")
			}
			key += "|" + rest[:eq] + "="
			rest = rest[eq+2:]
			for rest != "" && rest[0] != '"' {
				c := rest[0]
				if c == '\\' {
					if len(rest) < 2 || !strings.ContainsRune(`\"n`, rune(rest[1])) {
						fail("escape the exposition format does not define")
					}
					c = map[byte]byte{'\\': '\\', '"': '"', 'n': '\n'}[rest[1]]
					rest = rest[1:]
				}
				key += string(c)
				rest = rest[1:]
			}
			if len(rest) < 2 {
				fail("unterminated label value")
			}
			if rest = rest[1:]; rest[0] == '}' {
				rest = rest[1:]
			}
		}
		v, err := strconv.ParseFloat(rest[1:], 64)
		if err != nil {
			fail(err.Error())
		}
		samples[key] = v
	}
	return samples
}

// TestMetricsLabelEscaping: a class name an operator can PUT must not make
// the scrape unparseable — label values are escaped per the exposition
// format, not as Go string literals.
func TestMetricsLabelEscaping(t *testing.T) {
	m := &metricsWriter{}
	m.sample("x_total", 2, "class", hostileClass, "reason", "brownout")
	want := `x_total{class="a` + "\t" + `b\"c\\d\ne",reason="brownout"} 2` + "\n"
	if got := m.b.String(); got != want {
		t.Fatalf("sample line\n got %q\nwant %q", got, want)
	}
	if got := parseExposition(t, want)["x_total|class="+hostileClass+"|reason=brownout"]; got != 2 {
		t.Fatalf("round trip lost the sample: %v", got)
	}
}

// TestStatsKeySetGolden pins the wire shape of GET /v1/stats now that the
// engine's own structs carry it: every key, its nesting and its JSON type.
// Maps keyed by participant ID are leaves.
func TestStatsKeySetGolden(t *testing.T) {
	gw, err := newGateway(
		sbqa.WithWindow(10),
		sbqa.WithPolicy(sbqa.PolicySpec{Kind: sbqa.PolicySbQA}),
		sbqa.WithPersistence(t.TempDir()),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer gw.close()
	srv := httptest.NewServer(gw.handler())
	defer srv.Close()

	var doc map[string]any
	getJSON(t, srv.URL+"/v1/stats", &doc)
	var got []string
	var walk func(path string, v any)
	walk = func(path string, v any) {
		switch v := v.(type) {
		case map[string]any:
			switch path {
			case "worker_queue_depths", "satisfaction.consumers", "satisfaction.providers":
				got = append(got, path+" map")
				return
			}
			for k, e := range v {
				walk(strings.TrimPrefix(path+"."+k, "."), e)
			}
		case []any:
			walk(path+"[]", v[0])
		case float64:
			got = append(got, path+" number")
		case bool:
			got = append(got, path+" bool")
		default:
			t.Fatalf("%s: unexpected JSON value %T", path, v)
		}
	}
	walk("", doc)
	sort.Strings(got)
	const want = `admission_rejected number
brownout number
consumers number
events_dropped number
persistence.active_segment number
persistence.append_errors number
persistence.compactions number
persistence.queue_depth number
persistence.records_appended number
persistence.records_dropped number
persistence.restore.consumers number
persistence.restore.providers number
persistence.restore.replayed_records number
persistence.restore.snapshot_loaded bool
persistence.restore.torn_tail bool
persistence.sealed_segments number
persistence.snapshots_written number
persistence.syncs number
policy_generation number
providers number
queries_submitted number
satisfaction.consumers map
satisfaction.providers map
shards[].dispatch_failures number
shards[].imputations number
shards[].intention_timeouts number
shards[].mean_candidates number
shards[].mediations number
shards[].policy_generation number
shards[].policy_swaps number
shards[].queue_depth number
shards[].queue_dequeued number
shards[].queue_enqueued number
shards[].queue_high_water number
shards[].queue_shed number
shards[].rejections number
worker_queue_depths map`
	if got := strings.Join(got, "\n"); got != want {
		t.Fatalf("/v1/stats key set changed\n got:\n%s\nwant:\n%s", got, want)
	}
}

// metricsSkeleton reduces an exposition document to what a dashboard
// depends on besides the numbers: every HELP and TYPE line verbatim, in
// order, and under each the distinct sample shapes — metric name and label
// names — in order of first appearance.
func metricsSkeleton(text string) string {
	var out []string
	seen := map[string]bool{}
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if strings.HasPrefix(line, "# HELP") {
			clear(seen)
		} else if !strings.HasPrefix(line, "#") {
			name, _, _ := strings.Cut(line, " ")
			var labels []string
			if i := strings.IndexByte(name, '{'); i >= 0 {
				for _, kv := range strings.Split(name[i+1:], `",`) {
					k, _, _ := strings.Cut(kv, "=")
					labels = append(labels, k)
				}
				name = name[:i]
			}
			line = name + "{" + strings.Join(labels, ",") + "}"
			if seen[line] {
				continue
			}
			seen[line] = true
		}
		out = append(out, line)
	}
	return strings.Join(out, "\n") + "\n"
}

// TestMetricsFamiliesGolden pins /v1/metrics family for family — names,
// help, types, label sets and order — on a node that serves every family:
// clustered, journaled, traced, QoS on, one query allocated and one shed.
// testdata/metrics_families.golden was written by this function from the
// handler as it stood before the per-shard families became one loop over a
// list and the shed ledger came out of the Stats snapshot.
func TestMetricsFamiliesGolden(t *testing.T) {
	nodes := startTestCluster(t, 2, true, append(deterministicQoSOpts(sbqa.DefaultQoSSpec()),
		sbqa.WithTracing(1, 16))...)
	n0 := nodes[0]
	registerWorkers(t, n0.srv.URL)
	c := consumerOwnedBy(t, nodes, 0, 0)
	postJSON(t, n0.srv.URL+"/v1/consumers", consumerRequest{ID: c, Intention: 0.8}, nil)
	submitAlloc(t, n0.srv.URL, c)
	n0.g.eng.SetBrownout(1)
	postJSON(t, n0.srv.URL+"/v1/queries", queryRequest{Consumer: c, N: 1, Work: 1, QoS: "background"}, nil)

	want, err := os.ReadFile("testdata/metrics_families.golden")
	if err != nil {
		t.Fatal(err)
	}
	text := getText(t, n0.srv.URL+"/v1/metrics")
	if got := metricsSkeleton(text); got != string(want) {
		t.Fatalf("/v1/metrics families changed\n got:\n%s\nwant:\n%s", got, want)
	}

	// The text format wants each family's lines as one group, headers
	// first: every sample belongs to the family of the last TYPE line above
	// it (a histogram's samples to its _bucket, _sum and _count series).
	var family, typ string
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			family, typ, _ = strings.Cut(rest, " ")
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		name := line[:strings.IndexAny(line, "{ ")]
		series, _ := strings.CutPrefix(name, family)
		if series == "" || typ == "histogram" && (series == "_bucket" || series == "_sum" || series == "_count") {
			continue
		}
		t.Errorf("sample %q sits under the TYPE line of %s", line, family)
	}
}

// TestStatsAndMetricsAgree: after a mixed run — allocations, a rejection, a
// dispatch failure, a shed, a 429 and a policy swap — every counter that
// both /v1/stats and /v1/metrics expose reads the same on both, and the
// scrape parses although a class name is hostile.
func TestStatsAndMetricsAgree(t *testing.T) {
	qspec := sbqa.QoSSpec{
		Classes:       []qos.ClassSpec{{Name: "interactive", Weight: 8}, {Name: hostileClass, Weight: 1}},
		ConsumerRate:  0.001, // no refill within the test: the burst is all a consumer gets
		ConsumerBurst: 4,
	}
	policy := sbqa.PolicySpec{Kind: "sbqa", K: 4, Kn: 2, Seed: 1, QoS: &qspec}
	gw, srv := newPolicyGateway(t, policy, sbqa.WithConcurrency(2))

	post := func(wantStatus int, q queryRequest) {
		t.Helper()
		if resp := postJSON(t, srv.URL+"/v1/queries", q, nil); resp.StatusCode != wantStatus {
			t.Fatalf("%+v: status %d, want %d", q, resp.StatusCode, wantStatus)
		}
	}
	postJSON(t, srv.URL+"/v1/workers", workerRequest{ID: 0, Capacity: 1000, QueueCap: 64, Intention: 0.5, Classes: []int{0}}, nil)
	// Worker 1 serves class 5 alone, needs hours per query and queues one:
	// the third class-5 query finds it full.
	postJSON(t, srv.URL+"/v1/workers", workerRequest{ID: 1, Capacity: 0.001, QueueCap: 1, Intention: 0.5, Classes: []int{5}}, nil)
	for c := 0; c < 2; c++ {
		postJSON(t, srv.URL+"/v1/consumers", consumerRequest{ID: c, Intention: 0.8}, nil)
	}
	for i := 0; i < 3; i++ {
		post(http.StatusOK, queryRequest{Consumer: 0, N: 1, Work: 0.5, Wait: "results"}) // allocations
	}
	gw.eng.SetBrownout(1)
	post(http.StatusServiceUnavailable, queryRequest{Consumer: 0, N: 1, Work: 0.5, QoS: hostileClass}) // shed
	post(http.StatusTooManyRequests, queryRequest{Consumer: 0, N: 1, Work: 0.5})                       // burst spent
	post(http.StatusConflict, queryRequest{Consumer: 42, N: 1, Work: 0.5})                             // rejection: unknown consumer
	for i := 0; i < 3; i++ {
		post(http.StatusOK, queryRequest{Consumer: 1, Class: 5, N: 1, Work: 10}) // the third is a dispatch failure
	}
	putPolicy(t, srv.URL, policy)                                                    // swap: generation 1, fresh buckets
	post(http.StatusOK, queryRequest{Consumer: 0, N: 1, Work: 0.5, Wait: "results"}) // consumer 0's shard adopts it

	var stats struct {
		Shards []map[string]float64 `json:"shards"`
		Queues map[string]float64   `json:"worker_queue_depths"`
	}
	var top map[string]any
	raw := getText(t, srv.URL+"/v1/stats")
	if err := json.Unmarshal([]byte(raw), &stats); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(raw), &top); err != nil {
		t.Fatal(err)
	}
	metrics := parseExposition(t, getText(t, srv.URL+"/v1/metrics"))

	agree := func(what string, stat float64, metric string) {
		t.Helper()
		got, ok := metrics[metric]
		if !ok {
			t.Errorf("%s: /v1/metrics has no sample %s", what, metric)
		} else if got != stat {
			t.Errorf("%s: /v1/stats says %v, /v1/metrics %s says %v", what, stat, metric, got)
		}
	}
	for key, metric := range map[string]string{
		"queries_submitted":  "sbqa_queries_submitted_total",
		"providers":          "sbqa_providers",
		"consumers":          "sbqa_consumers",
		"policy_generation":  "sbqa_policy_generation",
		"events_dropped":     "sbqa_events_dropped_total",
		"admission_rejected": "sbqa_admission_rejected_total",
		"brownout":           "sbqa_brownout_level",
	} {
		agree(key, top[key].(float64), metric)
	}
	sum := make(map[string]float64)
	for i, sh := range stats.Shards {
		for key, metric := range map[string]string{
			"mediations":         "sbqa_shard_mediations_total",
			"rejections":         "sbqa_shard_rejections_total",
			"dispatch_failures":  "sbqa_shard_dispatch_failures_total",
			"imputations":        "sbqa_shard_imputations_total",
			"intention_timeouts": "sbqa_shard_intention_timeouts_total",
			"policy_swaps":       "sbqa_shard_policy_swaps_total",
			"mean_candidates":    "sbqa_shard_mean_candidates",
			"queue_depth":        "sbqa_shard_queue_depth",
			"queue_high_water":   "sbqa_shard_queue_high_water",
			"queue_enqueued":     "sbqa_queue_enqueued_total",
			"queue_dequeued":     "sbqa_queue_dequeued_total",
		} {
			agree(fmt.Sprintf("shards[%d].%s", i, key), sh[key], fmt.Sprintf("%s|shard=%d", metric, i))
		}
		for key, v := range sh {
			sum[key] += v
		}
	}
	for id, depth := range stats.Queues {
		agree("worker_queue_depths["+id+"]", depth, "sbqa_worker_queue_depth|worker="+id)
	}
	// Sheds are per shard on one side and per class and reason on the other;
	// only the hostile class shed, only by brownout.
	agree("sum of shards[].queue_shed", sum["queue_shed"], "sbqa_shed_total|class="+hostileClass+"|reason=brownout")

	// The run really was mixed: agreement on zeros would prove little.
	for key, want := range map[string]float64{"mediations": 7, "rejections": 1, "dispatch_failures": 1, "queue_shed": 1, "policy_swaps": 1} {
		if sum[key] != want {
			t.Errorf("sum of shards[].%s = %v, want %v", key, sum[key], want)
		}
	}
	if top["admission_rejected"] != 1.0 || top["policy_generation"] != 1.0 || top["brownout"] != 1.0 || stats.Queues["1"] != 2 {
		t.Errorf("admission_rejected %v, policy_generation %v, brownout %v, worker 1 queue %v; want 1, 1, 1, 2",
			top["admission_rejected"], top["policy_generation"], top["brownout"], stats.Queues["1"])
	}
}

// TestGatewaySpawnsNothingPerQuery: wait:"none" queries that sit allocated on
// a slow worker cost the gateway no goroutine each — every Submit names the
// one results channel the gateway drains. The handler is called directly, so
// no HTTP connection goroutines blur the count.
func TestGatewaySpawnsNothingPerQuery(t *testing.T) {
	gw, err := newGateway(sbqa.WithWindow(10), sbqa.WithPolicy(sbqa.PolicySpec{Kind: sbqa.PolicySbQA}))
	if err != nil {
		t.Fatal(err)
	}
	defer gw.close()
	h := gw.handler()
	do := func(path string, v any, wantStatus int) {
		t.Helper()
		body, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		if rec.Code != wantStatus {
			t.Fatalf("POST %s: %d %s", path, rec.Code, rec.Body)
		}
	}
	// One worker that needs hours per query, with room to queue them all.
	do("/v1/workers", workerRequest{ID: 0, Capacity: 0.001, QueueCap: 512, Intention: 0.5}, http.StatusCreated)
	do("/v1/consumers", consumerRequest{ID: 0, Intention: 0.8}, http.StatusCreated)
	park := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			do("/v1/queries", queryRequest{Consumer: 0, N: 1, Work: 10, Wait: "none"}, http.StatusAccepted)
		}
	}
	parked := func() int { return gw.eng.Stats().WorkerQueueDepths[0] }
	park(1)
	one := settledGoroutines(func() bool { return parked() == 1 })
	park(255)
	many := settledGoroutines(func() bool { return parked() == 256 })
	if parked() != 256 {
		t.Fatalf("%d queries parked on the worker, want 256", parked())
	}
	if many != one {
		t.Fatalf("%d goroutines with 1 query in flight, %d with 256", one, many)
	}
}

// settledGoroutines waits for ready, then reads the goroutine count once it
// has stopped moving, so goroutines still exiting from an earlier test are
// in neither reading.
func settledGoroutines(ready func() bool) int {
	for i := 0; i < 500 && !ready(); i++ {
		time.Sleep(10 * time.Millisecond)
	}
	n := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		time.Sleep(10 * time.Millisecond)
		m := runtime.NumGoroutine()
		if m == n {
			break
		}
		n = m
	}
	return n
}
