package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"sbqa"
	"sbqa/internal/persist"
	"sbqa/internal/satisfaction"
)

// The codec's contract: the recogniser is json.Unmarshal or nothing, the
// encoder is json.Encoder to the byte, and what the pool lends is dead when
// the handler returns.

// queryDocs are bodies with a known path through decodeJSON: fast says
// whether the recogniser must take the document itself. The documents that
// clients really send must be fast — a recogniser that declined them would
// still be correct and the change would be for nothing.
var queryDocs = []struct {
	doc  string
	fast bool
}{
	// The wire harness's four shapes.
	{`{"consumer":7,"class":0,"n":1,"work":1,"wait":"allocation"}`, true},
	{`{"consumer":7,"class":3,"n":1,"work":1,"qos":"batch","wait":"allocation"}`, true},
	{`{"consumer":7,"class":3,"n":1,"work":1,"qos":"interactive","deadline_ms":1000,"wait":"allocation"}`, true},
	{`{"consumer":7,"class":3,"n":1,"work":1,"qos":"background","wait":"none"}`, true},
	// What json.Marshal(queryRequest{...}) sends: every member, zeros included.
	{`{"consumer":0,"class":0,"n":1,"work":0.5,"wait":"results","qos":"","deadline_ms":0}`, true},
	{" {\n\t\"consumer\" : -12 , \"work\" : 1.5e-3 , \"qos\" : \"gold\" }\r\n", true},
	{`{"consumer":1,"trace":"abc","debug":true,"weight":0.25}`, true}, // unknown scalars are skipped
	{`{"trace":"abc","consumer":1,"note":null}`, true},
	{`{"consumer":1,"trace":1,"consumer":2}`, false},
	{`{}`, true},
	// The defects PR 19 closed.
	{`{"consumer":1,"work":1}{"consumer":2} junk`, false},
	{`{"consumer":1,"work":1,"wait":"Results"}`, true}, // decoded as sent; the handler refuses the value
	{`{"kind":"sbqa","kn_":5}`, true},                  // a policy document is a query with unknown members
	// Everything else is json.Unmarshal's.
	{`{"Consumer":1}`, false},
	{`{"consumer":1.0}`, false},
	{`{"consumer":1e3}`, false},
	{`{"wait":"allocation"}`, true},
	{`{"consumer":1,"consumer":2}`, false},
	{`{"x":{"consumer":9}}`, false},
	{`{"consumer":null}`, false},
	{`{"consumer":12345678901234567890}`, false},
	{`     `, false},
	{`{"w\u0061it":"none"}`, false},
	{`{"wait":"no\nne"}`, false},
	{`{"qos":"épais"}`, false},
	{`{"consumer":01}`, false},
	{`{"consumer":1,}`, false},
	{`{"work":1e999}`, false},
	{`{"debug":truest}`, false},
	{`null`, false},
	{`[{"consumer":1}]`, false},
	{"\xff\xfe{}", false},
	{``, false},
}

// sameRequest compares two decoded requests bit for bit (-0 is not 0).
func sameRequest(a, b queryRequest) bool {
	bits := math.Float64bits
	return a.Consumer == b.Consumer && a.Class == b.Class && a.N == b.N &&
		a.Wait == b.Wait && a.QoS == b.QoS &&
		bits(a.Work) == bits(b.Work) && bits(a.DeadlineMS) == bits(b.DeadlineMS)
}

// checkDecodeQuery is the recogniser's whole contract on one input: it
// declines without touching the request, or it returns what json.Unmarshal
// returns with a nil error — and what it returned survives the buffer it
// was read from, because that buffer goes back to the pool.
func checkDecodeQuery(t *testing.T, data []byte) (accepted bool) {
	t.Helper()
	body := bytes.Clone(data)
	var got queryRequest
	if !decodeQuery(body, &got) {
		if got != (queryRequest{}) {
			t.Fatalf("declined %q but wrote %+v", data, got)
		}
		return false
	}
	for i := range body {
		body[i] = '#'
	}
	var want queryRequest
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("accepted %q as %+v; json.Unmarshal refuses it: %v", data, got, err)
	}
	if !sameRequest(got, want) {
		t.Fatalf("%q decoded as %+v; json.Unmarshal gives %+v", data, got, want)
	}
	return true
}

func TestDecodeQueryTakesWhatClientsSend(t *testing.T) {
	for _, d := range queryDocs {
		if got := checkDecodeQuery(t, []byte(d.doc)); got != d.fast {
			t.Errorf("decodeQuery(%q) accepted = %v, want %v", d.doc, got, d.fast)
		}
	}
}

// FuzzDecodeQueryMatchesStdlib: for arbitrary bytes the recogniser never
// accepts what encoding/json rejects and never differs from it in a field.
func FuzzDecodeQueryMatchesStdlib(f *testing.F) {
	for _, d := range queryDocs {
		f.Add([]byte(d.doc))
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkDecodeQuery(t, data) })
}

// TestQueryResponseEncodingMatchesStdlib: the hand-written encoder and
// json.Encoder agree on every byte, for every shape a response can take.
func TestQueryResponseEncodingMatchesStdlib(t *testing.T) {
	r := rand.New(rand.NewPCG(20, 20))
	ids := func() []sbqa.ProviderID {
		switch n := r.IntN(6); n {
		case 0:
			return nil
		case 1:
			return []sbqa.ProviderID{}
		default:
			s := make([]sbqa.ProviderID, n-1)
			for i := range s {
				s[i] = sbqa.ProviderID(r.Int64N(1<<40) - 1<<20)
			}
			return s
		}
	}
	fragments := []string{"no candidates", `"quoted"`, "<script>&amp;</script>", "line\nbreak\ttab", "\xff\xfe", "\u2028\u2029", "é漢🙂", "\x00\x1f\x7f", `back\slash`, ""}
	sc := new(scratch)
	var want bytes.Buffer
	for i := 0; i < 10_000; i++ {
		resp := queryResponse{QueryID: int64(r.Uint64()), Selected: ids(), Proposed: ids()}
		switch n := r.IntN(5); n {
		case 0:
		case 1:
			resp.Results = []resultJSON{}
		default:
			for j := 1; j < n; j++ {
				latency := time.Duration(r.Int64N(int64(time.Hour))) >> r.IntN(40)
				resp.Results = append(resp.Results, newResultJSON(sbqa.LiveResult{
					Query: sbqa.Query{ID: sbqa.QueryID(r.Int64())}, Provider: sbqa.ProviderID(r.IntN(1000)), Latency: latency,
				}))
			}
		}
		for n := r.IntN(4); n > 0; n-- {
			resp.Error += fragments[r.IntN(len(fragments))]
		}
		status := []int{http.StatusOK, http.StatusAccepted, http.StatusConflict}[r.IntN(3)]

		rec := httptest.NewRecorder()
		sc.answerQuery(status, &resp)
		sc.send(rec)
		want.Reset()
		if err := json.NewEncoder(&want).Encode(resp); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(rec.Body.Bytes(), want.Bytes()) {
			t.Fatalf("response %d, %+v:\n got %q\nwant %q", i, resp, rec.Body.Bytes(), want.Bytes())
		}
		if ct := rec.Header()["Content-Type"]; rec.Code != status || len(ct) != 1 || ct[0] != "application/json" {
			t.Fatalf("status %d, Content-Type %q; want %d, application/json", rec.Code, ct, status)
		}
	}
}

// statsResponse is the GET /v1/stats document as encoding/json sees it: the
// reference answerStats is held to, and what tests decode a scrape into.
type statsResponse struct {
	sbqa.EngineStats
	Satisfaction      satisfactionMap `json:"satisfaction"`
	EventsDropped     uint64          `json:"events_dropped"`
	AdmissionRejected uint64          `json:"admission_rejected"`
	Brownout          int             `json:"brownout"`
}

type satisfactionMap struct {
	Consumers map[string]float64 `json:"consumers"`
	Providers map[string]float64 `json:"providers"`
}

// TestStatsEncodingMatchesStdlib: the stats appender and json.Encoder over
// statsResponse agree on every byte, on documents where the orders of IDs as
// numbers and as strings differ, with the floats whose formatting has a rule
// of its own, and with and without the persistence block.
func TestStatsEncodingMatchesStdlib(t *testing.T) {
	r := rand.New(rand.NewPCG(27, 27))
	// id draws 1 to 19 digits, a quarter of them negative: the gateway takes
	// any int as a participant ID.
	id := func() int {
		digits := 1 + r.IntN(19)
		lo := int64(math.Pow10(digits - 1))
		if digits == 1 {
			lo = 0
		}
		hi := int64(math.MaxInt64)
		if digits < 19 {
			hi = int64(math.Pow10(digits))
		}
		v := lo + r.Int64N(hi-lo)
		if r.IntN(4) == 0 {
			v = -v
		}
		return int(v)
	}
	sats := []float64{0, 1, 0.5, 1e-7, 5e-324, 1e-6, 0.1 + 0.2}
	sat := func() float64 {
		if i := r.IntN(len(sats) + 2); i < len(sats) {
			return sats[i]
		}
		return r.Float64() // 17 significant digits, mostly
	}
	means := []float64{0, 1, 2.5, 1e21, 3.7e22, 9.99e20, 123456789.125}
	u64 := func() uint64 { return r.Uint64() >> r.IntN(64) }
	small := func() int { return r.IntN(1<<r.IntN(20)) - 1<<r.IntN(3) }
	sc, ss := new(scratch), new(statsScratch)
	var want bytes.Buffer
	for i := 0; i < 10_000; i++ {
		st := sbqa.EngineStats{
			Shards:            make([]sbqa.ShardStats, 1+r.IntN(4)),
			QueriesSubmitted:  int64(u64()),
			Providers:         small(),
			Consumers:         small(),
			WorkerQueueDepths: make(map[sbqa.ProviderID]int),
			PolicyGeneration:  u64(),
		}
		for j := range st.Shards {
			mean := means[r.IntN(len(means))]
			if r.IntN(2) == 0 {
				mean = r.Float64() * math.Pow10(r.IntN(25))
			}
			st.Shards[j] = sbqa.ShardStats{
				Mediations: u64(), Rejections: u64(), DispatchFailures: u64(), MeanCandidates: mean,
				Imputations: u64(), IntentionTimeouts: u64(), PolicyGeneration: u64(), PolicySwaps: u64(),
				QueueDepth: small(), QueueHighWater: small(), QueueEnqueued: u64(), QueueDequeued: u64(), QueueShed: u64(),
			}
			st.Shards[j].QoS.Brownout = r.IntN(4)
		}
		for n := r.IntN(4) * r.IntN(12); n > 0; n-- {
			st.WorkerQueueDepths[sbqa.ProviderID(id())] = small()
		}
		if r.IntN(3) == 0 {
			st.Persistence = &persist.Stats{
				RecordsAppended: u64(), Syncs: u64(), SealedSegments: small(), QueueDepth: small(),
			}
			st.Persistence.Restore.SnapshotLoaded = r.IntN(2) == 0
			st.Persistence.Restore.TornTail = r.IntN(2) == 0
		}
		resp := statsResponse{
			EngineStats:       st,
			Satisfaction:      satisfactionMap{Consumers: map[string]float64{}, Providers: map[string]float64{}},
			EventsDropped:     u64(),
			AdmissionRejected: u64(),
			Brownout:          st.Shards[0].QoS.Brownout,
		}
		ss.consumers, ss.providers = ss.consumers[:0], ss.providers[:0]
		for n := r.IntN(3) * r.IntN(12); n > 0; n-- {
			c, s := id(), sat()
			if _, dup := resp.Satisfaction.Consumers[strconv.Itoa(c)]; !dup {
				resp.Satisfaction.Consumers[strconv.Itoa(c)] = s
				ss.consumers = append(ss.consumers, satisfaction.Reading[sbqa.ConsumerID]{ID: sbqa.ConsumerID(c), Sat: s})
			}
		}
		for n := r.IntN(3) * r.IntN(12); n > 0; n-- {
			p, s := id(), sat()
			if _, dup := resp.Satisfaction.Providers[strconv.Itoa(p)]; !dup {
				resp.Satisfaction.Providers[strconv.Itoa(p)] = s
				ss.providers = append(ss.providers, satisfaction.Reading[sbqa.ProviderID]{ID: sbqa.ProviderID(p), Sat: s})
			}
		}

		rec := httptest.NewRecorder()
		sc.answerStats(ss, &st, resp.EventsDropped, resp.AdmissionRejected)
		sc.send(rec)
		want.Reset()
		if err := json.NewEncoder(&want).Encode(resp); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(rec.Body.Bytes(), want.Bytes()) {
			t.Fatalf("document %d:\n got %s\nwant %s", i, rec.Body.Bytes(), want.Bytes())
		}
		if ct := rec.Header()["Content-Type"]; rec.Code != http.StatusOK || len(ct) != 1 || ct[0] != "application/json" {
			t.Fatalf("status %d, Content-Type %q; want 200, application/json", rec.Code, ct)
		}
	}
}

// TestStatsScrapeAllocs: a scrape allocates for the engine's snapshot, not
// per participant — the same bounded count with 24 workers as with 2,000.
func TestStatsScrapeAllocs(t *testing.T) {
	for _, workers := range []int{24, 2000} {
		h := statsFixture(t, workers)
		req := httptest.NewRequest(http.MethodGet, "/v1/stats", nil)
		rec := &recorder{header: make(http.Header)}
		scrape := func() {
			rec.reset()
			h.ServeHTTP(rec, req)
		}
		scrape()
		var doc statsResponse
		if err := json.Unmarshal(rec.body.Bytes(), &doc); err != nil || rec.status != http.StatusOK {
			t.Fatalf("%d workers: status %d, %v", workers, rec.status, err)
		}
		if len(doc.WorkerQueueDepths) != workers || len(doc.Satisfaction.Consumers) == 0 || len(doc.Satisfaction.Providers) == 0 {
			t.Fatalf("%d workers: the scrape holds %d queue depths, %d consumers and %d providers",
				workers, len(doc.WorkerQueueDepths), len(doc.Satisfaction.Consumers), len(doc.Satisfaction.Providers))
		}
		n := testing.AllocsPerRun(50, scrape)
		t.Logf("%d workers: %v allocations per scrape", workers, n)
		if n > 64 {
			t.Errorf("%d workers: %v allocations per scrape, want at most 64", workers, n)
		}
	}
}

// TestSubscriberSeesResultsOfItsOwnQueries: a client that has its stream's
// 200 gets one allocation and one result event for every query it submits
// afterwards, whatever the submit waits for.
func TestSubscriberSeesResultsOfItsOwnQueries(t *testing.T) {
	_, srv := newPolicyGateway(t, sbqa.PolicySpec{Kind: sbqa.PolicySbQA, K: 4, Kn: 2, Seed: 1})
	postJSON(t, srv.URL+"/v1/workers", workerRequest{ID: 1, Capacity: 1000, Intention: 0.5}, nil)
	postJSON(t, srv.URL+"/v1/consumers", consumerRequest{ID: 1, Intention: 0.8}, nil)

	events, closeSSE := openSSE(t, srv.URL+"/v1/events")
	defer closeSSE()
	owed := make(map[string]int) // event kind + query ID -> events still owed
	for _, wait := range []string{"none", "allocation", "none", "allocation"} {
		var qr queryResponse
		resp := postJSON(t, srv.URL+"/v1/queries", queryRequest{Consumer: 1, N: 1, Work: 0.1, Wait: wait}, &qr)
		if resp.StatusCode >= 300 || qr.QueryID == 0 {
			t.Fatalf("wait %q: status %d, %+v", wait, resp.StatusCode, qr)
		}
		owed[fmt.Sprint("allocation ", qr.QueryID)]++
		owed[fmt.Sprint("result ", qr.QueryID)]++
	}
	deadline := time.After(15 * time.Second)
	for len(owed) > 0 {
		select {
		case ev, ok := <-events:
			if !ok {
				t.Fatalf("stream closed with events owed: %v", owed)
			}
			var id struct {
				QueryID int64 `json:"query_id"`
			}
			if ev.event != "allocation" && ev.event != "result" {
				continue
			}
			if err := json.Unmarshal([]byte(ev.data), &id); err != nil {
				t.Fatal(err)
			}
			key := fmt.Sprint(ev.event, " ", id.QueryID)
			if owed[key]--; owed[key] < 0 {
				t.Fatalf("second %s event", key)
			}
			if owed[key] == 0 {
				delete(owed, key)
			}
		case <-deadline:
			t.Fatalf("events never arrived: %v", owed)
		}
	}
}

// TestNoSubscriberBuildsNoEvent: with nobody on the stream the observer
// builds nothing and a submit hands its results to nobody; with a subscriber
// both flow as before; and the count that decides it survives a double
// unsubscribe. The gateway here has no drain goroutine, so what a submit
// handed over is still in the channel to be counted.
func TestNoSubscriberBuildsNoEvent(t *testing.T) {
	gw := newGatewayShell()
	eng, err := sbqa.NewEngine(sbqa.WithWindow(20), sbqa.WithObserver(gw.hub.observer()),
		sbqa.WithPolicy(sbqa.PolicySpec{Kind: sbqa.PolicySbQA, K: 4, Kn: 2, Seed: 1}))
	if err != nil {
		t.Fatal(err)
	}
	gw.eng = eng
	gw.ready.Store(true)
	defer gw.close()
	h := gw.handler()
	handle(h, http.MethodPost, "/v1/workers", []byte(`{"id":1,"capacity":1e9,"intention":0.5}`))
	handle(h, http.MethodPost, "/v1/consumers", []byte(`{"id":1,"intention":0.5}`))
	submit := func() {
		t.Helper()
		if rec := handle(h, http.MethodPost, "/v1/queries", []byte(`{"consumer":1,"work":1,"wait":"results"}`)); rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"results":[{`) {
			t.Fatalf("submit: %d %s", rec.Code, rec.Body)
		}
	}

	obs := gw.hub.observer()
	a := &sbqa.Allocation{Query: sbqa.Query{ID: 9, Consumer: 1}, Selected: []sbqa.ProviderID{1, 2}}
	if n := testing.AllocsPerRun(100, func() { obs.OnAllocation(a, 2) }); n != 0 {
		t.Errorf("allocation callback with no subscriber: %v allocs, want 0", n)
	}
	submit()
	if n := len(gw.results); n != 0 {
		t.Errorf("%d results handed to the drain with no subscriber", n)
	}

	ch, unsubscribe := gw.hub.subscribe()
	obs.OnAllocation(a, 2)
	select {
	case ev := <-ch:
		if ae, ok := ev.data.(allocationEvent); ev.kind != "allocation" || !ok || ae.QueryID != 9 || len(ae.Selected) != 2 {
			t.Errorf("subscriber got %+v", ev)
		}
	default:
		t.Error("subscriber got no allocation event")
	}
	submit()
	if n := len(gw.results); n != 1 {
		t.Errorf("%d results handed to the drain with a subscriber, want 1", n)
	}

	unsubscribe()
	unsubscribe()
	if n := gw.hub.nsubs.Load(); n != 0 || gw.hub.subscribed() {
		t.Errorf("subscriber count %d after a double unsubscribe", n)
	}
	_, unsubscribe = gw.hub.subscribe()
	defer unsubscribe()
	if n := gw.hub.nsubs.Load(); n != 1 {
		t.Errorf("subscriber count %d with one subscriber", n)
	}
}

// TestDeadlineSaturates: a deadline_ms whose nanoseconds leave int64 is the
// longest deadline there is, on every platform — not whatever the
// out-of-range conversion yields (negative on amd64: no deadline at all).
func TestDeadlineSaturates(t *testing.T) {
	for ms, want := range map[float64]time.Duration{
		1000:   time.Second,
		0.5:    500 * time.Microsecond,
		9.3e12: math.MaxInt64,
		1e300:  math.MaxInt64,
	} {
		if got := deadlineFromMS(ms); got != want {
			t.Errorf("deadlineFromMS(%g) = %d, want %d", ms, got, want)
		}
	}
	gw, _ := newPolicyGateway(t, sbqa.PolicySpec{Kind: sbqa.PolicySbQA, K: 4, Kn: 2, Seed: 1})
	h := gw.handler()
	handle(h, http.MethodPost, "/v1/workers", []byte(`{"id":1,"capacity":1000,"intention":0.5}`))
	handle(h, http.MethodPost, "/v1/consumers", []byte(`{"id":1,"intention":0.5}`))
	for _, ms := range []string{"9.3e12", "1e300"} {
		rec := handle(h, http.MethodPost, "/v1/queries", []byte(`{"consumer":1,"work":0.1,"deadline_ms":`+ms+`}`))
		if rec.Code != http.StatusOK {
			t.Errorf("deadline_ms %s: status %d (%s), want 200", ms, rec.Code, rec.Body)
		}
	}
}

// TestOversizedBodyEndsTheConnection: past the cap the answer is the 413 it
// always was, and the connection — with the rest of the body still on it —
// serves nothing more.
func TestOversizedBodyEndsTheConnection(t *testing.T) {
	_, srv := newPolicyGateway(t, sbqa.PolicySpec{Kind: sbqa.PolicySbQA, K: 4, Kn: 2, Seed: 1})
	conn, err := net.Dial("tcp", srv.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	go func() { // the server may hang up mid-write; that is the point
		fmt.Fprintf(conn, "POST /v1/queries HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n", maxRequestBody+4096)
		conn.Write(bytes.Repeat([]byte(" "), maxRequestBody+4096))
		fmt.Fprint(conn, "GET /v1/healthz HTTP/1.1\r\nHost: x\r\n\r\n")
	}()
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	br := bufio.NewReader(conn)
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		t.Fatal(err)
	}
	var body map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("request body exceeds %d bytes", maxRequestBody); resp.StatusCode != http.StatusRequestEntityTooLarge || body["error"] != want || !resp.Close {
		t.Errorf("status %d, error %q, close %v; want 413, %q, true", resp.StatusCode, body["error"], resp.Close, want)
	}
	if second, err := http.ReadResponse(br, nil); err == nil {
		t.Errorf("the connection served a second request: %s", second.Status)
	}
}
