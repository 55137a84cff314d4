package main

// Correctness checks. A response that is malformed or allocates outside the
// rules is an *incorrect output*: the run aborts, prints no metric and exits
// non-zero. A well-formed refusal (409, 429, 503) is a *failed operation*:
// it counts against ok_share and the run goes on.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"time"

	"sbqa/bench/control"
)

type queryResp struct {
	QueryID  int64  `json:"query_id"`
	Selected []int  `json:"selected"`
	Error    string `json:"error"`
}

type shardDoc struct {
	Mediations     uint64 `json:"mediations"`
	Rejections     uint64 `json:"rejections"`
	QueueDepth     int    `json:"queue_depth"`
	QueueHighWater int    `json:"queue_high_water"`
	QueueShed      uint64 `json:"queue_shed"`
	PolicyGen      uint64 `json:"policy_generation"`
}

// statsDoc is the part of GET /v1/stats the benchmark reads.
type statsDoc struct {
	Shards       []shardDoc `json:"shards"`
	Satisfaction struct {
		Consumers map[string]float64 `json:"consumers"`
		Providers map[string]float64 `json:"providers"`
	} `json:"satisfaction"`
	PolicyGeneration  uint64 `json:"policy_generation"`
	AdmissionRejected uint64 `json:"admission_rejected"`
	Persistence       *struct {
		RecordsDropped uint64 `json:"records_dropped"`
		AppendErrors   uint64 `json:"append_errors"`
		Syncs          uint64 `json:"syncs"`
	} `json:"persistence"`
}

func (s *statsDoc) mediations() (n uint64) {
	for _, sh := range s.Shards {
		n += sh.Mediations
	}
	return n
}

func (s *statsDoc) refusals() (n uint64) {
	for _, sh := range s.Shards {
		n += sh.Rejections + sh.QueueShed
	}
	return n + s.AdmissionRejected
}

func (s *statsDoc) queueDepth() (n int) {
	for _, sh := range s.Shards {
		n += sh.QueueDepth
	}
	return n
}

// parseStats decodes a /v1/stats body and checks every δs ∈ [0,1].
func parseStats(body []byte) (*statsDoc, error) {
	var st statsDoc
	if err := json.Unmarshal(body, &st); err != nil {
		return nil, fmt.Errorf("stats: %w", err)
	}
	if len(st.Shards) == 0 {
		return nil, fmt.Errorf("stats: no shards in %.80q", body)
	}
	for kind, m := range map[string]map[string]float64{"consumer": st.Satisfaction.Consumers, "provider": st.Satisfaction.Providers} {
		for id, v := range m {
			if !(v >= 0 && v <= 1) {
				return nil, fmt.Errorf("stats: %s %s satisfaction %v outside [0,1]", kind, id, v)
			}
		}
	}
	return &st, nil
}

// opResult is the verdict on one exchange.
type opResult struct {
	ok      bool  // the operation succeeded
	queryID int64 // for queries
}

// checkOp judges one response. The error return means incorrect output.
func checkOp(fx *fixture, o *op, status int, body []byte) (opResult, error) {
	switch o.kind {
	case opControl:
		if status != 200 || !bytes.Equal(body, []byte(control.ResponseBody)) {
			return opResult{}, fmt.Errorf("control answered %d %.80q", status, body)
		}
		var r queryResp
		if err := json.Unmarshal(body, &r); err != nil || len(r.Selected) != 1 || r.Selected[0] != 7 {
			return opResult{}, fmt.Errorf("control body does not parse to its fixed answer: %.80q", body)
		}
		return opResult{ok: true, queryID: r.QueryID}, nil
	case opQuery:
		var r queryResp
		if err := json.Unmarshal(body, &r); err != nil {
			return opResult{}, fmt.Errorf("query answered %d with malformed body %.80q: %v", status, body, err)
		}
		if o.async {
			if status != 202 {
				return opResult{}, nil
			}
			if r.QueryID <= 0 {
				return opResult{}, fmt.Errorf("wait:none answered 202 without a query id: %.80q", body)
			}
			return opResult{ok: true, queryID: r.QueryID}, nil
		}
		if status != 200 || r.Error != "" {
			return opResult{}, nil
		}
		if len(r.Selected) != o.n {
			return opResult{}, fmt.Errorf("query %d: selected %v, want exactly %d", r.QueryID, r.Selected, o.n)
		}
		for _, id := range r.Selected {
			class, known := fx.workerClass[o.owner][id]
			if !known || (class >= 0 && class != o.class) {
				return opResult{}, fmt.Errorf("query %d (class %d, owner n%d): selected %d is not a worker of that class", r.QueryID, o.class, o.owner, id)
			}
		}
		return opResult{ok: true, queryID: r.QueryID}, nil
	case opStats:
		if status != 200 {
			return opResult{}, nil
		}
		if _, err := parseStats(body); err != nil {
			return opResult{}, err
		}
		return opResult{ok: true}, nil
	case opDelete, opPolicy:
		return opResult{ok: status == 200}, nil
	case opRegister:
		return opResult{ok: status == 201}, nil
	}
	return opResult{}, fmt.Errorf("unknown op kind %d", o.kind)
}

// promValue returns the value of the sample whose line starts with series
// (name plus exact label set) in a Prometheus text document.
func promValue(doc []byte, series string) (float64, bool) {
	for _, line := range strings.Split(string(doc), "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			return v, err == nil
		}
	}
	return 0, false
}

// promSum adds every sample of the family name{...}.
func promSum(doc []byte, name string) (sum float64) {
	for _, line := range strings.Split(string(doc), "\n") {
		if !strings.HasPrefix(line, name) || len(line) == len(name) {
			continue
		}
		if c := line[len(name)]; c != '{' && c != ' ' {
			continue
		}
		if i := strings.LastIndexByte(line, ' '); i >= 0 {
			if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
				sum += v
			}
		}
	}
	return sum
}

// tally counts, per target, every query the generator sent it over its
// whole life — warm-up included — so the server's own ledger can be held to
// the client's at the end of the run.
type tally struct {
	okQueries    int64 // 200/202 answers
	nonOKQueries int64 // refusals
	forwarded    int64 // queries whose consumer n0 does not own
}

// verifyTarget is the end-of-run ledger check on one target:
//
//   - conservation: Σ shards[].mediations over all nodes == client OK
//     queries (warm-up included), and non-OK == rejections + shed + 429s;
//   - every δs ∈ [0,1] (parseStats);
//   - cluster_durable: n0's forwarded counter == the client's count of
//     queries n0 does not own, and no node dropped a journal record.
//
// wait:"none" submissions may still be queued when the last window ends, so
// the ledger is polled until it settles.
func verifyTarget(t *target) ([]*statsDoc, error) {
	deadline := time.Now().Add(5 * time.Second)
	for {
		stats, err := t.scrapeStats()
		if err != nil {
			return nil, err
		}
		var med, refused uint64
		depth := 0
		for _, st := range stats {
			med += st.mediations()
			refused += st.refusals()
			depth += st.queueDepth()
		}
		settled := depth == 0 && int64(med) >= t.tally.okQueries
		if !settled && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
			continue
		}
		if int64(med) != t.tally.okQueries {
			return nil, fmt.Errorf("conservation: servers report %d mediations, client saw %d OK queries", med, t.tally.okQueries)
		}
		if int64(refused) != t.tally.nonOKQueries {
			return nil, fmt.Errorf("conservation: servers report %d rejections+shed+429, client saw %d refused queries", refused, t.tally.nonOKQueries)
		}
		if t.fx.nodes > 1 {
			doc, err := t.get(0, "/v1/metrics")
			if err != nil {
				return nil, err
			}
			fwd, ok := promValue(doc, `sbqa_cluster_forwarded_total{kind="query"}`)
			if !ok || int64(fwd) != t.tally.forwarded {
				return nil, fmt.Errorf("n0 forwarded %v queries, client sent %d it does not own", fwd, t.tally.forwarded)
			}
		}
		for i, st := range stats {
			if t.fx.durable && (st.Persistence == nil || st.Persistence.RecordsDropped != 0 || st.Persistence.AppendErrors != 0) {
				return nil, fmt.Errorf("n%d persistence: %+v (want present, nothing dropped)", i, st.Persistence)
			}
		}
		return stats, nil
	}
}
