package main

// The gateway's policy control plane:
//
//	GET  /v1/policy          the running policy spec + generation adoption
//	PUT  /v1/policy          hot-reconfigure the engine to a new spec
//	POST /v1/policy/preview  dry-run a candidate spec against a submitted
//	                         candidate set — no engine state is touched
//
// plus the policy_change SSE event (hub.go).

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"

	"sbqa"
)

// policyResponse is the GET /v1/policy payload.
type policyResponse struct {
	// Policy is the engine's target spec.
	Policy sbqa.PolicySpec `json:"policy"`
	// Generation is the latest accepted policy generation.
	Generation uint64 `json:"generation"`
	// Shards reports, per shard, the generation actually running and how
	// many swaps the shard has applied at mediation boundaries.
	Shards []policyShardJSON `json:"shards"`
}

type policyShardJSON struct {
	PolicyGeneration uint64 `json:"policy_generation"`
	PolicySwaps      uint64 `json:"policy_swaps"`
}

func (g *gateway) handleGetPolicy(w http.ResponseWriter, _ *http.Request) {
	eng, ok := g.requireEngine(w)
	if !ok {
		return
	}
	resp := policyResponse{Policy: eng.Policy(), Generation: eng.PolicyGeneration()}
	st := eng.Stats()
	resp.Shards = make([]policyShardJSON, len(st.Shards))
	for i, sh := range st.Shards {
		resp.Shards[i] = policyShardJSON{
			PolicyGeneration: sh.PolicyGeneration,
			PolicySwaps:      sh.PolicySwaps,
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

func (g *gateway) handlePutPolicy(w http.ResponseWriter, r *http.Request) {
	eng, ok := g.requireEngine(w)
	if !ok {
		return
	}
	// The document goes to the parser the -policy file goes to: a misspelled
	// tunable is a 400, not a silent default.
	sc := getScratch()
	defer putScratch(sc)
	if !decodeJSON(w, r, sc, nil) {
		return
	}
	spec, err := sbqa.ParsePolicy(sc.body.Bytes())
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// Detached context: an accepted reconfiguration must not be rolled back
	// by the HTTP client disconnecting mid-response. policyMu keeps the
	// Reconfigure and the generation read atomic with respect to other
	// PUTs, so each caller learns the generation *its* spec was assigned.
	g.policyMu.Lock()
	err = eng.Reconfigure(context.WithoutCancel(r.Context()), spec)
	gen := eng.PolicyGeneration()
	g.policyMu.Unlock()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// The engine reconfigured its schedulers from the spec's qos block (or
	// the boot spec's when the spec carries none); the
	// token buckets follow, so both always enforce the same generation.
	g.syncLimiter()
	writeJSON(w, http.StatusOK, map[string]uint64{"generation": gen})
}

// previewRequest dry-runs one candidate policy: the submitted candidate set
// is mediated by a freshly built allocator over a table-backed environment,
// and the resulting ranking is returned. Nothing touches the running
// engine, its satisfaction registry, or its directory — preview is a pure
// function of the request. The policy member stays raw so that it goes
// through sbqa.ParsePolicy like every other policy document.
type previewRequest struct {
	Policy json.RawMessage `json:"policy"`
	Query  struct {
		Consumer int     `json:"consumer"`
		Class    int     `json:"class"`
		N        int     `json:"n"`
		Work     float64 `json:"work"`
	} `json:"query"`
	// ConsumerSatisfaction is the consumer's assumed long-run δs; nil
	// means neutral 0.5.
	ConsumerSatisfaction *float64           `json:"consumer_satisfaction"`
	Candidates           []previewCandidate `json:"candidates"`
}

// previewCandidate is one provider in the dry-run candidate set: its
// mediator-visible snapshot plus the intentions and satisfaction the
// caller wants assumed (absent values default to 0 intentions, neutral 0.5
// satisfaction, expected-delay bids — StaticEnv's fallbacks).
type previewCandidate struct {
	ID           int      `json:"id"`
	Utilization  float64  `json:"utilization"`
	QueueLen     int      `json:"queue_len"`
	Capacity     float64  `json:"capacity"`
	PendingWork  float64  `json:"pending_work"`
	CI           *float64 `json:"ci"`
	PI           *float64 `json:"pi"`
	Satisfaction *float64 `json:"satisfaction"`
	Bid          *float64 `json:"bid"`
}

type previewResponse struct {
	// Name is the built allocator's display name (policy kind + tuning).
	Name string `json:"name"`
	// Selected and Proposed mirror a live allocation: the providers the
	// candidate policy would pick, best-ranked first, and the full
	// proposal set it would contact.
	Selected []sbqa.ProviderID `json:"selected"`
	Proposed []sbqa.ProviderID `json:"proposed,omitempty"`
	// Scores aligns with Proposed (allocators that rank); the consumer
	// and provider intentions likewise, when the policy collects them.
	Scores             []float64        `json:"scores,omitempty"`
	ConsumerIntentions []sbqa.Intention `json:"consumer_intentions,omitempty"`
	ProviderIntentions []sbqa.Intention `json:"provider_intentions,omitempty"`
	// Unallocatable is true when the policy refuses the whole set (for
	// example, share-based with every share exhausted).
	Unallocatable bool `json:"unallocatable,omitempty"`
}

func (g *gateway) handlePolicyPreview(w http.ResponseWriter, r *http.Request) {
	var req previewRequest
	sc := getScratch()
	defer putScratch(sc)
	if !decodeJSON(w, r, sc, &req) {
		return
	}
	if len(req.Candidates) == 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("preview requires at least one candidate"))
		return
	}
	spec, err := sbqa.ParsePolicy(req.Policy)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	allocator, err := spec.Build(0)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}

	consumer := sbqa.ConsumerID(req.Query.Consumer)
	env := sbqa.NewStaticEnv()
	if req.ConsumerSatisfaction != nil {
		env.SatC[consumer] = *req.ConsumerSatisfaction
	}
	snaps := make([]sbqa.ProviderSnapshot, 0, len(req.Candidates))
	for _, c := range req.Candidates {
		pid := sbqa.ProviderID(c.ID)
		snaps = append(snaps, sbqa.ProviderSnapshot{
			ID:          pid,
			Utilization: c.Utilization,
			QueueLen:    c.QueueLen,
			Capacity:    c.Capacity,
			PendingWork: c.PendingWork,
		})
		if c.CI != nil {
			env.SetCI(consumer, pid, sbqa.Intention(*c.CI).Clamp())
		}
		if c.PI != nil {
			env.SetPI(pid, consumer, sbqa.Intention(*c.PI).Clamp())
		}
		if c.Satisfaction != nil {
			env.SatP[pid] = *c.Satisfaction
		}
		if c.Bid != nil {
			env.BidTable[pid] = *c.Bid
		}
	}
	n := req.Query.N
	if n < 1 {
		n = 1
	}
	q := sbqa.Query{Consumer: consumer, Class: req.Query.Class, N: n, Work: req.Query.Work}
	// Sampled, so that SbQA fills in the literal scores the preview returns.
	q.Trace.Sampled = true
	if q.Work <= 0 {
		q.Work = 1
	}

	a, err := allocator.Allocate(r.Context(), env, q, sbqa.Snapshots(snaps))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("preview mediation failed: %w", err))
		return
	}
	resp := previewResponse{Name: allocator.Name()}
	if a == nil || len(a.Selected) == 0 {
		resp.Unallocatable = true
		writeJSON(w, http.StatusOK, resp)
		return
	}
	resp.Selected = a.Selected
	resp.Proposed = a.Proposed
	resp.Scores = a.Scores
	resp.ConsumerIntentions = a.ConsumerIntentions
	resp.ProviderIntentions = a.ProviderIntentions
	writeJSON(w, http.StatusOK, resp)
}
