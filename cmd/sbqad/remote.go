package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"

	"sbqa"
)

// Remote participants: consumers and workers registered with an intention
// webhook URL. The daemon gathers CI_q / PI_q over HTTP during the batched
// intention fan-out — one POST per mediation for a consumer (the whole
// candidate batch), one POST per proposed query for a worker — under the
// engine's per-participant deadline. A webhook that misses the deadline or
// fails is imputed from the participant's satisfaction registry state; the
// mediation never stalls on it.
//
// Webhook contract (all JSON):
//
//	consumer  POST {"query": {...}, "candidates": [{...}, ...]}
//	          → {"intentions": [i0, i1, ...]}   (aligned with candidates)
//	worker    POST {"query": {...}}
//	          → {"intention": i}
//
// Intentions are clamped into [-1, 1] on receipt.

// wireQuery is the webhook-side view of a query.
type wireQuery struct {
	ID       int64   `json:"id"`
	Consumer int     `json:"consumer"`
	Class    int     `json:"class"`
	N        int     `json:"n"`
	Work     float64 `json:"work"`
}

func toWireQuery(q sbqa.Query) wireQuery {
	return wireQuery{
		ID:       int64(q.ID),
		Consumer: int(q.Consumer),
		Class:    q.Class,
		N:        q.N,
		Work:     q.Work,
	}
}

// queryTraceparent renders a sampled query's trace context for webhook
// propagation; empty when the query is untraced.
func queryTraceparent(q sbqa.Query) string {
	if !q.Trace.Sampled {
		return ""
	}
	return sbqa.FormatTraceparent(q.Trace)
}

// wireSnapshot is the webhook-side view of a candidate provider.
type wireSnapshot struct {
	ID          int     `json:"id"`
	Utilization float64 `json:"utilization"`
	QueueLen    int     `json:"queue_len"`
	Capacity    float64 `json:"capacity"`
	PendingWork float64 `json:"pending_work"`
}

type intentionWebhookRequest struct {
	Query      wireQuery      `json:"query"`
	Candidates []wireSnapshot `json:"candidates,omitempty"`
}

type consumerWebhookResponse struct {
	Intentions []float64 `json:"intentions"`
}

type workerWebhookResponse struct {
	Intention float64 `json:"intention"`
}

// postWebhookJSON POSTs req to url and decodes the response into out. The context
// carries the per-participant deadline the engine's fan-out applies.
// traceparent, when non-empty, propagates the mediation's trace context so
// participant-side handling can join the query's trace. The reply is read
// under the same 1 MiB bound as every inbound body: a participant that
// answers with more is in error, and the fan-out imputes it like a silent
// one instead of buffering whatever it sends.
func postWebhookJSON(ctx context.Context, client *http.Client, url, traceparent string, req, out any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	httpReq.Header.Set("Content-Type", "application/json")
	if traceparent != "" {
		httpReq.Header.Set(sbqa.TraceparentHeader, traceparent)
	}
	resp, err := client.Do(httpReq)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("webhook %s: status %d", url, resp.StatusCode)
	}
	sc := getScratch()
	defer putScratch(sc)
	if err := sc.decode(resp.Body, out); err != nil {
		return fmt.Errorf("webhook %s: reply: %w", url, err)
	}
	return nil
}

// remoteConsumer is a consumer whose intentions live behind a webhook. It
// implements the synchronous Consumer contract (with a constant fallback,
// used only by code paths that bypass the batched protocol) plus
// ConsumerParticipant, which the mediator's fan-out prefers.
type remoteConsumer struct {
	id       sbqa.ConsumerID
	url      string
	fallback sbqa.Intention
	client   *http.Client
}

func (rc *remoteConsumer) ConsumerID() sbqa.ConsumerID { return rc.id }

// Intention is the synchronous fallback; the batched fan-out never calls it.
func (rc *remoteConsumer) Intention(sbqa.Query, sbqa.ProviderSnapshot) sbqa.Intention {
	return rc.fallback
}

// Intentions implements sbqa.ConsumerParticipant over the webhook.
func (rc *remoteConsumer) Intentions(ctx context.Context, q sbqa.Query, kn []sbqa.ProviderSnapshot) ([]sbqa.Intention, error) {
	req := intentionWebhookRequest{
		Query:      toWireQuery(q),
		Candidates: make([]wireSnapshot, len(kn)),
	}
	for i, snap := range kn {
		req.Candidates[i] = wireSnapshot{
			ID:          int(snap.ID),
			Utilization: snap.Utilization,
			QueueLen:    snap.QueueLen,
			Capacity:    snap.Capacity,
			PendingWork: snap.PendingWork,
		}
	}
	var resp consumerWebhookResponse
	if err := postWebhookJSON(ctx, rc.client, rc.url, queryTraceparent(q), req, &resp); err != nil {
		return nil, err
	}
	if len(resp.Intentions) != len(kn) {
		return nil, fmt.Errorf("webhook %s: %d intentions for %d candidates", rc.url, len(resp.Intentions), len(kn))
	}
	out := make([]sbqa.Intention, len(kn))
	for i, v := range resp.Intentions {
		out[i] = sbqa.Intention(v).Clamp()
	}
	return out, nil
}

var _ sbqa.Consumer = (*remoteConsumer)(nil)
var _ sbqa.ConsumerParticipant = (*remoteConsumer)(nil)

// remoteWorker embeds a local executor (*sbqa.LiveWorker) — it still runs
// queries on the daemon's goroutines and is dispatched to through the
// normal worker machinery — but sources its mediation-time intention from a
// webhook, implementing sbqa.ProviderParticipant so the fan-out contacts it
// concurrently under the per-participant deadline.
type remoteWorker struct {
	*sbqa.LiveWorker
	url    string
	client *http.Client
}

// IntentionContext implements sbqa.ProviderParticipant over the webhook.
func (rw *remoteWorker) IntentionContext(ctx context.Context, q sbqa.Query) (sbqa.Intention, error) {
	var resp workerWebhookResponse
	if err := postWebhookJSON(ctx, rw.client, rw.url, queryTraceparent(q), intentionWebhookRequest{Query: toWireQuery(q)}, &resp); err != nil {
		return 0, err
	}
	return sbqa.Intention(resp.Intention).Clamp(), nil
}

var _ sbqa.Provider = (*remoteWorker)(nil)
var _ sbqa.ProviderParticipant = (*remoteWorker)(nil)
var _ sbqa.LiveExecutor = (*remoteWorker)(nil)
