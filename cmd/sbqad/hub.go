package main

import (
	"strconv"
	"sync"
	"sync/atomic"

	"sbqa"
)

// sseEvent is one event on the gateway's stream: a kind tag and a
// JSON-serializable payload.
type sseEvent struct {
	kind string
	data any
}

// hub fans engine events out to the SSE subscribers.
//
// Drop/buffer policy: each subscriber owns a subscriberBuffer-deep channel.
// publish is strictly non-blocking — when a subscriber's buffer is full the
// event is dropped *for that subscriber* (newest dropped, buffered backlog
// kept) and every other subscriber still receives it. A stalled SSE client
// can therefore never stall the engine's observer callbacks, which run
// synchronously on the mediating goroutines. TestHubSlowSubscriberNeverBlocks
// enforces this. Drops are not silent: every per-subscriber drop increments
// the dropped counter, surfaced as events_dropped in GET /v1/stats, so an
// operator can tell a quiet stream from a lossy one.
//
// Most of the time nobody is subscribed. nsubs mirrors len(subs) so that the
// publishing side can see that without the lock: the observer callbacks
// return before building an event for nobody, and a submit hands its results
// to the drain only while someone listens. subscribe raises the count before
// it returns, so a client that has its stream misses nothing it causes next.
type hub struct {
	mu      sync.Mutex
	subs    map[chan sseEvent]struct{}
	nsubs   atomic.Int32
	dropped atomic.Uint64
}

func newHub() *hub {
	return &hub{subs: make(map[chan sseEvent]struct{})}
}

// subscriberBuffer is each SSE connection's event backlog; past it, events
// are dropped for that subscriber.
const subscriberBuffer = 256

func (h *hub) subscribe() (<-chan sseEvent, func()) {
	ch := make(chan sseEvent, subscriberBuffer)
	h.mu.Lock()
	h.subs[ch] = struct{}{}
	h.nsubs.Store(int32(len(h.subs)))
	h.mu.Unlock()
	return ch, func() {
		h.mu.Lock()
		delete(h.subs, ch)
		h.nsubs.Store(int32(len(h.subs)))
		h.mu.Unlock()
	}
}

// subscribed reports whether anyone would receive an event published now.
func (h *hub) subscribed() bool { return h.nsubs.Load() > 0 }

func (h *hub) publish(kind string, data any) {
	if !h.subscribed() {
		return
	}
	h.mu.Lock()
	for ch := range h.subs {
		select {
		case ch <- sseEvent{kind: kind, data: data}:
		default: // slow subscriber: drop, but count
			h.dropped.Add(1)
		}
	}
	h.mu.Unlock()
}

// droppedEvents reports the lifetime count of per-subscriber drops.
func (h *hub) droppedEvents() uint64 { return h.dropped.Load() }

// allocationEvent summarizes one successful mediation for the stream.
type allocationEvent struct {
	QueryID    int64             `json:"query_id"`
	Consumer   int               `json:"consumer"`
	Selected   []sbqa.ProviderID `json:"selected"`
	Candidates int               `json:"candidates"`
}

type rejectionEvent struct {
	QueryID  int64  `json:"query_id"`
	Consumer int    `json:"consumer"`
	Reason   string `json:"reason"`
}

type dispatchFailureEvent struct {
	QueryID int64  `json:"query_id"`
	Error   string `json:"error"`
}

type participantEvent struct {
	Kind string `json:"kind"` // "provider" | "consumer"
	ID   int    `json:"id"`
}

type satisfactionEvent struct {
	Time      float64            `json:"time"`
	Consumers map[string]float64 `json:"consumers"`
	Providers map[string]float64 `json:"providers"`
}

// imputationEvent reports a silent participant whose intention was imputed
// from registry state during one mediation's batched collection. Provider is
// -1 (model.NoProvider) when the silent party was the consumer.
type imputationEvent struct {
	QueryID  int64   `json:"query_id"`
	Consumer int     `json:"consumer"`
	Provider int     `json:"provider"`
	Timeout  bool    `json:"timeout"`
	Error    string  `json:"error"`
	Imputed  float64 `json:"imputed"`
}

// shedEvent reports one query rejected by admission control (deadline
// infeasible, class queue full, or brownout) on the stream.
type shedEvent struct {
	QueryID         int64   `json:"query_id"`
	Consumer        int     `json:"consumer"`
	Class           string  `json:"class"`
	Reason          string  `json:"reason"`
	QueueDepth      int     `json:"queue_depth"`
	EstimatedWaitMS float64 `json:"estimated_wait_ms"`
}

// policyChangeEvent reports an accepted policy generation on the stream.
type policyChangeEvent struct {
	Generation uint64  `json:"generation"`
	Name       string  `json:"name"`
	Kind       string  `json:"kind"`
	Time       float64 `json:"time"`
}

// peerChangeEvent reports a cluster peer's health transition on the
// stream (cluster mode only).
type peerChangeEvent struct {
	Node  string `json:"node"`
	Addr  string `json:"addr,omitempty"`
	From  string `json:"from"`
	To    string `json:"to"`
	Error string `json:"error,omitempty"`
}

// observer adapts the hub to the engine's Observer interface. The callbacks
// that run per query, and the snapshot with its two maps, look for a
// subscriber before they build anything; the rare ones leave that to publish.
func (h *hub) observer() sbqa.Observer {
	return sbqa.ObserverFuncs{
		Allocation: func(a *sbqa.Allocation, candidates int) {
			if !h.subscribed() {
				return
			}
			h.publish("allocation", allocationEvent{
				QueryID:    int64(a.Query.ID),
				Consumer:   int(a.Query.Consumer),
				Selected:   append([]sbqa.ProviderID(nil), a.Selected...),
				Candidates: candidates,
			})
		},
		Rejection: func(q sbqa.Query, reason error) {
			if !h.subscribed() {
				return
			}
			h.publish("rejection", rejectionEvent{
				QueryID:  int64(q.ID),
				Consumer: int(q.Consumer),
				Reason:   reason.Error(),
			})
		},
		DispatchFailure: func(q sbqa.Query, _ *sbqa.Allocation, err error) {
			if !h.subscribed() {
				return
			}
			h.publish("dispatch_failure", dispatchFailureEvent{
				QueryID: int64(q.ID),
				Error:   err.Error(),
			})
		},
		ProviderRegistered: func(id sbqa.ProviderID) {
			h.publish("registered", participantEvent{Kind: "provider", ID: int(id)})
		},
		ProviderDeparted: func(id sbqa.ProviderID) {
			h.publish("departed", participantEvent{Kind: "provider", ID: int(id)})
		},
		ConsumerRegistered: func(id sbqa.ConsumerID) {
			h.publish("registered", participantEvent{Kind: "consumer", ID: int(id)})
		},
		ConsumerDeparted: func(id sbqa.ConsumerID) {
			h.publish("departed", participantEvent{Kind: "consumer", ID: int(id)})
		},
		IntentionImputed: func(im sbqa.Imputation) {
			if !h.subscribed() {
				return
			}
			errMsg := ""
			if im.Err != nil {
				errMsg = im.Err.Error()
			}
			h.publish("imputation", imputationEvent{
				QueryID:  int64(im.Query.ID),
				Consumer: int(im.Consumer),
				Provider: int(im.Provider),
				Timeout:  im.Timeout(),
				Error:    errMsg,
				Imputed:  float64(im.Imputed),
			})
		},
		Shed: func(s sbqa.ShedEvent) {
			if !h.subscribed() {
				return
			}
			h.publish("shed", shedEvent{
				QueryID:         int64(s.Query.ID),
				Consumer:        int(s.Query.Consumer),
				Class:           s.Class,
				Reason:          s.Reason,
				QueueDepth:      s.QueueDepth,
				EstimatedWaitMS: s.EstimatedWait * 1000,
			})
		},
		PolicyChange: func(pc sbqa.PolicyChange) {
			h.publish("policy_change", policyChangeEvent{
				Generation: pc.Generation,
				Name:       pc.Name,
				Kind:       pc.Kind,
				Time:       pc.Time,
			})
		},
		PeerChange: func(pc sbqa.PeerChange) {
			h.publish("peer_change", peerChangeEvent{
				Node:  pc.Node,
				Addr:  pc.Addr,
				From:  pc.From,
				To:    pc.To,
				Error: pc.Err,
			})
		},
		SatisfactionSnapshot: func(snap sbqa.SatisfactionSnapshot) {
			if !h.subscribed() {
				return
			}
			ev := satisfactionEvent{
				Time:      snap.Time,
				Consumers: make(map[string]float64, len(snap.Consumers)),
				Providers: make(map[string]float64, len(snap.Providers)),
			}
			for id, s := range snap.Consumers {
				ev.Consumers[strconv.Itoa(int(id))] = s
			}
			for id, s := range snap.Providers {
				ev.Providers[strconv.Itoa(int(id))] = s
			}
			h.publish("satisfaction", ev)
		},
	}
}
