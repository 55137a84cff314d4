// Package trace is the mediation pipeline's flight recorder: sampling-gated
// per-query traces (one span per pipeline stage), allocation explain
// records, and the bounded ring buffer the daemon's debug endpoints read.
//
// # Design constraints
//
// The hot path must not notice tracing exists. Every instrumentation site
// in the pipeline gates on Query.Trace.Sampled — a value-type bool carried
// by the query itself — so an unsampled mediation costs one predictable
// branch per site and zero allocations. Sampled queries use pooled trace
// records with a fixed span capacity: past it, spans are counted as
// dropped, never grown; a full ring evicts the oldest finished trace back
// into the pool. No tracing operation ever blocks a mediation.
//
// # Aliasing rules for pooled records
//
// A record moves through three owners: the active map (between Start and
// Finish), the ring (after Finish), and the pool (after eviction). Writers
// append spans only while the record is in the active map, and every
// field access — append, finish, read-side copy, reuse-time reset — holds
// the record's own mutex. Readers copy a record into an independent
// TraceView while additionally holding the ring lock; eviction (the only
// path back into the pool) requires that same ring lock, so a view can
// never observe a record being recycled. Explain records are plain
// per-mediation heap values, never pooled, so views alias them safely.
//
// # Clock
//
// All timestamps are nanoseconds on a single process-local monotonic axis
// (Now). The per-stage latency histograms are fed inside RecordSpan from
// the very same span endpoints, so /v1/metrics and a trace can never
// disagree about a duration.
package trace

import (
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"sbqa/internal/model"
)

// The pipeline stages. One span per stage per mediation (participant and
// forward spans may repeat).
const (
	StageAdmission   = "admission"   // gateway: decode + admission control
	StageQueue       = "queue"       // shard scheduler wait (Class = QoS class)
	StageFanout      = "fanout"      // batched intention collection
	StageParticipant = "participant" // one remote participant's intention call
	StageImpute      = "impute"      // imputation of silent participants
	StageScore       = "score"       // allocator ranking (KnBest + Definition 3)
	StageDispatch    = "dispatch"    // hand-off to the selected workers
	StageForward     = "forward"     // cluster hop to the owning node
)

// start anchors the process-local monotonic clock.
var start = time.Now()

// Now returns nanoseconds since process start on the monotonic clock all
// spans share.
func Now() int64 { return int64(time.Since(start)) }

// Span is one timed pipeline stage of a trace.
type Span struct {
	Name  string
	Class string // sub-label: QoS class, participant kind, peer ID
	Start int64  // Now()-axis nanoseconds
	End   int64
	Extra int64 // stage-specific count: imputed participants, provider ID...
}

// Config sizes a Recorder.
type Config struct {
	// Sample is the fraction of locally originated queries to trace:
	// 0 disables sampling (remote-started traces still record), 1 traces
	// everything, anything between becomes a deterministic 1-in-N.
	Sample float64
	// Buffer is the flight-recorder ring capacity in finished traces
	// (default 256).
	Buffer int
}

// spanCap bounds the spans one trace retains; excess spans are counted in
// TraceView.SpansDropped.
const spanCap = 64

// record is one pooled in-flight or finished trace.
type record struct {
	mu       sync.Mutex
	id       model.TraceID
	parent   uint64
	query    model.QueryID
	consumer model.ConsumerID
	start    int64
	end      int64
	status   string
	errStr   string
	spans    []Span
	dropped  int
	explain  *model.Explain
}

// reset clears the record for pool reuse, keeping the spans backing array.
func (rec *record) reset() {
	rec.id = model.TraceID{}
	rec.parent = 0
	rec.query = 0
	rec.consumer = model.NoConsumer
	rec.start, rec.end = 0, 0
	rec.status, rec.errStr = "", ""
	rec.spans = rec.spans[:0]
	rec.dropped = 0
	rec.explain = nil
}

// Recorder owns the sampling decision, the active-trace map, the ring,
// and the stage histograms. A nil *Recorder is valid and records nothing.
type Recorder struct {
	every uint64 // 0 = never, 1 = always, n = every nth

	seed      uint64
	idCounter atomic.Uint64
	counter   atomic.Uint64 // sampling decisions

	mu     sync.RWMutex
	active map[model.TraceID]*record

	ringMu   sync.Mutex
	ring     []*record
	ringNext int

	pool sync.Pool

	started      atomic.Uint64
	finished     atomic.Uint64
	spansDropped atomic.Uint64
	evicted      atomic.Uint64

	stages [numStages]stageHist
}

// New builds a Recorder. Construction is the only place wall-clock time
// enters: it seeds the trace-ID stream.
func New(cfg Config) *Recorder {
	if cfg.Buffer <= 0 {
		cfg.Buffer = 256
	}
	r := &Recorder{
		every:  sampleEvery(cfg.Sample),
		seed:   uint64(time.Now().UnixNano()),
		active: make(map[model.TraceID]*record),
		ring:   make([]*record, cfg.Buffer),
	}
	r.pool.New = func() any {
		return &record{spans: make([]Span, 0, spanCap)}
	}
	return r
}

// sampleEvery folds a [0,1] rate into the 1-in-N counter gate.
func sampleEvery(rate float64) uint64 {
	switch {
	case rate <= 0:
		return 0
	case rate >= 1:
		return 1
	default:
		return uint64(1/rate + 0.5)
	}
}

// splitmix64 is the SplitMix64 finalizer — a cheap, allocation-free,
// well-mixed hash of the ID counter.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

func (r *Recorder) nextID64() uint64 {
	v := splitmix64(r.seed + r.idCounter.Add(1))
	if v == 0 {
		v = 1 // zero is the no-trace sentinel
	}
	return v
}

// StartLocal makes the sampling decision for a locally originated query.
// When sampled it registers a fresh trace and returns its context; an
// unsampled — but Decided, so no later layer re-draws — context (and
// false) otherwise.
func (r *Recorder) StartLocal() (model.TraceContext, bool) {
	if r == nil || r.every == 0 {
		return model.TraceContext{Decided: true}, false
	}
	if r.every > 1 && r.counter.Add(1)%r.every != 0 {
		return model.TraceContext{Decided: true}, false
	}
	tc := model.TraceContext{
		ID:      model.TraceID{Hi: r.nextID64(), Lo: r.nextID64()},
		Span:    r.nextID64(),
		Sampled: true,
		Decided: true,
	}
	r.register(tc)
	return tc, true
}

// StartRemote adopts an inbound (forwarded or downstream) trace context:
// the trace ID stays the caller's, this node records its own segment under
// it. Unsampled or malformed contexts pass through inert.
func (r *Recorder) StartRemote(tc model.TraceContext) model.TraceContext {
	tc.Decided = true
	if r == nil || !tc.Sampled || tc.ID.IsZero() {
		tc.Sampled = false
		return tc
	}
	r.register(tc)
	return tc
}

func (r *Recorder) register(tc model.TraceContext) {
	rec := r.pool.Get().(*record)
	rec.mu.Lock()
	rec.id = tc.ID
	rec.parent = tc.Span
	rec.consumer = model.NoConsumer
	rec.start = Now()
	rec.mu.Unlock()
	r.mu.Lock()
	if _, exists := r.active[tc.ID]; exists {
		// A duplicate start (same trace forwarded twice) keeps the first
		// record; the spare goes straight back.
		r.mu.Unlock()
		rec.reset()
		r.pool.Put(rec)
		return
	}
	r.active[tc.ID] = rec
	r.mu.Unlock()
	r.started.Add(1)
}

// Annotate attaches the engine-assigned query identity to an active trace.
func (r *Recorder) Annotate(id model.TraceID, q model.QueryID, c model.ConsumerID) {
	if r == nil {
		return
	}
	r.mu.RLock()
	rec := r.active[id]
	r.mu.RUnlock()
	if rec == nil {
		return
	}
	rec.mu.Lock()
	rec.query = q
	rec.consumer = c
	rec.mu.Unlock()
}

// RecordSpan appends one finished span to an active trace and feeds the
// matching stage histogram. Safe from concurrent fan-out goroutines.
// Spans for unknown (already finished) traces still count in the
// histograms — the measurement happened — but are not retained.
func (r *Recorder) RecordSpan(id model.TraceID, s Span) {
	if r == nil {
		return
	}
	r.observeStage(s.Name, s.End-s.Start)
	r.mu.RLock()
	rec := r.active[id]
	r.mu.RUnlock()
	if rec == nil {
		return
	}
	rec.mu.Lock()
	if len(rec.spans) < spanCap {
		rec.spans = append(rec.spans, s)
	} else {
		rec.dropped++
		r.spansDropped.Add(1)
	}
	rec.mu.Unlock()
}

// Finish closes an active trace and publishes it to the ring, evicting
// (and pooling) the oldest finished trace when full. Unknown IDs no-op.
func (r *Recorder) Finish(id model.TraceID, status, errStr string, explain *model.Explain) {
	if r == nil {
		return
	}
	r.mu.Lock()
	rec := r.active[id]
	if rec != nil {
		delete(r.active, id)
	}
	r.mu.Unlock()
	if rec == nil {
		return
	}
	rec.mu.Lock()
	rec.end = Now()
	rec.status = status
	rec.errStr = errStr
	if explain != nil {
		rec.explain = explain
	}
	rec.mu.Unlock()
	r.finished.Add(1)

	r.ringMu.Lock()
	old := r.ring[r.ringNext]
	r.ring[r.ringNext] = rec
	r.ringNext = (r.ringNext + 1) % len(r.ring)
	r.ringMu.Unlock()
	if old != nil {
		old.mu.Lock()
		old.reset()
		old.mu.Unlock()
		r.pool.Put(old)
		r.evicted.Add(1)
	}
}

// ---------------------------------------------------------------------------
// Read side: views
// ---------------------------------------------------------------------------

// SpanView is one span of a TraceView.
type SpanView struct {
	Name       string  `json:"name"`
	Class      string  `json:"class,omitempty"`
	StartNS    int64   `json:"start_ns"`
	EndNS      int64   `json:"end_ns"`
	DurationMS float64 `json:"duration_ms"`
	Extra      int64   `json:"extra,omitempty"`
}

// ExplainEntryView is one candidate row of an ExplainView.
type ExplainEntryView struct {
	Rank      int     `json:"rank"`
	Provider  int     `json:"provider"`
	CI        float64 `json:"ci"`
	PI        float64 `json:"pi"`
	SatP      float64 `json:"sat_p"`
	Omega     float64 `json:"omega"`
	Score     float64 `json:"score"`
	CIImputed bool    `json:"ci_imputed,omitempty"`
	PIImputed bool    `json:"pi_imputed,omitempty"`
}

// ExplainView is the wire form of a model.Explain.
type ExplainView struct {
	Allocator  string             `json:"allocator"`
	SatC       float64            `json:"sat_c"`
	Candidates int                `json:"candidates"`
	Entries    []ExplainEntryView `json:"entries"`
}

// TraceView is an independent copy of one trace, safe to hold after the
// underlying record is recycled.
type TraceView struct {
	TraceID      string       `json:"trace_id"`
	ParentSpan   string       `json:"parent_span,omitempty"`
	QueryID      int64        `json:"query_id"`
	Consumer     int          `json:"consumer"`
	StartNS      int64        `json:"start_ns"`
	EndNS        int64        `json:"end_ns,omitempty"`
	DurationMS   float64      `json:"duration_ms,omitempty"`
	Status       string       `json:"status,omitempty"`
	Error        string       `json:"error,omitempty"`
	SpansDropped int          `json:"spans_dropped,omitempty"`
	Spans        []SpanView   `json:"spans"`
	Explain      *ExplainView `json:"explain,omitempty"`
}

func explainView(e *model.Explain) *ExplainView {
	if e == nil {
		return nil
	}
	v := &ExplainView{
		Allocator:  e.Allocator,
		SatC:       e.SatC,
		Candidates: e.Candidates,
		Entries:    make([]ExplainEntryView, len(e.Entries)),
	}
	for i, en := range e.Entries {
		v.Entries[i] = ExplainEntryView{
			Rank:      en.Rank,
			Provider:  int(en.Provider),
			CI:        float64(en.CI),
			PI:        float64(en.PI),
			SatP:      en.SatP,
			Omega:     en.Omega,
			Score:     en.Score,
			CIImputed: en.CIImputed,
			PIImputed: en.PIImputed,
		}
	}
	return v
}

// view copies rec; callers hold whatever lock keeps rec out of the pool.
func (rec *record) view() TraceView {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	v := TraceView{
		TraceID:      rec.id.String(),
		QueryID:      int64(rec.query),
		Consumer:     int(rec.consumer),
		StartNS:      rec.start,
		EndNS:        rec.end,
		Status:       rec.status,
		Error:        rec.errStr,
		SpansDropped: rec.dropped,
		Spans:        make([]SpanView, len(rec.spans)),
		Explain:      explainView(rec.explain),
	}
	if rec.parent != 0 {
		// W3C span IDs are fixed-width 16 hex digits; preserve leading zeros.
		v.ParentSpan = fmt.Sprintf("%016x", rec.parent)
	}
	if rec.end > rec.start {
		v.DurationMS = float64(rec.end-rec.start) / 1e6
	}
	for i, s := range rec.spans {
		v.Spans[i] = SpanView{
			Name:       s.Name,
			Class:      s.Class,
			StartNS:    s.Start,
			EndNS:      s.End,
			DurationMS: float64(s.End-s.Start) / 1e6,
			Extra:      s.Extra,
		}
	}
	return v
}

// TraceByQuery returns the most recent trace (finished first, then
// in-flight) recorded for the given query ID.
func (r *Recorder) TraceByQuery(q model.QueryID) (TraceView, bool) {
	if r == nil || q == 0 {
		return TraceView{}, false
	}
	r.ringMu.Lock()
	n := len(r.ring)
	for i := 1; i <= n; i++ {
		rec := r.ring[(r.ringNext-i+n)%n]
		if rec == nil {
			continue
		}
		rec.mu.Lock()
		hit := rec.query == q
		rec.mu.Unlock()
		if hit {
			v := rec.view()
			r.ringMu.Unlock()
			return v, true
		}
	}
	r.ringMu.Unlock()

	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, rec := range r.active {
		rec.mu.Lock()
		hit := rec.query == q
		rec.mu.Unlock()
		if hit {
			return rec.view(), true
		}
	}
	return TraceView{}, false
}

// TraceByID returns the trace with the given 32-hex-digit W3C trace ID.
func (r *Recorder) TraceByID(id string) (TraceView, bool) {
	if r == nil {
		return TraceView{}, false
	}
	tid, ok := parseTraceID(id)
	if !ok {
		return TraceView{}, false
	}
	r.ringMu.Lock()
	for _, rec := range r.ring {
		if rec == nil {
			continue
		}
		rec.mu.Lock()
		hit := rec.id == tid
		rec.mu.Unlock()
		if hit {
			v := rec.view()
			r.ringMu.Unlock()
			return v, true
		}
	}
	r.ringMu.Unlock()

	r.mu.RLock()
	rec := r.active[tid]
	r.mu.RUnlock()
	if rec == nil {
		return TraceView{}, false
	}
	// Still safe: an active record can only be pooled after Finish moves
	// it through the ring, and view copies under rec.mu.
	return rec.view(), true
}

// Slow returns up to limit finished traces at least minNS long, slowest
// first — the flight recorder's slow-query log.
func (r *Recorder) Slow(minNS int64, limit int) []TraceView {
	if r == nil {
		return nil
	}
	if limit <= 0 {
		limit = 50
	}
	var out []TraceView
	r.ringMu.Lock()
	n := len(r.ring)
	for i := 1; i <= n; i++ {
		rec := r.ring[(r.ringNext-i+n)%n]
		if rec == nil {
			continue
		}
		rec.mu.Lock()
		keep := rec.end-rec.start >= minNS
		rec.mu.Unlock()
		if keep {
			out = append(out, rec.view())
		}
	}
	r.ringMu.Unlock()
	sort.SliceStable(out, func(i, j int) bool {
		return out[i].EndNS-out[i].StartNS > out[j].EndNS-out[j].StartNS
	})
	if len(out) > limit {
		out = out[:limit]
	}
	return out
}

// Stats is the recorder's counter block.
type Stats struct {
	Started      uint64 `json:"started"`
	Finished     uint64 `json:"finished"`
	Active       int    `json:"active"`
	SpansDropped uint64 `json:"spans_dropped"`
	Evicted      uint64 `json:"evicted"`
}

// StatsSnapshot returns the recorder's counters.
func (r *Recorder) StatsSnapshot() Stats {
	if r == nil {
		return Stats{}
	}
	r.mu.RLock()
	active := len(r.active)
	r.mu.RUnlock()
	return Stats{
		Started:      r.started.Load(),
		Finished:     r.finished.Load(),
		Active:       active,
		SpansDropped: r.spansDropped.Load(),
		Evicted:      r.evicted.Load(),
	}
}

// ---------------------------------------------------------------------------
// Stage histograms
// ---------------------------------------------------------------------------

// The explicit histogram buckets in seconds, chosen for the 0.1ms–2.5s
// band a mediation stage plausibly spans.
var StageBuckets = [...]float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5,
}

const numBuckets = len(StageBuckets)

// The stages carrying a histogram, index-aligned with Recorder.stages.
var stageNames = [...]string{
	StageAdmission, StageQueue, StageFanout, StageParticipant,
	StageImpute, StageScore, StageDispatch, StageForward,
}

const numStages = len(stageNames)

type stageHist struct {
	buckets  [numBuckets]atomic.Uint64
	count    atomic.Uint64
	sumNanos atomic.Int64
}

func stageIndex(name string) int {
	switch name {
	case StageAdmission:
		return 0
	case StageQueue:
		return 1
	case StageFanout:
		return 2
	case StageParticipant:
		return 3
	case StageImpute:
		return 4
	case StageScore:
		return 5
	case StageDispatch:
		return 6
	case StageForward:
		return 7
	}
	return -1
}

func (r *Recorder) observeStage(name string, nanos int64) {
	i := stageIndex(name)
	if i < 0 {
		return
	}
	if nanos < 0 {
		nanos = 0
	}
	h := &r.stages[i]
	secs := float64(nanos) / 1e9
	for b, le := range StageBuckets {
		if secs <= le {
			h.buckets[b].Add(1)
			break
		}
	}
	h.count.Add(1)
	h.sumNanos.Add(nanos)
}

// StageSnapshot is one stage histogram's state in cumulative Prometheus
// form: Buckets[i] counts observations <= StageBuckets[i].
type StageSnapshot struct {
	Stage   string
	Buckets [numBuckets]uint64 // cumulative
	Count   uint64
	Sum     float64 // seconds
}

// StageSnapshots returns every stage histogram, in stage order.
func (r *Recorder) StageSnapshots() []StageSnapshot {
	if r == nil {
		return nil
	}
	out := make([]StageSnapshot, numStages)
	for i := range r.stages {
		h := &r.stages[i]
		s := StageSnapshot{Stage: stageNames[i]}
		var cum uint64
		for b := range h.buckets {
			cum += h.buckets[b].Load()
			s.Buckets[b] = cum
		}
		s.Count = h.count.Load()
		s.Sum = float64(h.sumNanos.Load()) / 1e9
		out[i] = s
	}
	return out
}

// ---------------------------------------------------------------------------
// W3C traceparent propagation
// ---------------------------------------------------------------------------

// Header is the propagation header name on cluster forwards and
// participant webhooks.
const Header = "traceparent"

// Format renders tc in W3C traceparent form:
// 00-<32 hex trace id>-<16 hex span id>-<2 hex flags>.
func Format(tc model.TraceContext) string {
	flags := 0
	if tc.Sampled {
		flags = 1
	}
	return fmt.Sprintf("00-%016x%016x-%016x-%02x", tc.ID.Hi, tc.ID.Lo, tc.Span, flags)
}

// Parse decodes a traceparent header. Unknown versions, malformed fields,
// and the all-zero trace ID all return ok = false.
func Parse(s string) (model.TraceContext, bool) {
	if len(s) != 55 || s[0] != '0' || s[1] != '0' ||
		s[2] != '-' || s[35] != '-' || s[52] != '-' {
		return model.TraceContext{}, false
	}
	id, ok := parseTraceID(s[3:35])
	if !ok {
		return model.TraceContext{}, false
	}
	span, err := strconv.ParseUint(s[36:52], 16, 64)
	if err != nil {
		return model.TraceContext{}, false
	}
	flags, err := strconv.ParseUint(s[53:55], 16, 8)
	if err != nil {
		return model.TraceContext{}, false
	}
	return model.TraceContext{ID: id, Span: span, Sampled: flags&1 != 0}, true
}

func parseTraceID(s string) (model.TraceID, bool) {
	if len(s) != 32 {
		return model.TraceID{}, false
	}
	hi, err := strconv.ParseUint(s[:16], 16, 64)
	if err != nil {
		return model.TraceID{}, false
	}
	lo, err := strconv.ParseUint(s[16:], 16, 64)
	if err != nil {
		return model.TraceID{}, false
	}
	id := model.TraceID{Hi: hi, Lo: lo}
	return id, !id.IsZero()
}
