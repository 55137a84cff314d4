// Package layers measures sbqa's pipeline layers from outside: it rebuilds a
// workload's fixture in-process from the packages' public constructors and
// times calls into their public functions, one layer at a time. Nothing here
// reaches into a package's internals and no non-benchmark source is edited,
// so what a probe measures is what any embedder of that package pays.
//
// Every ns/us/ms figure is the median of at least 20 timed batches,
// multiplied by the speed factor of the control windows around it (the
// harness supplies those through Calibrate), with the exact allocation
// count per operation beside it where the ledger asks for one.
package layers

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"

	"sbqa/internal/cluster"
	"sbqa/internal/directory"
	"sbqa/internal/knbest"
	"sbqa/internal/live"
	"sbqa/internal/mediator"
	"sbqa/internal/model"
	"sbqa/internal/persist"
	"sbqa/internal/policy"
	"sbqa/internal/qos"
	"sbqa/internal/satisfaction"
	"sbqa/internal/score"
	"sbqa/internal/stats"
)

// Worker and Consumer describe the fixture's participants.
type Worker struct {
	ID, Class int // Class -1 = unrestricted
	Intention float64
}

type Consumer struct {
	ID        int
	Intention float64
}

// Spec is the part of a workload fixture the probes rebuild: the fleet of
// the node that mediates, the consumers, and the daemon flags that change
// what a layer does.
type Spec struct {
	Workload  string
	Workers   []Worker
	Consumers []Consumer
	Classes   int
	Shards    int
	QoS       bool
	Durable   bool
	Nodes     []string // cluster node IDs; one entry outside cluster mode
	Capacity  float64
	QueueCap  int
	Dir       string // scratch directory for the persist probes
}

// Metric is one probe result.
type Metric struct {
	Value   float64
	Unit    string
	Batches []float64 // calibrated per-batch values behind a timed median
}

// Span is one interval of the shadow pipeline.
type Span struct {
	Trace, Name, Parent string
	Start, End          int64
}

// Calibrate runs one control window and returns the speed factor it saw.
type Calibrate func() (float64, error)

const (
	batches      = 20
	batchLen     = 1500 * time.Microsecond
	calibrateGap = 400 * time.Millisecond
	shadowTraces = 200
)

type pending struct {
	name, unit string
	scale      float64 // ns → unit
	raw        []float64
	before     int
}

type runner struct {
	cal      Calibrate
	speeds   []float64
	waiting  []pending
	sinceCal time.Duration
	out      map[string]Metric
	err      error // first failure inside a probe body
}

// fail records the first error a probe body hits; timed reports it.
func (r *runner) fail(err error) {
	if err != nil && r.err == nil {
		r.err = err
	}
}

func (r *runner) calibrate() error {
	s, err := r.cal()
	if err != nil {
		return err
	}
	r.speeds = append(r.speeds, s)
	last := len(r.speeds) - 1
	for _, p := range r.waiting {
		f := (r.speeds[p.before] + r.speeds[last]) / 2
		vals := make([]float64, len(p.raw))
		for i, v := range p.raw {
			vals[i] = v * p.scale * f
		}
		r.out[p.name] = Metric{Value: median(vals), Unit: p.unit, Batches: vals}
	}
	r.waiting = r.waiting[:0]
	r.sinceCal = 0
	return nil
}

// timed measures fn, which performs ops operations per call, and files the
// per-operation time under name. pre and post (either may be nil) run
// before and after every call of fn without being timed.
func (r *runner) timed(name, unit string, ops int, pre, fn, post func()) error {
	scale := 1.0
	switch unit {
	case "us":
		scale = 1e-3
	case "ms":
		scale = 1e-6
	}
	call := func() time.Duration {
		if pre != nil {
			pre()
		}
		t0 := time.Now()
		fn()
		el := time.Since(t0)
		if post != nil {
			post()
		}
		return el
	}
	call() // warm caches and scratch buffers
	start := time.Now()
	raw := make([]float64, 0, batches)
	for b := 0; b < batches && r.err == nil; b++ {
		var el time.Duration
		calls := 0
		for el < batchLen {
			el += call()
			calls++
		}
		raw = append(raw, float64(el)/float64(calls*ops))
	}
	if r.err != nil {
		return fmt.Errorf("probe %s: %w", name, r.err)
	}
	r.waiting = append(r.waiting, pending{name: name, unit: unit, scale: scale, raw: raw, before: len(r.speeds) - 1})
	r.sinceCal += time.Since(start)
	if r.sinceCal >= calibrateGap {
		return r.calibrate()
	}
	return nil
}

func (r *runner) set(name, unit string, v float64) { r.out[name] = Metric{Value: v, Unit: unit} }

// allocs returns the exact heap allocations and bytes per operation of fn
// (ops operations per call), counted process-wide so that work a layer
// hands to its own goroutines is included.
func allocs(ops int, fn func()) (count, bytes float64) {
	fn()
	calls := 1 + 256/ops
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < calls; i++ {
		fn()
	}
	runtime.ReadMemStats(&b)
	n := float64(calls * ops)
	return float64(b.Mallocs-a.Mallocs) / n, float64(b.TotalAlloc-a.TotalAlloc) / n
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// requestShape and responseShape are the gateway's submit wire shapes.
type requestShape struct {
	Consumer   int     `json:"consumer"`
	Class      int     `json:"class"`
	N          int     `json:"n"`
	Work       float64 `json:"work"`
	Wait       string  `json:"wait"`
	QoS        string  `json:"qos"`
	DeadlineMS float64 `json:"deadline_ms"`
}

type responseShape struct {
	QueryID  int64              `json:"query_id"`
	Selected []model.ProviderID `json:"selected,omitempty"`
	Proposed []model.ProviderID `json:"proposed,omitempty"`
	Error    string             `json:"error,omitempty"`
}

// bootSpec is the policy sbqad boots with under its default flags.
func bootSpec(withQoS bool) policy.Spec {
	spec := policy.Spec{Name: "boot", Kind: policy.SbQA, K: 20, Kn: 10, Seed: 1}
	if withQoS {
		qs := qos.DefaultSpec()
		spec.QoS = &qs
	}
	return spec.Normalized()
}

// Run executes every probe against spec and returns the per-layer metrics
// and the shadow pipeline's spans (timestamps in nanoseconds since epoch).
func Run(spec Spec, seed uint64, cal Calibrate, epoch time.Time) (map[string]Metric, []Span, error) {
	r := &runner{cal: cal, out: map[string]Metric{}}
	if err := r.calibrate(); err != nil {
		return nil, nil, err
	}
	ctx := context.Background()
	rng := rand.New(rand.NewPCG(seed, 0x6c6179657273))

	// The fixture, in-process: one engine (the live layer) whose directory
	// the lower-layer probes share, as the engine's own shards do.
	pspec := bootSpec(spec.QoS)
	eng, err := live.NewEngine(
		live.WithWindow(100), live.WithConcurrency(spec.Shards), live.WithPolicy(pspec),
		live.WithQueueDepth(1024), live.WithSnapshotInterval(10*time.Second), live.WithTracing(0, 256))
	if err != nil {
		return nil, nil, err
	}
	defer eng.Close()
	workers := make([]*live.Worker, len(spec.Workers))
	defer func() {
		for _, w := range workers {
			if w != nil {
				w.Close()
			}
		}
	}()
	for i, w := range spec.Workers {
		in := model.Intention(w.Intention).Clamp()
		lw, err := live.NewWorker(model.ProviderID(w.ID), spec.Capacity, spec.QueueCap, func(model.Query) model.Intention { return in })
		if err != nil {
			return nil, nil, err
		}
		if w.Class >= 0 {
			lw.SetClasses(w.Class)
		}
		workers[i] = lw
		eng.RegisterWorker(lw)
	}
	consumers := make([]live.FuncConsumer, len(spec.Consumers))
	for i, c := range spec.Consumers {
		base := c.Intention
		consumers[i] = live.FuncConsumer{ID: model.ConsumerID(c.ID), Fn: func(_ model.Query, snap model.ProviderSnapshot) model.Intention {
			return model.Intention(base - snap.Utilization).Clamp()
		}}
		eng.RegisterConsumer(consumers[i])
	}
	dir := eng.Directory()

	// A seeded query ring, reused by every probe.
	queries := make([]model.Query, 256)
	for i := range queries {
		queries[i] = model.Query{
			ID:       model.QueryID(i + 1),
			Consumer: consumers[rng.IntN(len(consumers))].ID,
			Class:    rng.IntN(spec.Classes),
			N:        1,
			Work:     1,
		}
	}
	qi := 0
	nextQ := func() model.Query { qi++; return queries[qi%len(queries)] }

	// probe runs one timed measurement and stops the sequence at the first
	// failure; the closures below report their own errors through r.fail.
	var perr error
	probe := func(name, unit string, ops int, pre, fn, post func()) {
		if perr == nil {
			perr = r.timed(name, unit, ops, pre, fn, post)
		}
	}
	count := func(name string, ops int, fn func()) {
		if perr == nil {
			n, _ := allocs(ops, fn)
			r.set(name, "count", n)
		}
	}

	// --- gateway floors: stdlib JSON on the submit shapes -----------------
	reqBody := []byte(`{"consumer":17,"class":0,"n":1,"work":1,"qos":"interactive","wait":"allocation"}`)
	decode := func() {
		var req requestShape
		r.fail(json.NewDecoder(bytes.NewReader(reqBody)).Decode(&req))
	}
	resp := responseShape{QueryID: 123456, Selected: []model.ProviderID{7}, Proposed: []model.ProviderID{7, 3, 9, 1, 12, 5, 2, 8, 4, 6}}
	encode := func() { r.fail(json.NewEncoder(io.Discard).Encode(&resp)) }
	probe("gateway.decode_floor_ns", "ns", 1, nil, decode, nil)
	probe("gateway.encode_floor_ns", "ns", 1, nil, encode, nil)

	// --- qos: what admission and the class queue cost when switched on ----
	qspec := qos.DefaultSpec()
	qspec.ConsumerRate, qspec.ConsumerBurst = 1e9, 1e9
	clock := time.Now()
	now := func() float64 { return time.Since(clock).Seconds() }
	lim := qos.NewLimiter(qspec, now)
	allow := func() {
		class, _ := lim.Resolve("batch")
		if d := lim.Allow(int64(nextQ().Consumer), class); !d.OK {
			r.fail(fmt.Errorf("limiter refused an unlimited consumer"))
		}
	}
	probe("qos.allow_ns", "ns", 1, nil, allow, nil)
	sched := qos.NewScheduler[int](qos.DefaultSpec(), 1024, now)
	probe("qos.push_pop_ns", "ns", 1, nil, func() {
		if _, err := sched.Push(ctx, 1, 0, 1); err != nil {
			r.fail(err)
			return
		}
		if _, _, ok := sched.Pop(); !ok {
			r.fail(fmt.Errorf("scheduler popped nothing after a push"))
		}
	}, nil)
	sched.Close()

	// --- cluster and policy ----------------------------------------------
	ring := cluster.NewRing(spec.Nodes, 0)
	owner := func() { _ = ring.Owner(nextQ().Consumer) }
	probe("cluster.owner_ns", "ns", 1, nil, owner, nil)
	probe("policy.build_ns", "ns", 1, nil, func() {
		_, err := pspec.Build(0)
		r.fail(err)
	}, nil)

	// --- live: Engine.Submit + Ticket.Allocation on one goroutine ---------
	submit := func() {
		_, err := eng.Submit(ctx, nextQ()).Allocation()
		r.fail(err)
	}
	for i := 0; i < 2000; i++ { // fill the satisfaction windows
		submit()
	}
	probe("live.submit_await_us", "us", 1, nil, submit, nil)
	if perr == nil {
		n, b := allocs(1, submit)
		r.set("live.submit_allocs", "count", n)
		r.set("live.submit_bytes", "B", b)
	}

	// --- directory --------------------------------------------------------
	var cands []directory.Provider
	var candTotal, candCalls int
	candidates := func() {
		cands = dir.Candidates(nextQ(), cands[:0])
		candTotal += len(cands)
		candCalls++
	}
	probe("directory.candidates_ns", "ns", 1, nil, candidates, nil)
	r.set("directory.candidates_mean", "count", float64(candTotal)/float64(max(candCalls, 1)))
	// Writes cycle through a slice of the fleet and always come in pairs, so
	// the fleet ends as it began.
	churn := workers[:min(len(workers), 64)]
	unregisterAll := func() {
		for _, w := range churn {
			dir.UnregisterProvider(w.ProviderID())
		}
	}
	registerAll := func() {
		for _, w := range churn {
			dir.RegisterProvider(w)
		}
	}
	probe("directory.unregister_ns", "ns", len(churn), nil, unregisterAll, registerAll)
	probe("directory.register_ns", "ns", len(churn), unregisterAll, registerAll, nil)
	wi := 0
	probe("directory.candidates_after_write_ns", "ns", 1, func() {
		w := churn[wi%len(churn)]
		wi++
		dir.UnregisterProvider(w.ProviderID())
		dir.RegisterProvider(w)
	}, candidates, nil)

	// --- mediator and its stages -----------------------------------------
	allocator, err := pspec.Build(0)
	if err != nil {
		return nil, nil, err
	}
	reg := satisfaction.NewRegistry(100)
	med := mediator.New(allocator, mediator.Config{Window: 100, Registry: reg, Directory: dir})
	mediate := func() {
		_, err := med.Mediate(ctx, now(), nextQ())
		r.fail(err)
	}
	for i := 0; i < 2000; i++ {
		mediate()
	}
	probe("mediator.mediate_ns", "ns", 1, nil, mediate, nil)
	count("mediator.mediate_allocs", 1, mediate)

	// The stage probes replay one query's mediation by hand.
	q := nextQ()
	consumer := dir.Consumer(q.Consumer)
	cands = dir.Candidates(q, cands[:0])
	var snaps []model.ProviderSnapshot
	snapshots := func() {
		snaps = snaps[:0]
		t := now()
		for _, p := range cands {
			snaps = append(snaps, p.Snapshot(t))
		}
	}
	probe("mediator.snapshots_ns", "ns", 1, nil, snapshots, nil)

	sel := knbest.NewSelector(knbest.Params{K: pspec.K, Kn: pspec.Kn}, stats.NewRNG(seed))
	var kn []model.ProviderSnapshot
	var (
		ci, pi              []model.Intention
		ids                 []model.ProviderID
		satP, omega, scores []float64
		order               []int
		satC                float64
	)
	selectKn := func() {
		kn = sel.Select(snaps)
		if m := len(kn); m != len(ids) {
			ci, pi = make([]model.Intention, m), make([]model.Intention, m)
			ids, order = make([]model.ProviderID, m), make([]int, m)
			satP, omega, scores = make([]float64, m), make([]float64, m), make([]float64, m)
		}
	}
	probe("knbest.select_ns", "ns", 1, nil, selectKn, nil)
	count("knbest.select_allocs", 1, selectKn)

	fanout := func() {
		for i, s := range kn {
			ci[i] = consumer.Intention(q, s)
			pi[i] = dir.Provider(s.ID).Intention(q)
			ids[i] = s.ID
		}
	}
	probe("mediator.fanout_ns", "ns", 1, nil, fanout, nil)
	read := func() {
		satC = reg.ConsumerSatisfaction(q.Consumer)
		for i, id := range ids {
			satP[i] = reg.ProviderSatisfaction(id)
		}
	}
	probe("satisfaction.read_ns", "ns", 1, nil, read, nil)
	scorer := score.NewScorer()
	var ranker score.FlatRanker
	scoreRank := func() {
		scorer.ScoreInto(score.View{IDs: ids, PI: pi, CI: ci, SatC: satC, SatP: satP}, omega, scores)
		ranker.Rank(scores, ids, order)
	}
	probe("score.score_rank_ns", "ns", 1, nil, scoreRank, nil)
	// buildAllocation shapes the ranked set the way an allocator hands it to
	// the registry: kn proposed, the best one selected.
	buildAllocation := func() *model.Allocation {
		m := len(ids)
		a := &model.Allocation{Query: q,
			Proposed: make([]model.ProviderID, m), Selected: make([]model.ProviderID, 1),
			ConsumerIntentions: make([]model.Intention, m), ProviderIntentions: make([]model.Intention, m),
		}
		for rk, i := range order {
			a.Proposed[rk], a.ConsumerIntentions[rk], a.ProviderIntentions[rk] = ids[i], ci[i], pi[i]
		}
		a.Selected[0] = a.Proposed[0]
		return a
	}
	var scratch []model.Intention
	var fixedAlloc *model.Allocation
	if perr == nil {
		fixedAlloc = buildAllocation()
	}
	probe("satisfaction.record_ns", "ns", 1, nil, func() { scratch = reg.RecordAllocationInto(fixedAlloc, nil, scratch) }, nil)
	// The scan is what GET /v1/stats does: list every participant, read
	// each δs. It runs over the engine's registry, which holds the fleet.
	ereg := eng.Registry()
	var sink float64
	probe("satisfaction.scan_ms", "ms", 1, nil, func() {
		for _, id := range ereg.ConsumerIDs() {
			sink += ereg.ConsumerSatisfaction(id)
		}
		for _, id := range ereg.ProviderIDs() {
			sink += ereg.ProviderSatisfaction(id)
		}
	}, nil)
	if perr != nil {
		return nil, nil, perr
	}

	// --- persist ----------------------------------------------------------
	pdir := filepath.Join(spec.Dir, "persist-probe")
	if err := os.RemoveAll(pdir); err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(pdir)
	store, err := openStore(pdir)
	if err != nil {
		return nil, nil, err
	}
	rec := &persist.Record{Type: persist.RecordOutcome, Outcome: persist.OutcomeRecord{
		QueryID: 1, Consumer: q.Consumer, N: 1,
		Proposed: fixedAlloc.Proposed, CI: fixedAlloc.ConsumerIntentions, PI: fixedAlloc.ProviderIntentions,
		Selected: make([]bool, len(fixedAlloc.Proposed)),
	}}
	rec.Outcome.Selected[0] = true
	appended := 0
	// One call is one default sync-every period: 64 appends, one fsync.
	appendPeriod := func() {
		for i := 0; i < persist.DefaultSyncEvery; i++ {
			r.fail(store.Append(rec))
		}
		appended += persist.DefaultSyncEvery
	}
	probe("persist.append_ns", "ns", persist.DefaultSyncEvery, nil, appendPeriod, nil)
	count("persist.append_allocs", persist.DefaultSyncEvery, appendPeriod)
	r.fail(store.Sync())
	r.set("persist.bytes_per_record", "B", float64(dirBytes(pdir))/float64(max(appended, 1)))
	probe("persist.snapshot_ms", "ms", 1, nil, func() {
		seq, err := store.RotateForSnapshot()
		if err != nil {
			r.fail(err)
			return
		}
		cs, ps := persist.CaptureRegistry(ereg)
		r.fail(store.WriteSnapshot(&persist.Snapshot{FirstSegment: seq, Window: 100, Consumers: cs, Providers: ps}, false))
	}, nil)
	// Restore loads the fleet's snapshot and replays a 1,024-record tail.
	// Every restore opens a fresh segment, so each timed call starts from a
	// pristine copy of the directory.
	for i := 0; i < 1024/persist.DefaultSyncEvery; i++ {
		appendPeriod()
	}
	r.fail(store.Close())
	pristine, err := readDir(pdir)
	if err != nil {
		return nil, nil, err
	}
	probe("persist.restore_ms", "ms", 1, func() { r.fail(writeDir(pdir, pristine)) }, func() {
		s, err := openStore(pdir)
		if err != nil {
			r.fail(err)
			return
		}
		r.fail(s.Close())
	}, nil)
	if perr != nil {
		return nil, nil, perr
	}

	// --- shadow pipeline: one span per layer call, in order ---------------
	sstore, err := openStore(filepath.Join(pdir, "shadow"))
	if err != nil {
		return nil, nil, err
	}
	var spans []Span
	for i := 0; i < shadowTraces && r.err == nil; i++ {
		q = nextQ()
		consumer = dir.Consumer(q.Consumer)
		trace := "shadow-" + strconv.Itoa(i+1)
		mark := time.Since(epoch)
		stage := func(name string, fn func()) {
			fn()
			end := time.Since(epoch)
			spans = append(spans, Span{Trace: trace, Name: name, Start: int64(mark), End: int64(end)})
			mark = end
		}
		stage("decode", decode)
		if spec.QoS {
			stage("qos.Allow", allow)
		}
		if len(spec.Nodes) > 1 {
			stage("cluster.Owner", owner)
		}
		stage("directory.Candidates", func() { cands = dir.Candidates(q, cands[:0]) })
		stage("snapshots", snapshots)
		stage("knbest.Select", selectKn)
		stage("fan-out", fanout)
		stage("score+rank", func() { read(); scoreRank() })
		stage("satisfaction.Record", func() { scratch = reg.RecordAllocationInto(buildAllocation(), nil, scratch) })
		if spec.Durable {
			stage("persist.Append", func() { r.fail(sstore.Append(rec)) })
		}
		stage("encode", encode)
	}
	r.fail(sstore.Close())
	if r.err != nil {
		return nil, nil, fmt.Errorf("shadow pipeline: %w", r.err)
	}

	if err := r.calibrate(); err != nil {
		return nil, nil, err
	}
	stages := 0.0
	for _, name := range []string{"directory.candidates_ns", "mediator.snapshots_ns", "knbest.select_ns",
		"mediator.fanout_ns", "satisfaction.read_ns", "score.score_rank_ns", "satisfaction.record_ns"} {
		stages += r.out[name].Value
	}
	// Unattributed time is itself a finding: what Mediate spends outside the
	// stage calls an embedder could make itself (env adaptation, backfill,
	// building the allocation's own vectors, observer hooks).
	r.set("mediator.unattributed_share", "share", 1-stages/r.out["mediator.mediate_ns"].Value)
	_ = sink
	return r.out, spans, nil
}

// openStore opens a journal directory ready for appends.
func openStore(dir string) (*persist.Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s, err := persist.Open(dir)
	if err != nil {
		return nil, err
	}
	if _, err := s.Restore(satisfaction.NewRegistry(100)); err != nil {
		s.Abort()
		return nil, err
	}
	return s, nil
}

// dirBytes sums the sizes of the regular files directly in dir.
func dirBytes(dir string) (n int64) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	for _, e := range ents {
		if info, err := e.Info(); err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
	}
	return n
}

// readDir and writeDir snapshot and restore the regular files of dir.
func readDir(dir string) (map[string][]byte, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	files := map[string][]byte{}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		if files[e.Name()], err = os.ReadFile(filepath.Join(dir, e.Name())); err != nil {
			return nil, err
		}
	}
	return files, nil
}

func writeDir(dir string, files map[string][]byte) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for name, data := range files {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}
