// Benchmarks regenerating the paper's evaluation (one benchmark per demo
// scenario — the paper has no numbered tables; its evaluation section
// defines Scenarios 1-7) plus micro-benchmarks of the allocation hot path
// and ablation benches for the design choices called out in DESIGN.md.
//
// Scenario benches report the headline quantities of each scenario via
// b.ReportMetric (satisfaction, response time, departures), so
// `go test -bench=Scenario -benchmem` prints the paper's rows alongside the
// timing. Full-scale tables live in EXPERIMENTS.md and are regenerated with
// `go run ./cmd/sbqalab paper -scenario all`.
package sbqa

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"sbqa/internal/alloc"
	"sbqa/internal/core"
	"sbqa/internal/directory"
	"sbqa/internal/knbest"
	"sbqa/internal/lab"
	"sbqa/internal/live"
	"sbqa/internal/mediator"
	"sbqa/internal/model"
	"sbqa/internal/policy"
	"sbqa/internal/qos"
	"sbqa/internal/satisfaction"
	"sbqa/internal/score"
	"sbqa/internal/stats"
)

// benchOptions keeps scenario benches fast enough for -bench=. while
// preserving the dynamics (the full-scale numbers are in EXPERIMENTS.md).
func benchOptions() lab.Scenario { return lab.Volunteering(40, 400, 7) }

func benchScenario(b *testing.B, run func(lab.Scenario) (*lab.Study, error), metricsOf func(*lab.Study) map[string]float64) {
	b.Helper()
	var last *lab.Study
	for i := 0; i < b.N; i++ {
		r, err := run(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	if last != nil && metricsOf != nil {
		for name, v := range metricsOf(last) {
			b.ReportMetric(v, name)
		}
	}
}

func resultOf(r *lab.Study, technique string) metricsResult {
	for _, res := range r.Reports {
		if v := res.Volunteers; res.Scenario.Name == technique {
			return metricsResult{res.MeanResponse, v.ConsumerSat, v.ProviderSat, float64(v.ProvidersLeft)}
		}
	}
	return metricsResult{}
}

type metricsResult struct{ rt, satC, satP, left float64 }

// BenchmarkScenario1 — baselines under the satisfaction model (captive).
func BenchmarkScenario1(b *testing.B) {
	benchScenario(b, lab.Scenario1, func(r *lab.Study) map[string]float64 {
		cap := resultOf(r, "Capacity")
		eco := resultOf(r, "Economic")
		return map[string]float64{
			"cap_satP": cap.satP, "eco_satP": eco.satP,
			"cap_RT": cap.rt, "eco_RT": eco.rt,
		}
	})
}

// BenchmarkScenario2 — baselines under autonomy; departures.
func BenchmarkScenario2(b *testing.B) {
	benchScenario(b, lab.Scenario2, func(r *lab.Study) map[string]float64 {
		cap := resultOf(r, "Capacity")
		eco := resultOf(r, "Economic")
		return map[string]float64{"cap_left": cap.left, "eco_left": eco.left}
	})
}

// BenchmarkScenario3 — SbQA vs baselines (captive).
func BenchmarkScenario3(b *testing.B) {
	benchScenario(b, lab.Scenario3, func(r *lab.Study) map[string]float64 {
		cap := resultOf(r, "Capacity")
		sb := resultOf(r, "SbQA")
		return map[string]float64{
			"sbqa_RT": sb.rt, "cap_RT": cap.rt,
			"sbqa_satP": sb.satP, "cap_satP": cap.satP,
		}
	})
}

// BenchmarkScenario4 — SbQA vs baselines (autonomous): the headline.
func BenchmarkScenario4(b *testing.B) {
	benchScenario(b, lab.Scenario4, func(r *lab.Study) map[string]float64 {
		cap := resultOf(r, "Capacity")
		eco := resultOf(r, "Economic")
		sb := resultOf(r, "SbQA")
		return map[string]float64{
			"sbqa_left": sb.left, "cap_left": cap.left, "eco_left": eco.left,
			"sbqa_RT": sb.rt,
		}
	})
}

// BenchmarkScenario5 — performance-only intentions.
func BenchmarkScenario5(b *testing.B) {
	benchScenario(b, lab.Scenario5, func(r *lab.Study) map[string]float64 {
		def := resultOf(r, "SbQA/interests")
		perf := resultOf(r, "SbQA/perf-only")
		return map[string]float64{"interests_RT": def.rt, "perfonly_RT": perf.rt}
	})
}

// BenchmarkScenario6 — kn and ω sweeps.
func BenchmarkScenario6(b *testing.B) {
	benchScenario(b, lab.Scenario6, func(r *lab.Study) map[string]float64 {
		kn1 := resultOf(r, "SbQA(kn=1)")
		kn20 := resultOf(r, "SbQA(kn=20)")
		return map[string]float64{
			"kn1_RT": kn1.rt, "kn20_RT": kn20.rt,
			"kn1_satP": kn1.satP, "kn20_satP": kn20.satP,
		}
	})
}

// BenchmarkScenario7 — probe participants.
func BenchmarkScenario7(b *testing.B) {
	benchScenario(b, lab.Scenario7, func(r *lab.Study) map[string]float64 {
		sb := resultOf(r, "SbQA")
		cap := resultOf(r, "Capacity")
		return map[string]float64{"sbqa_satP": sb.satP, "cap_satP": cap.satP}
	})
}

// ---------------------------------------------------------------------------
// Micro-benchmarks: the allocation hot path
// ---------------------------------------------------------------------------

// BenchmarkScoreDefinition3 measures one score evaluation.
func BenchmarkScoreDefinition3(b *testing.B) {
	s := score.NewScorer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = s.Score(0.7, 0.3, 0.5)
		_ = s.Score(-0.7, 0.3, 0.5)
	}
}

// BenchmarkRank measures ranking a kn=10 candidate set: "literal" scores it
// with ScoreInto over flat columns, then sorts with FlatRanker; "key" is the
// way core.SbQA ranks, score.Ranker's log-domain keys.
func BenchmarkRank(b *testing.B) {
	const kn = 10
	s := score.NewScorer()
	v := score.View{
		IDs:  make([]model.ProviderID, kn),
		PI:   make([]model.Intention, kn),
		CI:   make([]model.Intention, kn),
		SatC: 0.6,
		SatP: make([]float64, kn),
	}
	for i := range kn {
		v.IDs[i] = model.ProviderID(i)
		v.PI[i] = model.Intention(float64(i%7)/7 - 0.3)
		v.CI[i] = model.Intention(float64(i%5) / 5)
		v.SatP[i] = float64(i) / 10
	}
	omega, scores, order := make([]float64, kn), make([]float64, kn), make([]int, kn)
	b.Run("literal", func(b *testing.B) {
		var r score.FlatRanker
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s.ScoreInto(v, omega, scores)
			r.Rank(scores, v.IDs, order)
		}
	})
	b.Run("key", func(b *testing.B) {
		var r score.Ranker
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r.Rank(s, v, omega, order)
		}
	})
}

// BenchmarkKnBestSelect measures the two-stage selection over 1000
// candidates.
func BenchmarkKnBestSelect(b *testing.B) {
	rng := stats.NewRNG(1)
	cands := make([]model.ProviderSnapshot, 1000)
	for i := range cands {
		cands[i] = model.ProviderSnapshot{ID: model.ProviderID(i), Utilization: rng.Float64()}
	}
	sel := knbest.NewSelector(knbest.Params{K: 20, Kn: 10}, stats.NewRNG(2))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = sel.Select(cands)
	}
}

// --- intention fan-out (the v2 batched protocol's hot path) ---

// fanoutProvider is a minimal in-process provider for fan-out benches.
type fanoutProvider struct {
	id model.ProviderID
}

func (p *fanoutProvider) ProviderID() model.ProviderID { return p.id }
func (p *fanoutProvider) Snapshot(float64) model.ProviderSnapshot {
	return model.ProviderSnapshot{ID: p.id, Utilization: float64(p.id%10) / 10, Capacity: 1}
}
func (p *fanoutProvider) Intention(model.Query) model.Intention { return 0.4 }
func (p *fanoutProvider) Bid(q model.Query) float64             { return q.Work }

// fanoutParticipant additionally answers the context-aware protocol
// (instantly), so the bench isolates the fan-out's goroutine overhead.
type fanoutParticipant struct{ fanoutProvider }

func (p *fanoutParticipant) IntentionContext(context.Context, model.Query) (model.Intention, error) {
	return 0.4, nil
}

type fanoutConsumer struct{}

func (fanoutConsumer) ConsumerID() model.ConsumerID { return 0 }
func (fanoutConsumer) Intention(_ model.Query, snap model.ProviderSnapshot) model.Intention {
	return model.Intention(0.5 - snap.Utilization)
}

// newFanoutMediator builds a mediator with n registered providers.
func newFanoutMediator(b *testing.B, n int, participants bool) *mediator.Mediator {
	b.Helper()
	med := mediator.New(core.MustNew(core.Config{Seed: 1}), mediator.Config{Window: 100})
	med.RegisterConsumer(fanoutConsumer{})
	for i := 0; i < n; i++ {
		if participants {
			med.RegisterProvider(&fanoutParticipant{fanoutProvider{id: model.ProviderID(i)}})
		} else {
			med.RegisterProvider(&fanoutProvider{id: model.ProviderID(i)})
		}
	}
	return med
}

// BenchmarkIntentionFanoutInProcess measures one full mediation (KnBest +
// batched SQLB collection) over 200 in-process providers — the inline
// collection path, byte-identical to the v1 pipeline.
func BenchmarkIntentionFanoutInProcess(b *testing.B) {
	med := newFanoutMediator(b, 200, false)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := med.Mediate(ctx, float64(i), model.Query{Consumer: 0, N: 1, Work: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIntentionFanoutParticipants measures the same mediation when
// every contacted provider is a context-aware participant answering
// instantly — the concurrent fan-out's pure dispatch overhead (one
// goroutine per Kn member per mediation).
func BenchmarkIntentionFanoutParticipants(b *testing.B) {
	med := newFanoutMediator(b, 200, true)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := med.Mediate(ctx, float64(i), model.Query{Consumer: 0, N: 1, Work: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSatisfactionUpdate measures one provider-window update plus
// satisfaction read.
func BenchmarkSatisfactionUpdate(b *testing.B) {
	tr := satisfaction.NewProvider(100)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Record(model.Intention(float64(i%3)-1), i%5 == 0)
		_ = tr.Satisfaction()
	}
}

// BenchmarkMediateSbQA measures one full SbQA mediation over 200 candidates.
func BenchmarkMediateSbQA(b *testing.B) {
	benchmarkMediate(b, core.MustNew(core.Config{Seed: 1}))
}

// BenchmarkMediateCapacity measures one capacity-based mediation over 200
// candidates.
func BenchmarkMediateCapacity(b *testing.B) {
	benchmarkMediate(b, alloc.NewCapacity())
}

// BenchmarkMediateEconomic measures one economic mediation over 200
// candidates.
func BenchmarkMediateEconomic(b *testing.B) {
	benchmarkMediate(b, alloc.NewEconomic(stats.NewRNG(3)))
}

func benchmarkMediate(b *testing.B, a alloc.Allocator) {
	b.Helper()
	env := alloc.NewStaticEnv()
	rng := stats.NewRNG(9)
	cands := make([]model.ProviderSnapshot, 200)
	for i := range cands {
		cands[i] = model.ProviderSnapshot{
			ID: model.ProviderID(i), Utilization: rng.Float64(), Capacity: 1,
		}
		env.SetCI(0, model.ProviderID(i), model.Intention(rng.Float64()))
		env.SetPI(model.ProviderID(i), 0, model.Intention(rng.Float64()*2-1))
	}
	q := model.Query{ID: 1, Consumer: 0, N: 2, Work: 10}
	b.ReportAllocs()
	b.ResetTimer()
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		_, _ = a.Allocate(ctx, env, q, alloc.Snapshots(cands))
	}
}

// BenchmarkWorldThroughput measures end-to-end simulated mediations per
// wall-clock second (100 volunteers, captive, SbQA, on the real engine).
func BenchmarkWorldThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sc := lab.Volunteering(100, 200, 7)
		sc.SampleEvery = 20
		sc.Policy.Seed = 1
		r, err := lab.Run(sc)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.Issued), "queries/run")
	}
}

// ---------------------------------------------------------------------------
// Ablation benches (design choices from DESIGN.md)
// ---------------------------------------------------------------------------

// runAblation runs an autonomous volunteer world under spec (seeded 7) and
// reports satisfaction/departures.
func runAblation(b *testing.B, spec policy.Spec, mutate func(*lab.VolunteerSpec)) {
	b.Helper()
	spec.Seed = 7
	for i := 0; i < b.N; i++ {
		sc := lab.Volunteering(60, 600, 7)
		sc.SampleEvery = 20
		sc.Policy = spec
		sc.Workload.Volunteers.Autonomous = true
		if mutate != nil {
			mutate(sc.Workload.Volunteers)
		}
		r, err := lab.Run(sc)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Volunteers.ProviderSat, "satP")
		b.ReportMetric(r.Volunteers.ConsumerSat, "satC")
		b.ReportMetric(float64(r.Volunteers.ProvidersLeft), "left")
		b.ReportMetric(r.MeanResponse, "RT")
	}
}

// BenchmarkAblationAdaptiveOmega: the satisfaction-adaptive ω (the paper's
// Equation 2) …
func BenchmarkAblationAdaptiveOmega(b *testing.B) {
	runAblation(b, policy.Spec{Kind: policy.SbQA}, nil)
}

// BenchmarkAblationFixedOmega: … versus a fixed 0.5 balance.
func BenchmarkAblationFixedOmega(b *testing.B) {
	runAblation(b, policy.Spec{Kind: policy.SbQA, OmegaMode: policy.OmegaFixed, Omega: 0.5}, nil)
}

// BenchmarkAblationNoStage2: KnBest without the utilization filter
// (kn = k): pure interest matching.
func BenchmarkAblationNoStage2(b *testing.B) {
	runAblation(b, policy.Spec{Kind: policy.SbQA, K: 20, Kn: 20}, nil)
}

// BenchmarkAblationReplication1: no result replication (q.n = 1).
func BenchmarkAblationReplication1(b *testing.B) {
	runAblation(b, policy.Spec{Kind: policy.SbQA}, func(v *lab.VolunteerSpec) {
		v.Projects = lab.DefaultProjects()
		for i := range v.Projects {
			v.Projects[i].Replication = 1
		}
	})
}

// BenchmarkAblationEpsilonSmall: ε = 0.01 sharpens the negative branch.
func BenchmarkAblationEpsilonSmall(b *testing.B) {
	runAblation(b, policy.Spec{Kind: policy.SbQA, Epsilon: 0.01}, nil)
}

// BenchmarkMotivatingExample — the §IV resource-share rigidity story.
func BenchmarkMotivatingExample(b *testing.B) {
	benchScenario(b, lab.MotivatingExample, func(r *lab.Study) map[string]float64 {
		share := resultOf(r, "ShareBased(80/20)")
		sb := resultOf(r, "SbQA")
		return map[string]float64{"share_RT": share.rt, "sbqa_RT": sb.rt}
	})
}

// BenchmarkMaliciousStudy — validation with 20% malicious volunteers.
func BenchmarkMaliciousStudy(b *testing.B) {
	benchScenario(b, lab.MaliciousStudy, func(r *lab.Study) map[string]float64 {
		rep := resultOf(r, "SbQA/reputation")
		cap := resultOf(r, "Capacity")
		return map[string]float64{"rep_satC": rep.satC, "cap_satC": cap.satC}
	})
}

// BenchmarkReplicationStudy — fixed vs adaptive replication.
func BenchmarkReplicationStudy(b *testing.B) {
	benchScenario(b, lab.ReplicationStudy, func(r *lab.Study) map[string]float64 {
		ada := resultOf(r, "adaptive")
		return map[string]float64{"adaptive_RT": ada.rt}
	})
}

// ---------------------------------------------------------------------------
// Live engine benchmarks: sharded mediation throughput
// ---------------------------------------------------------------------------

// benchEngine builds a sharded engine over constant-snapshot providers (not
// dispatchable — pure submission and mediation throughput) with one consumer
// per submitting goroutine; it closes with the benchmark.
func benchEngine(b *testing.B, shards, providers, consumers int) *Engine {
	b.Helper()
	eng, err := NewEngine(
		WithWindow(100),
		WithConcurrency(shards),
		WithPolicy(PolicySpec{Kind: PolicySbQA, Seed: 1}), // shard i: KnBest(20,10), seed 1+i
	)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(eng.Close)
	for i := 0; i < providers; i++ {
		eng.RegisterProvider(providerStub{id: ProviderID(i), pi: Intention(float64(i%9)/9 - 0.3)})
	}
	for c := 0; c < consumers; c++ {
		c := c
		eng.RegisterConsumer(LiveFuncConsumer{ID: ConsumerID(c), Fn: func(q Query, snap ProviderSnapshot) Intention {
			return Intention(float64((int(snap.ID)+c)%7)/7 - 0.2)
		}})
	}
	return eng
}

// benchmarkEngineParallel measures the ticket path sbqad runs for a
// wait:"allocation" query — SubmitWait, then Allocation — under
// b.RunParallel: every goroutine drives its own consumer, mediating on its
// own goroutine when the consumer's shard is idle and queueing behind it
// otherwise. Compare BenchmarkLiveEngineParallel with
// BenchmarkLiveEngineSingleShard at -cpu 1,2 for what sharding buys
// (EXPERIMENTS.md records both); the bench CI's ticket-path allocation
// ceiling watches this one.
func benchmarkEngineParallel(b *testing.B, eng *Engine) {
	var nextConsumer atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		c := ConsumerID(nextConsumer.Add(1) - 1)
		q := Query{Consumer: c, N: 2, Work: 10}
		for pb.Next() {
			if _, err := eng.SubmitWait(context.Background(), q).Allocation(); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkLiveEngineParallel — one mediator shard per CPU.
func BenchmarkLiveEngineParallel(b *testing.B) {
	maxProcs := runtime.GOMAXPROCS(0)
	benchmarkEngineParallel(b, benchEngine(b, maxProcs, 200, maxProcs*4))
}

// BenchmarkLiveEngineSingleShard — the serialized baseline under identical
// parallel load: every submission funnels through one shard queue.
func BenchmarkLiveEngineSingleShard(b *testing.B) {
	benchmarkEngineParallel(b, benchEngine(b, 1, 200, runtime.GOMAXPROCS(0)*4))
}

// BenchmarkMediateEndToEnd measures the complete mediation step every ticket
// runs under its shard lock, entered through Engine.Mediate: ID and clock
// stamp → policy adoption → class view → KnBest (k draws, k snapshots) →
// batched intention collection → SQLB scoring → satisfaction recording, on a
// single shard with 200 in-process providers (queueing and hand-off are
// BenchmarkLiveEngineParallel's). This is the benchmark the allocs/op gate in
// CI watches (see .github/workflows/ci.yml): run with -benchmem; the gate
// fails when allocs/op regresses against the committed BENCH_core.json
// baseline.
func BenchmarkMediateEndToEnd(b *testing.B) { benchmarkMediateEndToEnd(b, 200) }

// BenchmarkMediateWide is BenchmarkMediateEndToEnd across widths of P_q: the
// mediation draws its k = 20 positions before it snapshots anyone, so its
// work is O(k), at the same 4 allocs/op at every width. ns/op still grows
// with width because the trackers the kn proposals read and write are spread
// over more memory: medians of six runs read 13, 14 and 22 µs at 200, 2,000
// and 20,000 on a 2 vCPU Xeon @ 2.10GHz, 1.7× end to end. Both are under the
// exact allocation gate in CI.
func BenchmarkMediateWide(b *testing.B) {
	for _, providers := range []int{200, 2000, 20000} {
		b.Run(fmt.Sprint(providers), func(b *testing.B) { benchmarkMediateEndToEnd(b, providers) })
	}
}

func benchmarkMediateEndToEnd(b *testing.B, providers int) {
	const consumers = 4
	eng := benchEngine(b, 1, providers, consumers)
	// A satisfaction tracker is created on its participant's first
	// interaction and reads δs over an empty window until it has one; fill
	// every window up front so a wide class measures the steady state rather
	// than thousands of first touches and cold reads.
	window := eng.Registry().Window()
	for i := 0; i < providers; i++ {
		t := eng.Registry().Provider(ProviderID(i))
		for j := 0; j < window; j++ {
			t.Record(Intention(float64((i+j)%9)/9-0.3), j%3 == 0)
		}
	}
	for c := 0; c < consumers; c++ {
		t := eng.Registry().Consumer(ConsumerID(c))
		for j := 0; j < window; j++ {
			t.Record(float64(j%5)/4, 1, 0.5)
		}
	}
	q := Query{Consumer: 0, N: 2, Work: 10}
	ctx := context.Background()
	if _, err := eng.Mediate(ctx, q); err != nil { // builds the class view
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Mediate(ctx, q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSubmitUnderOverload measures the submit path the way a flash
// crowd exercises it: one shard, GOMAXPROCS×4 submitters rotating through
// the three built-in QoS classes, with the batch and background queues
// bounded shallow enough that the class scheduler sheds under the offered
// load. Shed submissions are the point — they exercise admission, the
// typed *ShedError, and the shed event alongside successful mediations, so
// this bench gates the overload path's latency, not just the happy path.
// Its allocs/op depends on the shed/allocate mix, so it is excluded from
// the exact allocation gate (see .github/workflows/ci.yml).
func BenchmarkSubmitUnderOverload(b *testing.B) {
	const providers = 200
	eng, err := NewEngine(
		WithWindow(100),
		WithConcurrency(1),
		WithPolicy(PolicySpec{Kind: PolicySbQA, Seed: 1, QoS: &QoSSpec{
			Classes: []qos.ClassSpec{
				{Name: qos.Interactive, Weight: 8, Priority: true},
				{Name: qos.Batch, Weight: 2, MaxQueueDepth: 3},
				{Name: qos.Background, Weight: 1, MaxQueueDepth: 2},
			},
			DefaultClass: qos.Interactive,
		}}),
	)
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	for i := 0; i < providers; i++ {
		eng.RegisterProvider(providerStub{id: ProviderID(i), pi: Intention(float64(i%9)/9 - 0.3)})
	}
	maxProcs := runtime.GOMAXPROCS(0)
	consumers := maxProcs * 4
	for c := 0; c < consumers; c++ {
		c := c
		eng.RegisterConsumer(LiveFuncConsumer{ID: ConsumerID(c), Fn: func(q Query, snap ProviderSnapshot) Intention {
			return Intention(float64((int(snap.ID)+c)%7)/7 - 0.2)
		}})
	}
	// Each op is a burst: every goroutine floods the shard with burstSize
	// tickets across the three classes before awaiting any of them, so the
	// bounded queues overflow within the burst and the scheduler sheds.
	const burstSize = 12
	classes := []string{qos.Interactive, qos.Batch, qos.Background}
	var allocated, shed atomic.Int64
	var nextConsumer atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		c := ConsumerID(nextConsumer.Add(1) - 1)
		q := Query{Consumer: c, N: 2, Work: 10}
		tickets := make([]*Ticket, 0, burstSize)
		i := 0
		for pb.Next() {
			tickets = tickets[:0]
			for j := 0; j < burstSize; j++ {
				tickets = append(tickets, eng.Submit(context.Background(), q, WithQoSClass(classes[i%len(classes)])))
				i++
			}
			for _, tk := range tickets {
				if _, err := tk.Allocation(); err != nil {
					if !errors.Is(err, live.ErrShed) {
						b.Error(err)
						return
					}
					shed.Add(1)
					continue
				}
				allocated.Add(1)
			}
		}
	})
	b.StopTimer()
	total := allocated.Load() + shed.Load()
	if total > 0 {
		b.ReportMetric(float64(burstSize), "queries/op")
		b.ReportMetric(float64(shed.Load())/float64(total), "shed-frac")
	}
}

// BenchmarkDirectoryCandidates measures indexed candidate discovery with a
// 10%-specialist population: class-restricted discovery touches only the
// class bucket plus the universal pool.
func BenchmarkDirectoryCandidates(b *testing.B) {
	dir := directory.New()
	const providers = 1000
	for i := 0; i < providers; i++ {
		w, err := NewLiveWorker(ProviderID(i), 100, 1, func(Query) Intention { return 0 })
		if err != nil {
			b.Fatal(err)
		}
		defer w.Close()
		if i%10 == 0 {
			w.SetClasses(1, 2)
		}
		dir.RegisterProvider(w)
	}
	q := Query{Consumer: 0, N: 1, Work: 1, Class: 3}
	var buf []Provider
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = dir.Candidates(q, buf[:0])
	}
	if len(buf) != providers-providers/10 {
		b.Fatalf("candidates = %d", len(buf))
	}
}
