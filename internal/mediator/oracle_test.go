package mediator_test

// The paper as an oracle. Everything else in this tree that checks a
// mediation compares optimised code with other optimised code; this file
// writes Definitions 1-3, Equation 2, KnBest and the min(q.n, kn) rule of
// Quiané-Ruiz, Lamarre and Valduriez (ICDE 2009) down once more, as plainly
// as the paper states them — maps, structs, whole histories kept and
// re-summed on every read, O(|P_q|) per query — and FuzzMediateMatchesOracle
// drives it and Mediator.Mediate (core.SbQA behind it) over the same random
// worlds, query by query.
//
// Where the paper leaves something open, or the code departs from it, the
// oracle encodes what the code does and says so in a comment marked
// "paper-vs-code"; DESIGN.md §14 lists them.

import (
	"context"
	"errors"
	"math"
	"sort"
	"testing"

	"sbqa/internal/core"
	"sbqa/internal/knbest"
	"sbqa/internal/mediator"
	"sbqa/internal/model"
	"sbqa/internal/stats"
)

// oracleProvider is one provider as the mediator sees it.
type oracleProvider struct {
	id          model.ProviderID
	classes     map[int]bool // nil: able to perform every class; empty: none
	utilization float64
	queueLen    int
}

// proposal is one entry of a provider's memory: a query the mediator
// proposed to it, the intention it expressed, whether it got the query.
type proposal struct {
	unitIntention float64 // (PPI_p[q]+1)/2
	performed     bool
}

// oracle is the world and the paper's mediator over it.
type oracle struct {
	k, kn      int      // KnBest parameters
	window     int      // the k of "k last interactions"
	fixedOmega *float64 // nil: Equation 2
	epsilon    float64  // ε of Definition 3
	rng        *stats.RNG

	providers map[model.ProviderID]*oracleProvider
	ci        map[model.ConsumerID]map[model.ProviderID]model.Intention // CI_q[p], by q.c
	pi        map[model.ProviderID]map[model.ConsumerID]model.Intention // PI_q[p], by q.c

	// Every interaction ever, oldest first; the definitions read the last
	// `window` of them.
	queries   map[model.ConsumerID][]float64  // δs(c,q) per issued query
	proposals map[model.ProviderID][]proposal // per proposed query
}

// lastK returns the k most recent entries of a history.
func lastK[T any](history []T, k int) []T {
	if len(history) > k {
		return history[len(history)-k:]
	}
	return history
}

// consumerSatisfaction is Definition 1: δs(c) is the mean of δs(c,q) over
// the k last queries c issued.
func (o *oracle) consumerSatisfaction(c model.ConsumerID) float64 {
	iq := lastK(o.queries[c], o.window)
	if len(iq) == 0 {
		// paper-vs-code: Definition 1 divides by ||IQ_c^k|| and is undefined
		// before the first query; the code answers 0.5 (neither satisfied
		// nor dissatisfied) so Equation 2 starts balanced.
		return 0.5
	}
	sum := 0.0
	for _, s := range iq {
		sum += s
	}
	return sum / float64(len(iq))
}

// providerSatisfaction is Definition 2: over the k last queries proposed to
// p, the mean of (PPI_p[q]+1)/2 over those it performed (SQ_p^k), 0 if it
// performed none.
func (o *oracle) providerSatisfaction(p model.ProviderID) float64 {
	pq := lastK(o.proposals[p], o.window)
	if len(pq) == 0 {
		// paper-vs-code: Definition 2's "0 if SQ = ∅" would call a provider
		// nobody has proposed anything to yet maximally dissatisfied; the
		// code answers 0.5 until the first proposal, 0 only once proposals
		// exist and none was performed.
		return 0.5
	}
	sum, performed := 0.0, 0
	for _, e := range pq {
		if e.performed {
			sum += e.unitIntention
			performed++
		}
	}
	if performed == 0 {
		return 0
	}
	return sum / float64(performed)
}

// omega is Equation 2: ω = ((δs(c) − δs(p)) + 1) / 2, unless the
// application fixed it (Scenario 6).
func (o *oracle) omega(satC, satP float64) float64 {
	if o.fixedOmega != nil {
		return *o.fixedOmega
	}
	return ((satC - satP) + 1) / 2
}

// score is Definition 3.
func (o *oracle) score(pi, ci model.Intention, omega float64) float64 {
	p, c := float64(pi), float64(ci)
	if p > 0 && c > 0 {
		return math.Pow(p, omega) * math.Pow(c, 1-omega)
	}
	return -(math.Pow(1-p+o.epsilon, omega) * math.Pow(1-c+o.epsilon, 1-omega))
}

// ranked is one provider of Kn after scoring.
type ranked struct {
	id          model.ProviderID
	ci, pi      model.Intention
	satP        float64
	omega       float64
	score       float64
	utilization float64 // stage-2 keys, kept for the failure message
	queueLen    int
	isSelected  bool
}

// outcome is one mediation as the paper describes it.
type outcome struct {
	satC     float64
	kn       []ranked // →R: best first
	selected []model.ProviderID
	unserved bool // P_q = ∅
}

// mediate allocates q: KnBest, then SQLB over Kn, then the min(q.n, kn)
// best — and afterwards everyone remembers what happened.
func (o *oracle) mediate(q model.Query) outcome {
	// P_q — the providers able to perform q's class — in ascending ID order
	// so that positions mean the same on both sides of the comparison.
	var pq []*oracleProvider
	for _, p := range o.providers {
		if p.classes == nil || p.classes[q.Class] {
			pq = append(pq, p)
		}
	}
	sort.Slice(pq, func(i, j int) bool { return pq[i].id < pq[j].id })

	// KnBest stage 1: K, k providers of P_q at random.
	//
	// paper-vs-code: the paper says only "selects k providers at random".
	// The code draws k positions of P_q with the mediator's stream, so the
	// oracle draws on the same stream. k < 1 or k > |P_q| means all of it.
	var K []*oracleProvider
	if len(pq) > 0 {
		k := o.k
		if k < 1 || k > len(pq) {
			k = len(pq)
		}
		for _, i := range o.rng.SampleK(len(pq), k, nil) {
			K = append(K, pq[i])
		}
	}
	if len(K) == 0 {
		// Nobody can perform q. Equation 1 with P̂q = ∅: δs(c,q) = 0.
		o.queries[q.Consumer] = append(o.queries[q.Consumer], 0)
		return outcome{unserved: true}
	}

	// KnBest stage 2: Kn, the kn least utilized of K.
	//
	// paper-vs-code: the paper does not order equally utilized providers;
	// the code breaks ties by shorter queue, then lower ID. kn < 1 or
	// kn > |K| keeps all of K.
	sort.Slice(K, func(i, j int) bool {
		a, b := K[i], K[j]
		if a.utilization != b.utilization {
			return a.utilization < b.utilization
		}
		if a.queueLen != b.queueLen {
			return a.queueLen < b.queueLen
		}
		return a.id < b.id
	})
	kn := o.kn
	if kn < 1 || kn > len(K) {
		kn = len(K)
	}
	Kn := K[:kn]

	// SQLB: ask c its intention toward every p ∈ Kn and every p ∈ Kn its
	// intention to perform q, score each by Definition 3 under Equation 2's
	// ω, rank best first.
	//
	// paper-vs-code: equal scores rank by lower provider ID.
	satC := o.consumerSatisfaction(q.Consumer)
	R := make([]ranked, len(Kn))
	for i, p := range Kn {
		r := ranked{
			id: p.id, ci: o.ci[q.Consumer][p.id], pi: o.pi[p.id][q.Consumer],
			satP: o.providerSatisfaction(p.id), utilization: p.utilization, queueLen: p.queueLen,
		}
		r.omega = o.omega(satC, r.satP)
		r.score = o.score(r.pi, r.ci, r.omega)
		R[i] = r
	}
	sort.Slice(R, func(i, j int) bool {
		if R[i].score != R[j].score {
			return R[i].score > R[j].score
		}
		return R[i].id < R[j].id
	})

	// Allocate q to the min(q.n, kn) best-ranked providers.
	n := q.N
	if n > len(R) {
		n = len(R)
	}
	out := outcome{satC: satC, kn: R}
	for i := range R[:n] {
		R[i].isSelected = true
		out.selected = append(out.selected, R[i].id)
	}

	// The mediation result goes to c and to all of Kn; everyone remembers.
	// Equation 1: δs(c,q) = (1/q.n) Σ_{p ∈ P̂q} (CI_q[p]+1)/2 — with fewer
	// than q.n performers the missing results count for nothing.
	sum := 0.0
	for _, r := range R {
		if r.isSelected {
			sum += (float64(r.ci) + 1) / 2
		}
		o.proposals[r.id] = append(o.proposals[r.id], proposal{(float64(r.pi) + 1) / 2, r.isSelected})
	}
	o.queries[q.Consumer] = append(o.queries[q.Consumer], sum/float64(q.N))
	return out
}

// depart removes a provider and what it remembered: a participant that
// leaves and comes back starts from a clean window.
func (o *oracle) depart(id model.ProviderID) {
	delete(o.providers, id)
	delete(o.proposals, id)
}

// ---------------------------------------------------------------------------
// The production side: participants that answer from the oracle's tables.
// ---------------------------------------------------------------------------

type tableConsumer struct {
	id model.ConsumerID
	o  *oracle
}

func (c tableConsumer) ConsumerID() model.ConsumerID { return c.id }
func (c tableConsumer) Intention(q model.Query, snap model.ProviderSnapshot) model.Intention {
	return c.o.ci[q.Consumer][snap.ID]
}

type tableProvider struct {
	p *oracleProvider
	o *oracle
}

func (t tableProvider) ProviderID() model.ProviderID { return t.p.id }
func (t tableProvider) Snapshot(float64) model.ProviderSnapshot {
	return model.ProviderSnapshot{ID: t.p.id, Utilization: t.p.utilization, QueueLen: t.p.queueLen, Capacity: 1}
}
func (t tableProvider) Intention(q model.Query) model.Intention {
	return t.o.pi[t.p.id][q.Consumer]
}
func (t tableProvider) Bid(q model.Query) float64 { return q.Work }
func (t tableProvider) Capabilities() []int {
	if t.p.classes != nil && len(t.p.classes) == 0 {
		return []int{oracleClasses} // able to perform nothing: a class no query has
	}
	var classes []int
	for c := range t.p.classes {
		classes = append(classes, c)
	}
	sort.Ints(classes)
	return classes
}

// ---------------------------------------------------------------------------
// The differential fuzz.
// ---------------------------------------------------------------------------

const oracleTolerance = 1e-12

// oracleClasses is how many query classes a fuzzed world has.
const oracleClasses = 3

// grid draws a value of [-1, 1] on a 1/32 grid: the ends and zero (the
// branch points of Definition 3) come up, and exact ties are common, so both
// sides' tie-breaks are exercised. The grid is also what makes a tie mean the
// same on both sides: sums of the (x+1)/2 of such values are exact in
// floating point whatever their order — and so are sums of Equation 1's
// δs(c,q) while q.n is a power of two — so a window summed the tracker's
// way (a head in slot order plus a tail frozen at the last wrap) and one
// summed oldest-first agree to the last bit. With free-form values
// they differ in the last place, ω with them, and two providers whose scores
// are mathematically equal then rank by ID on one side and by rounding on
// the other.
func grid(r *stats.RNG) model.Intention { return model.Intention(float64(r.Intn(65)-32) / 32) }

// FuzzMediateMatchesOracle: a random world — directory, capability classes
// (some providers able to perform none), intention tables, utilizations,
// KnBest parameters, window, ω rule, ε — and a history of at least 50
// queries with providers leaving and rejoining, mediated by the oracle and
// by Mediator.Mediate on the same sampling stream. After every query both must have selected the same
// providers from the same ranked Kn and, for the sampled half of the queries
// (whose explain record carries them), with δs(c), every δs(p), every ω and
// every score within 1e-12; afterwards every participant's satisfaction must
// agree again.
func FuzzMediateMatchesOracle(f *testing.F) {
	// seed, providers, consumers, k, kn, window, omegaRule, maxN (q.n ≤ 2^(maxN%4)), queries
	f.Add(uint64(1), uint8(12), uint8(3), uint8(6), uint8(3), uint8(10), uint8(0), uint8(1), uint8(60))
	f.Add(uint64(2), uint8(20), uint8(2), uint8(8), uint8(4), uint8(25), uint8(1), uint8(0), uint8(50))     // fixed ω = 0
	f.Add(uint64(3), uint8(20), uint8(2), uint8(8), uint8(4), uint8(25), uint8(2), uint8(0), uint8(50))     // fixed ω = 1
	f.Add(uint64(4), uint8(5), uint8(2), uint8(30), uint8(30), uint8(10), uint8(0), uint8(2), uint8(50))    // kn ≥ |P_q|
	f.Add(uint64(5), uint8(16), uint8(4), uint8(6), uint8(2), uint8(10), uint8(0), uint8(3), uint8(50))     // q.n up to 8 > kn = 2
	f.Add(uint64(6), uint8(9), uint8(3), uint8(4), uint8(2), uint8(8), uint8(4), uint8(1), uint8(70))       // a class nobody performs
	f.Add(uint64(7), uint8(10), uint8(2), uint8(5), uint8(3), uint8(0), uint8(0), uint8(1), uint8(80))      // window of 1
	f.Add(uint64(8), uint8(40), uint8(6), uint8(0), uint8(5), uint8(100), uint8(3), uint8(2), uint8(120))   // no sampling, a fixed ω in between
	f.Add(uint64(9), uint8(0), uint8(0), uint8(1), uint8(1), uint8(3), uint8(0), uint8(0), uint8(50))       // one provider, one consumer
	f.Add(uint64(10), uint8(29), uint8(4), uint8(20), uint8(10), uint8(99), uint8(0), uint8(2), uint8(200)) // the demo defaults

	f.Fuzz(func(t *testing.T, seed uint64, nProviders, nConsumers, k, kn, window, omegaRule, maxN, nQueries uint8) {
		providers := int(nProviders)%48 + 1
		consumers := int(nConsumers)%8 + 1
		queries := int(nQueries)%200 + 50
		params := knbest.Params{K: int(k) % 64, Kn: int(kn) % 64}
		if params.Validate() != nil {
			params.Kn = params.K // kn ≤ k is the one constraint KnBest has
		}
		world := stats.NewRNG(seed) // builds the world and its history; not the sampling stream

		o := &oracle{
			k: params.K, kn: params.Kn,
			window:    int(window)%128 + 1,
			epsilon:   []float64{1, 1, 0.25, 2}[world.Intn(4)],
			rng:       stats.NewRNG(seed ^ 0x5bd1e995),
			providers: map[model.ProviderID]*oracleProvider{},
			ci:        map[model.ConsumerID]map[model.ProviderID]model.Intention{},
			pi:        map[model.ProviderID]map[model.ConsumerID]model.Intention{},
			queries:   map[model.ConsumerID][]float64{},
			proposals: map[model.ProviderID][]proposal{},
		}
		cfg := core.Config{KnBest: params, Epsilon: o.epsilon, Seed: seed ^ 0x5bd1e995}
		if params == (knbest.Params{}) {
			// The zero Params mean "the demo defaults" to core.New.
			def := knbest.DefaultParams()
			o.k, o.kn = def.K, def.Kn
		}
		switch omegaRule % 5 {
		case 1:
			cfg.Omega = core.FixedOmega(0)
		case 2:
			cfg.Omega = core.FixedOmega(1)
		case 3:
			cfg.Omega = core.FixedOmega(float64(world.Intn(33)) / 32)
		}
		o.fixedOmega = cfg.Omega
		refusedClass := -1
		if omegaRule%5 == 4 {
			refusedClass = world.Intn(oracleClasses) // no provider performs this class
		}

		med := mediator.New(core.MustNew(cfg), mediator.Config{Window: o.window})
		for c := 0; c < consumers; c++ {
			id := model.ConsumerID(c)
			o.ci[id] = map[model.ProviderID]model.Intention{}
			med.RegisterConsumer(tableConsumer{id: id, o: o})
		}
		all := make([]*oracleProvider, providers)
		for i := range all {
			p := &oracleProvider{
				id:          model.ProviderID(i * 3), // gaps: an ID is not a position
				utilization: float64(world.Intn(9)) / 8,
				queueLen:    world.Intn(3),
			}
			if world.Intn(3) > 0 { // two thirds are specialists
				p.classes = map[int]bool{world.Intn(oracleClasses): true}
				if world.Intn(2) == 0 {
					p.classes[world.Intn(oracleClasses)] = true
				}
			}
			o.pi[p.id] = map[model.ConsumerID]model.Intention{}
			for class := 0; class < oracleClasses; class++ {
				if class != refusedClass && world.Intn(6) != 0 {
					continue
				}
				// p does not perform this class: it declares the others.
				if p.classes == nil {
					p.classes = map[int]bool{}
					for c := 0; c < oracleClasses; c++ {
						p.classes[c] = true
					}
				}
				delete(p.classes, class)
			}
			for c := model.ConsumerID(0); int(c) < consumers; c++ {
				o.ci[c][p.id] = grid(world)
				o.pi[p.id][c] = grid(world)
			}
			all[i] = p
		}
		join := func(p *oracleProvider) {
			o.providers[p.id] = p
			med.RegisterProvider(tableProvider{p: p, o: o})
		}
		for _, p := range all {
			join(p)
		}

		for i := 0; i < queries; i++ {
			// The world moves: load changes, minds change, providers come
			// and go.
			p := all[world.Intn(len(all))]
			switch world.Intn(8) {
			case 0:
				p.utilization = float64(world.Intn(9)) / 8
			case 1:
				p.queueLen = world.Intn(3)
			case 2:
				o.pi[p.id][model.ConsumerID(world.Intn(consumers))] = grid(world)
			case 3:
				o.ci[model.ConsumerID(world.Intn(consumers))][p.id] = grid(world)
			case 4:
				if _, here := o.providers[p.id]; here {
					o.depart(p.id)
					med.UnregisterProvider(p.id)
				} else {
					join(p)
				}
			}

			q := model.Query{
				ID:       model.QueryID(i + 1),
				Consumer: model.ConsumerID(world.Intn(consumers)),
				Class:    world.Intn(oracleClasses),
				N:        1 << world.Intn(int(maxN)%4+1), // 1, 2, 4 or 8: see grid
				Work:     1,
				Trace:    model.TraceContext{Decided: true, Sampled: i%2 == 0}, // the explain record carries ω
			}
			want := o.mediate(q)
			got, err := med.Mediate(context.Background(), float64(i), q)

			if want.unserved {
				if !errors.Is(err, mediator.ErrNoCandidates) {
					t.Fatalf("query %d: P_q is empty, Mediate answered %v, %v", i, got, err)
				}
			} else {
				if err != nil {
					t.Fatalf("query %d: oracle selects %v, Mediate failed: %v", i, want.selected, err)
				}
				compareMediation(t, i, want, got)
			}
			for c := model.ConsumerID(0); int(c) < consumers; c++ {
				if w, g := o.consumerSatisfaction(c), med.Registry().ConsumerSatisfaction(c); math.Abs(w-g) > oracleTolerance {
					t.Fatalf("after query %d: δs(c=%d) = %v, Definition 1 says %v", i, c, g, w)
				}
			}
			for _, p := range all {
				if w, g := o.providerSatisfaction(p.id), med.Registry().ProviderSatisfaction(p.id); math.Abs(w-g) > oracleTolerance {
					t.Fatalf("after query %d: δs(p=%d) = %v, Definition 2 says %v", i, p.id, g, w)
				}
			}
		}
	})
}

// compareMediation holds one production allocation to the oracle's outcome.
func compareMediation(t *testing.T, i int, want outcome, got *model.Allocation) {
	t.Helper()
	sampled := got.Query.Trace.Sampled
	if len(got.Proposed) != len(want.kn) || sampled && (got.Explain == nil || len(got.Explain.Entries) != len(want.kn)) {
		t.Fatalf("query %d: Kn = %v (explain %v), the oracle ranks %+v", i, got.Proposed, got.Explain, want.kn)
	}
	if !sampled && (got.Explain != nil || got.Scores != nil) {
		t.Fatalf("query %d: unsampled, but explained %v, scored %v", i, got.Explain, got.Scores)
	}
	if sampled && math.Abs(got.Explain.SatC-want.satC) > oracleTolerance {
		t.Fatalf("query %d: scored with δs(c) = %v, Definition 1 says %v", i, got.Explain.SatC, want.satC)
	}
	for r, w := range want.kn {
		switch {
		case got.Proposed[r] != w.id:
			t.Fatalf("query %d: rank %d is provider %d, the oracle ranks %+v\nproduction: %v scores %v", i, r, got.Proposed[r], want.kn, got.Proposed, got.Scores)
		case got.ConsumerIntentions[r] != w.ci || got.ProviderIntentions[r] != w.pi:
			t.Fatalf("query %d, provider %d: intentions CI %v PI %v, the tables say %v %v", i, w.id, got.ConsumerIntentions[r], got.ProviderIntentions[r], w.ci, w.pi)
		}
		if !sampled {
			continue
		}
		e := got.Explain.Entries[r]
		switch {
		case e.Provider != w.id:
			t.Fatalf("query %d: explain rank %d is provider %d, the oracle ranks %+v", i, r, e.Provider, want.kn)
		case math.Abs(e.SatP-w.satP) > oracleTolerance:
			t.Fatalf("query %d, provider %d: scored with δs(p) = %v, Definition 2 says %v", i, w.id, e.SatP, w.satP)
		case math.Abs(e.Omega-w.omega) > oracleTolerance:
			t.Fatalf("query %d, provider %d: ω = %v, Equation 2 says %v", i, w.id, e.Omega, w.omega)
		case math.Abs(got.Scores[r]-w.score) > oracleTolerance || math.Abs(e.Score-w.score) > oracleTolerance:
			t.Fatalf("query %d, provider %d: score %v, Definition 3 says %v", i, w.id, got.Scores[r], w.score)
		}
	}
	if len(got.Selected) != len(want.selected) {
		t.Fatalf("query %d (n = %d): selected %v, the oracle allocates to %v", i, got.Query.N, got.Selected, want.selected)
	}
	for r, id := range want.selected {
		if got.Selected[r] != id {
			t.Fatalf("query %d: selected %v, the oracle allocates to %v", i, got.Selected, want.selected)
		}
	}
}
