// Package core implements the paper's primary contribution: the SbQA
// (Satisfaction-based Query Allocation) process. For each incoming query q
// with candidate set P_q, the mediator:
//
//  1. runs the KnBest strategy — draws k providers of P_q at random, keeps
//     the kn least utilized (set Kn). The draw comes first: k positions out
//     of the candidate source, and only those k providers are snapshotted;
//  2. runs SQLB — collects, in one batched intention round over Kn, the
//     consumer's intention CI_q[p] toward every p ∈ Kn and every p ∈ Kn's
//     intention PI_q[p] to perform q (the environment owns transport,
//     concurrency, per-participant deadlines, and imputation for silent
//     participants), scores each p with Definition 3 under the balance ω of
//     Equation 2 (ω adapts to the consumer's and provider's long-run
//     satisfactions), and ranks Kn best-first;
//  3. allocates q to the min(q.n, kn) best-ranked providers and sends the
//     mediation result to the consumer and to all providers in Kn.
//
// The result is an allocator that trades performance for participants'
// interests *only as much as fairness requires*: satisfied participants
// gradually lose influence, dissatisfied ones gain it.
package core

import (
	"context"
	"fmt"

	"sbqa/internal/alloc"
	"sbqa/internal/knbest"
	"sbqa/internal/model"
	"sbqa/internal/score"
	"sbqa/internal/stats"
)

// Config assembles an SbQA allocator.
type Config struct {
	// KnBest holds the two-stage selection parameters. Zero values fall
	// back to knbest.DefaultParams.
	KnBest knbest.Params

	// Omega selects the balance rule: nil — the default — selects the
	// satisfaction-adaptive Equation 2; a non-nil value in [0, 1] fixes ω
	// (Scenario 6 tunes this per application; the paper notes ω ≈ 0 suits
	// cooperative providers where only result quality matters). Use
	// FixedOmega to build the pointer inline.
	Omega *float64

	// Epsilon is the ε of the score's negative branch; values <= 0 mean
	// score.DefaultEpsilon.
	Epsilon float64

	// Seed seeds the KnBest sampling stream.
	Seed uint64
}

// FixedOmega returns a pointer to v for Config.Omega.
func FixedOmega(v float64) *float64 { return &v }

// SbQA is the satisfaction-based query allocator. It implements
// alloc.Allocator. Allocate is not safe for concurrent use (the live engine
// serializes mediations per shard). The tunables — the KnBest parameters and
// the scoring rule — are fixed at construction: a running engine retunes by
// building a new allocator from a new policy (Engine.Reconfigure), which
// each shard adopts at a mediation boundary.
type SbQA struct {
	selector *knbest.Selector // RNG + scratch: owned by the mediating goroutine
	params   knbest.Params
	scorer   score.Scorer // by value — Rank does not mutate the scorer
	scr      sbqaScratch  // flat scoring columns: owned by the mediating goroutine
}

// sbqaScratch holds the per-allocator flat scoring columns, reused across
// mediations so Allocate's scoring stage allocates nothing. Position-aligned
// with the Kn set of the current mediation; contents are dead once Allocate
// returns (the allocation owns copies of everything it keeps).
type sbqaScratch struct {
	ids    []model.ProviderID
	satP   []float64
	omega  []float64
	order  []int
	ranker score.Ranker
}

// grow resizes every column to m, reallocating only when capacity is
// exceeded.
func (s *sbqaScratch) grow(m int) {
	if cap(s.ids) < m {
		s.ids = make([]model.ProviderID, m)
		s.satP = make([]float64, m)
		s.omega = make([]float64, m)
		s.order = make([]int, m)
	}
	s.ids = s.ids[:m]
	s.satP = s.satP[:m]
	s.omega = s.omega[:m]
	s.order = s.order[:m]
}

// New builds an SbQA allocator from cfg.
func New(cfg Config) (*SbQA, error) {
	if cfg.KnBest == (knbest.Params{}) {
		cfg.KnBest = knbest.DefaultParams()
	}
	if err := cfg.KnBest.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	var scorer *score.Scorer
	if cfg.Omega != nil {
		scorer = score.NewFixedScorer(*cfg.Omega)
	} else {
		scorer = score.NewScorer()
	}
	if cfg.Epsilon > 0 {
		scorer.Epsilon = cfg.Epsilon
	}
	return &SbQA{
		selector: knbest.NewSelector(cfg.KnBest, stats.NewRNG(cfg.Seed)),
		params:   cfg.KnBest,
		scorer:   *scorer,
	}, nil
}

// MustNew is New for static configurations known to be valid; it panics on
// error.
func MustNew(cfg Config) *SbQA {
	s, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Name implements alloc.Allocator.
func (s *SbQA) Name() string {
	if s.scorer.Adaptive() {
		return "SbQA"
	}
	return fmt.Sprintf("SbQA(ω=%g)", s.scorer.FixedOmega)
}

// Interactive reports that SbQA contacts providers during mediation (the
// intention-collection round); the simulation charges it a network round
// trip per query.
func (s *SbQA) Interactive() bool { return true }

// ExportState implements alloc.Stateful: the KnBest sampling stream's
// position. Like Allocate it must run on the goroutine that owns the
// allocator (the engine exports under the shard lock); the tunables are NOT
// part of the blob — they belong to the policy spec, which the durability
// layer persists separately.
func (s *SbQA) ExportState() []byte { return alloc.MarshalRNGState(s.selector.RNGState()) }

// RestoreState implements alloc.Stateful, resuming the KnBest sampling
// stream so a restored engine draws the same stage-1 samples an
// uninterrupted run would have.
func (s *SbQA) RestoreState(state []byte) error {
	rng, err := alloc.UnmarshalRNGState(state)
	if err != nil {
		return err
	}
	s.selector.RestoreRNGState(rng)
	return nil
}

// Allocate implements alloc.Allocator: one full SbQA mediation.
func (s *SbQA) Allocate(ctx context.Context, env alloc.Env, q model.Query, candidates alloc.Source) (*model.Allocation, error) {
	// Stage 1+2: KnBest keeps the kn least-utilized of k random candidates,
	// snapshotting only the k it drew.
	kn, population := s.selector.SelectFrom(s.params, candidates)
	if len(kn) == 0 {
		return nil, nil
	}

	// Stage 3: SQLB — one batched intention round over Kn, then score and
	// rank from the returned set. No participant is contacted mid-rank: the
	// environment has already fanned the batch out (with deadlines and
	// imputation for silent participants) by the time scoring starts.
	set, err := env.Intentions(ctx, q, kn)
	if err != nil {
		return nil, fmt.Errorf("core: intention collection: %w", err)
	}
	if err := alloc.CheckBatch(set.Len(), len(kn), "intention"); err != nil {
		return nil, err
	}
	satC := env.ConsumerSatisfaction(q.Consumer)
	m := len(kn)
	s.scr.grow(m)
	satP := env.AppendProviderSatisfactions(kn, s.scr.satP[:0])
	if err := alloc.CheckBatch(len(satP), m, "satisfaction"); err != nil {
		return nil, err
	}

	// Rank a position permutation over flat parallel columns borrowed from
	// the environment's batch buffers — no per-provider structs — in the
	// order of the Definition 3 scores (descending, ties by provider ID
	// ascending), through their logarithms: the literal scores are computed
	// only for a sampled query, whose Explain and Scores show them.
	for i, snap := range kn {
		s.scr.ids[i] = snap.ID
	}
	view := score.View{IDs: s.scr.ids, PI: set.PI, CI: set.CI, SatC: satC, SatP: satP}
	s.scr.ranker.Rank(&s.scorer, view, s.scr.omega, s.scr.order)

	n := q.N
	if n < 1 {
		n = 1
	}
	if n > m {
		n = m
	}

	// The allocation owns its vectors (the scratch is reused next
	// mediation); two backing arrays cover all four, with capped subslices
	// so later compaction of one cannot clobber its neighbor.
	ids := make([]model.ProviderID, m+n)
	ints := make([]model.Intention, 2*m)
	a := &model.Allocation{
		Query:              q,
		Proposed:           ids[:m:m],
		Selected:           ids[m : m+n : m+n],
		ConsumerIntentions: ints[:m:m],
		ProviderIntentions: ints[m : 2*m : 2*m],
	}
	for r, i := range s.scr.order {
		a.Proposed[r] = s.scr.ids[i]
		a.ConsumerIntentions[r] = set.CI[i]
		a.ProviderIntentions[r] = set.PI[i]
		if r < n {
			a.Selected[r] = s.scr.ids[i]
		}
	}
	if q.Trace.Sampled {
		// Sampled query: capture the full ranked score breakdown — every
		// Definition-3 input per candidate and the literal score — while the
		// scratch columns are still position-aligned. Costs heap only on
		// sampled mediations.
		ex := &model.Explain{
			Allocator:  s.Name(),
			SatC:       satC,
			Candidates: population,
			Entries:    make([]model.ExplainEntry, m),
		}
		a.Scores = make([]float64, m)
		for r, i := range s.scr.order {
			a.Scores[r] = s.scorer.Score(set.PI[i], set.CI[i], s.scr.omega[i])
			ex.Entries[r] = model.ExplainEntry{
				Rank:      r + 1,
				Provider:  s.scr.ids[i],
				CI:        set.CI[i],
				PI:        set.PI[i],
				SatP:      satP[i],
				Omega:     s.scr.omega[i],
				Score:     a.Scores[r],
				CIImputed: set.CIImputed,
				PIImputed: set.ProviderImputed(i),
			}
		}
		a.Explain = ex
	}
	return a, nil
}

var _ alloc.Allocator = (*SbQA)(nil)
var _ alloc.Stateful = (*SbQA)(nil)
