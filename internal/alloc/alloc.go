// Package alloc defines the query-allocator abstraction the mediator uses
// and the baseline allocation techniques the SbQA demo compares against:
//
//   - Capacity-based allocation [Ganesan et al., VLDB 2004] — the principle
//     behind BOINC's dispatcher: send each query to the providers with the
//     most available capacity, ignoring anyone's interests;
//   - Economic allocation [Mariposa, VLDBJ 1996] — providers bid a price,
//     the mediator buys the cheapest offers, interests enter only through
//     whatever the price encodes;
//   - Random and RoundRobin — controls.
//
// The SbQA allocator itself (KnBest × SQLB) lives in internal/core; it
// implements the same Allocator interface.
//
// Allocators pull their candidates from a Source rather than receiving a
// snapshot of every capable provider: Len is |P_q| (the class's index
// bucket), At(i) snapshots the one provider at position i (ascending
// ProviderID), and All materialises P_q. Techniques that sample (SbQA,
// Random, Economic) go through Sampler, which draws its positions first and
// touches only those; RoundRobin indexes; Capacity and ShareBased rank
// everyone and call All. The population an allocator reports
// (Explain.Candidates, the observers' candidates count) is |P_q|.
package alloc

import (
	"context"
	"sort"

	"sbqa/internal/model"
	"sbqa/internal/stats"
)

// Allocator decides which providers perform a query.
//
// Contract: the returned Allocation must have Selected ⊆ Proposed ⊆ P_q,
// with len(Selected) = min(q.N, feasible). Proposed is the set of providers
// the mediator contacts about q; it defines the providers whose satisfaction
// windows record this mediation (Definition 2 is over *proposed* queries).
// Allocators that collect intentions should record them in the Allocation;
// the mediator backfills any it needs for analysis.
//
// Allocators pull their candidates (see Source): a technique that samples
// draws its positions first and snapshots only those (Sampler), one that
// rotates indexes, and only a technique that ranks all of P_q pays for All.
type Allocator interface {
	// Name identifies the technique in experiment tables.
	Name() string

	// Allocate mediates one query over the candidate source. A (nil, nil)
	// result means the query cannot be allocated (no candidates, or the
	// technique turned every candidate down). A non-nil error means the
	// mediation itself failed — the context was canceled or the
	// environment's batched collection aborted — and the query was not
	// mediated; allocators never return an error for individual silent
	// participants (the Env imputes those). candidates is valid only until
	// Allocate returns.
	Allocate(ctx context.Context, env Env, q model.Query, candidates Source) (*model.Allocation, error)
}

// wantN returns how many providers q asks for (at least one).
func wantN(q model.Query) int {
	if q.N < 1 {
		return 1
	}
	return q.N
}

// resultN returns how many providers to select for q from nCands candidates.
func resultN(q model.Query, nCands int) int {
	return min(wantN(q), nCands)
}

// newAllocation builds an Allocation whose proposed set equals the selected
// set — the shape shared by all baselines that contact only the providers
// they pick.
func newAllocation(q model.Query, selected []model.ProviderSnapshot) *model.Allocation {
	ids := make([]model.ProviderID, len(selected))
	for i, s := range selected {
		ids[i] = s.ID
	}
	return &model.Allocation{
		Query:    q,
		Selected: ids,
		Proposed: append([]model.ProviderID(nil), ids...),
	}
}

// ---------------------------------------------------------------------------
// Random
// ---------------------------------------------------------------------------

// Random allocates each query to q.N uniformly random candidates. It is the
// weakest control: interest-blind and load-blind.
type Random struct {
	rng     *stats.RNG
	sampler Sampler
}

// NewRandom returns a random allocator with its own stream.
func NewRandom(rng *stats.RNG) *Random {
	if rng == nil {
		rng = stats.NewRNG(1)
	}
	return &Random{rng: rng}
}

// Name implements Allocator.
func (r *Random) Name() string { return "Random" }

// Allocate implements Allocator.
func (r *Random) Allocate(_ context.Context, _ Env, q model.Query, candidates Source) (*model.Allocation, error) {
	sel, _ := r.sampler.Sample(r.rng, candidates, wantN(q), nil)
	if len(sel) == 0 {
		return nil, nil
	}
	return newAllocation(q, sel), nil
}

// ---------------------------------------------------------------------------
// RoundRobin
// ---------------------------------------------------------------------------

// RoundRobin allocates queries to candidates in rotating ID order: perfectly
// even in count, blind to load, interests, and heterogeneity. The rotation
// is index arithmetic over the source's ascending-ID positions.
type RoundRobin struct {
	cursor int
}

// NewRoundRobin returns a round-robin allocator.
func NewRoundRobin() *RoundRobin { return &RoundRobin{} }

// Name implements Allocator.
func (r *RoundRobin) Name() string { return "RoundRobin" }

// Allocate implements Allocator.
func (r *RoundRobin) Allocate(_ context.Context, _ Env, q model.Query, candidates Source) (*model.Allocation, error) {
	size := candidates.Len()
	if size == 0 {
		return nil, nil
	}
	n := resultN(q, size)
	sel := make([]model.ProviderSnapshot, 0, n)
	for i := 0; i < n; i++ {
		sel = append(sel, candidates.At((r.cursor+i)%size))
	}
	r.cursor = (r.cursor + n) % size
	return newAllocation(q, sel), nil
}

// ---------------------------------------------------------------------------
// Capacity-based (the BOINC-like baseline)
// ---------------------------------------------------------------------------

// Capacity allocates each query to the q.N providers with the greatest
// available capacity — the lowest utilization, breaking ties by shorter
// queue, then less pending work, then ID. This is the query-load-balancing
// principle of [9] and, per the demo paper, "the way in which BOINC
// allocates queries". It maximizes throughput but is completely blind to
// participants' interests.
type Capacity struct{}

// NewCapacity returns a capacity-based allocator.
func NewCapacity() *Capacity { return &Capacity{} }

// Name implements Allocator.
func (*Capacity) Name() string { return "Capacity" }

// Allocate implements Allocator.
func (*Capacity) Allocate(_ context.Context, _ Env, q model.Query, candidates Source) (*model.Allocation, error) {
	ordered := candidates.All(nil)
	if len(ordered) == 0 {
		return nil, nil
	}
	sort.SliceStable(ordered, func(i, j int) bool {
		a, b := ordered[i], ordered[j]
		if a.Utilization != b.Utilization {
			return a.Utilization < b.Utilization
		}
		if a.QueueLen != b.QueueLen {
			return a.QueueLen < b.QueueLen
		}
		if a.PendingWork != b.PendingWork {
			return a.PendingWork < b.PendingWork
		}
		return a.ID < b.ID
	})
	n := resultN(q, len(ordered))
	return newAllocation(q, ordered[:n]), nil
}

// ---------------------------------------------------------------------------
// Economic (Mariposa-like)
// ---------------------------------------------------------------------------

// DefaultBidSample is how many candidates the economic mediator solicits
// bids from for each query. Mariposa-style systems contact a bounded subset
// rather than the whole provider population.
const DefaultBidSample = 10

// Economic implements a sealed-bid microeconomic mediation: it asks a random
// sample of candidates for a price to perform q and buys the q.N cheapest
// offers. The contacted bidders form the proposed set — they saw the query,
// so their satisfaction windows record it.
type Economic struct {
	// BidSample bounds the number of bidders contacted per query;
	// values < 1 mean DefaultBidSample.
	BidSample int

	rng     *stats.RNG
	sampler Sampler
}

// NewEconomic returns an economic allocator with its own stream.
func NewEconomic(rng *stats.RNG) *Economic {
	if rng == nil {
		rng = stats.NewRNG(1)
	}
	return &Economic{BidSample: DefaultBidSample, rng: rng}
}

// Name implements Allocator.
func (*Economic) Name() string { return "Economic" }

// Interactive reports that the economic mediation contacts providers (the
// bidding round); the simulation charges it a network round trip per query.
func (*Economic) Interactive() bool { return true }

// Allocate implements Allocator. The bidding round is one batched Bids call
// over the sampled candidates — the environment owns the fan-out and imputes
// an expected-delay bid for any bidder that stays silent.
func (e *Economic) Allocate(ctx context.Context, env Env, q model.Query, candidates Source) (*model.Allocation, error) {
	sample := e.BidSample
	if sample < 1 {
		sample = DefaultBidSample
	}
	sample = max(sample, wantN(q))
	bidders, _ := e.sampler.Sample(e.rng, candidates, sample, nil)
	if len(bidders) == 0 {
		return nil, nil
	}
	n := resultN(q, len(bidders))
	bids, err := env.Bids(ctx, q, bidders)
	if err != nil {
		return nil, err
	}
	if err := CheckBatch(len(bids), len(bidders), "bid"); err != nil {
		return nil, err
	}

	type offer struct {
		snap model.ProviderSnapshot
		bid  float64
	}
	offers := make([]offer, 0, len(bidders))
	for i, snap := range bidders {
		offers = append(offers, offer{snap: snap, bid: bids[i]})
	}
	sort.SliceStable(offers, func(i, j int) bool {
		if offers[i].bid != offers[j].bid {
			return offers[i].bid < offers[j].bid
		}
		return offers[i].snap.ID < offers[j].snap.ID
	})

	a := &model.Allocation{Query: q}
	a.Scores = make([]float64, 0, len(offers))
	for i, o := range offers {
		a.Proposed = append(a.Proposed, o.snap.ID)
		// Bids are prices: lower is better. Store the negated bid so that
		// Scores keeps the "higher is better" convention.
		a.Scores = append(a.Scores, -o.bid)
		if i < n {
			a.Selected = append(a.Selected, o.snap.ID)
		}
	}
	return a, nil
}
