package alloc

import (
	"context"
	"sort"

	"sbqa/internal/model"
)

// ShareEnv is the optional Env extension used by the share-based allocator:
// it reports how much of provider p's capacity is devoted to — and still
// available for — q's consumer under the provider's declared resource
// shares. Environments whose providers declare no shares fall back to plain
// available capacity.
type ShareEnv interface {
	// DevotedAvailable returns the work-per-second capacity provider p
	// still has available for q's consumer: share(p, q.Consumer)·capacity
	// minus the work rate already in use by that consumer.
	DevotedAvailable(q model.Query, p model.ProviderSnapshot) float64
}

// ShareBased reproduces BOINC's native resource-share dispatching, which
// the paper's §IV uses as its motivating example: every volunteer devotes a
// fixed fraction of its resources to each project, and a project can never
// use more than its fraction — "cb cannot use more than the assigned 20% of
// computational resources even if ca is not generating queries". The
// allocator picks the q.N providers with the most devoted-available
// capacity for the query's consumer, and refuses providers whose devoted
// share is exhausted, wasting whatever idle capacity is reserved for other
// consumers.
//
// Contrast with SbQA, which lets providers express the same affinities as
// intentions that the mediation can trade against load — exploiting idle
// capacity while still respecting interests (the paper's pitch).
type ShareBased struct{}

// NewShareBased returns a share-based allocator.
func NewShareBased() *ShareBased { return &ShareBased{} }

// Name implements Allocator.
func (*ShareBased) Name() string { return "ShareBased" }

// Allocate implements Allocator.
func (*ShareBased) Allocate(_ context.Context, env Env, q model.Query, src Source) (*model.Allocation, error) {
	candidates := src.All(nil)
	if len(candidates) == 0 {
		return nil, nil
	}
	se, _ := env.(ShareEnv)

	type avail struct {
		snap model.ProviderSnapshot
		cap  float64
	}
	eligible := make([]avail, 0, len(candidates))
	for _, snap := range candidates {
		var devoted float64
		if se != nil {
			devoted = se.DevotedAvailable(q, snap)
		} else {
			// No share information: plain available capacity.
			devoted = snap.Capacity * (1 - snap.Utilization)
		}
		if devoted <= 0 {
			continue // share exhausted: BOINC will not over-commit it
		}
		eligible = append(eligible, avail{snap: snap, cap: devoted})
	}
	if len(eligible) == 0 {
		return nil, nil
	}
	sort.SliceStable(eligible, func(i, j int) bool {
		if eligible[i].cap != eligible[j].cap {
			return eligible[i].cap > eligible[j].cap
		}
		return eligible[i].snap.ID < eligible[j].snap.ID
	})
	n := resultN(q, len(eligible))
	sel := make([]model.ProviderSnapshot, 0, n)
	for i := 0; i < n; i++ {
		sel = append(sel, eligible[i].snap)
	}
	return newAllocation(q, sel), nil
}
