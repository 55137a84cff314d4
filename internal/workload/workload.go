// Package workload generates the synthetic BOINC-like populations and query
// streams the SbQA experiments run on: projects (consumers) with popularity
// classes, volunteers (providers) with heterogeneous capacities and
// class-dependent preferences, and arrival rates sized to a target system
// load factor.
//
// The demo paper stages exactly this world: three projects — SETI@home
// (popular: "the majority of providers want to collaborate"), proteins@home
// (normal: "great number, but not most"), and Einstein@home (unpopular:
// "most providers desire to collaborate ... with a small fraction of
// computational resources").
package workload

import (
	"fmt"

	"sbqa/internal/stats"
)

// Popularity classifies how much the provider population likes a project.
type Popularity int

// Popularity classes, in decreasing affection.
const (
	Popular Popularity = iota
	Normal
	Unpopular
)

// String implements fmt.Stringer.
func (p Popularity) String() string {
	switch p {
	case Popular:
		return "popular"
	case Normal:
		return "normal"
	case Unpopular:
		return "unpopular"
	default:
		return fmt.Sprintf("popularity(%d)", int(p))
	}
}

// AffinityWeight returns the relative probability that a volunteer joined
// the system *for* a project of this class — the demo's staging: the
// majority of volunteers want to collaborate in the popular project, a
// great number (but not most) in the normal one, and only a small fraction
// favour the unpopular one.
func (p Popularity) AffinityWeight() float64 {
	switch p {
	case Popular:
		return 0.6
	case Normal:
		return 0.3
	default:
		return 0.1
	}
}

// Volunteer preference profile: most volunteers are *fans* of one project
// (drawn by AffinityWeight) — they strongly like it and dislike donating
// cycles to the others; a minority are generalists happy to serve anyone.
// This is what makes interest-blind allocation costly: a load balancer keeps
// feeding fans the projects they dislike.
var (
	fanPref        = stats.Uniform{Lo: 0.5, Hi: 1.0}
	nonFanPref     = stats.Uniform{Lo: -1.0, Hi: -0.4}
	generalistPref = stats.Uniform{Lo: -0.1, Hi: 0.6}
)

// GeneralistShare is the fraction of volunteers with no favourite project.
const GeneralistShare = 0.15

// ProjectSpec declares one project before generation.
type ProjectSpec struct {
	// Name labels the project in tables ("SETI@home", ...).
	Name string

	// Popularity drives the volunteers' preference draws.
	Popularity Popularity

	// ArrivalShare is this project's fraction of the total query arrival
	// rate; shares are normalized, so they need not sum to 1.
	ArrivalShare float64

	// Replication is q.n — how many results the project requires per
	// query (BOINC replicates tasks to validate volunteer results).
	Replication int

	// DelayTarget is the response time (seconds) the project considers
	// good; it feeds response-time-seeking intention policies.
	DelayTarget float64
}

// Config declares a whole population.
type Config struct {
	// Projects lists the consumers. Empty means DefaultProjects().
	Projects []ProjectSpec

	// Volunteers is the provider population size.
	Volunteers int

	// CapacityDist draws volunteer capacities (work units / second).
	CapacityDist stats.Dist

	// WorkDist draws per-query service demands (work units).
	WorkDist stats.Dist

	// LoadFactor ρ sizes total arrivals so that
	// Σ rate·E[work]·replication = ρ · Σ capacity. Typical 0.5–0.9.
	LoadFactor float64

	// MaliciousFraction is the share of volunteers that return invalid
	// results (the reason BOINC consumers replicate queries). 0 disables.
	MaliciousFraction float64

	// Seed drives every generation draw.
	Seed uint64
}

// DefaultProjects returns the demo's three-project cast.
func DefaultProjects() []ProjectSpec {
	return []ProjectSpec{
		{Name: "SETI@home", Popularity: Popular, ArrivalShare: 0.5, Replication: 2, DelayTarget: 30},
		{Name: "proteins@home", Popularity: Normal, ArrivalShare: 0.3, Replication: 2, DelayTarget: 30},
		{Name: "Einstein@home", Popularity: Unpopular, ArrivalShare: 0.2, Replication: 2, DelayTarget: 30},
	}
}

// DefaultConfig returns the default BOINC-like population: 3 projects,
// the given number of volunteers with capacities U[0.5, 1.5) work/s, query
// work Exp(mean 10), load factor 0.7.
func DefaultConfig(volunteers int, seed uint64) Config {
	return Config{
		Projects:     DefaultProjects(),
		Volunteers:   volunteers,
		CapacityDist: stats.Uniform{Lo: 0.5, Hi: 1.5},
		WorkDist:     stats.Exponential{Rate: 0.1}, // mean 10 work units
		LoadFactor:   0.7,
		Seed:         seed,
	}
}

// Project is one generated consumer.
type Project struct {
	Index         int
	Name          string
	ArrivalRate   float64 // queries / second
	Replication   int
	DelayTarget   float64
	Quorum        int       // valid results that validate a query (BOINC redundancy checking): a majority of Replication
	VolunteerPref []float64 // project's preference for each volunteer, [-1,1]
}

// Volunteer is one generated provider.
type Volunteer struct {
	Index       int
	Capacity    float64
	PriceFactor float64   // heterogeneous pricing margin for economic bids
	Malicious   bool      // returns invalid results
	ProjectPref []float64 // preference for each project, [-1,1]
}

// Population is a fully generated world ready to instantiate.
type Population struct {
	Projects   []Project
	Volunteers []Volunteer
	WorkDist   stats.Dist
}

// Generate materializes the population described by cfg. It is
// deterministic under cfg.Seed.
func Generate(cfg Config) (*Population, error) {
	if cfg.Volunteers < 1 {
		return nil, fmt.Errorf("workload: need at least 1 volunteer, got %d", cfg.Volunteers)
	}
	if len(cfg.Projects) == 0 {
		cfg.Projects = DefaultProjects()
	}
	if cfg.CapacityDist == nil {
		cfg.CapacityDist = stats.Uniform{Lo: 0.5, Hi: 1.5}
	}
	if cfg.WorkDist == nil {
		cfg.WorkDist = stats.Exponential{Rate: 0.1}
	}
	if cfg.LoadFactor <= 0 {
		cfg.LoadFactor = 0.7
	}
	rng := stats.NewRNG(cfg.Seed)
	capRNG := rng.Split()
	prefRNG := rng.Split()
	consPrefRNG := rng.Split()
	priceRNG := rng.Split()

	pop := &Population{WorkDist: cfg.WorkDist}
	totalCap := 0.0 // Σ volunteer capacities

	// Volunteers: capacity, price factor.
	minCap, maxCap := 0.0, 0.0
	for i := 0; i < cfg.Volunteers; i++ {
		c := cfg.CapacityDist.Sample(capRNG)
		if c <= 0 {
			c = 0.01
		}
		v := Volunteer{
			Index:       i,
			Capacity:    c,
			PriceFactor: priceRNG.Range(0.8, 1.2),
			Malicious:   cfg.MaliciousFraction > 0 && priceRNG.Bool(cfg.MaliciousFraction),
			ProjectPref: make([]float64, len(cfg.Projects)),
		}
		pop.Volunteers = append(pop.Volunteers, v)
		totalCap += c
		if i == 0 || c < minCap {
			minCap = c
		}
		if c > maxCap {
			maxCap = c
		}
	}

	// Volunteer preferences: fans vs generalists. A fan's favourite project
	// is drawn with probability proportional to the popularity affinity
	// weights.
	weights := make([]float64, len(cfg.Projects))
	var weightSum float64
	for i, spec := range cfg.Projects {
		weights[i] = spec.Popularity.AffinityWeight()
		weightSum += weights[i]
	}
	for vi := range pop.Volunteers {
		if prefRNG.Bool(GeneralistShare) {
			for pi := range cfg.Projects {
				pop.Volunteers[vi].ProjectPref[pi] = min(max(generalistPref.Sample(prefRNG), -1), 1)
			}
			continue
		}
		// Pick the favourite by affinity weight.
		u := prefRNG.Float64() * weightSum
		fav := 0
		for i, w := range weights {
			if u < w {
				fav = i
				break
			}
			u -= w
		}
		for pi := range cfg.Projects {
			if pi == fav {
				pop.Volunteers[vi].ProjectPref[pi] = min(max(fanPref.Sample(prefRNG), -1), 1)
			} else {
				pop.Volunteers[vi].ProjectPref[pi] = min(max(nonFanPref.Sample(prefRNG), -1), 1)
			}
		}
	}

	// Arrival rates: normalize shares, then size total arrivals so that
	// the offered work rate (including replication) hits ρ·Σ capacity.
	var shareSum, weightedDemand float64
	for _, spec := range cfg.Projects {
		share := spec.ArrivalShare
		if share <= 0 {
			share = 1
		}
		shareSum += share
	}
	meanWork := cfg.WorkDist.Mean()
	if meanWork <= 0 {
		return nil, fmt.Errorf("workload: work distribution %v has non-positive mean", cfg.WorkDist)
	}
	shares := make([]float64, len(cfg.Projects))
	for i, spec := range cfg.Projects {
		share := spec.ArrivalShare
		if share <= 0 {
			share = 1
		}
		shares[i] = share / shareSum
		repl := spec.Replication
		if repl < 1 {
			repl = 1
		}
		weightedDemand += shares[i] * meanWork * float64(repl)
	}
	totalRate := cfg.LoadFactor * totalCap / weightedDemand

	// Projects: rates and preferences toward volunteers. A project's
	// static preference follows the volunteer's relative capacity (fast
	// hosts return results sooner and are preferred for validation),
	// perturbed with noise so projects do not all agree. Preferences stay
	// essentially non-negative: projects favour fast hosts but do not
	// object to slow ones — objections are reserved for bad reputation.
	for i, spec := range cfg.Projects {
		repl := spec.Replication
		if repl < 1 {
			repl = 1
		}
		p := Project{
			Index:         i,
			Name:          spec.Name,
			ArrivalRate:   totalRate * shares[i],
			Replication:   repl,
			DelayTarget:   spec.DelayTarget,
			Quorum:        repl/2 + 1,
			VolunteerPref: make([]float64, cfg.Volunteers),
		}
		if p.DelayTarget <= 0 {
			p.DelayTarget = 30
		}
		for vi, v := range pop.Volunteers {
			rel := 0.5
			if maxCap > minCap {
				rel = (v.Capacity - minCap) / (maxCap - minCap)
			}
			// Map relative capacity to [0.05, 0.9] and add mild noise.
			pref := 0.05 + 0.85*rel + consPrefRNG.Range(-0.15, 0.15)
			p.VolunteerPref[vi] = min(max(pref, -1), 1)
		}
		pop.Projects = append(pop.Projects, p)
	}
	return pop, nil
}
