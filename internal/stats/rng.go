// Package stats provides the statistical substrate used across the SbQA
// reproduction: a deterministic, splittable random number generator, the
// workload distributions the experiments need (exponential, Zipf, Pareto,
// normal), online summaries with percentiles, fairness metrics (Gini,
// Jain), histograms, and time series.
//
// Everything is deterministic under a fixed seed so that every experiment in
// EXPERIMENTS.md can be replayed bit-for-bit.
package stats

import "math"

// RNG is a small, fast, deterministic pseudo-random generator based on the
// splitmix64/xoshiro256** construction. It is intentionally independent of
// math/rand so that simulation results cannot drift across Go releases.
//
// RNG is not safe for concurrent use; derive one stream per goroutine with
// Split.
type RNG struct {
	s [4]uint64

	// sampleSeen is SampleK's membership scratch, reused across calls so the
	// mediation hot path draws samples without allocating. It is not part of
	// the generator state (State/Restore ignore it) and holds no data across
	// calls — SampleK resets exactly the entries it set before returning.
	sampleSeen []bool
}

// splitmix64 advances a 64-bit state and returns a mixed output; used for
// seeding so that nearby seeds yield unrelated streams.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// NewRNG returns a generator seeded from seed. Any seed, including zero, is
// valid.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	sm := seed
	for i := range r.s {
		r.s[i] = splitmix64(&sm)
	}
	// xoshiro's state must not be all-zero; splitmix cannot produce four
	// zero outputs in a row, but keep the guarantee explicit.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	return r
}

// State returns the generator's full internal state. Together with Restore
// it lets a persisted system resume a sampling stream exactly where it
// stopped — the durability layer snapshots allocator RNGs so a warm restart
// continues the same draw sequence bit-for-bit.
func (r *RNG) State() [4]uint64 { return r.s }

// Restore overwrites the generator's state with one previously returned by
// State. An all-zero state (invalid for xoshiro) is replaced by the fixed
// non-zero fallback NewRNG guarantees, so a corrupted snapshot can degrade
// the stream but never wedge the generator.
func (r *RNG) Restore(state [4]uint64) {
	if state[0]|state[1]|state[2]|state[3] == 0 {
		state[0] = 0x9e3779b97f4a7c15
	}
	r.s = state
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly random bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Split returns a new generator whose stream is statistically independent of
// the receiver's. The receiver advances by one draw.
func (r *RNG) Split() *RNG {
	return NewRNG(r.Uint64())
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded draw.
	v := r.Uint64()
	hi, lo := mul64(v, uint64(n))
	if lo < uint64(n) {
		thresh := uint64(-int64(n)) % uint64(n)
		for lo < thresh {
			v = r.Uint64()
			hi, lo = mul64(v, uint64(n))
		}
	}
	return int(hi)
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	a0, a1 := a&mask32, a>>32
	b0, b1 := b&mask32, b>>32
	w0 := a0 * b0
	t := a1*b0 + w0>>32
	w1 := t & mask32
	w2 := t >> 32
	w1 += a0 * b1
	hi = a1*b1 + w2 + w1>>32
	lo = a * b
	return hi, lo
}

// Range returns a uniform float64 in [lo, hi).
func (r *RNG) Range(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	return r.Float64() < p
}

// ExpFloat64 returns an exponential deviate with rate 1 (mean 1).
func (r *RNG) ExpFloat64() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return -math.Log(u)
		}
	}
}

// ShuffleInts shuffles the slice in place (Fisher–Yates).
func (r *RNG) ShuffleInts(p []int) {
	for i := len(p) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}

// Shuffle shuffles n elements using the provided swap function.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// SampleK fills dst with k distinct uniform indices from [0, n) using
// Floyd's algorithm, and returns dst. If k >= n it returns all indices
// 0..n-1 in random order. dst is reused if it has capacity.
func (r *RNG) SampleK(n, k int, dst []int) []int {
	dst = dst[:0]
	if k >= n {
		for i := 0; i < n; i++ {
			dst = append(dst, i)
		}
		r.ShuffleInts(dst)
		return dst
	}
	if cap(r.sampleSeen) < n {
		r.sampleSeen = make([]bool, n)
	}
	seen := r.sampleSeen[:n]
	for j := n - k; j < n; j++ {
		t := r.Intn(j + 1)
		if seen[t] {
			t = j
		}
		seen[t] = true
		dst = append(dst, t)
	}
	// Reset only the entries this call set (they are exactly dst's values),
	// leaving the scratch clean for the next call without an O(n) clear.
	for _, t := range dst {
		seen[t] = false
	}
	// Floyd's method yields a uniform subset but a biased order; shuffle.
	r.ShuffleInts(dst)
	return dst
}
