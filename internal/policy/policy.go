// Package policy is the engine's declarative control plane: a named,
// JSON-serializable Spec describes an allocation policy (which allocator to
// run and how it is tuned), a registry maps every allocator kind the system
// ships to a builder, and Spec.Build turns a validated spec into per-shard
// allocator instances. The live engine consumes specs through
// NewEngine(WithPolicy(...)) and hot-swaps them at mediation boundaries
// through Engine.Reconfigure; the Tuner (tuner.go) closes the paper's
// self-adaptation loop by issuing bounded Reconfigure steps from the
// satisfaction event stream.
//
// Specs are the one technique vocabulary — the daemon and the lab (the
// paper's studies included) build allocators from them:
// one JSON document names the technique and carries every tunable the paper
// exposes — KnBest's k and kn, the balance ω (fixed or adaptive), ε, the
// sampling seed, and the per-participant intention deadline.
package policy

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
	"time"

	"sbqa/internal/alloc"
	"sbqa/internal/core"
	"sbqa/internal/knbest"
	"sbqa/internal/qos"
	"sbqa/internal/score"
	"sbqa/internal/stats"
)

// Kind names an allocation technique in a Spec. The zero value is invalid:
// every spec must name its technique.
type Kind string

// The allocator kinds the registry ships with — one per allocation
// technique in the codebase.
const (
	// SbQA is the satisfaction-based allocator (KnBest × SQLB), the
	// paper's contribution. The only kind with tunable parameters.
	SbQA Kind = "sbqa"
	// Capacity is the BOINC-like load balancer baseline.
	Capacity Kind = "capacity"
	// Economic is the Mariposa-style sealed-bid baseline.
	Economic Kind = "economic"
	// Random is the uniform-random control.
	Random Kind = "random"
	// RoundRobin is the rotating control.
	RoundRobin Kind = "round_robin"
	// ShareBased is BOINC's native resource-share dispatching.
	ShareBased Kind = "share_based"
)

// OmegaMode selects how the SQLB balance ω is derived.
type OmegaMode string

const (
	// OmegaAdaptive selects the satisfaction-adaptive Equation 2 (the
	// default).
	OmegaAdaptive OmegaMode = "adaptive"
	// OmegaFixed pins ω to Spec.Omega ∈ [0, 1].
	OmegaFixed OmegaMode = "fixed"
)

// Duration is a time.Duration that marshals as a Go duration string
// ("250ms") and unmarshals from either a string or a number of nanoseconds,
// so specs stay readable in config files and on the wire.
type Duration time.Duration

// MarshalJSON renders the duration as a string ("250ms").
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON accepts a duration string or a number of nanoseconds.
func (d *Duration) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err == nil {
		v, perr := time.ParseDuration(s)
		if perr != nil {
			return fmt.Errorf("policy: bad duration %q: %w", s, perr)
		}
		*d = Duration(v)
		return nil
	}
	var n int64
	if err := json.Unmarshal(data, &n); err != nil {
		return fmt.Errorf("policy: duration must be a string like \"250ms\" or nanoseconds, got %s", data)
	}
	*d = Duration(n)
	return nil
}

// Std returns the duration as a time.Duration.
func (d Duration) Std() time.Duration { return time.Duration(d) }

// Spec declares one allocation policy. The zero value is invalid (Kind is
// required); Normalized resolves a kind's zero tunables to the demo
// defaults. Fields that do not apply
// to the spec's kind must stay zero — Validate rejects, say, KnBest
// parameters on a round-robin policy, so a config typo cannot silently
// no-op.
type Spec struct {
	// Name labels the policy in events, stats, and logs. Optional.
	Name string `json:"name,omitempty"`

	// Kind names the allocation technique. Required.
	Kind Kind `json:"kind"`

	// K and Kn are the KnBest stage sizes (SbQA only). When *both* are
	// zero the demo defaults apply (k=20, kn=10). A zero K with a nonzero
	// Kn keeps knbest's "sample all of P_q" semantics, and a zero Kn with
	// a nonzero K disables the utilization filter (keep every sampled
	// provider) — both deliberate, so specs can express the paper's
	// boundary configurations.
	K  int `json:"k,omitempty"`
	Kn int `json:"kn,omitempty"`

	// OmegaMode selects the balance rule (SbQA only): adaptive (Equation
	// 2, the default) or fixed. Omega is the pinned value under
	// OmegaFixed and must stay zero otherwise.
	OmegaMode OmegaMode `json:"omega_mode,omitempty"`
	Omega     float64   `json:"omega,omitempty"`

	// Epsilon is the ε of the score's negative branch (SbQA only). Zero
	// means score.DefaultEpsilon.
	Epsilon float64 `json:"epsilon,omitempty"`

	// Seed seeds the sampling stream of stochastic kinds (sbqa, random,
	// economic). Shard i draws from Seed+i so shards stay reproducible
	// yet decorrelated. Zero means 1.
	Seed uint64 `json:"seed,omitempty"`

	// BidSample bounds the bidders contacted per query (economic only).
	// Zero means alloc.DefaultBidSample.
	BidSample int `json:"bid_sample,omitempty"`

	// ParticipantDeadline bounds each context-aware participant call during
	// batched intention and bid collection: a participant that misses it is
	// abandoned and its intention imputed from its satisfaction registry
	// state (counted as an imputation and an intention timeout, and emitted
	// as an OnIntentionImputed event), so one slow remote participant can
	// never stall a mediation. In-process participants are unaffected. Zero
	// on the spec an engine boots with means no per-participant bound — only
	// the submission context limits the fan-out; zero on a later spec takes
	// the boot spec's value.
	ParticipantDeadline Duration `json:"participant_deadline,omitempty"`

	// QoS carries the overload-survival configuration: service classes
	// with weights and queue bounds for the shard schedulers, plus the
	// gateway's token-bucket rates (see qos.Spec). Orthogonal to the
	// allocator kind, so it is valid on every policy, baselines included.
	// Nil on the boot spec means the single default class (plain FIFO
	// backpressure); nil on a later spec takes the boot spec's block, the
	// same way a zero ParticipantDeadline does.
	QoS *qos.Spec `json:"qos,omitempty"`
}

// Normalized returns the spec with zero-valued tunables resolved to their
// documented defaults for its kind. Unknown kinds pass through unchanged —
// Validate reports them.
func (s Spec) Normalized() Spec {
	if b, ok := kinds[s.Kind]; ok && b.normalize != nil {
		s = b.normalize(s)
	}
	return s
}

// Validate reports whether the spec is coherent, with errors an operator
// can act on. It does not normalize: validate the output of Normalized (or
// a fully-specified spec).
func (s Spec) Validate() error {
	b, ok := kinds[s.Kind]
	if !ok {
		if s.Kind == "" {
			return fmt.Errorf("policy: spec %q has no kind; one of %v is required", s.Name, Kinds())
		}
		return fmt.Errorf("policy: unknown kind %q; known kinds: %v", s.Kind, Kinds())
	}
	if s.ParticipantDeadline < 0 {
		return fmt.Errorf("policy: participant_deadline %v cannot be negative", s.ParticipantDeadline.Std())
	}
	if err := s.QoS.Validate(); err != nil {
		return fmt.Errorf("policy: %w", err)
	}
	return b.validate(s)
}

// Build constructs the spec's allocator for one engine shard. Stochastic
// kinds seed their stream with Seed+shard, so a multi-shard engine gets
// reproducible-yet-decorrelated sampling and shard 0 of a single-shard
// engine reproduces a serialized run with the same seed exactly. Build
// validates first, so an unchecked spec cannot produce a half-configured
// allocator.
func (s Spec) Build(shard int) (alloc.Allocator, error) {
	s = s.Normalized()
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return kinds[s.Kind].build(s, shard)
}

// Tunable reports whether the spec's kind has runtime-tunable parameters
// (today: only SbQA). The Tuner skips non-tunable policies.
func (s Spec) Tunable() bool { return s.Kind == SbQA }

// seed resolves the spec's per-shard seed.
func (s Spec) seed(shard int) uint64 {
	base := s.Seed
	if base == 0 {
		base = 1
	}
	return base + uint64(shard)
}

// builder couples one kind's normalization, validation, and construction.
type builder struct {
	normalize func(Spec) Spec
	validate  func(Spec) error
	build     func(Spec, int) (alloc.Allocator, error)
}

// kinds is the policy registry: every allocator the system ships, keyed by
// Kind. Extended via Register.
var kinds = map[Kind]builder{}

// Register adds (or replaces) a kind in the policy registry. The built-in
// kinds register themselves in init; embedders may add their own allocators
// so specs naming them validate, build, and hot-swap like the built-ins.
// Not safe for concurrent use with Build/Validate — register at start-up.
func Register(k Kind, normalize func(Spec) Spec, validate func(Spec) error, build func(Spec, int) (alloc.Allocator, error)) {
	if validate == nil || build == nil {
		panic("policy: Register requires validate and build")
	}
	kinds[k] = builder{normalize: normalize, validate: validate, build: build}
}

// Kinds lists every registered kind in stable order.
func Kinds() []Kind {
	out := make([]Kind, 0, len(kinds))
	for k := range kinds {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// requireBaseline rejects SbQA-only tunables on baseline kinds, so a typo
// like {"kind":"capacity","kn":5} fails loudly instead of silently ignoring
// the kn.
func requireBaseline(s Spec) error {
	if s.K != 0 || s.Kn != 0 {
		return fmt.Errorf("policy: kind %q has no KnBest stages; drop k/kn", s.Kind)
	}
	if s.OmegaMode != "" || s.Omega != 0 {
		return fmt.Errorf("policy: kind %q has no balance ω; drop omega_mode/omega", s.Kind)
	}
	if s.Epsilon != 0 {
		return fmt.Errorf("policy: kind %q has no ε; drop epsilon", s.Kind)
	}
	if s.Kind != Economic && s.BidSample != 0 {
		return fmt.Errorf("policy: kind %q has no bidding round; drop bid_sample", s.Kind)
	}
	return nil
}

func init() {
	Register(SbQA,
		func(s Spec) Spec {
			def := knbest.DefaultParams()
			if s.K == 0 && s.Kn == 0 {
				s.K, s.Kn = def.K, def.Kn
			}
			if s.OmegaMode == "" {
				s.OmegaMode = OmegaAdaptive
			}
			if s.Epsilon == 0 {
				s.Epsilon = score.DefaultEpsilon
			}
			if s.Seed == 0 {
				s.Seed = 1
			}
			return s
		},
		func(s Spec) error {
			if s.BidSample != 0 {
				return fmt.Errorf("policy: kind %q has no bidding round; drop bid_sample", s.Kind)
			}
			if s.K < 0 || s.Kn < 0 {
				return fmt.Errorf("policy: KnBest stages cannot be negative (k=%d, kn=%d)", s.K, s.Kn)
			}
			if p := (knbest.Params{K: s.K, Kn: s.Kn}); p.Validate() != nil {
				return fmt.Errorf("policy: kn=%d exceeds k=%d (stage 2 keeps kn of the k sampled providers)", s.Kn, s.K)
			}
			switch s.OmegaMode {
			case OmegaAdaptive:
				if s.Omega != 0 {
					return fmt.Errorf("policy: omega=%g is set but omega_mode is %q; use omega_mode %q to pin ω", s.Omega, OmegaAdaptive, OmegaFixed)
				}
			case OmegaFixed:
				if s.Omega < 0 || s.Omega > 1 {
					return fmt.Errorf("policy: fixed ω must lie in [0, 1], got %g", s.Omega)
				}
			default:
				return fmt.Errorf("policy: unknown omega_mode %q; use %q or %q", s.OmegaMode, OmegaAdaptive, OmegaFixed)
			}
			if s.Epsilon < 0 {
				return fmt.Errorf("policy: ε must be positive, got %g", s.Epsilon)
			}
			return nil
		},
		func(s Spec, shard int) (alloc.Allocator, error) {
			cfg := core.Config{
				KnBest:  knbest.Params{K: s.K, Kn: s.Kn},
				Epsilon: s.Epsilon,
				Seed:    s.seed(shard),
			}
			if s.OmegaMode == OmegaFixed {
				cfg.Omega = core.FixedOmega(s.Omega)
			}
			return core.New(cfg)
		},
	)
	Register(Capacity, nil,
		requireBaseline,
		func(Spec, int) (alloc.Allocator, error) { return alloc.NewCapacity(), nil },
	)
	Register(Economic, nil,
		func(s Spec) error {
			if err := requireBaseline(s); err != nil {
				return err
			}
			if s.BidSample < 0 {
				return fmt.Errorf("policy: bid_sample cannot be negative, got %d", s.BidSample)
			}
			return nil
		},
		func(s Spec, shard int) (alloc.Allocator, error) {
			e := alloc.NewEconomic(stats.NewRNG(s.seed(shard)))
			if s.BidSample > 0 {
				e.BidSample = s.BidSample
			}
			return e, nil
		},
	)
	Register(Random, nil,
		requireBaseline,
		func(s Spec, shard int) (alloc.Allocator, error) {
			return alloc.NewRandom(stats.NewRNG(s.seed(shard))), nil
		},
	)
	Register(RoundRobin, nil,
		requireBaseline,
		func(Spec, int) (alloc.Allocator, error) { return alloc.NewRoundRobin(), nil },
	)
	Register(ShareBased, nil,
		requireBaseline,
		func(Spec, int) (alloc.Allocator, error) { return alloc.NewShareBased(), nil },
	)
}

// Parse decodes a JSON policy spec, rejecting unknown fields so a
// misspelled tunable cannot silently fall back to its default, and anything
// but white space after the document so a spec is never half of what was
// sent. Every policy document from outside the process — the -policy file,
// PUT /v1/policy, a preview's policy member — comes through here.
func Parse(data []byte) (Spec, error) {
	var s Spec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("policy: parsing spec: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return Spec{}, errors.New("policy: parsing spec: data after the policy document")
	}
	return s, nil
}

// String renders the spec for logs: kind plus the tunables that apply.
func (s Spec) String() string {
	name := s.Name
	if name == "" {
		name = "<unnamed>"
	}
	switch s.Kind {
	case SbQA:
		omega := "adaptive"
		if s.OmegaMode == OmegaFixed {
			omega = fmt.Sprintf("%g", s.Omega)
		}
		return fmt.Sprintf("policy %s: sbqa(k=%d, kn=%d, ω=%s, ε=%g, seed=%d)", name, s.K, s.Kn, omega, s.Epsilon, s.Seed)
	default:
		return fmt.Sprintf("policy %s: %s", name, s.Kind)
	}
}
