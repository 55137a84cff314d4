package policy

import (
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"sbqa/internal/alloc"
	"sbqa/internal/core"
	"sbqa/internal/knbest"
	"sbqa/internal/model"
	"sbqa/internal/score"
)

func TestKindsCoverEveryAllocator(t *testing.T) {
	want := []Kind{Capacity, Economic, Random, RoundRobin, SbQA, ShareBased}
	got := Kinds()
	if len(got) != len(want) {
		t.Fatalf("Kinds() = %v, want %v", got, want)
	}
	for i, k := range want {
		if got[i] != k {
			t.Fatalf("Kinds()[%d] = %q, want %q", i, got[i], k)
		}
	}
}

func TestBuildEveryKind(t *testing.T) {
	for _, k := range Kinds() {
		a, err := Spec{Kind: k}.Build(0)
		if err != nil {
			t.Fatalf("Build(%q): %v", k, err)
		}
		if a == nil {
			t.Fatalf("Build(%q) returned nil allocator", k)
		}
		if a.Name() == "" {
			t.Fatalf("Build(%q): empty allocator name", k)
		}
	}
}

func TestBuildSbQAMatchesCoreConstructor(t *testing.T) {
	spec := Spec{Kind: SbQA, K: 8, Kn: 4, OmegaMode: OmegaFixed, Omega: 0.25, Epsilon: 0.5, Seed: 42}
	a, err := spec.Build(3)
	if err != nil {
		t.Fatal(err)
	}
	s, ok := a.(*core.SbQA)
	if !ok {
		t.Fatalf("Build(sbqa) = %T, want *core.SbQA", a)
	}
	// Shard decorrelation: seed base + shard index.
	ref := core.MustNew(core.Config{KnBest: knbest.Params{K: 8, Kn: 4}, Omega: core.FixedOmega(0.25), Epsilon: 0.5, Seed: 45})
	if ref.Name() != s.Name() {
		t.Fatalf("name %q vs %q", s.Name(), ref.Name())
	}
	// Same candidates and intentions, some negative so that ε enters the
	// scores: the two must propose kn = 4 alike and score them alike.
	env := alloc.NewStaticEnv()
	cands := make([]model.ProviderSnapshot, 20)
	for i := range cands {
		cands[i] = model.ProviderSnapshot{ID: model.ProviderID(i), Utilization: float64(i%7) / 7, Capacity: 1}
		env.SetCI(0, cands[i].ID, model.Intention(float64(i%5)/2-1))
		env.SetPI(cands[i].ID, 0, model.Intention(float64(i%3)-1))
	}
	q := model.Query{ID: 1, Consumer: 0, N: 2, Work: 1}
	for i := 0; i < 5; i++ {
		got, err := s.Allocate(context.Background(), env, q, alloc.Snapshots(cands))
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.Allocate(context.Background(), env, q, alloc.Snapshots(cands))
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Proposed) != 4 || !reflect.DeepEqual(got.Proposed, want.Proposed) || !reflect.DeepEqual(got.Scores, want.Scores) {
			t.Fatalf("built proposed %v scored %v, constructor proposed %v scored %v", got.Proposed, got.Scores, want.Proposed, want.Scores)
		}
	}
}

func TestNormalizedFillsSbQADefaults(t *testing.T) {
	got := Spec{Kind: SbQA}.Normalized()
	def := knbest.DefaultParams()
	if got.K != def.K || got.Kn != def.Kn {
		t.Fatalf("KnBest defaults = (%d, %d), want (%d, %d)", got.K, got.Kn, def.K, def.Kn)
	}
	if got.OmegaMode != OmegaAdaptive {
		t.Fatalf("OmegaMode = %q, want %q", got.OmegaMode, OmegaAdaptive)
	}
	if got.Epsilon != score.DefaultEpsilon {
		t.Fatalf("Epsilon = %g, want %g", got.Epsilon, score.DefaultEpsilon)
	}
	if got.Seed != 1 {
		t.Fatalf("Seed = %d, want 1", got.Seed)
	}
}

func TestValidateErrors(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
		want string // substring of the error
	}{
		{"no kind", Spec{}, "no kind"},
		{"unknown kind", Spec{Kind: "quantum"}, "unknown kind"},
		{"kn exceeds k", Spec{Kind: SbQA, K: 5, Kn: 9, OmegaMode: OmegaAdaptive, Epsilon: 1}, "exceeds"},
		{"negative stages", Spec{Kind: SbQA, K: -1, OmegaMode: OmegaAdaptive, Epsilon: 1}, "negative"},
		{"omega out of range", Spec{Kind: SbQA, K: 4, Kn: 2, OmegaMode: OmegaFixed, Omega: 1.5, Epsilon: 1}, "[0, 1]"},
		{"omega with adaptive mode", Spec{Kind: SbQA, K: 4, Kn: 2, OmegaMode: OmegaAdaptive, Omega: 0.5, Epsilon: 1}, "omega_mode"},
		{"bad omega mode", Spec{Kind: SbQA, K: 4, Kn: 2, OmegaMode: "sometimes", Epsilon: 1}, "omega_mode"},
		{"negative epsilon", Spec{Kind: SbQA, K: 4, Kn: 2, OmegaMode: OmegaAdaptive, Epsilon: -1}, "ε"},
		{"knbest on baseline", Spec{Kind: Capacity, Kn: 5}, "drop k/kn"},
		{"omega on baseline", Spec{Kind: RoundRobin, OmegaMode: OmegaFixed}, "omega"},
		{"bid sample on non-economic", Spec{Kind: Random, BidSample: 3}, "bid_sample"},
		{"negative bid sample", Spec{Kind: Economic, BidSample: -2}, "bid_sample"},
		{"negative deadline", Spec{Kind: Capacity, ParticipantDeadline: -1}, "negative"},
	}
	for _, tc := range cases {
		err := tc.spec.Validate()
		if err == nil {
			t.Errorf("%s: Validate() = nil, want error containing %q", tc.name, tc.want)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not contain %q", tc.name, err, tc.want)
		}
	}
}

func TestBuildValidatesFirst(t *testing.T) {
	if _, err := (Spec{Kind: SbQA, K: 2, Kn: 7}).Build(0); err == nil {
		t.Fatal("Build accepted kn > k")
	}
	if _, err := (Spec{Kind: "nope"}).Build(0); err == nil {
		t.Fatal("Build accepted unknown kind")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	spec := Spec{
		Name:                "tuned",
		Kind:                SbQA,
		K:                   40,
		Kn:                  16,
		OmegaMode:           OmegaFixed,
		Omega:               0.75,
		Epsilon:             0.5,
		Seed:                9,
		ParticipantDeadline: Duration(250 * time.Millisecond),
	}
	data, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"participant_deadline":"250ms"`) {
		t.Fatalf("deadline not marshaled as a duration string: %s", data)
	}
	got, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if got != spec {
		t.Fatalf("round trip: got %+v, want %+v", got, spec)
	}
}

func TestParseRejectsUnknownFields(t *testing.T) {
	if _, err := Parse([]byte(`{"kind":"sbqa","knn":5}`)); err == nil {
		t.Fatal("Parse accepted an unknown field")
	}
}

func TestDurationAcceptsNanoseconds(t *testing.T) {
	var d Duration
	if err := json.Unmarshal([]byte("1000000"), &d); err != nil {
		t.Fatal(err)
	}
	if d.Std() != time.Millisecond {
		t.Fatalf("got %v, want 1ms", d.Std())
	}
	if err := json.Unmarshal([]byte(`"oops"`), &d); err == nil {
		t.Fatal("accepted a malformed duration string")
	}
}

func TestDefaultSpecValid(t *testing.T) {
	spec := Spec{Kind: SbQA}.Normalized()
	if err := spec.Validate(); err != nil {
		t.Fatalf("default sbqa spec invalid: %v", err)
	}
	if spec.K != 20 || spec.Kn != 10 || spec.OmegaMode != OmegaAdaptive || spec.Epsilon != score.DefaultEpsilon {
		t.Fatalf("default sbqa spec = %+v, want KnBest(20,10), adaptive ω, ε = 1", spec)
	}
	if !spec.Tunable() {
		t.Fatal("the default spec should be tunable (sbqa)")
	}
	if (Spec{Kind: Capacity}).Tunable() {
		t.Fatal("capacity must not be tunable")
	}
}
