package live

// A spec reaches the shards through three doors — construction, Reconfigure
// and the warm-restart restore — and all three go through Engine.adopt.
// These tests hold the doors to one meaning.

import (
	"context"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"sbqa/internal/model"
	"sbqa/internal/policy"
	"sbqa/internal/qos"
)

// doorEngine is buildPersistEngine booted with spec instead of
// persistTestSpec (a later option wins), closed with the test.
func doorEngine(t *testing.T, boot policy.Spec, dir string, clock *atomic.Int64) *Engine {
	t.Helper()
	eng := buildPersistEngine(t, dir, clock, WithPolicy(boot))
	t.Cleanup(eng.Close)
	return eng
}

// TestWarmRestartKeepsQoS: a qos block adopted through Reconfigure is what
// the schedulers run after a graceful restart — not merely what Policy()
// reports. restore used to install allocators and deadline by hand and never
// configured the schedulers, so the class ladder (and with it the gateway's
// token buckets) silently fell back to the boot spec's.
func TestWarmRestartKeepsQoS(t *testing.T) {
	dir := t.TempDir()
	var clock atomic.Int64
	ladder := qos.DefaultSpec()
	ladder.ConsumerRate = 25
	tuned := persistTestSpec()
	tuned.Name, tuned.QoS = "tuned", &ladder

	eng1 := doorEngine(t, persistTestSpec(), dir, &clock) // boots without a qos block
	if err := eng1.Reconfigure(context.Background(), tuned); err != nil {
		t.Fatal(err)
	}
	want := eng1.QoSSpec()
	if len(want.Classes) != len(ladder.Classes) || want.ConsumerRate != 25 {
		t.Fatalf("QoSSpec() after Reconfigure = %+v, want the spec's ladder", want)
	}
	eng1.Close()

	eng2 := doorEngine(t, persistTestSpec(), dir, &clock)
	if got := eng2.Policy(); got.QoS == nil || len(got.QoS.Classes) != len(ladder.Classes) {
		t.Fatalf("restored Policy().QoS = %+v, want the ladder", got.QoS)
	}
	if got := eng2.QoSSpec(); !reflect.DeepEqual(got, want) {
		t.Fatalf("QoSSpec() after restart = %+v\nwant what ran before it: %+v", got, want)
	}
	classes := eng2.Stats().Shards[0].QoS.Classes
	if len(classes) != len(ladder.Classes) {
		t.Fatalf("scheduler runs %d class(es) after restart, want %d", len(classes), len(ladder.Classes))
	}
	for i, c := range classes {
		if c.Name != ladder.Classes[i].Name {
			t.Errorf("scheduler class %d = %q after restart, want %q", i, c.Name, ladder.Classes[i].Name)
		}
	}
}

// slowProvider answers its context-aware intention call after delay — a
// webhook participant: a participant deadline shorter than delay imputes it.
type slowProvider struct {
	constProvider
	delay time.Duration
}

func (p *slowProvider) IntentionContext(ctx context.Context, _ model.Query) (model.Intention, error) {
	select {
	case <-time.After(p.delay):
		return p.pi, nil
	case <-ctx.Done():
		return 0, ctx.Err()
	}
}

// TestOneSpecOneDeadline: a spec's participant deadline is what runs,
// whichever door the spec came through, and a spec without one runs the boot
// spec's — construction used to let an engine option outrank the spec while
// Reconfigure and restore let the spec outrank the option. Read behaviourally:
// a participant that answers in 150 ms is imputed under 20 ms and heard under
// 5 s.
func TestOneSpecOneDeadline(t *testing.T) {
	deadline := func(d time.Duration) policy.Spec {
		return policy.Spec{Kind: policy.Capacity, ParticipantDeadline: policy.Duration(d)}
	}
	short, long, bare := deadline(20*time.Millisecond), deadline(5*time.Second), deadline(0)
	cases := []struct {
		name     string
		boot     policy.Spec
		then     []policy.Spec // Reconfigured to, in order; none = the boot spec runs
		timeouts uint64
	}{
		{"short built", short, nil, 1},
		{"short reconfigured", long, []policy.Spec{short}, 1},
		{"long built", long, nil, 0},
		{"long reconfigured", short, []policy.Spec{long}, 0},
		{"bare built is unbounded", bare, nil, 0},
		{"bare reconfigured runs the boot deadline", short, []policy.Spec{bare}, 1},
		{"bare after an override runs the boot deadline, not the override", long, []policy.Spec{short, bare}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng := mustEngine(t, WithWindow(10), WithPolicy(tc.boot))
			for _, spec := range tc.then {
				if err := eng.Reconfigure(context.Background(), spec); err != nil {
					t.Fatal(err)
				}
			}
			eng.RegisterProvider(&slowProvider{constProvider{id: 1, pi: 0.5}, 150 * time.Millisecond})
			eng.RegisterConsumer(FuncConsumer{ID: 0, Fn: func(model.Query, model.ProviderSnapshot) model.Intention { return 0.5 }})
			if _, err := submit(context.Background(), eng, model.Query{Consumer: 0, N: 1, Work: 1}, nil); err != nil {
				t.Fatal(err)
			}
			if got := intentionTimeouts(eng.Stats()); got != tc.timeouts {
				t.Fatalf("intention timeouts = %d, want %d", got, tc.timeouts)
			}
		})
	}
}

// doorSpecs is the property test's table: every shipped kind × with/without
// a participant deadline × with/without a qos block.
func doorSpecs() []policy.Spec {
	var specs []policy.Spec
	for i, kind := range []policy.Kind{policy.SbQA, policy.Capacity, policy.Economic, policy.Random, policy.RoundRobin, policy.ShareBased} {
		for _, deadline := range []policy.Duration{0, policy.Duration(40 * time.Millisecond)} {
			for _, withQoS := range []bool{false, true} {
				s := policy.Spec{
					Name:                fmt.Sprintf("%s/deadline=%v/qos=%v", kind, deadline.Std(), withQoS),
					Kind:                kind,
					Seed:                uint64(11 + i),
					ParticipantDeadline: deadline,
				}
				if kind == policy.SbQA {
					s.K, s.Kn = 6, 3
				}
				if withQoS {
					ladder := qos.DefaultSpec()
					ladder.ConsumerRate = float64(10 + i)
					s.QoS = &ladder
				}
				specs = append(specs, s)
			}
		}
	}
	return specs
}

// TestThreeDoorsAgree: an engine built with S, one reconfigured to S from
// another spec, and one restored into S over that other spec run the same
// thing — same Policy(), same QoSSpec(), same participant deadline, the
// generation each door documents — and, TestRestartDeterminismByteIdentical
// extended to every kind and across a policy change, allocate the same
// 200-query sequence byte for byte (the restored engine resumes the sequence
// where the engine it replaces stopped).
func TestThreeDoorsAgree(t *testing.T) {
	const queries, half = 200, 100
	for _, s := range doorSpecs() {
		t.Run(s.Name, func(t *testing.T) {
			other := policy.Spec{Name: "other", Kind: policy.Capacity}
			if s.Kind == policy.Capacity {
				other.Kind = policy.RoundRobin
			}

			var builtClock, reconfClock, restoreClock atomic.Int64
			built := doorEngine(t, s, "", &builtClock)
			want := runQueries(t, built, &builtClock, 0, queries)

			reconf := doorEngine(t, other, "", &reconfClock)
			if err := reconf.Reconfigure(context.Background(), s); err != nil {
				t.Fatal(err)
			}
			if sh := reconf.Stats().Shards[0]; reconf.PolicyGeneration() != 1 || sh.PolicyGeneration != 0 {
				t.Fatalf("reconfigured, idle: generation %d, shard running %d; want 1 published, 0 running until the next mediation",
					reconf.PolicyGeneration(), sh.PolicyGeneration)
			}
			got := runQueries(t, reconf, &reconfClock, 0, queries)

			dir := t.TempDir()
			before := doorEngine(t, other, dir, &restoreClock)
			if err := before.Reconfigure(context.Background(), s); err != nil {
				t.Fatal(err)
			}
			resumed := runQueries(t, before, &restoreClock, 0, half)
			before.Close()
			restored := doorEngine(t, other, dir, &restoreClock)
			resumed = append(resumed, runQueries(t, restored, &restoreClock, half, queries)...)

			for name, seq := range map[string][]string{"reconfigured": got, "restored": resumed} {
				for i := range want {
					if seq[i] != want[i] {
						t.Fatalf("%s engine diverged from the built one at query %d:\nbuilt: %s\n%s: %s", name, i, want[i], name, seq[i])
					}
				}
			}
			for _, door := range []struct {
				name       string
				eng        *Engine
				gen, swaps uint64
			}{
				{"built", built, 0, 0},         // generation 0, installed directly
				{"reconfigured", reconf, 1, 1}, // adopted at a mediation boundary
				{"restored", restored, 1, 0},   // the persisted generation, installed directly
			} {
				if got := door.eng.Policy(); !reflect.DeepEqual(got, s.Normalized()) {
					t.Errorf("%s: Policy() = %+v, want %+v", door.name, got, s.Normalized())
				}
				if got, want := door.eng.QoSSpec(), built.QoSSpec(); !reflect.DeepEqual(got, want) {
					t.Errorf("%s: QoSSpec() = %+v, want %+v", door.name, got, want)
				}
				if got := door.eng.shards[0].nextGen.Load().deadline; got != s.ParticipantDeadline.Std() {
					t.Errorf("%s: participant deadline %v, want %v", door.name, got, s.ParticipantDeadline.Std())
				}
				sh := door.eng.Stats().Shards[0]
				if door.eng.PolicyGeneration() != door.gen || sh.PolicyGeneration != door.gen || sh.PolicySwaps != door.swaps {
					t.Errorf("%s: generation %d, shard running %d after %d swap(s); want %d, %d, %d",
						door.name, door.eng.PolicyGeneration(), sh.PolicyGeneration, sh.PolicySwaps, door.gen, door.gen, door.swaps)
				}
			}
		})
	}
}
