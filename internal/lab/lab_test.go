package lab

import (
	"bytes"
	"math"
	"runtime"
	"testing"
	"time"

	"sbqa/internal/policy"
)

func sbqaPolicy(seed uint64) policy.Spec {
	return policy.Spec{Kind: policy.SbQA, K: 8, Kn: 3, Seed: seed}
}

// smallScenario is the shared small-world shape: two classes, one of them
// bursty (a flash crowd on its Poisson stream), light adversaries.
func smallScenario(name string, seed uint64, spec policy.Spec) Scenario {
	return Scenario{
		Name:     name,
		Seed:     seed,
		Duration: 120,
		Policy:   spec,
		Workload: Workload{
			QueryTimeout: 30,
			Classes: []ClassSpec{
				{
					Name: "steady", Consumers: 6, Providers: 40,
					Rate: 4,
					Cost: CostSpec{Kind: "exp", Mean: 2},
				},
				{
					Name: "bursty", Consumers: 4, Providers: 30,
					Rate:        1,
					Cost:        CostSpec{Kind: "pareto", Xm: 0.5, Alpha: 2.2},
					Replication: 2,
				},
			},
			Flash:       []FlashSpec{{Class: "bursty", At: 60, Duration: 20, Factor: 10}},
			Adversaries: AdversarySpec{FreeRiders: 0.1, OverClaimers: 0.1},
		},
	}
}

func TestRunSmoke(t *testing.T) {
	r, err := Run(smallScenario("smoke", 42, sbqaPolicy(42)))
	if err != nil {
		t.Fatal(err)
	}
	if r.Participants != 80 || r.Providers != 70 || r.Consumers != 10 {
		t.Fatalf("population %d/%d/%d, want 80/70/10", r.Participants, r.Providers, r.Consumers)
	}
	if r.Issued < 100 {
		t.Fatalf("issued %d, want a real query stream", r.Issued)
	}
	if r.Mediated == 0 || r.Completed == 0 {
		t.Fatalf("mediated %d / completed %d, want > 0", r.Mediated, r.Completed)
	}
	if r.Issued != r.Mediated+r.Rejected {
		t.Fatalf("issued %d != mediated %d + rejected %d", r.Issued, r.Mediated, r.Rejected)
	}
	if r.Failed == 0 {
		t.Fatal("free-riders present but no failed executions")
	}
	if len(r.Trajectory) == 0 {
		t.Fatal("no trajectory samples")
	}
	if len(r.Classes) != 2 || len(r.Classes[0].Trajectory) == 0 {
		t.Fatalf("per-class trajectories missing: %d classes", len(r.Classes))
	}
	if r.MeanResponse <= 0 || r.P99Response < r.MeanResponse {
		t.Fatalf("response stats incoherent: mean %v p99 %v", r.MeanResponse, r.P99Response)
	}
	sum := r.Shares.Honest + r.Shares.FreeRider + r.Shares.OverClaimer + r.Shares.Malicious
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("behavior shares sum to %v", sum)
	}
	if r.GiniUtilization <= 0 || r.GiniUtilization >= 1 {
		t.Fatalf("gini %v outside (0, 1)", r.GiniUtilization)
	}
	if r.ConsumerSatisfaction <= 0 || r.ConsumerSatisfaction > 1 {
		t.Fatalf("mean consumer δs %v outside (0, 1]", r.ConsumerSatisfaction)
	}
}

// TestReportDeterminism is the lab's core promise: same scenario (same
// seed) ⇒ byte-identical report, with a storm driving departures and
// rejoins.
func TestReportDeterminism(t *testing.T) {
	sc := smallScenario("determinism", 7, sbqaPolicy(7))
	sc.Workload.Storm = &StormSpec{At: 30, Duration: 30, Fraction: 0.3}
	sc.Workload.Flash = append(sc.Workload.Flash, FlashSpec{Class: "steady", At: 40, Duration: 10, Factor: 6})

	r1, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	b1, err := r1.Encode()
	if err != nil {
		t.Fatal(err)
	}
	b2, err := r2.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("same scenario produced different reports (%d vs %d bytes)", len(b1), len(b2))
	}
	h1, _ := r1.Hash()
	h2, _ := r2.Hash()
	if h1 != h2 || h1 == "" {
		t.Fatalf("hashes differ: %s vs %s", h1, h2)
	}

	// A different seed must actually change the bytes (the hash is not
	// vacuously stable).
	sc2 := sc
	sc2.Seed = 8
	r3, err := Run(sc2)
	if err != nil {
		t.Fatal(err)
	}
	if h3, _ := r3.Hash(); h3 == h1 {
		t.Fatal("different seed produced identical report")
	}
}

// TestRunLeavesNoGoroutines: every world closes its engine — Engine.Close
// waits for the shard loop, so the count is back before Run returns.
func TestRunLeavesNoGoroutines(t *testing.T) {
	before := settledGoroutines()
	for i := 0; i < 8; i++ {
		if _, err := Run(smallScenario("leak", uint64(i), sbqaPolicy(1))); err != nil {
			t.Fatal(err)
		}
	}
	if after := settledGoroutines(); after > before {
		t.Fatalf("goroutines grew from %d to %d across lab runs", before, after)
	}
}

// settledGoroutines reads the goroutine count once it has stopped moving, so
// goroutines still exiting from an earlier test are in neither reading.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		time.Sleep(10 * time.Millisecond)
		m := runtime.NumGoroutine()
		if m == n {
			break
		}
		n = m
	}
	return n
}

func TestChurnStormVisibleInTrajectory(t *testing.T) {
	sc := smallScenario("storm", 11, sbqaPolicy(11))
	sc.Workload.Storm = &StormSpec{At: 40, Duration: 40, Fraction: 0.5}
	r, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	fleet := r.Providers
	var inStorm, outStorm int
	for _, p := range r.Trajectory {
		if p.T > 40 && p.T <= 80 {
			if inStorm == 0 || p.Online < inStorm {
				inStorm = p.Online
			}
		} else if p.Online > outStorm {
			outStorm = p.Online
		}
	}
	if outStorm != fleet {
		t.Fatalf("outside the storm %d online, want full fleet %d", outStorm, fleet)
	}
	if inStorm > int(0.7*float64(fleet)) {
		t.Fatalf("during the storm %d online of %d, want a visible drop", inStorm, fleet)
	}
}

func TestScenarioValidation(t *testing.T) {
	bad := []Scenario{
		{},                                   // no name
		{Name: "x"},                          // no duration
		{Name: "x", Duration: 10},            // no classes
		smallScenario("x", 1, policy.Spec{}), // no policy kind
	}
	bad[3].Policy = policy.Spec{}
	for i, sc := range bad {
		if _, err := Run(sc); err == nil {
			t.Fatalf("case %d: invalid scenario accepted", i)
		}
	}
	adv := smallScenario("adv", 1, sbqaPolicy(1))
	adv.Workload.Adversaries = AdversarySpec{FreeRiders: 0.7, OverClaimers: 0.7}
	if _, err := Run(adv); err == nil {
		t.Fatal("adversary fractions > 1 accepted")
	}
}
