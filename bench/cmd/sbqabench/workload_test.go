package main

import (
	"fmt"
	"sort"
	"strings"
	"testing"
)

func TestFixturesAndStreamsAreSeeded(t *testing.T) {
	for _, w := range workloads {
		a, err := describe(w.name, 1, 2, 500)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := describe(w.name, 1, 2, 500)
		if a != b {
			t.Errorf("%s: two builds from seed 1 differ", w.name)
		}
		c, _ := describe(w.name, 2, 2, 500)
		if a == c {
			t.Errorf("%s: seeds 1 and 2 generate identical inputs", w.name)
		}
		if len(w.why) == 0 || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.name)
		}
	}
	if _, err := newFixture("nope", 1); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestFixtureShapes(t *testing.T) {
	want := map[string]struct{ nodes, workers, consumers, classes int }{
		"wire_small":      {1, 24, 64, 1},
		"wide_directory":  {1, 2000, 64, 1},
		"churn_mixed":     {1, 400, 64, 8},
		"cluster_durable": {3, 600, 96, 1},
	}
	for name, w := range want {
		fx, err := newFixture(name, 7)
		if err != nil {
			t.Fatal(err)
		}
		if fx.nodes != w.nodes || len(fx.workers) != w.workers || len(fx.consumers) != w.consumers || fx.classes != w.classes {
			t.Errorf("%s: %d nodes %d workers %d consumers %d classes", name, fx.nodes, len(fx.workers), len(fx.consumers), fx.classes)
		}
	}
	fx, _ := newFixture("cluster_durable", 7)
	fwd := 0
	for _, c := range fx.consumers {
		if c.Owner != 0 {
			fwd++
		}
	}
	if share := float64(fwd) / float64(len(fx.consumers)); share < 0.5 || share > 0.8 {
		t.Errorf("cluster_durable forwards %.2f of its consumers, want about two thirds", share)
	}
}

// TestChurnStreamMix holds the op stream to the issue's table and checks
// that a stream only ever touches its own classes and never empties one.
func TestChurnStreamMix(t *testing.T) {
	fx, _ := newFixture("churn_mixed", 3)
	const n = 200000
	for idx := 0; idx < 2; idx++ {
		s := newStream(fx, 3, idx, 2)
		counts := map[opKind]int{}
		async, deadline, qos := 0, 0, map[string]int{}
		for i := 0; i < n; i++ {
			o := s.next()
			counts[o.kind]++
			if o.kind == opQuery {
				if o.class%2 != idx {
					t.Fatalf("stream %d sent a query of class %d", idx, o.class)
				}
				body := string(o.body)
				if o.async != strings.Contains(body, `"wait":"none"`) {
					t.Fatalf("async flag disagrees with body %s", body)
				}
				if o.async {
					async++
				}
				if strings.Contains(body, `"deadline_ms":1000`) {
					deadline++
				}
				for _, name := range qosNames {
					if strings.Contains(body, `"qos":"`+name+`"`) {
						qos[name]++
					}
				}
			}
			for c, gone := range s.gone {
				if len(gone) > maxGonePerClass || len(s.live[c])+len(gone) != 50 {
					t.Fatalf("class %d: %d live, %d gone", c, len(s.live[c]), len(gone))
				}
			}
		}
		share := func(k int, of int) float64 { return float64(k) / float64(of) }
		q := counts[opQuery]
		checks := []struct {
			what      string
			got, want float64
		}{
			{"query", share(q, n), 0.94}, {"delete+register", share(counts[opDelete]+counts[opRegister], n), 0.04},
			{"stats", share(counts[opStats], n), 0.01}, {"policy", share(counts[opPolicy], n), 0.01},
			{"wait none", share(async, q), 0.20}, {"deadline", share(deadline, q), 0.25},
			{"interactive", share(qos["interactive"], q), 0.60}, {"batch", share(qos["batch"], q), 0.30}, {"background", share(qos["background"], q), 0.10},
		}
		for _, c := range checks {
			if d := c.got - c.want; d > 0.005 || d < -0.005 {
				t.Errorf("stream %d: %s share %.4f, want %.2f", idx, c.what, c.got, c.want)
			}
		}
	}
}

// describe renders the fixture and the first n ops of every stream as text;
// the determinism test compares it across seeds.
func describe(name string, seed uint64, conns, n int) (string, error) {
	fx, err := newFixture(name, seed)
	if err != nil {
		return "", err
	}
	var out []byte
	for _, p := range fx.populate() {
		out = append(out, fmt.Sprintf("n%d %s %s %s\n", p.Node, p.method, p.path, p.body)...)
	}
	owners := make([]string, 0, len(fx.consumers))
	for _, c := range fx.consumers {
		owners = append(owners, fmt.Sprintf("%d@n%d", c.ID, c.Owner))
	}
	sort.Strings(owners)
	out = append(out, fmt.Sprintln(owners)...)
	for i := 0; i < conns; i++ {
		s := newStream(fx, seed, i, conns)
		for j := 0; j < n; j++ {
			o := s.next()
			out = append(out, fmt.Sprintf("c%d %s %s %s\n", i, o.method, o.path, o.body)...)
		}
	}
	return string(out), nil
}
