package live

import (
	"context"
	"runtime"
	"strings"
	"testing"
	"time"

	"sbqa/internal/event"
	"sbqa/internal/model"
	"sbqa/internal/persist"
	"sbqa/internal/policy"
)

// goroutineStacks returns the stack of every live goroutine, by goroutine ID
// (IDs are never reused, so an ID absent from an earlier dump is a goroutine
// started since).
func goroutineStacks() map[string]string {
	buf := make([]byte, 1<<20)
	for n := runtime.Stack(buf, true); ; n = runtime.Stack(buf, true) {
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf)) // the dump was cut short
	}
	stacks := map[string]string{}
	for _, g := range strings.Split(string(buf), "\n\n") {
		id, _, _ := strings.Cut(strings.TrimPrefix(g, "goroutine "), " ")
		stacks[id] = g
	}
	return stacks
}

// assertNoNewGoroutines fails with the stack of every goroutine that was not
// in before and is still alive after a short retry (a goroutine that has
// been told to stop may take a moment to be gone).
func assertNoNewGoroutines(t *testing.T, before map[string]string) {
	t.Helper()
	var leaked []string
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		leaked = leaked[:0]
		for id, stack := range goroutineStacks() {
			if _, ok := before[id]; !ok {
				leaked = append(leaked, stack)
			}
		}
		if len(leaked) == 0 || time.Now().After(deadline) {
			break
		}
	}
	if len(leaked) > 0 {
		t.Fatalf("%d goroutines outlived Close:\n\n%s", len(leaked), strings.Join(leaked, "\n\n"))
	}
}

// TestCloseLeavesNoGoroutines: whatever an engine was built with — shard
// loops only, the journal writer and compaction loop, the snapshot ticker
// feeding a tuner, the trace recorder — nothing it started is alive once
// Close has returned and its workers are closed.
func TestCloseLeavesNoGoroutines(t *testing.T) {
	spec := policy.Spec{Kind: policy.SbQA, K: 6, Kn: 3, Seed: 1}
	for _, tc := range []struct {
		name string
		opts func(t *testing.T) []Option
	}{
		{"plain", func(*testing.T) []Option { return nil }},
		{"persistence", func(t *testing.T) []Option {
			return []Option{WithPersistence(t.TempDir(), persist.SyncEvery(1))}
		}},
		{"tuner+snapshots", func(*testing.T) []Option {
			return []Option{WithSnapshotInterval(time.Millisecond), WithTuner(policy.TunerConfig{MinInterval: time.Millisecond})}
		}},
		{"tracing", func(*testing.T) []Option { return []Option{WithTracing(1, 16)} }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := goroutineStacks()
			eng, err := NewEngine(append([]Option{WithWindow(10), WithConcurrency(2), WithPolicy(spec)}, tc.opts(t)...)...)
			if err != nil {
				t.Fatal(err)
			}
			var workers []*Worker
			for id := 0; id < 3; id++ {
				w, err := NewWorker(model.ProviderID(id), 1e6, 64, func(model.Query) model.Intention { return 0.5 })
				if err != nil {
					t.Fatal(err)
				}
				workers = append(workers, w)
				eng.RegisterWorker(w)
			}
			for c := 0; c < 4; c++ {
				eng.RegisterConsumer(FuncConsumer{ID: model.ConsumerID(c), Fn: func(model.Query, model.ProviderSnapshot) model.Intention { return 0.4 }})
			}
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			for i := 0; i < 40; i++ {
				tk := eng.Submit(ctx, model.Query{Consumer: model.ConsumerID(i % 4), N: 2, Work: 1})
				if _, err := tk.Await(ctx); err != nil {
					t.Fatal(err)
				}
			}
			// Leave every worker mid-service with a backlog: a query of a
			// million seconds in service and at least one queued behind it.
			var parked []*Ticket
			for busy := 0; busy < len(workers) && len(parked) < 200; {
				tk := eng.Submit(ctx, model.Query{Consumer: model.ConsumerID(len(parked) % 4), N: 2, Work: 1e12})
				if _, err := tk.Allocation(); err != nil {
					t.Fatal(err)
				}
				parked = append(parked, tk)
				busy = 0
				for _, w := range workers {
					if w.QueueDepth() >= 2 {
						busy++
					}
				}
			}
			started := 0
			for id := range goroutineStacks() {
				if _, ok := before[id]; !ok {
					started++
				}
			}
			if started < 2+len(workers) { // two shard loops and the busy workers, at least
				t.Fatalf("a running engine shows %d goroutines of its own; the check measures nothing", started)
			}
			eng.Close()
			for _, w := range workers {
				w.Close()
			}
			for _, tk := range parked {
				if _, err := tk.Await(ctx); err != nil {
					t.Fatalf("a query parked on a closed worker: %v", err)
				}
			}
			assertNoNewGoroutines(t, before)
		})
	}
}

// TestSnapshotLoopOnlyForAReader: the snapshot ticker runs only when an
// observer or a tuner reads its snapshots — not for a bare engine, and not
// for a durable one, whose journal recorder ignores snapshots.
func TestSnapshotLoopOnlyForAReader(t *testing.T) {
	spec := policy.Spec{Kind: policy.SbQA, K: 6, Kn: 3, Seed: 1}
	for _, tc := range []struct {
		name string
		opts func(t *testing.T) []Option
		loop bool
	}{
		{"bare", func(*testing.T) []Option { return nil }, false},
		{"persistence", func(t *testing.T) []Option { return []Option{WithPersistence(t.TempDir())} }, false},
		{"observer", func(*testing.T) []Option { return []Option{WithObserver(event.Funcs{})} }, true},
		{"tuner", func(*testing.T) []Option { return []Option{WithTuner(policy.TunerConfig{})} }, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := goroutineStacks()
			mustEngine(t, append([]Option{WithPolicy(spec), WithSnapshotInterval(time.Hour)}, tc.opts(t)...)...)
			// A goroutine that has not run yet shows only as its go
			// statement's wrapper; wait until every new one has started.
			loop, unstarted := false, true
			for deadline := time.Now().Add(2 * time.Second); unstarted && time.Now().Before(deadline); time.Sleep(time.Millisecond) {
				loop, unstarted = false, false
				for id, stack := range goroutineStacks() {
					if _, ok := before[id]; !ok {
						loop = loop || strings.Contains(stack, ".snapshotLoop(")
						unstarted = unstarted || strings.Contains(stack, ".gowrap")
					}
				}
			}
			if loop != tc.loop {
				t.Errorf("snapshot loop running: %v, want %v", loop, tc.loop)
			}
		})
	}
}
