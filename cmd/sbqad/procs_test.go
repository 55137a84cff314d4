package main

import (
	"context"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sbqa"
)

// play feeds c windows with the given runnable-wait p90s in turn and
// returns the P count after each.
func play(c *procsControl, p90s ...float64) []int {
	ns := make([]int, len(p90s))
	for i, p90 := range p90s {
		c.decide(p90)
		ns[i] = c.n
	}
	return ns
}

func TestNextProcs(t *testing.T) {
	const (
		logged = 115e-6 // no lower than any p90 logged at one P on the wire workloads (EXPERIMENTS.md)
		hot    = 600e-6
		quiet  = 20e-6
	)
	for _, tc := range []struct {
		name   string
		n, max int
		p90s   []float64
		want   []int
	}{
		{"a logged one-P window stays at 1", 1, 2,
			[]float64{logged, logged, logged, logged, logged, logged}, []int{1, 1, 1, 1, 1, 1}},
		{"two hot windows go to 2", 1, 2, []float64{hot, hot}, []int{1, 2}},
		{"a hot window alone changes nothing", 1, 2, []float64{hot, logged, hot, logged}, []int{1, 1, 1, 1}},
		{"a raise starts the streak over", 1, 8, []float64{hot, hot, hot, hot, hot}, []int{1, 2, 2, 4, 4}},
		{"doubling is capped at NumCPU", 2, 3, []float64{hot, hot, hot, hot}, []int{2, 3, 3, 3}},
		{"at NumCPU a hot load stays", 2, 2, []float64{hot, hot, hot}, []int{2, 2, 2}},
		{"quiet windows never lower the count", 1, 2,
			[]float64{hot, hot, quiet, quiet, quiet, quiet, 0, 0}, []int{1, 2, 2, 2, 2, 2, 2, 2}},
		{"never below one P", 1, 2, []float64{0, 0, 0, 0, 0}, []int{1, 1, 1, 1, 1}},
	} {
		got := play(&procsControl{n: tc.n, max: tc.max}, tc.p90s...)
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("%s: P counts %v, want %v", tc.name, got, tc.want)
				break
			}
		}
	}
	if n := nextProcs(4, 8, raiseAfter); n != 8 {
		t.Errorf("nextProcs at 4 Ps on the second hot window = %d, want 8", n)
	}
}

// saturate runs spinners goroutines that each compute for 100 µs, tick c
// and yield, until the test ends: at one P every yield waits for the others,
// and the ticks race for c's steps.
func saturate(t *testing.T, spinners int, c *procsControl) {
	var stop atomic.Bool
	var wg sync.WaitGroup
	for i := 0; i < spinners; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				for start := time.Now(); time.Since(start) < 100*time.Microsecond; {
				}
				c.tick(sbqa.TraceNow())
				runtime.Gosched()
			}
		}()
	}
	t.Cleanup(func() { stop.Store(true); wg.Wait() })
}

// defaultProcs gives the test the runtime's default P count (go test -cpu
// or GOMAXPROCS may have set another) with GOMAXPROCS unset, and restores
// both when it ends.
func defaultProcs(t *testing.T) {
	t.Setenv("GOMAXPROCS", "")
	procs := runtime.GOMAXPROCS(runtime.NumCPU())
	t.Cleanup(func() { runtime.GOMAXPROCS(procs) })
}

// TestProcsRaiseUnderSaturation: goroutines queued for the one P the
// controller starts at raise the count to 2 within 2 s, through ticks that
// race each other for the steps.
func TestProcsRaiseUnderSaturation(t *testing.T) {
	if runtime.NumCPU() < 2 {
		t.Skip("one CPU: there is no second P to raise to")
	}
	defaultProcs(t)
	c := startProcs()
	if c == nil || runtime.GOMAXPROCS(0) != 1 {
		t.Fatalf("startProcs at the default count: controller %v, %d Ps; want one at 1 P", c, runtime.GOMAXPROCS(0))
	}
	saturate(t, 4*runtime.NumCPU(), c)
	for deadline := time.Now().Add(2 * time.Second); c.changeCount() == 0 && time.Now().Before(deadline); {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.GOMAXPROCS(0); n < 2 || c.changeCount() != 1 {
		t.Errorf("%d Ps after %d changes under %d spinners, want 2 or more after one", n, c.changeCount(), 4*runtime.NumCPU())
	}
}

// TestProcsLeaveOperatorChoice: a GOMAXPROCS in the environment is the
// operator's, whether or not it equals NumCPU, and nothing the controller
// does changes the count.
func TestProcsLeaveOperatorChoice(t *testing.T) {
	for _, pinned := range []int{runtime.NumCPU(), runtime.NumCPU() + 1} {
		t.Run(strconv.Itoa(pinned), func(t *testing.T) {
			defaultProcs(t)
			t.Setenv("GOMAXPROCS", strconv.Itoa(pinned))
			runtime.GOMAXPROCS(pinned)
			c := startProcs()
			if c != nil {
				t.Fatalf("startProcs under GOMAXPROCS=%d returned a controller", pinned)
			}
			saturate(t, 4*runtime.NumCPU(), c)
			time.Sleep(time.Second)
			if n := runtime.GOMAXPROCS(0); n != pinned || c.changeCount() != 0 {
				t.Errorf("%d Ps after %d changes, want the operator's %d and none", n, c.changeCount(), pinned)
			}
		})
	}
}

// TestServeLeavesProcs: only main starts the controller; serve — the daemon
// as tests and embedders run it — keeps the runtime's P count through
// submits for longer than a step waits for.
func TestServeLeavesProcs(t *testing.T) {
	defaultProcs(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + ln.Addr().String()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- serve(ctx, ln, nil, sbqa.PolicySpec{Kind: sbqa.PolicySbQA}, sbqa.WithWindow(10))
	}()
	for i := 0; ; i++ {
		resp, err := http.Get(base + "/v1/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if i == 250 {
			t.Fatalf("daemon never became ready: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	postJSON(t, base+"/v1/workers", workerRequest{ID: 1, Capacity: 1e6, QueueCap: 64, Intention: 0.5}, nil)
	postJSON(t, base+"/v1/consumers", consumerRequest{ID: 0, Intention: 0.5}, nil)
	for i, end := 0, time.Now().Add(2*procsWindow); time.Now().Before(end); i++ {
		if resp := postJSON(t, base+"/v1/queries", queryRequest{Consumer: 0, N: 1, Work: 0.001}, nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("submit %d: status %d", i, resp.StatusCode)
		}
	}
	if n := runtime.GOMAXPROCS(0); n != runtime.NumCPU() || daemonProcs != nil {
		t.Errorf("serve left %d Ps (controller %v), want the runtime's %d", n, daemonProcs, runtime.NumCPU())
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}
