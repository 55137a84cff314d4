package cluster

import (
	"context"
	"errors"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sbqa/internal/model"
)

// linkServers counts the goroutines serving an inbound link that were not
// running at before: the holder of a read side and the servers that wait
// for one or serve a frame. One not yet started runs serveReads's go
// wrapper, hence no "(" in the match; the "created by" line is cut off.
func linkServers(before map[string]string) int {
	n := 0
	for id, stack := range goroutineStacks() {
		stack, _, _ = strings.Cut(stack, "\ncreated by ")
		if _, ok := before[id]; !ok && strings.Contains(stack, "cluster.(*Node).serveReads") {
			n++
		}
	}
	return n
}

// forwardBurst sends n query frames at once, each with body, and returns the
// channel their errors arrive on.
func forwardBurst(entry *Node, n int, body string) <-chan error {
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() {
			call, err := entry.Forward(context.Background(), peerB, FrameQuery, model.TraceContext{}, []byte(body))
			if err == nil {
				if string(call.Body) != body {
					err = errors.New("answered " + string(call.Body))
				}
				call.Release()
			}
			errs <- err
		}()
	}
	return errs
}

// allAtOnce returns a wait that holds each caller until n of them wait: the
// handler of a burst of n frames calls it, so that all of them are being
// served at once.
func allAtOnce(n int32) func() {
	var arrived atomic.Int32
	all := make(chan struct{})
	return func() {
		if arrived.Add(1) == n {
			close(all)
		}
		<-all
	}
}

// awaitBurst fails t unless each of n calls on errs was answered.
func awaitBurst(t *testing.T, errs <-chan error, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// TestLinkKeepsBoundedServers: a burst of 64 frames parked at once is served
// on 64 goroutines; once they answer, the link keeps at most NumCPU of them
// waiting for the read side, besides the one holding it, and those serve
// the frames that come next.
func TestLinkKeepsBoundedServers(t *testing.T) {
	const burst = 64
	release := make(chan struct{})
	var parked sync.WaitGroup
	var hold atomic.Bool
	hold.Store(true)
	before := goroutineStacks()
	entry, _, pn := linkPair(t, func(_ context.Context, _ string, req, reply *Frame) {
		if hold.Load() {
			parked.Done()
			<-release
		}
		reply.Status = http.StatusOK
		reply.Body = append(reply.Body, req.Body...)
	})
	parked.Add(burst)
	errs := forwardBurst(entry, burst, "parked")
	parked.Wait()
	if n := linkServers(before); n < burst+1 {
		t.Errorf("%d goroutines serve %d parked frames and the read side", n, burst)
	}
	hold.Store(false)
	close(release)
	awaitBurst(t, errs, burst)
	bound := runtime.NumCPU() + 1
	waitFor(t, "the released servers to end", func() bool { return linkServers(before) <= bound })
	for round := 0; round < 20; round++ {
		awaitBurst(t, forwardBurst(entry, 4, "next"), 4)
	}
	waitFor(t, "the servers of the later frames to end", func() bool { return linkServers(before) <= bound })
	if d := pn.dials.Load(); d != 1 {
		t.Errorf("%d dials, want one link", d)
	}
}

// TestLinkIdleServersFollowCPUs: the link's bound on waiting servers is the
// CPU count, not the P count, which sbqad starts at one: under GOMAXPROCS=1
// a burst still leaves NumCPU servers waiting for the read side, so a second
// concurrent frame finds one rather than starting a goroutine.
func TestLinkIdleServersFollowCPUs(t *testing.T) {
	cpus := runtime.NumCPU()
	if cpus < 2 {
		t.Skip("one CPU: the CPU and P bounds agree")
	}
	procs := runtime.GOMAXPROCS(1)
	t.Cleanup(func() { runtime.GOMAXPROCS(procs) })
	const burst = 16
	together := allAtOnce(burst)
	before := goroutineStacks()
	entry, owner, _ := linkPair(t, func(_ context.Context, _ string, req, reply *Frame) {
		together()
		reply.Status = http.StatusOK
		reply.Body = append(reply.Body, req.Body...)
	})
	awaitBurst(t, forwardBurst(entry, burst, "burst"), burst)
	idle := func() int32 {
		owner.links.mu.Lock()
		defer owner.links.mu.Unlock()
		var n int32
		for l := range owner.links.in {
			n += l.idle.Load()
		}
		return n
	}
	waitFor(t, "NumCPU servers waiting for the read side", func() bool {
		return linkServers(before) == cpus+1 && idle() == int32(cpus)
	})
}

// TestLinkPingAnsweredWhileFramesParked: query frames parked at the owner
// hold no read side, so a heartbeat on the same link is answered at once.
func TestLinkPingAnsweredWhileFramesParked(t *testing.T) {
	const inFlight = 8
	release := make(chan struct{})
	var parked sync.WaitGroup
	entry, _, _ := linkPair(t, func(_ context.Context, _ string, req, reply *Frame) {
		parked.Done()
		<-release
		reply.Status = http.StatusOK
		reply.Body = append(reply.Body, req.Body...)
	})
	parked.Add(inFlight)
	errs := forwardBurst(entry, inFlight, "parked")
	parked.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	call, err := entry.Forward(ctx, peerB, FramePing, model.TraceContext{}, nil)
	if err != nil {
		t.Fatalf("a ping behind %d parked frames: %v", inFlight, err)
	}
	if call.Status != http.StatusOK {
		t.Errorf("pong %d, want 200", call.Status)
	}
	call.Release()
	close(release)
	awaitBurst(t, errs, inFlight)
}

// TestLinkDrainEndsWaitingServers: after a burst leaves servers waiting for
// the read side, DrainLinks ends the link and every one of them with it,
// and Close then finds nothing of the link left.
func TestLinkDrainEndsWaitingServers(t *testing.T) {
	const burst = 16
	together := allAtOnce(burst)
	before := goroutineStacks()
	entry, owner, _ := linkPair(t, func(_ context.Context, _ string, req, reply *Frame) {
		together()
		reply.Status = http.StatusOK
		reply.Body = append(reply.Body, req.Body...)
	})
	awaitBurst(t, forwardBurst(entry, burst, "burst"), burst)
	waitFor(t, "a server waiting for the read side", func() bool { return linkServers(before) >= 2 })
	owner.DrainLinks()
	waitFor(t, "the drained link's servers to end", func() bool { return linkServers(before) == 0 })
	owner.Close()
	entry.Close()
	owner.links.mu.Lock()
	defer owner.links.mu.Unlock()
	if len(owner.links.in) != 0 {
		t.Errorf("%d inbound links outlived Close", len(owner.links.in))
	}
}

// TestLinkPeerHangsUpMidServe: the calling end goes away while frames are
// being served. The owner's link context ends, so the parked frames give up;
// their replies find the connection gone and are dropped — nothing panics —
// and the link's goroutines end.
func TestLinkPeerHangsUpMidServe(t *testing.T) {
	const inFlight = 8
	var parked, answered sync.WaitGroup
	var canceled atomic.Int32
	before := goroutineStacks()
	entry, owner, _ := linkPair(t, func(ctx context.Context, _ string, req, reply *Frame) {
		defer answered.Done()
		parked.Done()
		<-ctx.Done()
		canceled.Add(1)
		reply.Status = http.StatusConflict
		reply.Body = append(reply.Body, req.Body...)
	})
	parked.Add(inFlight)
	answered.Add(inFlight)
	errs := forwardBurst(entry, inFlight, "parked")
	parked.Wait()
	entry.failLink("b", errors.New("hung up"))
	for i := 0; i < inFlight; i++ {
		if err := <-errs; err == nil {
			t.Error("a call on a link its own end closed got an answer")
		}
	}
	answered.Wait()
	if n := canceled.Load(); n != inFlight {
		t.Errorf("%d of %d parked frames saw the link's context end", n, inFlight)
	}
	waitFor(t, "the broken link's servers to end", func() bool { return linkServers(before) == 0 })
	waitFor(t, "the broken link to be forgotten", func() bool {
		owner.links.mu.Lock()
		defer owner.links.mu.Unlock()
		return len(owner.links.in) == 0
	})
}
