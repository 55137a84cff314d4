package cluster

import (
	"context"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"sbqa/internal/model"
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

// TestNodeCloseLeavesNoGoroutines: a node that has been heartbeating one
// live and one dead peer, shipping its journal to the live one and forwarding
// to it — all over the one link to it, with calls still in flight — has
// nothing running once Close returns: the loops, their per-round probe
// goroutines, the failover replay and the link's reader all finish under it,
// and the pending calls fail. Nor does the node at the link's other end keep
// anything: the frames it was serving end with the link, and so do the
// servers an earlier burst of concurrent frames left waiting for the link's
// read side; its own Close finds them gone.
func TestNodeCloseLeavesNoGoroutines(t *testing.T) {
	const burst = 16
	var parked sync.WaitGroup
	together := allAtOnce(burst)
	fCfg := fastConfig(Peer{ID: "b"}, Peer{ID: "a", Addr: "http://a.test"})
	fCfg.StateDir = t.TempDir()
	fCfg.Serve = func(ctx context.Context, _ string, req, reply *Frame) {
		if string(req.Body) == "burst" {
			together()
			reply.Status = http.StatusOK
			reply.Body = append(reply.Body, req.Body...)
			return
		}
		parked.Done()
		<-ctx.Done() // a wait:"results" on a worker that never delivers
		reply.Status = http.StatusConflict
	}
	follower := newNode(t, fCfg)
	mn := newMemNet()
	mn.serveNode(t, follower) // its server's goroutines are not the node's

	store, _ := newStoreWithRecords(t, t.TempDir(), []model.ConsumerID{1, 2, 3})
	defer store.Close()
	before := goroutineStacks()
	cfg := fastConfig(Peer{ID: "a"}, peerB, Peer{ID: "dead", Addr: "http://dead.test"})
	cfg.StateDir = t.TempDir()
	cfg.Store = store
	cfg.Dial = mn.dial
	node, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	node.Start()
	awaitBurst(t, forwardBurst(node, burst, "burst"), burst)
	const inFlight = 4
	parked.Add(inFlight)
	calls := make(chan error, inFlight)
	for i := 0; i < inFlight; i++ {
		go func() {
			call, err := node.Forward(context.Background(), peerB, FrameQuery, model.TraceContext{}, []byte("{}"))
			if err == nil {
				call.Release()
			}
			calls <- err
		}()
	}
	parked.Wait()
	waitFor(t, "segment shipped and the dead peer noticed", func() bool {
		seqs, _ := follower.heldSegments("a")
		return len(seqs) >= 1 && health(node, "dead") == HealthDown
	})
	node.Close()
	for i := 0; i < inFlight; i++ {
		if err := <-calls; err == nil {
			t.Error("a call in flight when the node closed got an answer")
		}
	}
	if call, err := node.Forward(context.Background(), peerB, FrameQuery, model.TraceContext{}, nil); err == nil {
		call.Release()
		t.Error("a closed node forwarded")
	}
	follower.Close() // the frames it served for the closed node are gone already, or this hangs

	var leaked []string
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		leaked = leaked[:0]
		for id, stack := range goroutineStacks() {
			// The test server's per-connection goroutines finish on their
			// own schedule and belong to the server.
			if _, ok := before[id]; !ok && !strings.Contains(stack, "net/http.(*conn).serve") && !strings.Contains(stack, "net/http.(*Server).Serve") {
				leaked = append(leaked, stack)
			}
		}
		if len(leaked) == 0 || time.Now().After(deadline) {
			break
		}
	}
	if len(leaked) > 0 {
		t.Fatalf("%d goroutines outlived Node.Close:\n\n%s", len(leaked), strings.Join(leaked, "\n\n"))
	}
}
