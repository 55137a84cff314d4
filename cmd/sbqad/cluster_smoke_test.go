//go:build clustersmoke

package main

// Three-process cluster smoke test: real sbqad binaries on loopback, a
// query submitted through a non-owner, a SIGKILL of the owner, and a
// follower serving the dead node's consumer with its satisfaction
// memory restored from shipped WAL segments. Build-tagged because it
// compiles the binary and runs ~10s of wall clock:
//
//	go test -tags clustersmoke -run TestClusterSmokeThreeNode -v ./cmd/sbqad/

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"sbqa"
	"sbqa/internal/cluster"
)

func freePorts(t *testing.T, n int) []int {
	t.Helper()
	ports := make([]int, n)
	for i := range ports {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		ports[i] = ln.Addr().(*net.TCPAddr).Port
		ln.Close()
	}
	return ports
}

func smokeGetJSON(url string, out any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func TestClusterSmokeThreeNode(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "sbqad")
	build := exec.Command("go", "build", "-o", bin, "sbqa/cmd/sbqad")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	const n = 3
	ports := freePorts(t, n)
	ids := make([]string, n)
	urls := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("n%d", i)
		urls[i] = fmt.Sprintf("http://127.0.0.1:%d", ports[i])
	}
	procs := make([]*exec.Cmd, n)
	for i := 0; i < n; i++ {
		peers := ""
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			if peers != "" {
				peers += ","
			}
			peers += ids[j] + "=" + urls[j]
		}
		cmd := exec.Command(bin,
			"-addr", fmt.Sprintf("127.0.0.1:%d", ports[i]),
			"-node-id", ids[i],
			"-peers", peers,
			"-state-dir", t.TempDir(),
			"-state-sync-every", "1",
			"-shards", "1",
			"-heartbeat-interval", "50ms",
			"-replicate-interval", "50ms",
		)
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		procs[i] = cmd
		i := i
		t.Cleanup(func() {
			procs[i].Process.Kill()
			procs[i].Wait()
		})
	}

	waitHTTP := func(what string, d time.Duration, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(d)
		for time.Now().Before(deadline) {
			if cond() {
				return
			}
			time.Sleep(50 * time.Millisecond)
		}
		t.Fatalf("timeout waiting for %s", what)
	}
	for i := range urls {
		url := urls[i]
		waitHTTP("readyz "+ids[i], 15*time.Second, func() bool {
			resp, err := http.Get(url + "/v1/readyz")
			if err != nil {
				return false
			}
			resp.Body.Close()
			return resp.StatusCode == http.StatusOK
		})
	}

	// Same worker fleet everywhere, then a consumer owned by n0 —
	// ownership is computable client-side from the deterministic ring.
	for _, url := range urls {
		for id := 1; id <= 2; id++ {
			postJSON(t, url+"/v1/workers", workerRequest{ID: id, Capacity: 100, Intention: 0.3 * float64(id)}, nil)
		}
	}
	ring := sbqa.NewClusterRing(ids, 0)
	c := 0
	for ; ring.Owner(sbqa.ConsumerID(c)) != "n0"; c++ {
	}
	postJSON(t, urls[1]+"/v1/consumers", consumerRequest{ID: c, Intention: 0.8}, nil)

	// Drive traffic through the NON-owner: every submission forwards.
	for i := 0; i < 10; i++ {
		var qr queryResponse
		resp := postJSON(t, urls[1]+"/v1/queries", queryRequest{Consumer: c, N: 1, Work: 0.1, Wait: "results"}, &qr)
		if resp.StatusCode != http.StatusOK || len(qr.Selected) == 0 {
			t.Fatalf("forwarded submit %d: status %d %+v", i, resp.StatusCode, qr)
		}
	}

	// The owner's satisfaction memory for c, and proof it replicated.
	var stats struct {
		Satisfaction struct {
			Consumers map[string]float64 `json:"consumers"`
		} `json:"satisfaction"`
	}
	if err := smokeGetJSON(urls[0]+"/v1/stats", &stats); err != nil {
		t.Fatal(err)
	}
	wantSat, ok := stats.Satisfaction.Consumers[fmt.Sprint(c)]
	if !ok {
		t.Fatalf("owner has no satisfaction for consumer %d", c)
	}
	waitHTTP("replication drained", 20*time.Second, func() bool {
		var st cluster.Status
		if err := smokeGetJSON(urls[0]+"/v1/cluster", &st); err != nil {
			return false
		}
		saw := false
		for _, p := range st.Peers {
			if !p.Follower {
				continue
			}
			saw = true
			if p.LagSegments != 0 || p.LagBytes != 0 || p.Shipped == 0 {
				return false
			}
		}
		return saw
	})

	// SIGKILL the owner — no graceful shutdown, no final snapshot.
	if err := procs[0].Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	procs[0].Wait()

	waitHTTP("survivors mark n0 down", 20*time.Second, func() bool {
		for _, url := range urls[1:] {
			var st cluster.Status
			if err := smokeGetJSON(url+"/v1/cluster", &st); err != nil {
				return false
			}
			for _, id := range st.Live {
				if id == "n0" {
					return false
				}
			}
			down := false
			for _, p := range st.Peers {
				if p.ID == "n0" && p.Health == "down" {
					down = true
				}
			}
			if !down {
				return false
			}
		}
		return true
	})

	// c now routes to a survivor; its memory must have survived the kill.
	liveRing := sbqa.NewClusterRing(ids[1:], 0)
	newOwner := urls[1]
	other := urls[2]
	if liveRing.Owner(sbqa.ConsumerID(c)) == "n2" {
		newOwner, other = urls[2], urls[1]
	}
	if err := smokeGetJSON(newOwner+"/v1/stats", &stats); err != nil {
		t.Fatal(err)
	}
	gotSat, ok := stats.Satisfaction.Consumers[fmt.Sprint(c)]
	if !ok {
		t.Fatalf("new owner has no restored satisfaction for consumer %d", c)
	}
	if gotSat != wantSat {
		t.Fatalf("restored satisfaction %v != owner's pre-kill %v", gotSat, wantSat)
	}

	// And the follower actually serves the consumer: re-register through
	// the OTHER survivor (still a forwarded hop) and submit.
	postJSON(t, other+"/v1/consumers", consumerRequest{ID: c, Intention: 0.8}, nil)
	var qr queryResponse
	resp := postJSON(t, other+"/v1/queries", queryRequest{Consumer: c, N: 1, Work: 0.1, Wait: "allocation"}, &qr)
	if resp.StatusCode != http.StatusOK || len(qr.Selected) == 0 {
		t.Fatalf("post-failover submit: status %d %+v", resp.StatusCode, qr)
	}
}
