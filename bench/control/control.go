// Package control is the benchmark's frozen speed reference: a stdlib-only
// HTTP/JSON server whose cost per request never changes, so the machine's
// speed at any moment can be read off its throughput and latency. sbqabench
// runs it as a process of its own (sbqabench -serve-control), built by the
// same toolchain in the same build as the harness.
//
// ANY EDIT TO THIS FILE IS A RE-BASELINE. Every timing metric sbqabench
// reports is a ratio to this server's matching statistic, multiplied by the
// nominal constants in cmd/sbqabench/estim.go. Changing the request struct,
// the response body, the hand-off or the spin below changes what "reference
// speed" means: the nominals must be re-recorded from a quiet run and every
// stored baseline is void. control_test.go pins the exact response bytes.
//
// The shape mirrors the gateway's submit path without sharing any code with
// it: decode a small JSON request, hand it to one long-lived goroutine over
// a channel (as a submission crosses to its shard loop), do a fixed amount
// of integer work there, hand the answer back, and encode a small JSON
// response. That makes the control sensitive to the same things a slow box
// slows down — syscalls, JSON, the goroutine scheduler, plain ALU — and to
// nothing sbqad's own code does.
package control

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"time"
)

// request is the fixed request shape (the field set of a query submit).
type request struct {
	Consumer int     `json:"consumer"`
	Class    int     `json:"class"`
	N        int     `json:"n"`
	Work     float64 `json:"work"`
	Wait     string  `json:"wait"`
}

// response is the fixed response shape; its encoding is ResponseBody.
type response struct {
	QueryID  int64 `json:"query_id"`
	Selected []int `json:"selected"`
	Proposed []int `json:"proposed"`
}

// RequestBody is the one request the harness sends.
const RequestBody = `{"consumer":7,"class":0,"n":1,"work":1,"wait":"allocation"}`

// ResponseBody is the one response the server ever gives (json.Encoder
// appends the newline).
const ResponseBody = `{"query_id":1,"selected":[7],"proposed":[1,2,3,4,5,6,7,8,9,10]}` + "\n"

var fixedResponse = response{
	QueryID:  1,
	Selected: []int{7},
	Proposed: []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10},
}

// spinRounds is the fixed integer work per request (a few microseconds).
const spinRounds = 4096

// spin is a data-dependent xorshift chain the compiler cannot fold.
func spin(seed uint64) uint64 {
	x := seed | 1
	for i := 0; i < spinRounds; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	return x
}

type job struct {
	req  request
	done chan uint64
}

// Handler starts the single loop goroutine and returns the handler. The
// loop runs for the life of the process.
func Handler() http.Handler {
	jobs := make(chan job)
	go func() {
		for j := range jobs {
			j.done <- spin(uint64(j.req.Consumer) + uint64(j.req.N))
		}
	}()
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/queries", func(w http.ResponseWriter, r *http.Request) {
		var req request
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		j := job{req: req, done: make(chan uint64, 1)}
		jobs <- j
		if <-j.done == 0 { // never: xorshift of a non-zero state is non-zero
			http.Error(w, "spin", http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		_ = json.NewEncoder(w).Encode(fixedResponse)
	})
	mux.HandleFunc("GET /v1/readyz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`{"status":"ready"}` + "\n"))
	})
	return mux
}

// Serve runs the control on addr until ctx is done, printing the bound
// address first so a parent that asked for port 0 can read it.
func Serve(ctx context.Context, addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: Handler()}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	fmt.Printf("control: listening on %s\n", ln.Addr())
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	return srv.Shutdown(shutdownCtx)
}
