package main

// One workload run: set-up cycles, warm-up, the measured phase of
// interleaved target/control slices, and — for the layer ledger — a traced
// phase against a second sbqad followed by the in-process probes.

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"sbqa/bench/control"
)

const (
	targetWindow  = 500 * time.Millisecond
	controlWindow = 250 * time.Millisecond
	sliceLen      = targetWindow + controlWindow

	// Set-up cycles repeat until their summed time reaches setupBudget,
	// with at least minCycles and at most maxCycles; a control window goes
	// in whenever setupGap of set-up time has accumulated.
	setupBudget = 1 * time.Second
	minCycles   = 3
	maxCycles   = 25
	setupGap    = 500 * time.Millisecond

	warmup       = 1 * time.Second
	tracedWarmup = 1 * time.Second

	// bookkeepEvery is how many slices pass between two mid-run readings
	// of /v1/stats (see satisfactionSampler).
	bookkeepEvery = 4
)

// generatorConns is the closed loop's width: min(2, nproc) keep-alive
// connections, each waiting for its reply before sending the next request.
func generatorConns() int {
	if runtime.NumCPU() < 2 {
		return 1
	}
	return 2
}

// binaries are the programs a run starts.
type binaries struct {
	sbqad string // built from ./cmd/sbqad
	self  string // this executable, re-run as the control server
	out   string // bench/out
}

// span is one recorded interval of the traced run.
type span struct {
	Trace  string `json:"trace"`
	Name   string `json:"name"`
	Parent string `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// endpoint is something the generator can load: connections plus the op
// source of each.
type endpoint struct {
	fx    *fixture // nil for the control
	conns []*conn
	next  []func() op
	tally *tally
	// pids whose CPU is accounted to the window (target only).
	pids []int
	// spans, when non-nil, receives one "request" span per OK query.
	spans  *[]span
	epoch  time.Time
	fwdLat *[2][]float64 // [self-owned, forwarded] latencies (ms), traced phase
}

// wireBytes totals the HTTP bytes the endpoint's connections have sent and
// received.
func (ep *endpoint) wireBytes() (out, in int64) {
	for _, c := range ep.conns {
		out += c.bytesOut
		in += c.bytesIn
	}
	return out, in
}

// runWindow drives ep for dur and returns what it measured. Latency runs
// from just before the request is written to just after the response has
// been read, parsed and checked — the same code on target and control.
func runWindow(ep *endpoint, dur time.Duration) (winStat, error) {
	type connOut struct {
		lat                   []float64
		ok, attempted, failed int
		okQ, nonOKQ, fwd      int64
		spans                 []span
		self, fwdLat          []float64
		err                   error
	}
	outs := make([]connOut, len(ep.conns))
	var cpu0 int64
	for _, pid := range ep.pids {
		ns, err := cpuNanos(pid)
		if err != nil {
			return winStat{}, err
		}
		cpu0 += ns
	}
	self0 := selfCPU()
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for i := range ep.conns {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, next, out := ep.conns[i], ep.next[i], &outs[i]
			out.lat = make([]float64, 0, 8192)
			for {
				t0 := time.Now()
				if !t0.Before(deadline) {
					return
				}
				o := next()
				t0 = time.Now()
				status, body, err := c.do(o.method, o.path, o.body)
				if err != nil {
					out.err = fmt.Errorf("%s %s: %w", o.method, o.path, err)
					return
				}
				res, err := checkOp(ep.fx, &o, status, body)
				t1 := time.Now()
				if err != nil {
					out.err = err
					return
				}
				out.attempted++
				if !res.ok {
					out.failed++
				}
				if o.kind != opQuery && o.kind != opControl {
					continue
				}
				if !res.ok {
					out.nonOKQ++
					continue
				}
				out.ok++
				out.okQ++
				ms := float64(t1.Sub(t0)) / float64(time.Millisecond)
				out.lat = append(out.lat, ms)
				if o.kind == opQuery && o.owner != 0 {
					out.fwd++
				}
				if ep.spans != nil {
					out.spans = append(out.spans, span{
						Trace: strconv.FormatInt(res.queryID, 10), Name: "request",
						Start: int64(t0.Sub(ep.epoch)), End: int64(t1.Sub(ep.epoch)),
					})
				}
				if ep.fwdLat != nil && !o.async {
					if o.owner == 0 {
						out.self = append(out.self, ms)
					} else {
						out.fwdLat = append(out.fwdLat, ms)
					}
				}
			}
		}(i)
	}
	wg.Wait()
	w := winStat{elapsed: time.Since(start).Seconds(), clientCPU: (selfCPU() - self0).Seconds()}
	for _, pid := range ep.pids {
		ns, err := cpuNanos(pid)
		if err != nil {
			return winStat{}, err
		}
		w.cpuNS += ns
	}
	w.cpuNS -= cpu0
	var lat []float64
	var errs []error
	for i := range outs {
		out := &outs[i]
		if out.err != nil {
			errs = append(errs, out.err)
		}
		lat = append(lat, out.lat...)
		w.ok += out.ok
		w.attempted += out.attempted
		w.failed += out.failed
		if ep.tally != nil {
			ep.tally.okQueries += out.okQ
			ep.tally.nonOKQueries += out.nonOKQ
			ep.tally.forwarded += out.fwd
		}
		if ep.spans != nil {
			*ep.spans = append(*ep.spans, out.spans...)
		}
		if ep.fwdLat != nil {
			ep.fwdLat[0] = append(ep.fwdLat[0], out.self...)
			ep.fwdLat[1] = append(ep.fwdLat[1], out.fwdLat...)
		}
	}
	if len(errs) > 0 {
		return winStat{}, errors.Join(errs...)
	}
	w.lat = summarize(lat)
	return w, nil
}

// startControl re-runs this executable as the control server and returns
// its endpoint.
func startControl(bin binaries) (*proc, *endpoint, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, nil, err
	}
	p, err := startProc("control", bin.self, addr, filepath.Join(bin.out, "logs", "control.log"), "-serve-control", addr)
	if err != nil {
		return nil, nil, err
	}
	if err := p.waitReady(10 * time.Second); err != nil {
		p.kill()
		return nil, nil, err
	}
	ep := &endpoint{}
	fixed := op{kind: opControl, method: "POST", path: "/v1/queries", body: []byte(control.RequestBody)}
	for i := 0; i < generatorConns(); i++ {
		ep.conns = append(ep.conns, newConn(addr))
		ep.next = append(ep.next, func() op { return fixed })
	}
	return p, ep, nil
}

// target is one booted fixture: its sbqad processes and the generator's
// endpoint on n0.
type target struct {
	fx        *fixture
	procs     []*proc
	ep        *endpoint
	tally     tally
	admin     []*conn // one per node, for populate and scrapes
	stateDirs []string
	// populate timing of this boot
	bootTime, populateTime time.Duration
	workerRegs             int
	workerRegTime          time.Duration
}

// bootTarget starts the fixture's sbqad processes, waits for every
// /v1/readyz, and populates them. extra flags (tracing) go to every node.
func bootTarget(bin binaries, fx *fixture, seed uint64, tag string, extra ...string) (*target, error) {
	t := &target{fx: fx}
	ok := false
	defer func() {
		if !ok {
			t.kill()
		}
	}()
	start := time.Now()
	addrs := make([]string, fx.nodes)
	for i := range addrs {
		a, err := freeAddr()
		if err != nil {
			return nil, err
		}
		addrs[i] = a
	}
	for i := 0; i < fx.nodes; i++ {
		args := []string{"-addr", addrs[i], "-debug-pprof"}
		args = append(args, fx.flags...)
		args = append(args, extra...)
		if fx.nodes > 1 {
			var peers []string
			for j := 0; j < fx.nodes; j++ {
				if j != i {
					peers = append(peers, fx.nodeIDs[j]+"=http://"+addrs[j])
				}
			}
			args = append(args, "-node-id", fx.nodeIDs[i], "-peers", strings.Join(peers, ","))
		}
		if fx.durable {
			dir, err := os.MkdirTemp(filepath.Join(bin.out, "state"), fx.name+"-"+fx.nodeIDs[i]+"-")
			if err != nil {
				return nil, err
			}
			trackDir(dir)
			t.stateDirs = append(t.stateDirs, dir)
			args = append(args, "-state-dir", dir)
		}
		p, err := startProc(fx.name+"/"+fx.nodeIDs[i], bin.sbqad, addrs[i],
			filepath.Join(bin.out, "logs", fx.name+"."+tag+"."+fx.nodeIDs[i]+".log"), args...)
		if err != nil {
			return nil, err
		}
		t.procs = append(t.procs, p)
		t.admin = append(t.admin, newConn(addrs[i]))
	}
	for _, p := range t.procs {
		if err := p.waitReady(20 * time.Second); err != nil {
			return nil, err
		}
	}
	t.bootTime = time.Since(start)
	popStart := time.Now()
	for _, po := range fx.populate() {
		t0 := time.Now()
		status, body, err := t.admin[po.Node].do(po.method, po.path, po.body)
		if err != nil {
			return nil, fmt.Errorf("populate %s: %w", po.path, err)
		}
		if status != 201 {
			return nil, fmt.Errorf("populate %s %s: status %d %.120q", po.path, po.body, status, body)
		}
		if po.path == "/v1/workers" {
			t.workerRegs++
			t.workerRegTime += time.Since(t0)
		}
	}
	t.populateTime = time.Since(popStart)
	t.ep = &endpoint{fx: fx, tally: &t.tally}
	for i := 0; i < generatorConns(); i++ {
		t.ep.conns = append(t.ep.conns, newConn(addrs[0]))
		t.ep.next = append(t.ep.next, newStream(fx, seed, i, generatorConns()).next)
	}
	for _, p := range t.procs {
		t.ep.pids = append(t.ep.pids, p.pid())
	}
	ok = true
	return t, nil
}

func (t *target) closeConns() {
	for _, c := range t.admin {
		c.close()
	}
	if t.ep != nil {
		for _, c := range t.ep.conns {
			c.close()
		}
	}
}

// stop shuts every node down gracefully and removes the state dirs.
func (t *target) stop() error {
	t.closeConns()
	var errs []error
	for _, p := range t.procs {
		if err := p.stop(); err != nil {
			errs = append(errs, err)
		}
	}
	for _, d := range t.stateDirs {
		removeDir(d)
	}
	return errors.Join(errs...)
}

func (t *target) kill() {
	t.closeConns()
	for _, p := range t.procs {
		p.kill()
	}
	for _, d := range t.stateDirs {
		removeDir(d)
	}
}

// get fetches path from node i and returns a copy of the body.
func (t *target) get(i int, path string) ([]byte, error) {
	status, body, err := t.admin[i].do("GET", path, nil)
	if err != nil {
		return nil, fmt.Errorf("GET n%d%s: %w", i, path, err)
	}
	if status != 200 {
		return nil, fmt.Errorf("GET n%d%s: status %d %.120q", i, path, status, body)
	}
	return append([]byte(nil), body...), nil
}

func (t *target) scrapeStats() ([]*statsDoc, error) {
	docs := make([]*statsDoc, len(t.procs))
	for i := range t.procs {
		body, err := t.get(i, "/v1/stats")
		if err != nil {
			return nil, err
		}
		if docs[i], err = parseStats(body); err != nil {
			return nil, fmt.Errorf("n%d %w", i, err)
		}
	}
	return docs, nil
}

// mallocs sums the cumulative heap allocation count over all nodes.
func (t *target) mallocs() (uint64, error) {
	var total uint64
	for i := range t.procs {
		body, err := t.get(i, "/debug/pprof/allocs?debug=1")
		if err != nil {
			return 0, err
		}
		n, err := parseMallocs(body)
		if err != nil {
			return 0, fmt.Errorf("n%d %w", i, err)
		}
		total += n
	}
	return total, nil
}

func (t *target) rssMB() (float64, error) {
	var kib int64
	for _, p := range t.procs {
		v, err := vmHWMKiB(p.pid())
		if err != nil {
			return 0, err
		}
		kib += v
	}
	return float64(kib) / 1024, nil
}

// phase is the outcome of one run of interleaved slices: control has one
// more window than target, so every target window has two flanks.
type phase struct {
	target, control []winStat
}

// runSlices measures n slices against t, each a target window followed by a
// control window, after one leading control window. between, when set, runs
// in the gap after every bookkeepEvery-th slice (but the last), outside
// every timed window.
func runSlices(t *endpoint, ctrl *endpoint, n int, between func() error) (phase, error) {
	var ph phase
	w, err := runWindow(ctrl, controlWindow)
	if err != nil {
		return ph, err
	}
	ph.control = append(ph.control, w)
	for i := 0; i < n; i++ {
		if w, err = runWindow(t, targetWindow); err != nil {
			return ph, err
		}
		ph.target = append(ph.target, w)
		if w, err = runWindow(ctrl, controlWindow); err != nil {
			return ph, err
		}
		ph.control = append(ph.control, w)
		if between != nil && (i+1)%bookkeepEvery == 0 && i+1 < n {
			if err := between(); err != nil {
				return ph, err
			}
		}
	}
	return ph, nil
}

// satisfactionSampler reads /v1/stats at intervals through the measured
// phase and keeps the allocation count clean of its own reads.
//
// δs(p) of a provider that wins about 1 % of its proposals flips between 0
// and its intention from one moment to the next (Definition 2 looks at the
// last 100 proposals), so a single end-of-run reading of a 24-worker fleet
// is a coin toss worth 7 % of the mean. The sampler averages readings taken
// seconds apart. Each reading is bracketed by two Mallocs fetches, and only
// the intervals between readings are summed, so allocs_per_query counts
// nothing the benchmark asked for.
//
// What is left in an interval besides the queries is charged by the clock,
// not by the query: the tail of the Mallocs fetch that opened it, and what
// the servers allocate with no query in flight (cluster_durable's heartbeats
// and replication ticks, 7,000 allocations a second). Per query that share
// doubles when the box runs at half speed, and it moved cluster_durable's
// figure by 3 % between two hours. finish measures both and queryMallocs
// takes them out.
type satisfactionSampler struct {
	t          *target
	mallocs    uint64 // Σ over closed intervals
	open       uint64 // Mallocs at the start of the open interval
	openAt     time.Time
	elapsed    time.Duration // Σ length of the closed intervals
	intervals  int
	perFetch   float64 // allocations one Mallocs fetch leaves behind
	idleRate   float64 // allocations per second of the unloaded servers
	satC, satP float64
	readings   int
}

func (s *satisfactionSampler) start() (err error) {
	s.open, err = s.t.mallocs()
	s.openAt = time.Now()
	return err
}

// closeInterval ends the open interval at a fresh Mallocs fetch and returns
// that count.
func (s *satisfactionSampler) closeInterval() (uint64, error) {
	m, err := s.t.mallocs()
	if err != nil {
		return 0, err
	}
	s.mallocs += m - s.open
	s.elapsed += time.Since(s.openAt)
	s.intervals++
	return m, nil
}

// read closes the open interval, takes one satisfaction reading, and opens
// the next interval.
func (s *satisfactionSampler) read() error {
	if _, err := s.closeInterval(); err != nil {
		return err
	}
	stats, err := s.t.scrapeStats()
	if err != nil {
		return err
	}
	s.add(stats)
	return s.start()
}

// finish closes the last interval (the caller adds the end-of-run reading),
// then measures what the clock charged: a second fetch straight after the
// closing one gives the cost of a fetch, and a control window with the
// target left alone gives the unloaded servers' allocation rate.
func (s *satisfactionSampler) finish(ctrl *endpoint) error {
	m0, err := s.closeInterval()
	if err != nil {
		return err
	}
	m1, err := s.t.mallocs()
	if err != nil {
		return err
	}
	t0 := time.Now()
	if _, err := runWindow(ctrl, controlWindow); err != nil {
		return err
	}
	m2, err := s.t.mallocs()
	if err != nil {
		return err
	}
	s.perFetch = float64(m1 - m0)
	s.idleRate = max(0, float64(m2-m1)-s.perFetch) / time.Since(t0).Seconds()
	return nil
}

// queryMallocs is what the queries of the closed intervals allocated: the
// intervals' total less one fetch per interval and the idle rate over their
// length.
func (s *satisfactionSampler) queryMallocs() float64 {
	return queryMallocs(float64(s.mallocs), s.intervals, s.elapsed.Seconds(), s.perFetch, s.idleRate)
}

func queryMallocs(total float64, intervals int, seconds, perFetch, idleRate float64) float64 {
	return max(0, total-float64(intervals)*perFetch-seconds*idleRate)
}

// add folds one reading in. The means run over every participant the
// fixture registered. A participant the registry has never seen counts 0,
// as Definition 2 gives a provider that performed none of its proposals:
// whether a rarely proposed worker is "unseen" (neutral 0.5) or "seen, never
// chosen" (0) is itself a coin toss.
func (s *satisfactionSampler) add(stats []*statsDoc) {
	var c, p float64
	for _, st := range stats {
		for _, v := range st.Satisfaction.Consumers {
			c += v
		}
		for _, v := range st.Satisfaction.Providers {
			p += v
		}
	}
	s.satC += c / float64(len(s.t.fx.consumers))
	s.satP += p / float64(len(s.t.fx.workers))
	s.readings++
}

func (s *satisfactionSampler) means() (consumer, provider float64) {
	return s.satC / float64(s.readings), s.satP / float64(s.readings)
}

// setupResult is what the set-up cycles measured.
type setupResult struct {
	cycles  []float64 // boot→ready→populated per cycle, calibrated seconds
	raw     []float64 // the same, as measured
	control []winStat
	regUS   []float64 // calibrated per-worker registration time per cycle
}

// runSetup repeats boot → ready → populate → stop and returns the last
// target still running. Each cycle's time is multiplied by the speed factor
// of the control windows around its group of cycles.
func runSetup(bin binaries, fx *fixture, seed uint64, ctrl *endpoint, full bool) (*target, setupResult, error) {
	var res setupResult
	type group struct {
		raw, reg []float64
		before   int // index of the control window before the group
	}
	var groups []group
	ctl := func() error {
		w, err := runWindow(ctrl, controlWindow)
		if err == nil {
			res.control = append(res.control, w)
		}
		return err
	}
	if err := ctl(); err != nil {
		return nil, res, err
	}
	cur := group{before: 0}
	var total, sinceCtl time.Duration
	var t *target
	for n := 0; ; n++ {
		var err error
		if t, err = bootTarget(bin, fx, seed, "main"); err != nil {
			return nil, res, err
		}
		d := t.bootTime + t.populateTime
		total += d
		sinceCtl += d
		cur.raw = append(cur.raw, d.Seconds())
		cur.reg = append(cur.reg, float64(t.workerRegTime.Microseconds())/float64(t.workerRegs))
		last := !full || (n+1 >= minCycles && total >= setupBudget) || n+1 >= maxCycles
		if !last {
			if err := t.stop(); err != nil {
				return nil, res, err
			}
		}
		if last || sinceCtl >= setupGap {
			if err := ctl(); err != nil {
				t.kill()
				return nil, res, err
			}
			groups = append(groups, cur)
			cur = group{before: len(res.control) - 1}
			sinceCtl = 0
		}
		if last {
			break
		}
	}
	for _, g := range groups {
		s := speedFactor(res.control[g.before : g.before+2])
		for i := range g.raw {
			res.raw = append(res.raw, g.raw[i])
			res.cycles = append(res.cycles, g.raw[i]*s)
			res.regUS = append(res.regUS, g.reg[i]*s)
		}
	}
	return t, res, nil
}

// writeSpans writes the traced run's spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
