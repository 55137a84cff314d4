package main

// The four workloads: what each one boots (fixture) and what each generator
// connection sends (stream). Everything here is a pure function of the
// workload name and the seed; sbqad only ever sees the generated requests.

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand/v2"
	"strconv"

	"sbqa"
)

// workloadInfo is the public face of a workload: its name and the reason it
// exists (BENCHMARK.json carries the same two strings).
type workloadInfo struct {
	name, why string
}

var workloads = []workloadInfo{
	{"wire_small", "24 workers, |P_q| about k: mediation is a few us of the query, so HTTP, JSON, tickets and the event hub decide the numbers"},
	{"wide_directory", "2,000 workers in one class: Candidates, per-candidate snapshots and KnBest stage 1 are O(|P_q|) and dominate; set-up is 2,000 registrations"},
	{"churn_mixed", "8 classes x 50 workers, 2 shards, QoS on, 6% of ops re-register workers, scrape stats or swap policy: read-side shortcuts that tax writes lose here"},
	{"cluster_durable", "3 sbqad processes with journals, every query enters at n0 so about two thirds take the forward hop: forwarding, journaling and segment shipping show only here"},
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

type workerSpec struct {
	Node      int
	ID        int
	Class     int // -1 = unrestricted
	Intention float64
}

type consumerSpec struct {
	ID        int
	Intention float64
	Owner     int // owning node (0 outside cluster mode)
}

// opMix is the share of each operation kind in the stream; the remainder up
// to 1 is query submits.
type opMix struct {
	del, register, stats, policy float64
	// qosMix draws a QoS class, a deadline and wait:"none" per query.
	qosMix bool
}

// fixture is everything one workload boots: the sbqad processes with their
// flags, and the participants registered during populate.
type fixture struct {
	name      string
	nodes     int
	shards    int
	qos       bool
	flags     []string // the flags the workload names, on every node
	durable   bool     // each node gets a fresh -state-dir
	classes   int
	workers   []workerSpec
	consumers []consumerSpec
	mix       opMix

	// workerClass[node][id] is the worker's class (-1 unrestricted); the
	// selection check reads it.
	workerClass []map[int]int
	nodeIDs     []string
}

// workerCapacity makes one task cost 10 us of worker time (work 1), so no
// worker queue ever holds more than a few tasks and dispatch never refuses.
const workerCapacity = 100000

// workerQueueCap bounds each worker's task queue. The daemon's default of
// 1,024 makes every worker a 180 KB channel: 2,000 of them are a 450 MB heap
// that the collector walks about once per run, so whether a run contained
// that collection decided its p99 and its RSS (14 % and 7 % spread).
const workerQueueCap = 64

func seedFor(seed uint64, parts ...string) *rand.Rand {
	h := fnv.New64a()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	return rand.New(rand.NewPCG(seed, h.Sum64()))
}

// intentionJitter is the half-width of the seeded perturbation grid adds.
const intentionJitter = 0.005

// grid returns n values evenly spaced over [lo, hi], dealt to positions by
// a shuffle that depends on the workload only, each then nudged by a seeded
// jitter of at most ±intentionJitter. Who ends up allocated depends on how
// intentions rank against provider IDs (KnBest and the ranker break ties by
// ID), so a free permutation per seed moved provider_sat_mean by ±10 %
// between seeds on the 24-worker fleet. With the ladder fixed and only the
// jitter seeded, every seed still sends different bytes, and the
// satisfaction means stay comparable across seeds.
func grid(layout, r *rand.Rand, n int, lo, hi float64) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = lo + (hi-lo)*(float64(i)+0.5)/float64(n)
	}
	layout.Shuffle(n, func(i, j int) { v[i], v[j] = v[j], v[i] })
	for i := range v {
		x := v[i] + (2*r.Float64()-1)*intentionJitter
		v[i] = math.Round(x*10000) / 10000
	}
	return v
}

// newFixture builds the named workload's fixture for one seed.
func newFixture(name string, seed uint64) (*fixture, error) {
	fx := &fixture{name: name, nodes: 1, shards: 1, classes: 1}
	r := seedFor(seed, name, "fixture")
	layout := seedFor(0, name, "layout")
	// addWorkers appends one (node, class) group with its own intention grid.
	addWorkers := func(node, firstID, n, class int) {
		in := grid(layout, r, n, -0.2, 1)
		for i := 0; i < n; i++ {
			fx.workers = append(fx.workers, workerSpec{Node: node, ID: firstID + i, Class: class, Intention: in[i]})
		}
	}
	nConsumers := 64
	switch name {
	case "wire_small":
		addWorkers(0, 1, 24, -1)
	case "wide_directory":
		addWorkers(0, 1, 2000, 0)
	case "churn_mixed":
		fx.classes, fx.shards, fx.qos = 8, 2, true
		fx.flags = []string{"-shards", "2", "-qos"}
		for c := 0; c < fx.classes; c++ {
			addWorkers(0, 1+50*c, 50, c)
		}
		fx.mix = opMix{del: 0.02, register: 0.02, stats: 0.01, policy: 0.01, qosMix: true}
	case "cluster_durable":
		fx.nodes = 3
		fx.durable = true
		fx.flags = []string{"-shards", "1", "-heartbeat-interval", "100ms", "-replicate-interval", "250ms"}
		for n := 0; n < fx.nodes; n++ {
			addWorkers(n, 1000*n+1, 200, -1)
		}
		nConsumers = 96
	default:
		return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames())
	}
	fx.nodeIDs = make([]string, fx.nodes)
	for i := range fx.nodeIDs {
		fx.nodeIDs[i] = "n" + strconv.Itoa(i)
	}
	owner := func(int) int { return 0 }
	if fx.nodes > 1 {
		ring := sbqa.NewClusterRing(fx.nodeIDs, 0)
		idx := map[string]int{}
		for i, id := range fx.nodeIDs {
			idx[id] = i
		}
		owner = func(c int) int { return idx[ring.Owner(sbqa.ConsumerID(c))] }
	}
	ci := grid(layout, r, nConsumers, 0.1, 1)
	for i := 0; i < nConsumers; i++ {
		fx.consumers = append(fx.consumers, consumerSpec{ID: i + 1, Intention: ci[i], Owner: owner(i + 1)})
	}
	fx.workerClass = make([]map[int]int, fx.nodes)
	for i := range fx.workerClass {
		fx.workerClass[i] = map[int]int{}
	}
	for _, w := range fx.workers {
		fx.workerClass[w.Node][w.ID] = w.Class
	}
	return fx, nil
}

type opKind uint8

const (
	opQuery opKind = iota
	opDelete
	opRegister
	opStats
	opPolicy
	opControl
)

// op is one generated request with what the check needs to know about it.
type op struct {
	kind   opKind
	method string
	path   string
	body   []byte
	// queries
	class int
	n     int
	owner int  // node that mediates it
	async bool // wait:"none"
}

func workerBody(w workerSpec) []byte {
	b := []byte(`{"id":`)
	b = strconv.AppendInt(b, int64(w.ID), 10)
	b = append(b, `,"capacity":`...)
	b = strconv.AppendInt(b, workerCapacity, 10)
	b = append(b, `,"queue_cap":`...)
	b = strconv.AppendInt(b, workerQueueCap, 10)
	b = append(b, `,"intention":`...)
	b = strconv.AppendFloat(b, w.Intention, 'g', -1, 64)
	if w.Class >= 0 {
		b = append(b, `,"classes":[`...)
		b = strconv.AppendInt(b, int64(w.Class), 10)
		b = append(b, ']')
	}
	return append(b, '}')
}

func consumerBody(c consumerSpec) []byte {
	b := []byte(`{"id":`)
	b = strconv.AppendInt(b, int64(c.ID), 10)
	b = append(b, `,"intention":`...)
	b = strconv.AppendFloat(b, c.Intention, 'g', -1, 64)
	return append(b, `,"prefer_idle":true}`...)
}

// populateOp is one registration of the populate step, sent to Node.
type populateOp struct {
	Node int
	op
}

// populate lists the registrations that bring a booted fixture to its
// working state: every worker at its node, then every consumer through n0
// (which forwards to the owner in cluster mode).
func (fx *fixture) populate() []populateOp {
	ops := make([]populateOp, 0, len(fx.workers)+len(fx.consumers))
	for _, w := range fx.workers {
		ops = append(ops, populateOp{w.Node, op{kind: opRegister, method: "POST", path: "/v1/workers", body: workerBody(w)}})
	}
	for _, c := range fx.consumers {
		ops = append(ops, populateOp{0, op{kind: opRegister, method: "POST", path: "/v1/consumers", body: consumerBody(c)}})
	}
	return ops
}

// stream is one generator connection's endless, seeded op sequence. With
// several connections the consumers — and on churn_mixed the classes, with
// their workers — are split between the streams, so a stream's own ops are
// the only ones that touch its workers: a DELETE can never race another
// connection's query for the same class, and no operation fails by
// construction. Each consumer's queries stay on one connection, in order.
type stream struct {
	fx        *fixture
	r         *rand.Rand
	consumers []consumerSpec
	classes   []int
	// churn state: this stream's workers by class, split live/deleted.
	live, gone map[int][]workerSpec
	kn         int
	buf        []byte
}

// maxGonePerClass keeps every class populated however the draws fall.
const maxGonePerClass = 10

func newStream(fx *fixture, seed uint64, idx, of int) *stream {
	s := &stream{
		fx:   fx,
		r:    seedFor(seed, fx.name, "stream", strconv.Itoa(idx)),
		live: map[int][]workerSpec{},
		gone: map[int][]workerSpec{},
		kn:   10,
	}
	for i, c := range fx.consumers {
		if i%of == idx {
			s.consumers = append(s.consumers, c)
		}
	}
	for c := 0; c < fx.classes; c++ {
		if c%of == idx || fx.classes < of {
			s.classes = append(s.classes, c)
		}
	}
	if fx.mix.del > 0 {
		for _, w := range fx.workers {
			if w.Class%of == idx {
				s.live[w.Class] = append(s.live[w.Class], w)
			}
		}
	}
	return s
}

var qosNames = [...]string{"interactive", "batch", "background"}

func (s *stream) next() op {
	u := s.r.Float64()
	m := s.fx.mix
	switch {
	case u < m.del:
		return s.churnOp(false)
	case u < m.del+m.register:
		return s.churnOp(true)
	case u < m.del+m.register+m.stats:
		return op{kind: opStats, method: "GET", path: "/v1/stats"}
	case u < m.del+m.register+m.stats+m.policy:
		if s.kn == 10 {
			s.kn = 8
		} else {
			s.kn = 10
		}
		return op{kind: opPolicy, method: "PUT", path: "/v1/policy",
			body: []byte(`{"name":"bench","kind":"sbqa","k":20,"kn":` + strconv.Itoa(s.kn) + `,"seed":1}`)}
	}
	c := s.consumers[s.r.IntN(len(s.consumers))]
	class := s.classes[s.r.IntN(len(s.classes))]
	o := op{kind: opQuery, method: "POST", path: "/v1/queries", class: class, n: 1, owner: c.Owner}
	b := append(s.buf[:0], `{"consumer":`...)
	b = strconv.AppendInt(b, int64(c.ID), 10)
	b = append(b, `,"class":`...)
	b = strconv.AppendInt(b, int64(class), 10)
	b = append(b, `,"n":1,"work":1`...)
	if m.qosMix {
		q := s.r.Float64()
		name := qosNames[0]
		switch {
		case q >= 0.9:
			name = qosNames[2]
		case q >= 0.6:
			name = qosNames[1]
		}
		b = append(b, `,"qos":"`...)
		b = append(b, name...)
		b = append(b, '"')
		if s.r.Float64() < 0.25 {
			b = append(b, `,"deadline_ms":1000`...)
		}
		o.async = s.r.Float64() < 0.20
	}
	if o.async {
		b = append(b, `,"wait":"none"}`...)
	} else {
		b = append(b, `,"wait":"allocation"}`...)
	}
	s.buf = b
	o.body = b
	return o
}

// churnOp deletes a live worker or re-registers a deleted one. When the
// drawn kind is impossible (nothing deleted yet, or a class already at its
// floor) it does the other, so the fleet hovers near full strength.
func (s *stream) churnOp(register bool) op {
	class := s.classes[s.r.IntN(len(s.classes))]
	if register && len(s.gone[class]) == 0 {
		register = false
	}
	if !register && len(s.gone[class]) >= maxGonePerClass {
		register = true
	}
	from, to := s.live, s.gone
	if register {
		from, to = s.gone, s.live
	}
	i := s.r.IntN(len(from[class]))
	w := from[class][i]
	from[class] = append(from[class][:i], from[class][i+1:]...)
	to[class] = append(to[class], w)
	if register {
		return op{kind: opRegister, method: "POST", path: "/v1/workers", body: workerBody(w)}
	}
	return op{kind: opDelete, method: "DELETE", path: "/v1/workers/" + strconv.Itoa(w.ID)}
}
