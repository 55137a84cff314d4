// Command sbqad runs the SbQA mediation engine behind an HTTP/JSON gateway
// — the network-facing embedding of the asynchronous Engine API.
//
// Endpoints (all JSON). A request body is read once, whole (1 MiB cap, 413
// past it; 415 for a Content-Type other than JSON), and is one JSON
// document: malformed JSON or anything but white space after it is a 400.
//
//	POST   /v1/consumers      register a consumer {id, intention, prefer_idle,
//	                          intention_url}; with intention_url the daemon
//	                          gathers CI_q from the webhook per mediation
//	POST   /v1/workers        register a worker {id, capacity, queue_cap,
//	                          intention, classes, intention_url}; with
//	                          intention_url PI_q comes from the webhook;
//	                          a queue_cap above 65536 is a 400
//	DELETE /v1/workers/{id}   stop and unregister a worker
//	POST   /v1/queries        submit {consumer, class, n, work, wait:none|allocation|results,
//	                          qos, deadline_ms}; wait defaults to allocation
//	                          and any other value is a 400; qos names a
//	                          service class, deadline_ms sheds infeasible
//	                          queries with 503; token-bucket over-limit
//	                          answers 429 + Retry-After
//	GET    /v1/policy         the running allocation policy + per-shard
//	                          generation adoption
//	PUT    /v1/policy         hot-reconfigure the engine to a new policy spec;
//	                          shards adopt it at their next mediation
//	                          boundary. Parsed like a -policy file: an
//	                          unknown field is a 400, not a default
//	POST   /v1/policy/preview dry-run a candidate policy against a submitted
//	                          candidate set (no engine state touched); its
//	                          policy member is parsed the same way
//	GET    /v1/stats          engine counters (incl. imputations/timeouts,
//	                          policy generations, events_dropped, persistence) +
//	                          per-participant satisfaction
//	GET    /v1/metrics        the same counters in Prometheus text exposition
//	                          format (scrape this, not the JSON)
//	GET    /v1/events         server-sent events: allocation, rejection,
//	                          dispatch_failure, registered, departed,
//	                          result, satisfaction, imputation, policy_change,
//	                          peer_change, shed; ?consumer=N routes the
//	                          subscription to the consumer's owning node in
//	                          cluster mode
//	GET    /v1/healthz        liveness: 200 as soon as HTTP serves, even
//	                          mid-restore
//	GET    /v1/readyz         readiness: 503 until the -state-dir restore and
//	                          journal replay complete, then 200 + restore summary
//	GET    /v1/cluster        cluster mode: ring membership, peer health, and
//	                          replication positions as seen by this node
//	GET    /v1/queries/{id}/trace  one sampled query's full trace: per-stage
//	                          spans plus the allocation explain record
//	                          (needs -trace-sample > 0)
//	GET    /v1/debug/traces   the flight recorder's slow-query log
//	                          (?min_ms= filters, ?limit= caps)
//	GET    /v1/debug/explain/{id}  just the explain record: the ranked
//	                          per-provider score breakdown of one mediation
//	GET    /debug/pprof/      net/http/pprof, only with -debug-pprof
//
// With -node-id and -peers the daemon joins a static mediation cluster: a
// consistent-hash ring over consumer IDs assigns each consumer an owning
// node, requests landing on a non-owner are transparently forwarded — the
// client's own bytes to the owner, the owner's whole answer (status,
// Retry-After, body) back — as frames on one persistent connection per peer
// pair, which a node opens by an HTTP Upgrade at GET /v1/internal/forward on
// the peer's ordinary listener. The same link carries the heartbeats and,
// with -state-dir, the sealed satisfaction WAL segments each node ships to
// its ring followers, so a node failure loses at most the unsynced journal
// tail. A request whose owner is down or whose
// link to it breaks answers a typed 503 {"code":"peer_down"}; a forwarded
// request that lands on a node that still disagrees about ownership answers
// {"code":"not_owner"} rather than risking a forwarding loop.
//
// Remote participants answer intention webhooks under the policy's
// participant deadline; a webhook that misses it is imputed from the
// participant's satisfaction registry state and the mediation proceeds.
//
// The daemon runs one boot policy spec, built once (bootSpec): the -policy
// file, else SbQA with k = 20, kn = 10 and seed 1; its participant deadline
// is an explicit -participant-deadline, else the file's, else the flag's
// default; its qos block is the file's, else the default ladder when -qos
// is set. The engine has no other input, and a later PUT /v1/policy that
// leaves the deadline or the qos block out runs the boot spec's.
//
// With -state-dir the daemon's adaptation state is durable: on boot it
// restores the satisfaction memory, the policy persisted there (its
// generation, participant deadline, QoS ladder and token buckets — it wins
// over the boot spec, which stays the fallback base; the line logged before
// "ready" says which policy is in force and where it came from), and the
// allocator sampling streams (replaying the journal tail after a
// crash), and on SIGINT/SIGTERM the graceful shutdown drains in-flight
// tickets via Engine.Close and flushes a final snapshot, so the next boot
// resumes warm. Workers and consumers are runtime objects — re-register
// them after a restart; their memory is already there.
//
// On SIGINT/SIGTERM the daemon shuts down gracefully: it stops accepting
// HTTP requests, drains in-flight tickets via Engine.Close (flushing the
// state snapshot when -state-dir is set), stops its workers, and exits.
//
// The daemon starts on one P (GOMAXPROCS 1) and doubles the count, up to
// the runtime's default, when goroutines wait more than 500 µs for a P
// (runnable-wait p90) in two consecutive windows; a raise is kept
// (procs.go). GOMAXPROCS=n in the environment pins the count at n.
//
// Example session:
//
//	sbqad -addr :8080 -shards 4 &
//	curl -XPOST localhost:8080/v1/workers -d '{"id":1,"capacity":100,"intention":0.5}'
//	curl -XPOST localhost:8080/v1/workers -d '{"id":2,"capacity":100,"intention_url":"http://worker2.local/intent"}'
//	curl -XPOST localhost:8080/v1/consumers -d '{"id":0,"intention":0.6,"prefer_idle":true}'
//	curl -XPOST localhost:8080/v1/queries -d '{"consumer":0,"n":1,"work":2,"wait":"results"}'
//	curl localhost:8080/v1/stats
//	curl -N localhost:8080/v1/events
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"sbqa"
	"sbqa/internal/policy"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		shards   = flag.Int("shards", 1, "mediator shards (distinct consumers mediate in parallel)")
		window   = flag.Int("window", 100, "satisfaction memory length k")
		queue    = flag.Int("queue-depth", 1024, "per-shard async submission queue bound")
		snapshot = flag.Duration("snapshot", 10*time.Second, "satisfaction snapshot interval on the event stream (0 disables)")
		deadline = flag.Duration("participant-deadline", 250*time.Millisecond,
			"per-participant bound on remote intention webhooks (0 = unbounded); late participants are imputed")
		policyPath = flag.String("policy", "",
			"path to a JSON allocation-policy spec, in place of SbQA with k=20, kn=10, seed=1 (see PUT /v1/policy for the schema)")
		autotune = flag.Bool("autotune", false,
			"run the autonomic policy tuner (widens kn under consumer starvation, rebalances fixed ω); requires -snapshot > 0")
		stateDir = flag.String("state-dir", "",
			"directory for durable adaptation state (satisfaction memory, policy generation, sampling streams); restored on boot, flushed on SIGTERM; empty disables persistence")
		stateSyncEvery = flag.Int("state-sync-every", 0,
			"journal fsync cadence with -state-dir: one fsync per N mediation outcomes (1 = every outcome, the crash-loss bound; 0 = library default 64)")
		nodeID = flag.String("node-id", "",
			"this node's cluster identity; empty runs the classic single-node daemon")
		peersFlag = flag.String("peers", "",
			"remote cluster members as comma-separated id=baseURL pairs (e.g. b=http://10.0.0.2:8080); requires -node-id")
		heartbeatInterval = flag.Duration("heartbeat-interval", time.Second,
			"cluster peer probe cadence")
		heartbeatTimeout = flag.Duration("heartbeat-timeout", 0,
			"per-probe timeout (0 = half the heartbeat interval)")
		replicateInterval = flag.Duration("replicate-interval", 500*time.Millisecond,
			"WAL segment shipping cadence to ring followers (needs -state-dir)")
		qosEnabled = flag.Bool("qos", false,
			"enable the default QoS classes (interactive/batch/background) with weighted-fair scheduling and deadline-aware load shedding; a policy qos block overrides")
		traceSample = flag.Float64("trace-sample", 0,
			"fraction of queries to trace end-to-end (deterministic 1-in-N; 0 disables local sampling, forwarded sampled traces still record); traces land in the flight recorder at GET /v1/debug/traces")
		traceBuffer = flag.Int("trace-buffer", 256,
			"flight-recorder ring capacity in finished traces")
		debugPprof = flag.Bool("debug-pprof", false,
			"mount net/http/pprof under /debug/pprof/ (off by default; exposes runtime internals)")
	)
	flag.Parse()
	enablePprof = *debugPprof
	daemonProcs = startProcs()

	peers, err := parsePeers(*peersFlag)
	if err != nil {
		log.Fatalf("sbqad: -peers: %v", err)
	}
	if len(peers) > 0 && *nodeID == "" {
		log.Fatal("sbqad: -peers requires -node-id")
	}
	var cs *clusterSettings
	if *nodeID != "" {
		cs = &clusterSettings{
			nodeID:            *nodeID,
			peers:             peers,
			heartbeatInterval: *heartbeatInterval,
			heartbeatTimeout:  *heartbeatTimeout,
			replicateInterval: *replicateInterval,
		}
	}

	deadlineSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "participant-deadline" {
			deadlineSet = true
		}
	})
	spec, err := bootSpec(*policyPath, *qosEnabled, *deadline, deadlineSet)
	if err != nil {
		log.Fatalf("sbqad: -policy: %v", err)
	}
	opts := []sbqa.EngineOption{
		sbqa.WithWindow(*window),
		sbqa.WithConcurrency(*shards),
		sbqa.WithQueueDepth(*queue),
		sbqa.WithSnapshotInterval(*snapshot),
		// The recorder always exists so forwarded sampled traces record on
		// this node even with -trace-sample 0; unsampled queries pay one
		// branch per pipeline stage and zero allocations.
		sbqa.WithTracing(*traceSample, *traceBuffer),
	}
	if *autotune {
		opts = append(opts, sbqa.WithTuner(sbqa.TunerConfig{Logf: log.Printf}))
	}
	if *stateDir != "" {
		var popts []sbqa.PersistOption
		if *stateSyncEvery > 0 {
			popts = append(popts, sbqa.PersistSyncEvery(*stateSyncEvery))
		}
		opts = append(opts, sbqa.WithPersistence(*stateDir, popts...))
		if cs != nil {
			cs.stateDir = *stateDir
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	ln, err := net.Listen("tcp", *addr)
	if err == nil {
		err = serve(ctx, ln, cs, spec, opts...)
	}
	if err != nil {
		log.Fatalf("sbqad: %v", err)
	}
	if daemonProcs != nil {
		fmt.Printf("sbqad: procs %d at exit after %d changes\n", runtime.GOMAXPROCS(0), daemonProcs.changeCount())
	}
}

// bootSpec builds the daemon's boot policy spec. The daemon always runs a
// declarative policy — inspectable at GET /v1/policy, hot-swappable at PUT
// /v1/policy — and this is its generation 0: the policy file at path, else
// SbQA with k = 20, kn = 10 and seed 1. With qos, the default class ladder
// fills a spec that carries no qos block of its own. The participant
// deadline is an explicit -participant-deadline (deadlineSet; 0 = unbounded
// included), else the file's, else deadline, the flag's default.
func bootSpec(path string, qos bool, deadline time.Duration, deadlineSet bool) (sbqa.PolicySpec, error) {
	spec := sbqa.PolicySpec{Name: "boot", Kind: sbqa.PolicySbQA, K: 20, Kn: 10, Seed: 1}
	if path != "" {
		data, err := os.ReadFile(path)
		if err != nil {
			return spec, err
		}
		if spec, err = sbqa.ParsePolicy(data); err != nil {
			return spec, err
		}
	}
	if spec.QoS == nil && qos {
		qs := sbqa.DefaultQoSSpec()
		spec.QoS = &qs
	}
	spec = spec.Normalized()
	if err := spec.Validate(); err != nil {
		return spec, err
	}
	if deadlineSet || spec.ParticipantDeadline == 0 {
		spec.ParticipantDeadline = policy.Duration(deadline)
	}
	return spec, nil
}

// policyInForce is the line logged at the ready flip: which policy the engine
// runs and which door it came through. A -state-dir that held a policy wins
// over boot (a loaded snapshot always holds one; a generation past 0 can only
// have been replayed), and the boot spec stays the base for whatever a
// restored or later policy leaves empty.
func policyInForce(eng *sbqa.Engine, boot sbqa.PolicySpec) string {
	run, gen := eng.Policy(), eng.PolicyGeneration()
	origin := "the boot spec"
	if ps := eng.Stats().Persistence; gen > 0 || ps != nil && ps.Restore.SnapshotLoaded {
		origin = fmt.Sprintf("restored from -state-dir (boot spec %q is the base for what it leaves empty)", boot.Name)
	}
	return fmt.Sprintf("sbqad: policy %q (%s) generation %d: %s", run.Name, run.Kind, gen, origin)
}

// shutdownGrace bounds how long a graceful shutdown waits for in-flight
// HTTP requests before closing their connections.
const shutdownGrace = 10 * time.Second

// serve runs the gateway on ln until ctx is done, then shuts down
// gracefully: stop accepting requests, drain in-flight tickets via
// Engine.Close (which, with -state-dir, flushes the final state snapshot),
// stop the gateway's workers, and return. Factored out of main so the
// shutdown path is testable with an ephemeral listener and a plain context
// cancel.
//
// The listener starts serving BEFORE the engine is built: /v1/healthz
// answers immediately while a -state-dir restore replays its journal, and
// /v1/readyz (plus every engine-backed endpoint) answers 503 until the
// restore completes.
//
// With a non-nil cs the gateway builds and starts a cluster node (ring,
// heartbeats, WAL replication, submit guard) between engine construction
// and the ready flip. With cs == nil the daemon is byte-for-byte the
// single-node gateway — no node is constructed, no guard installed.
func serve(ctx context.Context, ln net.Listener, cs *clusterSettings, boot sbqa.PolicySpec, opts ...sbqa.EngineOption) error {
	gw := newGatewayShell()
	defer gw.close()

	srv := &http.Server{Handler: gw.handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	fmt.Printf("sbqad: listening on %s\n", ln.Addr())
	if err := gw.init(cs, append(opts, sbqa.WithPolicy(boot))...); err != nil {
		srv.Close()
		<-serveErr
		return err
	}
	fmt.Println(policyInForce(gw.eng, boot))
	fmt.Println("sbqad: ready")

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}
	fmt.Println("sbqad: shutting down (draining in-flight tickets)")
	// End the SSE streams first: Shutdown waits for active handlers, and an
	// attached events subscriber would otherwise hold the server open for
	// the whole grace period.
	gw.beginShutdown()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	// gw.close (deferred) runs Engine.Close — shard loops finish the
	// already-queued submissions before the engine stops — then closes the
	// workers.
	return nil
}
