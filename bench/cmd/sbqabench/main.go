// Command sbqabench is the repository's benchmark: it builds sbqad, drives it
// wire to wire under four seeded workloads, checks every answer, and reports
// nine end-to-end metrics at reference speed plus a per-layer ledger measured
// from outside. See ../../README.md.
//
//	go run -C bench ./cmd/sbqabench -workload all -seed 1
//
// The benchmark driver calls it (through ../../run.sh) as
//
//	sbqabench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// and reads the last line of standard output, one JSON object.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"sbqa/bench/control"
)

func main() {
	var (
		workload     = flag.String("workload", "all", "workload to run: all, or one of "+strings.Join(workloadNames(), ", "))
		seed         = flag.Uint64("seed", 1, "seed of every generated input")
		seconds      = flag.Float64("seconds", 45, "length of the measured phase; one slice is 0.75 s (BENCHMARK.json runs 30)")
		traceMode    = flag.Int("trace", -1, "0: end-to-end metrics only; 1: per-layer ledger only; -1: both")
		aa           = flag.Int("aa", 0, "self-check: run everything 2N times labelled A/B alternately and compare medians to the bounds")
		quick        = flag.Bool("quick", false, "smoke mode: 6 measured slices, one set-up cycle")
		serveControl = flag.String("serve-control", "", "internal: run the control server on this address")
	)
	flag.Float64Var(&nominal.qps, "control-qps", nominal.qps, "the control's nominal throughput, 1/s (BENCHMARK.json fixes it)")
	flag.Float64Var(&nominal.p50MS, "control-p50-ms", nominal.p50MS, "the control's nominal p50 latency, ms (BENCHMARK.json fixes it)")
	flag.Float64Var(&nominal.p99MS, "control-p99-ms", nominal.p99MS, "the control's nominal p99 latency, ms (BENCHMARK.json fixes it)")
	flag.Parse()
	if *serveControl != "" {
		ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
		defer stop()
		if err := control.Serve(ctx, *serveControl); err != nil {
			fmt.Fprintln(os.Stderr, "control:", err)
			os.Exit(1)
		}
		return
	}
	code := 0
	if err := realMain(*workload, *seed, *seconds, *traceMode, *aa, *quick); err != nil {
		fmt.Fprintln(os.Stderr, "sbqabench:", err)
		code = 1
	}
	cleanupAll()
	os.Exit(code)
}

func realMain(workload string, seed uint64, seconds float64, traceMode, aa int, quick bool) error {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		cleanupAll()
		os.Exit(130)
	}()

	if !(nominal.qps > 0 && nominal.p50MS > 0 && nominal.p99MS > 0) {
		return fmt.Errorf("control nominals must be positive, have %+v", nominal)
	}
	names := workloadNames()
	if workload != "all" {
		if _, err := newFixture(workload, seed); err != nil {
			return err
		}
		names = []string{workload}
	}
	opts := runOpts{
		slices: int(seconds / sliceLen.Seconds()),
		e2e:    traceMode != 1,
		layers: traceMode != 0,
		traced: 12,
	}
	if traceMode == 1 {
		// The ledger-only run needs the untraced phase only as the base of
		// trace.overhead_share: it measures as many untraced slices as
		// traced ones, within the time it was given.
		opts.slices = min(opts.slices/2, opts.traced)
		opts.traced = opts.slices
	}
	if quick {
		opts.slices, opts.traced, opts.quick = 6, 6, true
	}
	if opts.slices < 2 {
		return fmt.Errorf("-seconds %v leaves fewer than 2 slices of %v", seconds, sliceLen)
	}

	bin, err := build()
	if err != nil {
		return err
	}
	if aa > 0 {
		opts.layers = false
		opts.e2e = true
		return selfCheck(bin, names, seed, opts, aa)
	}
	var results []*workloadResult
	for _, name := range names {
		res, err := runWorkload(bin, name, seed, opts)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		results = append(results, res)
	}
	// Every check passed: only now print metric lines.
	for _, res := range results {
		printMetrics(res)
	}
	if err := writeResultJSON(bin, results, seed); err != nil {
		return err
	}
	return printDriverLine(results, opts)
}

// build locates the repository from the working directory, compiles sbqad
// beside the harness's other outputs, and names this executable as the
// control server.
func build() (binaries, error) {
	benchDir, err := findBenchDir()
	if err != nil {
		return binaries{}, err
	}
	root := filepath.Dir(benchDir)
	bin := binaries{
		sbqad: filepath.Join(benchDir, ".build", "sbqad"),
		out:   filepath.Join(benchDir, "out"),
	}
	if bin.self, err = os.Executable(); err != nil {
		return binaries{}, err
	}
	for _, d := range []string{filepath.Dir(bin.sbqad), filepath.Join(bin.out, "state"), filepath.Join(bin.out, "logs")} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return binaries{}, err
		}
	}
	cmd := exec.Command("go", "build", "-o", bin.sbqad, "./cmd/sbqad")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return binaries{}, fmt.Errorf("go build ./cmd/sbqad in %s: %v\n%s", root, err, out)
	}
	return bin, nil
}

// findBenchDir walks up from the working directory to the directory holding
// this module's go.mod.
func findBenchDir() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		for _, cand := range []string{dir, filepath.Join(dir, "bench")} {
			data, err := os.ReadFile(filepath.Join(cand, "go.mod"))
			if err == nil && strings.HasPrefix(string(data), "module sbqa/bench\n") {
				return cand, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("cannot find bench/go.mod (module sbqa/bench) from the working directory")
		}
		dir = parent
	}
}

func printMetrics(res *workloadResult) {
	for _, name := range res.sortedNames() {
		m := res.Metrics[name]
		fmt.Printf("%s/%s %.6g %s\n", res.Workload, name, m.Value, m.Unit)
	}
}

// printDriverLine prints the one JSON object the benchmark driver reads:
// the end-to-end metrics with --trace 0, the per-layer ledger with
// --trace 1, both otherwise. With several workloads the names carry the
// workload as a prefix.
func printDriverLine(results []*workloadResult, o runOpts) error {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{Correct: true, Metrics: map[string]mv{}}
	e2e := map[string]bool{}
	for _, d := range endToEnd {
		e2e[d.name] = true
	}
	for _, res := range results {
		line.Attempted += res.Attempted
		line.Failed += res.Failed
		for name, m := range res.Metrics {
			if (e2e[name] && !o.e2e) || (!e2e[name] && !o.layers) {
				continue
			}
			key := name
			if len(results) > 1 {
				key = res.Workload + "/" + name
			}
			line.Metrics[key] = mv{m.Value, m.Unit}
		}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// writeResultJSON records the run in bench/out/result.json.
func writeResultJSON(bin binaries, results []*workloadResult, seed uint64) error {
	doc := struct {
		Commit    string            `json:"commit"`
		GoVersion string            `json:"go_version"`
		NProc     int               `json:"nproc"`
		Seed      uint64            `json:"seed"`
		Time      string            `json:"time"`
		Nominal   map[string]any    `json:"control_nominal"`
		Workloads []*workloadResult `json:"workloads"`
	}{
		Commit:    commit(filepath.Dir(filepath.Dir(bin.out))),
		GoVersion: runtime.Version(),
		NProc:     runtime.NumCPU(),
		Seed:      seed,
		Time:      time.Now().UTC().Format(time.RFC3339),
		Nominal: map[string]any{
			"control_qps": nominal.qps, "control_p50_ms": nominal.p50MS, "control_p99_ms": nominal.p99MS,
		},
		Workloads: results,
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(bin.out, "result.json"), append(b, '\n'), 0o644)
}

// commit names the source revision, or "unknown" outside a git checkout
// (the driver's checkout is not one).
func commit(root string) string {
	cmd := exec.Command("git", "rev-parse", "--short=12", "HEAD")
	cmd.Dir = root
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(root))
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
