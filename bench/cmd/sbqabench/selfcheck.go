package main

import (
	"fmt"
	"math"
)

// selfCheck is the A/A test: it runs every named workload 2n times, labels
// the runs A and B alternately, and holds |median_A − median_B| / median_A
// of every end-to-end metric to the metric's own bound. Identical code on
// both sides, so any excess is the benchmark's noise, not a regression.
func selfCheck(bin binaries, names []string, seed uint64, o runOpts, n int) error {
	type key struct{ workload, metric string }
	sides := [2]map[key][]float64{{}, {}}
	for i := 0; i < 2*n; i++ {
		side := i % 2
		for _, name := range names {
			res, err := runWorkload(bin, name, seed+uint64(i), o)
			if err != nil {
				return fmt.Errorf("%s run %d: %w", name, i, err)
			}
			for _, d := range endToEnd {
				k := key{name, d.name}
				sides[side][k] = append(sides[side][k], res.Metrics[d.name].Value)
			}
			fmt.Printf("aa run %d side %c %s: throughput_qps %.6g raw %.6g speed %.3f\n", i, 'A'+side, name,
				res.Metrics["throughput_qps"].Value, res.Metrics["harness.raw_throughput_qps"].Value, res.Metrics["harness.speed_factor"].Value)
		}
	}
	fmt.Printf("%-16s %-18s %12s %12s %8s %8s %8s\n", "workload", "metric", "median_A", "median_B", "diff", "bound", "spread_A")
	var excess []string
	for _, name := range names {
		for _, d := range endToEnd {
			k := key{name, d.name}
			a, b := median(sides[0][k]), median(sides[1][k])
			diff := math.Abs(a-b) / a
			verdict := ""
			if diff > d.bound {
				verdict = "  EXCESS"
				excess = append(excess, name+"/"+d.name)
			}
			fmt.Printf("%-16s %-18s %12.6g %12.6g %8.4f %8.4f %8.4f%s\n", name, d.name, a, b, diff, d.bound, iqrShare(sides[0][k]), verdict)
		}
	}
	if len(excess) > 0 {
		return fmt.Errorf("A/A medians differ by more than the bound on %v", excess)
	}
	return nil
}
