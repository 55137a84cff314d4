package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"sbqa/internal/experiments"
)

// runPaper regenerates the paper's evaluation: the seven demo scenarios and
// the extension studies, as text tables on stdout and optionally every
// run's time series as CSV. Same flags ⇒ byte-identical tables.
func runPaper(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("paper", flag.ExitOnError)
	var (
		scenario   = fs.String("scenario", "all", "scenario to run: 1..7, 'm' (motivating example), 'v' (malicious validation study), 'r' (replication study), 'a' (adwords study), or 'all'")
		volunteers = fs.Int("volunteers", 100, "provider population size")
		duration   = fs.Float64("duration", 2000, "simulated seconds per run")
		seed       = fs.Uint64("seed", 42, "random seed (runs are reproducible under it)")
		load       = fs.Float64("load", 0.7, "offered load factor ρ")
		csvDir     = fs.String("csv", "", "directory to write per-technique time-series CSVs (optional)")
		quiet      = fs.Bool("quiet", false, "suppress progress output")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	opt := experiments.Options{
		Volunteers: *volunteers,
		Duration:   *duration,
		Seed:       *seed,
		Load:       *load,
	}
	if !*quiet {
		opt.Out = os.Stderr
	}

	order := experiments.Scenarios()
	if *scenario != "all" {
		byKey := map[string]experiments.Scenario{}
		for _, s := range order {
			byKey[s.Key] = s
		}
		order = nil
		for _, key := range strings.Split(*scenario, ",") {
			s, ok := byKey[strings.TrimSpace(key)]
			if !ok {
				fmt.Fprintf(os.Stderr, "sbqalab paper: unknown scenario %q (want 1..7, m, v, r, a, or all)\n", key)
				os.Exit(2)
			}
			order = append(order, s)
		}
	}

	for _, s := range order {
		res, err := s.Run(opt)
		if err != nil {
			return fmt.Errorf("scenario %s: %w", s.Key, err)
		}
		if err := res.Render(stdout); err != nil {
			return fmt.Errorf("render: %w", err)
		}
		fmt.Fprintln(stdout)
		if *csvDir != "" {
			if err := writeCSVs(*csvDir, s.Key, res); err != nil {
				return fmt.Errorf("csv: %w", err)
			}
		}
	}
	return nil
}

// writeCSVs exports each technique's time series under
// <dir>/scenario<k>_<technique>.csv.
func writeCSVs(dir, key string, res *experiments.ScenarioResult) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for name, col := range res.Collectors {
		clean := strings.Map(func(r rune) rune {
			switch {
			case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
				return r
			default:
				return '_'
			}
		}, name)
		path := filepath.Join(dir, fmt.Sprintf("scenario%s_%s.csv", key, clean))
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := col.WriteSeriesCSV(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}
