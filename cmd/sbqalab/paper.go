package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"sbqa/internal/lab"
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

	base := lab.Volunteering(*volunteers, *duration, *seed)
	base.Workload.Volunteers.Load = *load

	order := lab.PaperStudies()
	if *scenario != "all" {
		byKey := map[string]lab.PaperStudy{}
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
		if !*quiet {
			fmt.Fprintf(os.Stderr, "sbqalab paper: scenario %s\n", s.Key)
		}
		res, err := s.Run(base)
		if err != nil {
			return fmt.Errorf("scenario %s: %w", s.Key, err)
		}
		var out strings.Builder
		res.Render(&out)
		if _, err := fmt.Fprintln(stdout, out.String()); err != nil {
			return fmt.Errorf("render: %w", err)
		}
		if *csvDir != "" {
			if err := writeCSVs(*csvDir, s.Key, res); err != nil {
				return fmt.Errorf("csv: %w", err)
			}
		}
	}
	return nil
}

// writeCSVs exports each volunteer run's gauge trajectory under
// <dir>/scenario<k>_<technique>.csv.
func writeCSVs(dir, key string, res *lab.Study) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, r := range res.Reports {
		if r.Volunteers == nil {
			continue
		}
		clean := strings.Map(func(r rune) rune {
			switch {
			case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
				return r
			default:
				return '_'
			}
		}, r.Scenario.Name)
		var b strings.Builder
		b.WriteString("t,consumer_sat,provider_sat,provider_sat_gini,utilization,utilization_std,online_providers,online_consumers\n")
		for _, p := range r.Trajectory {
			fmt.Fprintf(&b, "%.6f,%.6f,%.6f,%.6f,%.6f,%.6f,%d,%d\n", p.T, p.ConsumerDS, p.ProviderDS,
				p.ProviderSatGini, p.Utilization, p.UtilizationSD, p.Online, p.OnlineConsumers)
		}
		f, err := os.Create(filepath.Join(dir, fmt.Sprintf("scenario%s_%s.csv", key, clean)))
		if err != nil {
			return err
		}
		if _, err := f.WriteString(b.String()); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}
