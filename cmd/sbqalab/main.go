// Command sbqalab is the front door to the simulator, the workload
// laboratory: it lists the registered hypothesis catalog, runs individual
// hypotheses against the real mediation engine under the virtual clock,
// regenerates hypotheses/FINDINGS.md, and reproduces the paper on the same
// world — `paper` prints the demo's scenario tables (EXPERIMENTS.md),
// `play` is the demo's Scenario 7 at the terminal.
//
// Usage:
//
//	sbqalab paper -scenario all            # every scenario at paper scale
//	sbqalab paper -scenario 3 -csv out/    # one scenario, time series as CSV
//	sbqalab play                           # play a volunteer or a project
//	sbqalab list                           # show the catalog
//	sbqalab run -id H3-kn-heavy-tail       # run one hypothesis at full scale
//	sbqalab run -short                     # run everything at CI scale
//	sbqalab run -id H1-flash-crowd -out d/ # also write each report as JSON
//	sbqalab report -o hypotheses/FINDINGS.md
//
// Same seeds ⇒ byte-identical tables, reports and findings document.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"sbqa/internal/lab"

	// Register the hypothesis catalog.
	_ "sbqa/hypotheses"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "list":
		err = runList()
	case "run":
		err = runRun(os.Args[2:])
	case "report":
		err = runReport(os.Args[2:])
	case "paper":
		err = runPaper(os.Args[2:], os.Stdout)
	case "play":
		err = runPlay(os.Stdin, os.Stdout)
	case "-h", "-help", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "sbqalab: unknown command %q\n\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "sbqalab:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `usage:
  sbqalab list                     list the registered hypothesis catalog
  sbqalab run [flags]              run hypotheses and print verdicts
      -id ID      run a single hypothesis (default: all)
      -short      CI scale instead of full scale
      -out DIR    write each scenario report as JSON under DIR
  sbqalab report [flags]           regenerate the findings document
      -short      CI scale instead of full scale
      -o FILE     output path (default: stdout)
  sbqalab paper [flags]            print the paper's scenario tables
      -scenario S 1..7, m, v, r, a, a comma list, or all (default: all)
      -volunteers N  -duration SEC  -seed N  -load RHO
      -csv DIR    also write every run's time series as CSV
      -quiet      no progress lines on stderr
  sbqalab play                     Scenario 7 at the terminal: play a participant
`)
}

func runList() error {
	hs := lab.Registered()
	if len(hs) == 0 {
		return fmt.Errorf("no hypotheses registered")
	}
	for _, h := range hs {
		fmt.Printf("%-24s %s\n", h.ID, h.Claim)
	}
	return nil
}

func scaleOf(short bool) lab.Scale {
	if short {
		return lab.Short
	}
	return lab.Full
}

func runRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	id := fs.String("id", "", "run a single hypothesis by ID (default: all)")
	short := fs.Bool("short", false, "run at CI scale instead of full scale")
	out := fs.String("out", "", "directory to write each scenario report as JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}

	hs := lab.Registered()
	if *id != "" {
		kept := hs[:0]
		for _, h := range hs {
			if h.ID == *id {
				kept = append(kept, h)
			}
		}
		hs = kept
		if len(hs) == 0 {
			return fmt.Errorf("unknown hypothesis %q (see `sbqalab list`)", *id)
		}
	}

	scale := scaleOf(*short)
	for _, h := range hs {
		res, err := h.Evaluate(scale)
		if err != nil {
			return err
		}
		fmt.Printf("%-24s %-12s %s\n", h.ID, res.Outcome.Verdict, res.Outcome.Detail)
		if *out != "" {
			if err := writeReports(*out, res); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeReports(dir string, res lab.Result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, r := range res.Reports {
		b, err := r.Encode()
		if err != nil {
			return err
		}
		name := strings.ReplaceAll(r.Scenario.Name, "/", "_") + ".json"
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}

func runReport(args []string) error {
	fs := flag.NewFlagSet("report", flag.ExitOnError)
	short := fs.Bool("short", false, "render at CI scale instead of full scale")
	out := fs.String("o", "", "output path (default: stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	doc, err := lab.RenderFindings(scaleOf(*short))
	if err != nil {
		return err
	}
	if *out == "" {
		fmt.Print(doc)
		return nil
	}
	return os.WriteFile(*out, []byte(doc), 0o644)
}
