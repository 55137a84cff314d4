package main

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"sbqa/internal/lab"
)

// playScale is the demo's world: small enough to answer in a few seconds.
var playScale = lab.Volunteering(60, 900, 7)

// runPlay is the terminal version of the demo's Scenario 7: play a BOINC
// volunteer or project, set your own preferences and objective, and watch
// how each mediation technique treats you. The answers fill in the
// Scenario 7 probe (the side you do not play keeps the paper's values);
// Enter accepts a default, EOF or "quit" exits.
func runPlay(stdin io.Reader, out io.Writer) error {
	in := bufio.NewScanner(stdin)
	fmt.Fprintln(out, "SbQA interactive demo — play a BOINC participant (Scenario 7).")
	fmt.Fprintln(out, "Projects: [0] SETI@home (popular)  [1] proteins@home (normal)  [2] Einstein@home (unpopular)")
	fmt.Fprintln(out)

	for {
		role, ok := ask(in, out, "play a [v]olunteer or a [p]roject? [v] ")
		if !ok {
			return nil
		}
		probe := lab.DefaultProbe()
		asProject := strings.HasPrefix(role, "p")
		if asProject {
			ok = askFloat(in, out, "your project's satisfaction objective δs ≥", &probe.ConsumerObjective, 0, 1) &&
				askFloat(in, out, "your preference for the fastest 25% of hosts", &probe.FastHostPref, -1, 1) &&
				askFloat(in, out, "your preference for the remaining hosts", &probe.SlowHostPref, -1, 1)
		} else {
			for i, name := range []string{"SETI@home", "proteins@home", "Einstein@home"} {
				ok = ok && askFloat(in, out, "your preference for "+name, &probe.VolunteerPrefs[i], -1, 1)
			}
			ok = ok && askFloat(in, out, "your satisfaction objective δs ≥", &probe.ProviderObjective, 0, 1)
		}
		if !ok {
			return nil
		}
		res, err := lab.Scenario7Probe(playScale, probe)
		if err != nil {
			return err
		}
		fmt.Fprintln(out)
		playTable(res, asProject).Render(out)
		fmt.Fprintln(out)
		if ans, ok := ask(in, out, "another round? [Y/n] "); !ok || ans == "n" || ans == "no" {
			return nil
		}
	}
}

// playTable keeps the played side's columns of Scenario 7's table and adds
// the system's mean response time under each technique.
func playTable(res *lab.Study, asProject bool) *lab.Table {
	t := &lab.Table{
		Title:   "how each mediation treated you",
		Columns: []string{"technique", "your δs", "still online", "objective met", "system RT"},
	}
	cols := []int{0, 1, 2, 3} // technique, probe δs(P), P online, P objective
	if asProject {
		t.Title = "how each mediation treated your project"
		t.Columns = []string{"technique", "your δs", "objective met", "system RT"}
		cols = []int{0, 4, 5} // technique, probe δs(C), C objective
	}
	for i, row := range res.Table.Rows {
		out := make([]string, 0, len(cols)+1)
		for _, c := range cols {
			out = append(out, row[c])
		}
		t.Rows = append(t.Rows, append(out, fmt.Sprintf("%.2f", res.Reports[i].MeanResponse)))
	}
	return t
}

// ask prints the prompt and reads one lower-cased, trimmed answer; ok is
// false on EOF or "quit".
func ask(in *bufio.Scanner, out io.Writer, prompt string) (answer string, ok bool) {
	fmt.Fprint(out, prompt)
	if !in.Scan() {
		return "", false
	}
	answer = strings.ToLower(strings.TrimSpace(in.Text()))
	return answer, answer != "q" && answer != "quit"
}

// askFloat prompts for one float in [lo, hi]; Enter keeps *v, the default.
func askFloat(in *bufio.Scanner, out io.Writer, what string, v *float64, lo, hi float64) bool {
	for {
		text, ok := ask(in, out, fmt.Sprintf("%s [%.2f]: ", what, *v))
		if !ok || text == "" {
			return ok
		}
		if f, err := strconv.ParseFloat(text, 64); err == nil && f >= lo && f <= hi {
			*v = f
			return true
		}
		fmt.Fprintf(out, "  please enter a number in [%g, %g]\n", lo, hi)
	}
}
