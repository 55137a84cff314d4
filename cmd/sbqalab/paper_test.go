package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sbqa/internal/lab"
)

// TestPaperTablesGolden holds `sbqalab paper` to the tables recorded at the
// commit before the paper harness moved onto policy specs (cmd/sbqa
// -scenario all -quiet): byte for byte, at a small scale always and at
// paper scale unless -short. A diff here is a behaviour change of the
// simulator, an allocator or the spec builder — never noise.
func TestPaperTablesGolden(t *testing.T) {
	cases := []struct {
		golden string
		args   []string
		long   bool
	}{
		{"paper_small.golden", []string{"-volunteers", "40", "-duration", "400", "-seed", "7"}, false},
		{"paper_all.golden", nil, true},
	}
	for _, tc := range cases {
		t.Run(tc.golden, func(t *testing.T) {
			if tc.long && testing.Short() {
				t.Skip("paper scale takes ~15 s")
			}
			want, err := os.ReadFile("../../internal/lab/testdata/" + tc.golden)
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			if err := runPaper(append([]string{"-scenario", "all", "-quiet"}, tc.args...), &got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
				for i := 0; i < len(gl) && i < len(wl); i++ {
					if gl[i] != wl[i] {
						t.Fatalf("line %d differs:\n got: %s\nwant: %s", i+1, gl[i], wl[i])
					}
				}
				t.Fatalf("output has %d lines, golden has %d", len(gl), len(wl))
			}
		})
	}
}

// TestPlayRunsScenario7Probe feeds `play` all defaults for a volunteer
// round and a project round and requires the δs / online / objective
// columns it prints to be Scenario 7's probe rows at the demo's scale:
// the demo calls the scenario, it does not re-implement it.
func TestPlayRunsScenario7Probe(t *testing.T) {
	s7, err := lab.Scenario7(playScale)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	// v + 3 preferences + objective, again?, p + objective + 2 host
	// preferences, then EOF at "another round?".
	if err := runPlay(strings.NewReader("\n\n\n\n\n\np\n\n\n\n"), &out); err != nil {
		t.Fatal(err)
	}
	rows := map[string][][]string{} // table title → rows
	title := ""
	for _, line := range strings.Split(out.String(), "\n") {
		f := strings.Fields(line)
		switch {
		case strings.HasPrefix(line, "== "):
			title = strings.Trim(line, "= ")
		case len(f) > 0 && (f[0] == "Capacity" || f[0] == "Economic" || f[0] == "SbQA"):
			rows[title] = append(rows[title], f)
		}
	}
	vol, proj := rows["how each mediation treated you"], rows["how each mediation treated your project"]
	if len(vol) != 3 || len(proj) != 3 {
		t.Fatalf("want two tables of three techniques, got %d and %d rows:\n%s", len(vol), len(proj), out.String())
	}
	for i, want := range s7.Table.Rows {
		// want: technique, probe δs(P), P online, P objective, probe δs(C), C objective, both met
		if got := strings.Join(vol[i][:4], " "); got != strings.Join(want[:4], " ") {
			t.Errorf("volunteer round row %d = %q, Scenario 7 has %q", i, got, strings.Join(want[:4], " "))
		}
		if got, w := strings.Join(proj[i][:3], " "), want[0]+" "+want[4]+" "+want[5]; got != w {
			t.Errorf("project round row %d = %q, Scenario 7 has %q", i, got, w)
		}
	}
	for _, prompt := range []string{
		"play a [v]olunteer or a [p]roject? [v] ",
		"your preference for SETI@home [-0.80]: ",
		"your preference for proteins@home [-0.80]: ",
		"your preference for Einstein@home [0.90]: ",
		"your satisfaction objective δs ≥ [0.55]: ",
		"another round? [Y/n] ",
		"your project's satisfaction objective δs ≥ [0.60]: ",
		"your preference for the fastest 25% of hosts [0.90]: ",
		"your preference for the remaining hosts [0.10]: ",
	} {
		if !strings.Contains(out.String(), prompt) {
			t.Errorf("prompt %q missing", prompt)
		}
	}
}

// TestPlayExits: EOF and "quit" end the demo at any prompt without a run.
func TestPlayExits(t *testing.T) {
	for _, in := range []string{"", "quit\n", "v\n0.5\nquit\n", "p\n"} {
		var out bytes.Buffer
		if err := runPlay(strings.NewReader(in), &out); err != nil {
			t.Errorf("input %q: %v", in, err)
		}
		if strings.Contains(out.String(), "==") {
			t.Errorf("input %q ran a round:\n%s", in, out.String())
		}
	}
}

// TestPaperWritesCSV: -csv writes one scenario<k>_<technique>.csv per
// volunteer run, a header and one row per gauge sample.
func TestPaperWritesCSV(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	args := []string{"-scenario", "3", "-volunteers", "20", "-duration", "100", "-quiet", "-csv", dir}
	if err := runPaper(args, &out); err != nil {
		t.Fatal(err)
	}
	names, err := filepath.Glob(filepath.Join(dir, "*.csv"))
	if err != nil {
		t.Fatal(err)
	}
	var base []string
	for _, n := range names {
		base = append(base, filepath.Base(n))
	}
	if got, want := strings.Join(base, " "), "scenario3_Capacity.csv scenario3_Economic.csv scenario3_SbQA.csv"; got != want {
		t.Fatalf("files = %q, want %q", got, want)
	}
	b, err := os.ReadFile(names[2])
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(b), "\n"), "\n")
	if want := "t,consumer_sat,provider_sat,provider_sat_gini,utilization,utilization_std,online_providers,online_consumers"; lines[0] != want {
		t.Errorf("header = %q, want %q", lines[0], want)
	}
	if rows := len(lines) - 1; rows != 100 {
		t.Errorf("%d rows, want one per sample (100)", rows)
	}
	for i, l := range lines[1:] {
		if n := strings.Count(l, ","); n != 7 {
			t.Fatalf("row %d has %d fields: %q", i+1, n+1, l)
		}
	}
}
