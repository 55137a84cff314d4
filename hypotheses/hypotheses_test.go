package hypotheses

import (
	"os"
	"strings"
	"testing"

	"sbqa/internal/lab"
)

// The catalog contract: at least five registered hypotheses, each of which
// evaluates cleanly at Short scale and renders a definite verdict. Short
// verdicts are smoke signals (FINDINGS.md is generated at Full scale), so
// this test asserts mechanics, not outcomes.
func TestCatalogEvaluatesAtShortScale(t *testing.T) {
	hs := lab.Registered()
	if len(hs) < 5 {
		t.Fatalf("%d hypotheses registered, want >= 5", len(hs))
	}
	for _, h := range hs {
		h := h
		t.Run(h.ID, func(t *testing.T) {
			res, err := h.Evaluate(lab.Short)
			if err != nil {
				t.Fatal(err)
			}
			switch res.Outcome.Verdict {
			case lab.Confirmed, lab.Refuted, lab.Inconclusive:
			default:
				t.Fatalf("verdict %q is not a known verdict", res.Outcome.Verdict)
			}
			if res.Outcome.Detail == "" {
				t.Fatal("outcome has no quantitative detail")
			}
			if len(res.Reports) < 2 {
				t.Fatalf("%d reports, want a pitted pair", len(res.Reports))
			}
			for _, r := range res.Reports {
				if r.Issued < 50 {
					t.Fatalf("scenario %q issued only %d queries at short scale", r.Scenario.Name, r.Issued)
				}
			}
		})
	}
}

// Rendering the findings twice from the same code and seeds must produce
// byte-identical markdown — the document-level face of the lab's
// determinism contract.
func TestRenderFindingsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every hypothesis twice; covered unconditionally in full runs")
	}
	d1, err := lab.RenderFindings(lab.Short)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := lab.RenderFindings(lab.Short)
	if err != nil {
		t.Fatal(err)
	}
	if d1 != d2 {
		t.Fatal("same seeds produced different findings documents")
	}
	for _, h := range lab.Registered() {
		if !strings.Contains(d1, "## "+h.ID) {
			t.Fatalf("findings document missing section for %s", h.ID)
		}
	}
	if !strings.Contains(d1, "CONFIRMED") && !strings.Contains(d1, "REFUTED") {
		t.Fatal("findings document contains no definite verdicts")
	}
}

// The committed findings are what the code renders: FINDINGS.md at Full
// scale and testdata/findings_short.golden at Short scale, byte for byte.
// A diff here is a change in the lab, an allocator or a hypothesis, and
// the committed document is then out of date.
func TestFindingsMatchCommitted(t *testing.T) {
	for _, tc := range []struct {
		name   string
		scale  lab.Scale
		golden string
	}{
		{"short", lab.Short, "testdata/findings_short.golden"},
		{"full", lab.Full, "FINDINGS.md"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.scale == lab.Full && testing.Short() {
				t.Skip("full scale takes ~3 s")
			}
			want, err := os.ReadFile(tc.golden)
			if err != nil {
				t.Fatal(err)
			}
			got, err := lab.RenderFindings(tc.scale)
			if err != nil {
				t.Fatal(err)
			}
			if got == string(want) {
				return
			}
			gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
			for i := 0; i < len(gl) && i < len(wl); i++ {
				if gl[i] != wl[i] {
					t.Fatalf("%s line %d differs:\n got: %s\nwant: %s", tc.golden, i+1, gl[i], wl[i])
				}
			}
			t.Fatalf("render has %d lines, %s has %d", len(gl), tc.golden, len(wl))
		})
	}
}
