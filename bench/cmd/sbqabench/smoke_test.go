//go:build benchsmoke

package main

// End-to-end smoke test: builds the harness and runs one workload in -quick
// mode against real sbqad processes. Build-tagged because it compiles two
// binaries and runs about 30 s of wall clock:
//
//	go test -C bench -tags benchsmoke -run TestQuickSmoke -v ./cmd/sbqabench

import (
	"encoding/json"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

func TestQuickSmoke(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "sbqabench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	out, err := exec.Command(bin, "-quick", "-workload", "churn_mixed", "-seed", "3").Output()
	if err != nil {
		t.Fatalf("sbqabench -quick: %v\n%s", err, out)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var last struct {
		Correct   bool `json:"correct"`
		Attempted int  `json:"attempted"`
		Failed    int  `json:"failed"`
		Metrics   map[string]struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, lines[len(lines)-1])
	}
	if !last.Correct || last.Attempted < 1 || last.Failed != 0 {
		t.Errorf("correct %v attempted %d failed %d", last.Correct, last.Attempted, last.Failed)
	}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if _, ok := last.Metrics[d.name]; !ok {
			t.Errorf("missing metric %s", d.name)
		}
	}
}
