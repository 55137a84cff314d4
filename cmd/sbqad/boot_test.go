package main

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"sbqa"
	"sbqa/internal/policy"
)

// TestBootSpec: the daemon's boot spec is the policy file or the SbQA
// default, the -qos ladder fills only a missing qos block, and the
// participant deadline ranks an explicit flag (0 = unbounded included) over
// the file's over the flag's default.
func TestBootSpec(t *testing.T) {
	dir := t.TempDir()
	file := func(name, body string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(body), 0o600); err != nil {
			t.Fatal(err)
		}
		return p
	}
	bare := file("bare.json", `{"name":"f","kind":"sbqa","k":30,"kn":15,"seed":4}`)
	full := file("full.json", `{"name":"g","kind":"capacity","participant_deadline":"40ms",
		"qos":{"classes":[{"name":"gold","weight":2}],"consumer_rate":5}}`)
	unknownField := file("unknown.json", `{"kind":"sbqa","kay":30}`)
	incoherent := file("incoherent.json", `{"kind":"sbqa","k":4,"kn":8}`)

	const flagDefault = 250 * time.Millisecond
	defaultLadder := len(sbqa.DefaultQoSSpec().Classes)
	tests := []struct {
		name        string
		path        string
		qos         bool
		deadline    time.Duration
		deadlineSet bool

		wantName     string
		wantKind     policy.Kind
		wantK        int
		wantSeed     uint64
		wantDeadline time.Duration
		wantClasses  int // 0: no qos block
		wantRate     float64
	}{
		{name: "no flags", deadline: flagDefault,
			wantName: "boot", wantKind: sbqa.PolicySbQA, wantK: 20, wantSeed: 1, wantDeadline: flagDefault},
		{name: "file without deadline or qos", path: bare, deadline: flagDefault,
			wantName: "f", wantKind: sbqa.PolicySbQA, wantK: 30, wantSeed: 4, wantDeadline: flagDefault},
		{name: "file with deadline and qos", path: full, deadline: flagDefault,
			wantName: "g", wantKind: sbqa.PolicyCapacity, wantDeadline: 40 * time.Millisecond, wantClasses: 1, wantRate: 5},
		{name: "explicit deadline over the file's", path: full, deadline: 100 * time.Millisecond, deadlineSet: true,
			wantName: "g", wantKind: sbqa.PolicyCapacity, wantDeadline: 100 * time.Millisecond, wantClasses: 1, wantRate: 5},
		{name: "explicit unbounded over the file's", path: full, deadline: 0, deadlineSet: true,
			wantName: "g", wantKind: sbqa.PolicyCapacity, wantDeadline: 0, wantClasses: 1, wantRate: 5},
		{name: "explicit unbounded without a file", deadline: 0, deadlineSet: true,
			wantName: "boot", wantKind: sbqa.PolicySbQA, wantK: 20, wantSeed: 1, wantDeadline: 0},
		{name: "qos without a file block", path: bare, qos: true, deadline: flagDefault,
			wantName: "f", wantKind: sbqa.PolicySbQA, wantK: 30, wantSeed: 4, wantDeadline: flagDefault, wantClasses: defaultLadder},
		{name: "qos with a file block", path: full, qos: true, deadline: flagDefault,
			wantName: "g", wantKind: sbqa.PolicyCapacity, wantDeadline: 40 * time.Millisecond, wantClasses: 1, wantRate: 5},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			spec, err := bootSpec(tt.path, tt.qos, tt.deadline, tt.deadlineSet)
			if err != nil {
				t.Fatal(err)
			}
			if spec.Name != tt.wantName || spec.Kind != tt.wantKind || spec.K != tt.wantK || spec.Seed != tt.wantSeed {
				t.Errorf("spec %q %s k=%d seed=%d, want %q %s k=%d seed=%d",
					spec.Name, spec.Kind, spec.K, spec.Seed, tt.wantName, tt.wantKind, tt.wantK, tt.wantSeed)
			}
			if got := spec.ParticipantDeadline.Std(); got != tt.wantDeadline {
				t.Errorf("participant deadline %v, want %v", got, tt.wantDeadline)
			}
			switch {
			case tt.wantClasses == 0 && spec.QoS != nil:
				t.Errorf("qos block %+v, want none", *spec.QoS)
			case tt.wantClasses > 0 && (spec.QoS == nil || len(spec.QoS.Classes) != tt.wantClasses || spec.QoS.ConsumerRate != tt.wantRate):
				t.Errorf("qos block %+v, want %d classes at consumer rate %v", spec.QoS, tt.wantClasses, tt.wantRate)
			}
			if err := spec.Validate(); err != nil {
				t.Errorf("boot spec does not validate: %v", err)
			}
		})
	}

	// The default is the spec GET /v1/policy has always shown.
	def, err := bootSpec("", false, flagDefault, false)
	if err != nil {
		t.Fatal(err)
	}
	want := sbqa.PolicySpec{Name: "boot", Kind: sbqa.PolicySbQA, K: 20, Kn: 10, Seed: 1}.Normalized()
	want.ParticipantDeadline = policy.Duration(flagDefault)
	if !reflect.DeepEqual(def, want) {
		t.Errorf("default boot spec %v, want %v", def, want)
	}

	for _, path := range []string{filepath.Join(dir, "missing.json"), unknownField, incoherent} {
		if _, err := bootSpec(path, false, flagDefault, false); err == nil {
			t.Errorf("bootSpec(%s) accepted an unreadable or invalid file", filepath.Base(path))
		}
	}
}
