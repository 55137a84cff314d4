package main

import "testing"

func TestParseSchedstat(t *testing.T) {
	ns, err := parseSchedstat([]byte("123456789 4242 17\n"))
	if err != nil || ns != 123456789 {
		t.Fatalf("got %d, %v", ns, err)
	}
	for _, bad := range []string{"", "\n", "abc 1 2"} {
		if _, err := parseSchedstat([]byte(bad)); err == nil {
			t.Errorf("parseSchedstat(%q) accepted", bad)
		}
	}
}

func TestParseVmHWM(t *testing.T) {
	status := "Name:\tsbqad\nVmPeak:\t 1240000 kB\nVmHWM:\t   20664 kB\nVmRSS:\t   19000 kB\n"
	kib, err := parseVmHWM([]byte(status))
	if err != nil || kib != 20664 {
		t.Fatalf("got %d, %v", kib, err)
	}
	if _, err := parseVmHWM([]byte("Name:\tx\n")); err == nil {
		t.Error("status without VmHWM accepted")
	}
	if _, err := parseVmHWM([]byte("VmHWM:\t12 MB\n")); err == nil {
		t.Error("VmHWM in an unexpected unit accepted")
	}
}

func TestParseMallocs(t *testing.T) {
	// The tail of /debug/pprof/allocs?debug=1 is a runtime.MemStats dump.
	profile := "heap profile: 1: 16 [2: 32] @ heap/1048576\n1: 16 [2: 32] @ 0x1 0x2\n\n" +
		"# runtime.MemStats\n# Alloc = 1\n# TotalAlloc = 2\n# Sys = 3\n# Lookups = 0\n# Mallocs = 987654321\n# Frees = 5\n"
	n, err := parseMallocs([]byte(profile))
	if err != nil || n != 987654321 {
		t.Fatalf("got %d, %v", n, err)
	}
	if _, err := parseMallocs([]byte("# Frees = 5\n")); err == nil {
		t.Error("profile without Mallocs accepted")
	}
}

func TestSelfAndProcCPU(t *testing.T) {
	if selfCPU() <= 0 {
		t.Error("selfCPU reported nothing")
	}
}
