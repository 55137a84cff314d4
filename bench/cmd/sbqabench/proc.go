package main

// Child processes (sbqad nodes and the control) and what /proc says about
// them. Every child is registered in a process-wide set so that any exit
// path — normal return, a failed check, SIGINT/SIGTERM — kills and reaps
// them all and removes the run's state directories.

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

type proc struct {
	name string
	cmd  *exec.Cmd
	addr string
	log  *os.File

	waitErr error // valid once exited is closed
	exited  chan struct{}
}

var children = struct {
	sync.Mutex
	procs map[*proc]struct{}
	dirs  map[string]struct{}
}{procs: map[*proc]struct{}{}, dirs: map[string]struct{}{}}

// freeAddr reserves a loopback port by binding and releasing it.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// startProc launches bin with args, logging its output to logPath. Linux
// delivers SIGKILL to the child if the harness dies without cleaning up.
func startProc(name, bin, addr, logPath string, args ...string) (*proc, error) {
	if err := os.MkdirAll(filepath.Dir(logPath), 0o755); err != nil {
		return nil, err
	}
	lf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = lf, lf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		lf.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	p := &proc{name: name, cmd: cmd, addr: addr, log: lf, exited: make(chan struct{})}
	go func() {
		p.waitErr = cmd.Wait()
		close(p.exited)
	}()
	children.Lock()
	children.procs[p] = struct{}{}
	children.Unlock()
	return p, nil
}

func (p *proc) pid() int { return p.cmd.Process.Pid }

// waitReady polls GET /v1/readyz until it answers 200.
func (p *proc) waitReady(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	c := newConn(p.addr)
	defer c.close()
	for time.Now().Before(deadline) {
		select {
		case <-p.exited:
			return fmt.Errorf("%s exited before ready: %v", p.name, p.waitErr)
		default:
		}
		if status, _, err := c.do("GET", "/v1/readyz", nil); err == nil && status == 200 {
			return nil
		}
		time.Sleep(250 * time.Microsecond)
	}
	return fmt.Errorf("%s not ready after %v", p.name, timeout)
}

// stop asks for a graceful shutdown (sbqad drains and, with -state-dir,
// flushes its snapshot), waits for the exit, and escalates to SIGKILL.
func (p *proc) stop() error {
	defer p.forget()
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.exited:
		if p.waitErr != nil {
			return fmt.Errorf("%s: %w", p.name, p.waitErr)
		}
		return nil
	case <-time.After(15 * time.Second):
		p.kill()
		return fmt.Errorf("%s ignored SIGTERM for 15s; killed", p.name)
	}
}

func (p *proc) kill() {
	_ = p.cmd.Process.Kill()
	<-p.exited
	p.forget()
}

func (p *proc) forget() {
	p.log.Close()
	children.Lock()
	delete(children.procs, p)
	children.Unlock()
}

// trackDir registers a scratch directory for removal at exit.
func trackDir(dir string) {
	children.Lock()
	children.dirs[dir] = struct{}{}
	children.Unlock()
}

func removeDir(dir string) {
	os.RemoveAll(dir)
	children.Lock()
	delete(children.dirs, dir)
	children.Unlock()
}

// cleanupAll kills every live child, waits for each, and removes every
// tracked directory. Safe to call more than once.
func cleanupAll() {
	children.Lock()
	procs := make([]*proc, 0, len(children.procs))
	for p := range children.procs {
		procs = append(procs, p)
	}
	dirs := make([]string, 0, len(children.dirs))
	for d := range children.dirs {
		dirs = append(dirs, d)
	}
	children.Unlock()
	for _, p := range procs {
		p.kill()
	}
	for _, d := range dirs {
		removeDir(d)
	}
}

// cpuNanos sums the on-CPU time of every thread of pid from
// /proc/<pid>/task/*/schedstat (first field, nanoseconds). utime+stime in
// /proc/<pid>/stat ticks at 10 ms, a fiftieth of a 500 ms window.
func cpuNanos(pid int) (int64, error) {
	dir := "/proc/" + strconv.Itoa(pid) + "/task"
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, e := range ents {
		data, err := os.ReadFile(dir + "/" + e.Name() + "/schedstat")
		if err != nil {
			if errors.Is(err, os.ErrNotExist) {
				continue // the thread exited between ReadDir and ReadFile
			}
			return 0, err
		}
		ns, err := parseSchedstat(data)
		if err != nil {
			return 0, err
		}
		total += ns
	}
	return total, nil
}

// parseSchedstat returns the run time from one schedstat line:
// "<run ns> <wait ns> <timeslices>".
func parseSchedstat(data []byte) (int64, error) {
	f := bytes.Fields(data)
	if len(f) < 1 {
		return 0, fmt.Errorf("schedstat: empty")
	}
	ns, err := strconv.ParseInt(string(f[0]), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("schedstat: %w", err)
	}
	return ns, nil
}

// vmHWMKiB returns the peak resident set size of pid in KiB.
func vmHWMKiB(pid int) (int64, error) {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0, err
	}
	return parseVmHWM(data)
}

func parseVmHWM(status []byte) (int64, error) {
	sc := bufio.NewScanner(bytes.NewReader(status))
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) != 2 || f[1] != "kB" {
				return 0, fmt.Errorf("VmHWM: unexpected %q", line)
			}
			return strconv.ParseInt(f[0], 10, 64)
		}
	}
	return 0, errors.New("VmHWM: not in status")
}

// parseMallocs extracts the cumulative allocation count from the MemStats
// dump at the end of /debug/pprof/allocs?debug=1 ("# Mallocs = N").
func parseMallocs(profile []byte) (uint64, error) {
	const key = "\n# Mallocs = "
	i := bytes.LastIndex(profile, []byte(key))
	if i < 0 {
		return 0, errors.New("allocs profile: no '# Mallocs' line")
	}
	rest := profile[i+len(key):]
	if j := bytes.IndexByte(rest, '\n'); j >= 0 {
		rest = rest[:j]
	}
	return strconv.ParseUint(strings.TrimSpace(string(rest)), 10, 64)
}

// selfCPU returns the harness's own user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// onTmpfs reports whether dir lives on a tmpfs mount.
func onTmpfs(dir string) bool {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return false
	}
	const tmpfsMagic = 0x01021994
	return int64(st.Type) == tmpfsMagic
}
