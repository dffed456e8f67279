package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// An env owns everything one benchmark run leaves outside its own
// memory: the run's temp dir (state dirs, logs, a private copy of the
// cmid binary) and every cmid child. Teardown is the single exit path
// for all of it — normal return, error, recovered panic, signal and the
// -deadline watchdog all funnel into Close.
type env struct {
	dir  string // the run's temp dir; every child's exe lives under it
	cmid string // private copy of the cmid binary, dir/bin/cmid

	mu       sync.Mutex
	children []*child
	cleanups []func() // SSE cancels, CloseIdleConnections
	seq      int
}

// newEnv creates the run's temp dir under work and copies the cmid
// binary into it, so that "a process whose exe is under the temp dir"
// identifies exactly this run's children.
func newEnv(work, cmidBin string) (*env, error) {
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	work, err := filepath.Abs(work)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(work, "run-")
	if err != nil {
		return nil, err
	}
	e := &env{dir: dir, cmid: filepath.Join(dir, "bin", "cmid")}
	if err := os.MkdirAll(filepath.Dir(e.cmid), 0o755); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	if err := copyFile(cmidBin, e.cmid, 0o755); err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("copy cmid binary: %w", err)
	}
	return e, nil
}

func copyFile(src, dst string, perm os.FileMode) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.OpenFile(dst, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, perm)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// mkdir returns a fresh directory under the run's temp dir.
func (e *env) mkdir(prefix string) (string, error) {
	e.mu.Lock()
	e.seq++
	n := e.seq
	e.mu.Unlock()
	d := filepath.Join(e.dir, fmt.Sprintf("%s-%d", prefix, n))
	return d, os.MkdirAll(d, 0o755)
}

// onClose registers cleanup that must run before children are signalled
// (cancel SSE subscriptions, close idle connections), so no client of
// ours holds a child's graceful drain open.
func (e *env) onClose(fn func()) {
	e.mu.Lock()
	e.cleanups = append(e.cleanups, fn)
	e.mu.Unlock()
}

// A child is one cmid process.
type child struct {
	name     string
	stateDir string
	addr     string
	pid      int
	bootMs   float64 // exec -> addr-file readable
	exited   chan struct{}
	waitErr  error // valid after exited closes
	stopOnce sync.Once
}

func (c *child) base() string { return "http://" + c.addr }

// start execs cmid with args plus a fresh -addr/-addr-file and waits for
// the address file. The child gets its own process group and
// Pdeathsig=SIGKILL; Pdeathsig fires when the *thread* that forked
// exits, so the forking goroutine stays locked to its OS thread until
// the child has been reaped. stdout/stderr go to a file: an inherited
// pipe would keep a killed runner's parent waiting on the child.
func (e *env) start(ctx context.Context, name, stateDir string, args ...string) (*child, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	addrFile := filepath.Join(stateDir, "addr")
	os.Remove(addrFile)
	logf, err := os.OpenFile(filepath.Join(stateDir, "cmid.log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	full := append([]string{"-addr", "127.0.0.1:0", "-addr-file", addrFile, "-state", stateDir}, args...)
	cmd := exec.Command(e.cmid, full...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	c := &child{name: name, stateDir: stateDir, exited: make(chan struct{})}
	started := make(chan error, 1)
	t0 := time.Now()
	go func() {
		runtime.LockOSThread() // never unlocked: the thread ends with the goroutine, after the reap
		if err := cmd.Start(); err != nil {
			logf.Close()
			started <- err
			return
		}
		c.pid = cmd.Process.Pid
		started <- nil
		c.waitErr = cmd.Wait()
		logf.Close()
		close(c.exited)
	}()
	if err := <-started; err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	e.mu.Lock()
	e.children = append(e.children, c)
	e.mu.Unlock()

	deadline := t0.Add(30 * time.Second)
	for {
		if b, err := os.ReadFile(addrFile); err == nil && len(b) > 0 {
			c.addr = strings.TrimSpace(string(b))
			c.bootMs = msSince(t0)
			return c, nil
		}
		select {
		case <-c.exited:
			return nil, fmt.Errorf("%s exited during boot: %v (%s)", name, c.waitErr, tailFile(filepath.Join(stateDir, "cmid.log")))
		case <-ctx.Done():
			c.stop()
			return nil, ctx.Err()
		default:
		}
		if time.Now().After(deadline) {
			c.stop()
			return nil, fmt.Errorf("%s: no address file after 30s", name)
		}
		time.Sleep(time.Millisecond)
	}
}

// waitHealthy polls /api/healthz at 1 ms until the first 200 and returns
// the time of that response.
func (c *child) waitHealthy(ctx context.Context, hc *http.Client) (time.Time, error) {
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := hc.Get(c.base() + "/api/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return time.Now(), nil
			}
		}
		select {
		case <-c.exited:
			return time.Time{}, fmt.Errorf("%s exited before healthy: %v", c.name, c.waitErr)
		case <-ctx.Done():
			return time.Time{}, ctx.Err()
		default:
		}
		if time.Now().After(deadline) {
			return time.Time{}, fmt.Errorf("%s: not healthy after 30s: %v", c.name, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop ends one child: SIGTERM, wait up to 5 s, then SIGKILL to the
// whole process group, then wait for the reap. Idempotent.
func (c *child) stop() {
	c.stopOnce.Do(func() {
		select {
		case <-c.exited:
			return
		default:
		}
		syscall.Kill(c.pid, syscall.SIGTERM)
		select {
		case <-c.exited:
			return
		case <-time.After(5 * time.Second):
		}
		syscall.Kill(-c.pid, syscall.SIGKILL)
		<-c.exited
	})
	<-c.exited
}

// kill SIGKILLs the child's process group and reaps it — the crash the
// restart workload recovers from, and the watchdog's last resort.
func (c *child) kill() {
	c.stopOnce.Do(func() {
		syscall.Kill(-c.pid, syscall.SIGKILL)
	})
	<-c.exited
}

// Close is the one teardown: run the registered cleanups, stop every
// child, verify no process with an exe under the temp dir survives, and
// remove the temp dir. It reports leaked processes (after killing them)
// as an error so the caller exits non-zero.
func (e *env) Close() error {
	e.mu.Lock()
	cleanups, children := e.cleanups, e.children
	e.cleanups, e.children = nil, nil
	e.mu.Unlock()
	for i := len(cleanups) - 1; i >= 0; i-- {
		cleanups[i]()
	}
	var wg sync.WaitGroup
	for _, c := range children {
		wg.Add(1)
		go func(c *child) {
			defer wg.Done()
			c.stop()
		}(c)
	}
	wg.Wait()
	leaked := leakedProcesses(e.dir)
	for _, pid := range leaked {
		syscall.Kill(pid, syscall.SIGKILL)
	}
	rmErr := os.RemoveAll(e.dir)
	if len(leaked) > 0 {
		return fmt.Errorf("leaked %d process(es) with an exe under %s: %v", len(leaked), e.dir, leaked)
	}
	return rmErr
}

// killAll is the watchdog path when Close itself cannot be trusted to
// return: SIGKILL every child's group without waiting.
func (e *env) killAll() {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, c := range e.children {
		syscall.Kill(-c.pid, syscall.SIGKILL)
	}
}

// leakedProcesses scans /proc for processes whose executable lives under
// dir (a killed-but-unreaped or orphaned child of this run).
func leakedProcesses(dir string) []int {
	ents, err := os.ReadDir("/proc")
	if err != nil {
		return nil
	}
	var out []int
	for _, ent := range ents {
		pid, err := strconv.Atoi(ent.Name())
		if err != nil || pid == os.Getpid() {
			continue
		}
		exe, err := os.Readlink(filepath.Join("/proc", ent.Name(), "exe"))
		if err != nil {
			continue
		}
		if strings.HasPrefix(exe, dir+string(os.PathSeparator)) {
			out = append(out, pid)
		}
	}
	return out
}

// procUsage reads a live child's CPU time (utime+stime) and peak RSS.
func procUsage(pid int) (cpu time.Duration, rssPeakMB float64, err error) {
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, 0, err
	}
	// Fields after the parenthesised comm; utime and stime are the 14th
	// and 15th fields of the whole line.
	i := strings.LastIndexByte(string(stat), ')')
	if i < 0 {
		return 0, 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(string(stat[i+1:]))
	if len(f) < 13 {
		return 0, 0, errors.New("short /proc stat")
	}
	ut, _ := strconv.ParseInt(f[11], 10, 64)
	st, _ := strconv.ParseInt(f[12], 10, 64)
	const clockTick = 100 // USER_HZ; fixed at 100 on Linux
	cpu = time.Duration(ut+st) * time.Second / clockTick
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return cpu, 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, _ := strconv.ParseFloat(f[1], 64)
				rssPeakMB = kb / 1024
			}
		}
	}
	return cpu, rssPeakMB, nil
}

// cpuJiffies reads the machine-wide CPU counters: jiffies stolen by the
// hypervisor and jiffies in total. Their delta over a window says how
// much of a noisy run was the neighbours'.
func cpuJiffies() (steal, total float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	for i, f := range strings.Fields(line) {
		if i == 0 {
			continue // "cpu"
		}
		v, _ := strconv.ParseFloat(f, 64)
		if i <= 8 { // user nice system idle iowait irq softirq steal; guest time is already inside user
			total += v
		}
		if i == 8 {
			steal = v
		}
	}
	return steal, total
}

func tailFile(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return err.Error()
	}
	if len(b) > 600 {
		b = b[len(b)-600:]
	}
	return strings.TrimSpace(string(b))
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }
