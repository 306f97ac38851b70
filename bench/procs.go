package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// fleet is the set of mhpolld daemons one round runs on. urls()[0] is
// the coordinator a job is submitted to; the rest are dist workers.
type fleet interface {
	urls() []string
	// cpuSeconds is the cumulative user+system CPU of the daemons.
	cpuSeconds() (float64, error)
	// peakRSSMB is the sum of the daemons' peak resident set sizes.
	peakRSSMB() (float64, error)
	stop() error
}

// child is a library-path run of one workload in its own process. It
// prints "epoch N" after every epoch and "done" after writing its
// result, then holds its counters until finish.
type child interface {
	stdout() io.Reader
	cpuSeconds() (float64, error)
	peakRSSMB() (float64, error)
	// finish lets the child exit and waits for it.
	finish() error
}

// env is how the benchmark starts the program: real processes in a
// benchmark run, in-process servers in the smoke test.
type env struct {
	// dir holds per-round scratch files (spools, results, logs).
	dir        string
	startFleet func(ctx context.Context, n int) (fleet, error)
	startChild func(ctx context.Context, w *workload, seed int64, resultPath string) (child, error)
}

// clockTicks is the kernel's USER_HZ, the unit of /proc/<pid>/stat CPU
// times; it is 100 on every Linux configuration Go supports.
const clockTicks = 100

// procCPU returns a process's cumulative user+system CPU seconds.
func procCPU(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may contain spaces; fields resume after its ')'.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, fmt.Errorf("/proc/%d/stat: no command terminator", pid)
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: %d fields", pid, len(f))
	}
	utime, err := strconv.ParseFloat(f[11], 64)
	if err != nil {
		return 0, err
	}
	stime, err := strconv.ParseFloat(f[12], 64)
	if err != nil {
		return 0, err
	}
	return (utime + stime) / clockTicks, nil
}

// procPeakRSSMB returns a process's peak resident set size (VmHWM).
func procPeakRSSMB(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("/proc/%d/status: no VmHWM", pid)
}

// selfCPU returns this process's cumulative user+system CPU seconds at
// microsecond resolution.
func selfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// sumOver adds up a per-pid reading across pids.
func sumOver(pids []int, read func(int) (float64, error)) (float64, error) {
	var sum float64
	for _, pid := range pids {
		v, err := read(pid)
		if err != nil {
			return 0, err
		}
		sum += v
	}
	return sum, nil
}

// basePort is where the daemons listen. Fixed ports keep the worker
// URLs — and with them the rendezvous placement of clusters on
// workers — identical from run to run.
const basePort = 47311

// daemons is a fleet of mhpolld processes on loopback.
type daemons struct {
	cmds  []*exec.Cmd
	addrs []string
	logs  []string
	dir   string
}

// startDaemons boots n mhpolld processes, each with its own spool under
// dir, and waits until every one answers /healthz.
func startDaemons(ctx context.Context, bin, dir string, n int) (*daemons, error) {
	ports, err := freePorts(n)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	d := &daemons{dir: dir}
	for i, port := range ports {
		spool := filepath.Join(dir, fmt.Sprintf("spool%d", i))
		logPath := filepath.Join(dir, fmt.Sprintf("mhpolld%d.log", i))
		logf, err := os.Create(logPath)
		if err != nil {
			d.stop()
			return nil, err
		}
		addr := fmt.Sprintf("127.0.0.1:%d", port)
		cmd := exec.CommandContext(ctx, bin, "-addr", addr, "-spool", spool)
		cmd.Stdout, cmd.Stderr = logf, logf
		// A benchmark killed mid-run must not leave daemons behind.
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		err = cmd.Start()
		logf.Close() // the child holds its own descriptor
		if err != nil {
			d.stop()
			return nil, fmt.Errorf("start mhpolld: %w", err)
		}
		d.cmds = append(d.cmds, cmd)
		d.addrs = append(d.addrs, "http://"+addr)
		d.logs = append(d.logs, logPath)
	}
	for i, u := range d.addrs {
		if err := waitHealthy(ctx, u); err != nil {
			d.stop()
			return nil, fmt.Errorf("mhpolld %d: %w\n%s", i, err, tailFile(d.logs[i]))
		}
	}
	return d, nil
}

// freePorts returns n consecutive loopback ports starting at basePort,
// moving up in steps of ten past ports something else holds.
func freePorts(n int) ([]int, error) {
	for base := basePort; base < basePort+400; base += 10 {
		ports := make([]int, 0, n)
		for p := base; p < base+n; p++ {
			l, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", p))
			if err != nil {
				break
			}
			l.Close()
			ports = append(ports, p)
		}
		if len(ports) == n {
			return ports, nil
		}
	}
	return nil, errors.New("no free loopback ports near 47311")
}

// waitHealthy polls a daemon's liveness probe until it answers.
func waitHealthy(ctx context.Context, base string) error {
	deadline := time.Now().Add(15 * time.Second)
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/healthz", nil)
		if err != nil {
			return err
		}
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("not healthy after 15s: %v", err)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(20 * time.Millisecond):
		}
	}
}

func (d *daemons) urls() []string { return d.addrs }

func (d *daemons) pids() []int {
	pids := make([]int, len(d.cmds))
	for i, c := range d.cmds {
		pids[i] = c.Process.Pid
	}
	return pids
}

func (d *daemons) cpuSeconds() (float64, error) { return sumOver(d.pids(), procCPU) }

func (d *daemons) peakRSSMB() (float64, error) { return sumOver(d.pids(), procPeakRSSMB) }

// stop asks every daemon to drain (SIGTERM), kills any that have not
// exited after ten seconds, waits for all of them and removes the
// spools.
func (d *daemons) stop() error {
	for _, c := range d.cmds {
		_ = c.Process.Signal(syscall.SIGTERM) // an already-exited daemon is fine
	}
	var errs []error
	for i, c := range d.cmds {
		if err := waitOrKill(c, 10*time.Second); err != nil {
			errs = append(errs, fmt.Errorf("mhpolld %d: %w\n%s", i, err, tailFile(d.logs[i])))
		}
	}
	d.cmds = nil
	if err := os.RemoveAll(d.dir); err != nil {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}

// waitOrKill waits for cmd to exit, killing it after grace.
func waitOrKill(cmd *exec.Cmd, grace time.Duration) error {
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(grace):
		_ = cmd.Process.Kill() // Wait below reports the outcome
		<-done
		return fmt.Errorf("did not exit within %s, killed", grace)
	}
}

// tailFile returns the last few lines of a log, for error messages.
func tailFile(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	if len(lines) > 8 {
		lines = lines[len(lines)-8:]
	}
	return strings.Join(lines, "\n")
}

// childProc is the library path's child process: this same binary
// re-executed in -child mode.
type childProc struct {
	cmd   *exec.Cmd
	out   io.ReadCloser
	stdin io.WriteCloser
}

// startChildProc re-executes the benchmark binary as a library child.
func startChildProc(ctx context.Context, w *workload, seed int64, resultPath string) (child, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, self, "-child", w.name, "-seed", strconv.FormatInt(seed, 10), "-child-out", resultPath)
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	return &childProc{cmd: cmd, out: out, stdin: stdin}, nil
}

func (c *childProc) stdout() io.Reader { return c.out }

func (c *childProc) cpuSeconds() (float64, error) { return procCPU(c.cmd.Process.Pid) }

func (c *childProc) peakRSSMB() (float64, error) { return procPeakRSSMB(c.cmd.Process.Pid) }

func (c *childProc) finish() error {
	c.stdin.Close()
	return waitOrKill(c.cmd, 10*time.Second)
}
