package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
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

// setupTimeout bounds one launch: world load plus topology replay.
const setupTimeout = 60 * time.Second

// proc is one launched server process.
type proc struct {
	name string
	cmd  *exec.Cmd
	log  *os.File
	done chan error // receives cmd.Wait's result once
}

func startProc(binDir, logPath, name string, args ...string) (*proc, error) {
	lf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(filepath.Join(binDir, name), args...)
	cmd.Stdout = lf
	cmd.Stderr = lf
	// A server must not outlive a benchmark that is killed outright.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		_ = lf.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	p := &proc{name: name, cmd: cmd, log: lf, done: make(chan error, 1)}
	go func() { p.done <- cmd.Wait() }()
	return p, nil
}

// exited reports whether the process has already ended.
func (p *proc) exited() bool {
	select {
	case err := <-p.done:
		p.done <- err
		return true
	default:
		return false
	}
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func (p *proc) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer func() { _ = f.Close() }() // read-only
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", p.cmd.Process.Pid)
}

// stop sends SIGTERM, waits for exit, and kills the process if it lingers.
func (p *proc) stop() {
	_ = p.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	select {
	case err := <-p.done:
		p.done <- err
	case <-time.After(5 * time.Second):
		_ = p.cmd.Process.Kill()
		err := <-p.done
		p.done <- err
	}
	_ = p.log.Close()
}

// deployment is one running recserve, plus the kvserver behind it when the
// workload stores over the network.
type deployment struct {
	base  string // http://127.0.0.1:port
	procs []*proc
}

func (d *deployment) stop() {
	// recserve first: its store client must not outlive its kvserver.
	for i := len(d.procs) - 1; i >= 0; i-- {
		d.procs[i].stop()
	}
}

func (d *deployment) peakRSSMB() (float64, error) {
	var sum float64
	for _, p := range d.procs {
		mb, err := p.peakRSSMB()
		if err != nil {
			return 0, err
		}
		sum += mb
	}
	return sum, nil
}

// launch starts the servers for w over the world in dataDir and returns once
// /healthz answers, with the time that took (setup_s).
func launch(ctx context.Context, w workload, binDir, dataDir, logPrefix string) (*deployment, float64, error) {
	start := time.Now()
	dep := &deployment{}
	fail := func(err error) (*deployment, float64, error) {
		dep.stop()
		return nil, 0, err
	}
	var rsArgs []string
	if w.NetKV {
		kvAddr, err := freeAddr()
		if err != nil {
			return fail(err)
		}
		kv, err := startProc(binDir, logPrefix+"kvserver.log", "kvserver", "-addr", kvAddr, "-report", "0")
		if err != nil {
			return fail(err)
		}
		dep.procs = append(dep.procs, kv)
		if err := waitTCP(ctx, kvAddr, kv); err != nil {
			return fail(err)
		}
		rsArgs = append(rsArgs, "-kv", kvAddr)
	}
	addr, err := freeAddr()
	if err != nil {
		return fail(err)
	}
	rs, err := startProc(binDir, logPrefix+"recserve.log", "recserve", append(rsArgs, "-addr", addr, "-data", dataDir)...)
	if err != nil {
		return fail(err)
	}
	dep.procs = append(dep.procs, rs)
	dep.base = "http://" + addr
	if err := waitHealthy(ctx, dep.base, rs); err != nil {
		return fail(fmt.Errorf("%w (log: %srecserve.log)", err, logPrefix))
	}
	return dep, time.Since(start).Seconds(), nil
}

// freeAddr picks an unused loopback port.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

func waitTCP(ctx context.Context, addr string, p *proc) error {
	deadline := time.Now().Add(setupTimeout)
	for time.Now().Before(deadline) {
		if c, err := net.DialTimeout("tcp", addr, 100*time.Millisecond); err == nil {
			return c.Close()
		}
		if p.exited() {
			return fmt.Errorf("%s exited during start-up", p.name)
		}
		if err := sleepCtx(ctx, 2*time.Millisecond); err != nil {
			return err
		}
	}
	return fmt.Errorf("%s not listening on %s after %v", p.name, addr, setupTimeout)
}

// waitHealthy polls /healthz every 2ms: setup_s is resolved to that step.
func waitHealthy(ctx context.Context, base string, p *proc) error {
	client := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(setupTimeout)
	for time.Now().Before(deadline) {
		resp, err := client.Get(base + "/healthz")
		if err == nil {
			_ = resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				client.CloseIdleConnections()
				return nil
			}
		}
		if p.exited() {
			return errors.New("recserve exited during start-up")
		}
		if err := sleepCtx(ctx, 2*time.Millisecond); err != nil {
			return err
		}
	}
	return fmt.Errorf("recserve not healthy after %v", setupTimeout)
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
