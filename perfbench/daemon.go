package main

import (
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times; it is
// 100 on every Linux architecture Go supports.
const clockTicks = 100

// daemon is one running tcastd process.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	exited chan struct{}
}

// startDaemon launches tcastd with flags on an ephemeral loopback port
// and returns once /healthz answers 200, with the time that took.
func startDaemon(bin, work string, flags []string) (*daemon, time.Duration, error) {
	addrFile := filepath.Join(work, "tcastd.addr")
	if err := os.Remove(addrFile); err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, 0, err
	}
	args := append([]string{"-addr", "127.0.0.1:0", "-addr-file", addrFile}, flags...)
	cmd := exec.Command(filepath.Join(bin, "tcastd"), args...)
	cmd.Stderr = os.Stderr
	// Should perfbench itself be killed, the daemon goes with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	d := &daemon{cmd: cmd, exited: make(chan struct{})}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start tcastd: %w", err)
	}
	go func() {
		_ = cmd.Wait() // the exit status is irrelevant once we stop it
		close(d.exited)
	}()
	hc := &http.Client{Timeout: time.Second}
	deadline := start.Add(30 * time.Second)
	for {
		select {
		case <-d.exited:
			return nil, 0, errors.New("tcastd exited during start-up")
		default:
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, 0, errors.New("tcastd not healthy after 30s")
		}
		if d.base == "" {
			if b, err := os.ReadFile(addrFile); err == nil && strings.HasSuffix(string(b), "\n") {
				d.base = "http://" + strings.TrimSpace(string(b))
			}
		}
		if d.base != "" {
			if resp, err := hc.Get(d.base + "/healthz"); err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return d, time.Since(start), nil
				}
			}
		}
		sleepUntil(time.Now().Add(200 * time.Microsecond))
	}
}

// stop drains the daemon with SIGTERM, kills it if it has not exited
// within 30s, and waits for it.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	select {
	case <-d.exited:
	case <-time.After(30 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
}

// cpu returns the daemon's user+system CPU time so far.
func (d *daemon) cpu() (time.Duration, error) { return procCPU(d.cmd.Process.Pid) }

// peakRSS returns the daemon's peak resident set (VmHWM) in bytes.
func (d *daemon) peakRSS() (float64, error) { return procHWM(d.cmd.Process.Pid) }

// procCPU reads utime+stime of every thread of pid from /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	var ticks int64
	for _, v := range f[11:13] {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return 0, err
		}
		ticks += n
	}
	return time.Duration(ticks) * time.Second / clockTicks, nil
}

// procHWM reads VmHWM from /proc/<pid>/status, in bytes.
func procHWM(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb * 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}
