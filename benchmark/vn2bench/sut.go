package main

// The system under test: real `vn2 serve` / `vn2 router` subprocesses, each
// in its own process group, observed from outside through /proc and their
// HTTP surface. Every process started here is tracked until it has been
// killed and reaped, so every exit path of the harness can stop them all.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// clockTick is the kernel's USER_HZ, the unit of /proc/<pid>/stat CPU
// fields; it is 100 on every Linux ABI Go supports.
const clockTick = 100

type proc struct {
	name    string
	bin     string
	args    []string
	logPath string
	http    string // host:port of the HTTP surface
	cmd     *exec.Cmd
	done    chan struct{} // closed once the process has been reaped
}

var (
	liveMu    sync.Mutex
	liveProcs = map[*proc]struct{}{}
)

// start launches the process in its own group. Pdeathsig makes the kernel
// kill it if the harness itself dies by SIGKILL; main pins its goroutine to
// its thread so the signal is tied to the harness's lifetime, not a
// runtime thread's.
func (p *proc) start() error {
	logf, err := os.OpenFile(p.logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer logf.Close()
	p.cmd = exec.Command(p.bin, p.args...)
	p.cmd.Stdout = logf
	p.cmd.Stderr = logf
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	liveMu.Lock()
	defer liveMu.Unlock()
	if err := p.cmd.Start(); err != nil {
		return fmt.Errorf("start %s: %w", p.name, err)
	}
	liveProcs[p] = struct{}{}
	p.done = make(chan struct{})
	go func(cmd *exec.Cmd, done chan struct{}) {
		_ = cmd.Wait() // reaping only; a killed process always reports an error
		close(done)
	}(p.cmd, p.done)
	return nil
}

// kill sends SIGKILL to the whole group and reaps the process.
func (p *proc) kill() {
	liveMu.Lock()
	_, ok := liveProcs[p]
	delete(liveProcs, p)
	liveMu.Unlock()
	if !ok {
		return
	}
	if !p.exited() {
		// Not reaped yet, so the pid (and with it the group id) is still ours.
		_ = syscall.Kill(-p.cmd.Process.Pid, syscall.SIGKILL)
	}
	<-p.done
}

// killAll stops every tracked process; safe to call from any exit path.
func killAll() {
	liveMu.Lock()
	procs := make([]*proc, 0, len(liveProcs))
	for p := range liveProcs {
		procs = append(procs, p)
	}
	liveMu.Unlock()
	for _, p := range procs {
		p.kill()
	}
}

func (p *proc) exited() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

func (p *proc) logTail() string {
	b, _ := os.ReadFile(p.logPath)
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return string(b)
}

// waitHTTP polls path until it answers 200 and returns when it did.
func (p *proc) waitHTTP(path string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	url := "http://" + p.http + path
	for time.Now().Before(deadline) {
		resp, err := controlClient.Get(url)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if p.exited() {
			return fmt.Errorf("%s exited before %s answered:\n%s", p.name, path, p.logTail())
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("%s: %s not 200 within %s:\n%s", p.name, path, timeout, p.logTail())
}

// cpuSeconds is user+system CPU consumed so far (/proc/<pid>/stat). The
// kernel scales the two so that their sum is the scheduler's own nanosecond
// count, not a tally of timer ticks.
func (p *proc) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name may contain spaces; fields resume after the last ')'.
	f := strings.Fields(string(b[bytes.LastIndexByte(b, ')')+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat for %s", p.name)
	}
	utime, err1 := strconv.ParseUint(f[11], 10, 64)
	stime, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parse /proc stat for %s", p.name)
	}
	return float64(utime+stime) / clockTick, nil
}

// rssMB reads the process's resident set (VmRSS) and its high-water mark
// (VmHWM) from /proc/<pid>/status.
func (p *proc) rssMB() (now, peak float64, err error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, 0, err
	}
	field := func(name string) (float64, error) {
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, name+":"); ok {
				kb, err := strconv.ParseFloat(strings.Fields(rest)[0], 64)
				return kb / 1024, err
			}
		}
		return 0, fmt.Errorf("no %s for %s", name, p.name)
	}
	if now, err = field("VmRSS"); err != nil {
		return 0, 0, err
	}
	peak, err = field("VmHWM")
	return now, peak, err
}

// metrics fetches the process's flat /metrics counter map.
func (p *proc) metrics() (map[string]float64, error) {
	var raw map[string]any
	if err := getJSON("http://"+p.http+"/metrics", &raw); err != nil {
		return nil, err
	}
	out := make(map[string]float64, len(raw))
	for k, v := range raw {
		if f, ok := v.(float64); ok {
			out[k] = f
		}
	}
	return out, nil
}

// controlClient carries readiness probes, /metrics and oracle reads — never
// ingest, which owns its own connections.
var controlClient = &http.Client{Timeout: 30 * time.Second}

func getJSON(url string, into any) error {
	resp, err := controlClient.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(into)
}

// freeAddr picks a loopback port by bind-then-release.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// leftoverSUT lists live processes whose argv[0] is this harness's vn2
// binary: a previous run's SUT that was never stopped. One left ticking its
// drain loop moves every CPU number of the next run.
func leftoverSUT(bin string) []int {
	var pids []int
	entries, _ := os.ReadDir("/proc")
	for _, e := range entries {
		pid, err := strconv.Atoi(e.Name())
		if err != nil {
			continue
		}
		cmdline, err := os.ReadFile(filepath.Join("/proc", e.Name(), "cmdline"))
		if err != nil {
			continue
		}
		if argv0, _, _ := bytes.Cut(cmdline, []byte{0}); string(argv0) == bin {
			pids = append(pids, pid)
		}
	}
	return pids
}

// fsType names the filesystem holding dir (from /proc/mounts, longest
// matching mount point), recorded because fsync cost depends on it.
func fsType(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	b, _ := os.ReadFile("/proc/mounts")
	best, typ := "", "unknown"
	for _, line := range strings.Split(string(b), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mp := f[1]
		if (abs == mp || strings.HasPrefix(abs, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > len(best) {
			best, typ = mp, f[2]
		}
	}
	return typ
}
