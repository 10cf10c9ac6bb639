package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// env is where a run lives: the repository root it was started under, the
// build directory and the output directory, plus the fixed run shape.
type env struct {
	root     string // repository root (holds cmd/ncadmitd)
	buildDir string // <root>/.bench_build
	outDir   string // <root>/bench/out
	daemon   string // built ncadmitd binary
	buildS   float64

	nproc int
	p     int // daemon GOMAXPROCS
	c     int // driver connections
	pin   *pinning
	shape shape
}

// findRoot walks up from the working directory to the streamcalc module
// root, so the benchmark runs from the repository root or from bench/.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		mod, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && bytes.HasPrefix(mod, []byte("module streamcalc\n")) {
			if _, err := os.Stat(filepath.Join(dir, "cmd", "ncadmitd")); err == nil {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("bench: not inside a streamcalc checkout (no go.mod with cmd/ncadmitd above the working directory)")
		}
		dir = parent
	}
}

// driverLanes is C, the driver's connections: enough callers to keep the
// daemon saturated in the closed loop.
const driverLanes = 8

func newEnv() (*env, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	e := &env{
		root:     root,
		buildDir: filepath.Join(root, ".bench_build"),
		outDir:   filepath.Join(root, "bench", "out"),
		nproc:    runtime.NumCPU(),
		shape:    fullShape,
		c:        driverLanes,
	}
	e.p = max(1, e.nproc-1)
	for _, d := range []string{e.buildDir, e.outDir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// callers is how many lanes drive a workload at once.
func (e *env) callers(w *workload) int {
	if w.callers > 0 {
		return w.callers
	}
	return e.c
}

// build compiles ./cmd/ncadmitd from the checkout's sources.
func (e *env) build() error {
	e.daemon = filepath.Join(e.buildDir, "ncadmitd")
	start := time.Now()
	cmd := exec.Command("go", "build", "-o", e.daemon, "./cmd/ncadmitd")
	cmd.Dir = e.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("bench: go build ./cmd/ncadmitd: %w\n%s", err, out)
	}
	e.buildS = time.Since(start).Seconds()
	return nil
}

// daemon is one spawned ncadmitd.
type daemon struct {
	cmd   *exec.Cmd
	base  string // http://127.0.0.1:port
	log   *os.File
	start time.Time
	// readyS is the time from exec to the first /healthz 200, in seconds.
	readyS float64
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// spawn starts ncadmitd on the platform with the benchmark's fixed flags and
// waits for /healthz. The returned daemon must be stopped.
func (e *env) spawn(platform, tag string) (*daemon, error) {
	pf := filepath.Join(e.outDir, "platform-"+tag+".json")
	if err := os.WriteFile(pf, []byte(platform), 0o644); err != nil {
		return nil, err
	}
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(filepath.Join(e.outDir, "daemon-"+tag+".log"))
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	d := &daemon{base: "http://" + addr, log: logf}
	d.cmd = exec.Command(e.daemon, "-platform", pf, "-addr", addr, "-audit=false")
	d.cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(e.p))
	d.cmd.Stdout, d.cmd.Stderr = logf, logf
	d.start = time.Now()
	if err := e.pin.start(d.cmd); err != nil {
		logf.Close()
		return nil, fmt.Errorf("bench: start ncadmitd: %w", err)
	}
	cl := newClient(d.base)
	defer cl.close()
	deadline := d.start.Add(10 * time.Second)
	for {
		if st, _, err := cl.do("GET", "/healthz", ""); err == nil && st == 200 {
			d.readyS = time.Since(d.start).Seconds()
			return d, nil
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("bench: ncadmitd not healthy after 10s (see %s)", logf.Name())
		}
		time.Sleep(250 * time.Microsecond)
	}
}

// stop terminates the daemon and waits until it has exited.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // already exited: Wait below still reaps it
	done := make(chan struct{})
	go func() {
		_ = d.cmd.Wait() // exit status of a signalled daemon carries nothing we use
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(3 * time.Second):
		_ = d.cmd.Process.Kill()
		<-done
	}
	d.log.Close()
}

// clockTick is the kernel's USER_HZ, which /proc/<pid>/stat counts CPU time
// in; it is 100 on every Linux architecture Go supports.
const clockTick = 100

// cpuSeconds returns utime+stime of a process from /proc/<pid>/stat.
func cpuSeconds(pid int) (float64, error) {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may contain spaces; fields resume after
	// the closing parenthesis.
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return 0, fmt.Errorf("bench: malformed stat for pid %d", pid)
	}
	f := strings.Fields(string(data[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("bench: short stat for pid %d", pid)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64) // field 14: utime
	st, err2 := strconv.ParseFloat(f[12], 64) // field 15: stime
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bench: unparsable stat for pid %d", pid)
	}
	return (ut + st) / clockTick, nil
}

// peakRSSMiB returns VmHWM of a process in MiB.
func peakRSSMiB(pid int) (float64, error) {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("bench: VmHWM of pid %d: %w", pid, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("bench: no VmHWM for pid %d", pid)
}
