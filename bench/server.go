package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
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

	"iuad/internal/httpapi"
	"iuad/internal/wal"
)

// outDir holds everything the benchmark leaves behind: the server
// binary, per-run scratch directories and the span files. It is listed
// in .gitignore.
const outDir = "bench/out"

// buildServer compiles cmd/iuadserver, the binary users run, from the
// checkout the benchmark was started in. Build time is outside every
// metric, setup_s included.
func buildServer() (string, error) {
	bin, err := filepath.Abs(filepath.Join(outDir, "bin", "iuadserver"))
	if err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/iuadserver")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/iuadserver: %v\n%s", err, out)
	}
	return bin, nil
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

// server is one iuadserver child process.
type server struct {
	cmd    *exec.Cmd
	url    string
	stderr bytes.Buffer
	start  time.Time

	waited  chan struct{}
	waitErr error
}

// children tracks the live child processes and the scratch directories
// of the runs in progress, so that a failing or interrupted run can reap
// every server and remove what it wrote before it exits.
var children struct {
	sync.Mutex
	live    map[*server]struct{}
	scratch map[string]struct{}
}

// scratchDir makes a directory under bench/out that a signal removes.
func scratchDir(pattern string) (string, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", err
	}
	dir, err := os.MkdirTemp(outDir, pattern)
	if err != nil {
		return "", err
	}
	children.Lock()
	if children.scratch == nil {
		children.scratch = make(map[string]struct{})
	}
	children.scratch[dir] = struct{}{}
	children.Unlock()
	return dir, nil
}

// removeScratch removes one scratch directory, or all of them for "".
func removeScratch(dir string) {
	children.Lock()
	defer children.Unlock()
	for d := range children.scratch {
		if dir == "" || d == dir {
			os.RemoveAll(d)
			delete(children.scratch, d)
		}
	}
}

// startServer launches the binary with product defaults plus args on a
// fresh loopback port. Only -addr, -corpus and -journal are ever
// passed by the workloads; the sweep adds existing tuning flags.
func startServer(bin string, args ...string) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	s := &server{url: "http://" + addr, waited: make(chan struct{})}
	s.cmd = exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	s.cmd.Stderr = &s.stderr
	// The kernel kills the child if the benchmark dies without reaping
	// it, so a crashed or killed run leaves no server behind.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	s.start = time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, err
	}
	children.Lock()
	if children.live == nil {
		children.live = make(map[*server]struct{})
	}
	children.live[s] = struct{}{}
	children.Unlock()
	go func() {
		s.waitErr = s.cmd.Wait()
		close(s.waited)
	}()
	return s, nil
}

// health is the /healthz document.
type health struct {
	Status   string            `json:"status"`
	Epoch    uint64            `json:"epoch"`
	Recovery *wal.ReplayReport `json:"recovery"`
}

// waitHealthy polls /healthz until the first 200 and returns the time
// since exec. The listener is up before the fit or the replay, so the
// polls are answered 503 until the service is attached.
func (s *server) waitHealthy(c *conn, timeout time.Duration) (time.Duration, health, error) {
	var h health
	deadline := s.start.Add(timeout)
	for {
		select {
		case <-s.waited:
			return 0, h, fmt.Errorf("server exited before it was healthy: %v\n%s", s.waitErr, s.stderr.String())
		default:
		}
		status, body, err := c.do(s.url+"/healthz", nil)
		if err == nil {
			if status == http.StatusOK {
				took := time.Since(s.start)
				if err := json.Unmarshal(body, &h); err != nil {
					return 0, h, fmt.Errorf("healthz: %w", err)
				}
				return took, h, nil
			}
		}
		if time.Now().After(deadline) {
			return 0, h, fmt.Errorf("server not healthy after %v\n%s", timeout, s.stderr.String())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// usage is what the kernel accounted to a stopped child.
type usage struct {
	cpu time.Duration
	// peakRSSMB is the most memory the child ever held: VmHWM of
	// /proc/<pid>/status, read just before the signal. (The ru_maxrss the
	// kernel hands to wait4 is no use here: exec folds the high-water mark
	// of the address space the child was forked from into it, so a small
	// server reports the load generator's own footprint.) It is 0 when the
	// child was already gone.
	peakRSSMB float64
}

// stop signals the child, waits for it to exit, and returns its
// resource usage. SIGTERM is the clean shutdown (drain, compact);
// SIGKILL is the crash. Stopping a stopped server is a no-op.
func (s *server) stop(sig syscall.Signal) usage {
	var u usage
	select {
	case <-s.waited:
	default:
		u.peakRSSMB = s.peakRSSMB()
		_ = s.cmd.Process.Signal(sig) // the child may have just exited by itself
		select {
		case <-s.waited:
		case <-time.After(30 * time.Second):
			_ = s.cmd.Process.Kill()
			<-s.waited
		}
	}
	children.Lock()
	delete(children.live, s)
	children.Unlock()
	if ps := s.cmd.ProcessState; ps != nil {
		u.cpu = ps.UserTime() + ps.SystemTime()
	}
	return u
}

// peakRSSMB reads the live child's VmHWM, in MB.
func (s *server) peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(s.cmd.Process.Pid) + "/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

// killAll reaps every child still alive; the exit path of a failed run.
func killAll() {
	children.Lock()
	var live []*server
	for s := range children.live {
		live = append(live, s)
	}
	children.Unlock()
	for _, s := range live {
		s.stop(syscall.SIGKILL)
	}
}

// procSample reads what /proc knows about the live child: CPU seconds
// so far and bytes handed to the block layer.
type procSample struct {
	cpuS    float64
	writeMB float64
}

func (s *server) proc() procSample {
	var ps procSample
	pid := strconv.Itoa(s.cmd.Process.Pid)
	if b, err := os.ReadFile("/proc/" + pid + "/stat"); err == nil {
		// Fields after the parenthesised command name; utime and stime
		// are the 14th and 15th of the line, in clock ticks (100/s).
		if i := strings.LastIndexByte(string(b), ')'); i >= 0 {
			f := strings.Fields(string(b[i+1:]))
			if len(f) > 12 {
				ut, _ := strconv.ParseFloat(f[11], 64)
				st, _ := strconv.ParseFloat(f[12], 64)
				ps.cpuS = (ut + st) / 100
			}
		}
	}
	if b, err := os.ReadFile("/proc/" + pid + "/io"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if v, ok := strings.CutPrefix(line, "write_bytes: "); ok {
				n, _ := strconv.ParseFloat(v, 64)
				ps.writeMB = n / (1 << 20)
			}
		}
	}
	return ps
}

// metrics fetches the server's /metrics document.
func (s *server) metrics(c *conn) (httpapi.Metrics, error) {
	var m httpapi.Metrics
	err := getJSON(c, s.url+"/metrics", &m)
	return m, err
}

// getJSON decodes a 200 response into v.
func getJSON(c *conn, url string, v any) error {
	status, body, err := c.do(url, nil)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %s", url, status, firstLine(body))
	}
	return json.Unmarshal(body, v)
}

func firstLine(b []byte) string {
	s := strings.TrimSpace(string(b))
	if len(s) > 200 {
		s = s[:200]
	}
	return strings.ReplaceAll(s, "\n", " ")
}

// copyDir copies the regular files of a journal directory (the base
// snapshot and the segments; flat) so that a crashed state can be
// recovered more than once.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			return errors.New("copyDir: " + e.Name() + " is not a regular file")
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}
