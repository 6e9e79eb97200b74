package main

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
)

var testBin string

// The tests run from the root of the checkout, as the benchmark does:
// its paths (BENCHMARK.json, bench/out, ./cmd/iuadserver) are relative.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	var err error
	if testBin, err = buildServer(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	code := m.Run()
	killAll()
	os.Exit(code)
}

func alive(pid int) bool { return syscall.Kill(pid, 0) == nil }

func liveChildren() int {
	children.Lock()
	defer children.Unlock()
	return len(children.live)
}

func TestFreePort(t *testing.T) {
	a, err := freePort()
	if err != nil {
		t.Fatal(err)
	}
	if a <= 0 || a > 65535 {
		t.Errorf("freePort = %d", a)
	}
}

func TestChildLifecycle(t *testing.T) {
	c := newConn()

	// A server that cannot start: the wait reports its exit and its
	// stderr instead of polling until the timeout, and nothing lingers.
	bad, err := startServer(testBin, "-journal", t.TempDir(), "-snapshot", filepath.Join(t.TempDir(), "x.snap"))
	if err != nil {
		t.Fatal(err)
	}
	began := time.Now()
	if _, _, err := bad.waitHealthy(c, time.Minute); err == nil || !strings.Contains(err.Error(), "mutually exclusive") {
		t.Errorf("waitHealthy on a server that refused its flags: %v", err)
	}
	if time.Since(began) > 10*time.Second {
		t.Errorf("a dead server was only noticed after %v", time.Since(began))
	}
	bad.stop(syscall.SIGKILL)
	if n := liveChildren(); n != 0 {
		t.Errorf("%d children tracked after the failed start was reaped", n)
	}

	// Two healthy servers, then the failure path: killAll reaps both.
	var pids []int
	for i := 0; i < 2; i++ {
		s, err := startServer(testBin, "-synthetic", "-journal", t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if _, h, err := s.waitHealthy(c, time.Minute); err != nil || h.Status != "ok" {
			t.Fatalf("synthetic server: %+v, %v", h, err)
		}
		pids = append(pids, s.cmd.Process.Pid)
	}
	if n := liveChildren(); n != 2 {
		t.Errorf("%d children tracked, want 2", n)
	}
	killAll()
	for _, pid := range pids {
		if alive(pid) {
			t.Errorf("server %d survived killAll", pid)
		}
	}
	if n := liveChildren(); n != 0 {
		t.Errorf("%d children tracked after killAll", n)
	}

	// A clean stop reports what the kernel accounted to the child, and
	// stopping twice is harmless.
	s, err := startServer(testBin, "-synthetic", "-journal", t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.waitHealthy(c, time.Minute); err != nil {
		t.Fatal(err)
	}
	u := s.stop(syscall.SIGTERM)
	if u.peakRSSMB <= 0 || u.cpu <= 0 {
		t.Errorf("usage of a reaped server: %+v", u)
	}
	s.stop(syscall.SIGKILL)
	if alive(s.cmd.Process.Pid) {
		t.Error("server alive after stop")
	}
}

// A conn is a keep-alive connection that follows the server it is
// pointed at: it reads fixed-length and chunked answers, sends bodies,
// redials for another address and after an error.
func TestConn(t *testing.T) {
	var dials atomic.Int64
	handler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/big": // no Content-Length: the server chunks it
			for i := 0; i < 100; i++ {
				fmt.Fprint(w, strings.Repeat("x", 1000))
				w.(http.Flusher).Flush()
			}
		case "/echo":
			b, _ := io.ReadAll(r.Body)
			fmt.Fprintf(w, "%s %s %s", r.Method, r.Header.Get("Content-Type"), b)
		default:
			http.Error(w, "no such thing", http.StatusNotFound)
		}
	})
	servers := make([]*httptest.Server, 2)
	for i := range servers {
		s := httptest.NewUnstartedServer(handler)
		s.Config.ConnState = func(_ net.Conn, st http.ConnState) {
			if st == http.StateNew {
				dials.Add(1)
			}
		}
		s.Start()
		defer s.Close()
		servers[i] = s
	}
	c := newConn()
	defer c.close()
	for i := 0; i < 3; i++ {
		status, body, err := c.do(servers[0].URL+"/echo", []byte(`[1,2]`))
		if err != nil || status != 200 || string(body) != "POST application/json [1,2]" {
			t.Fatalf("POST: %d %q %v", status, body, err)
		}
	}
	if status, body, err := c.do(servers[0].URL+"/big", nil); err != nil || status != 200 || len(body) != 100000 {
		t.Errorf("chunked GET: %d, %d bytes, %v", status, len(body), err)
	}
	if status, body, err := c.do(servers[0].URL+"/nothing", nil); err != nil || status != 404 || !strings.Contains(string(body), "no such thing") {
		t.Errorf("GET of a missing path: %d %q %v", status, body, err)
	}
	if n := dials.Load(); n != 1 {
		t.Errorf("five requests to one server took %d connections", n)
	}
	if status, body, err := c.do(servers[1].URL+"/echo", nil); err != nil || status != 200 || string(body) != "GET  " {
		t.Errorf("GET from the second server: %d %q %v", status, body, err)
	}
	if n := dials.Load(); n != 2 {
		t.Errorf("%d connections after switching servers, want 2", n)
	}
	servers[1].CloseClientConnections()
	if _, _, err := c.do(servers[1].URL+"/echo", nil); err == nil {
		t.Error("a request on a connection the server closed succeeded")
	}
	if status, _, err := c.do(servers[1].URL+"/echo", nil); err != nil || status != 200 {
		t.Errorf("the request after a failed one: %d %v (want a redial)", status, err)
	}
	if _, _, err := c.do("127.0.0.1:1/x", nil); err == nil {
		t.Error("a URL without a scheme was accepted")
	}
}
