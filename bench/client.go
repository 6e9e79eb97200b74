package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// conn is one of the load generator's connections: a keep-alive
// HTTP/1.1 connection that the goroutine using it writes to and reads
// from itself. net/http's client answers the same purpose with two more
// goroutines, a timer and a dozen allocations per request, which on two
// cores shared with the server was a third of every round trip measured.
// A conn talks to one server at a time and redials when it is pointed at
// another or after an error, so it never reuses a dead server's socket.
type conn struct {
	addr string // host:port of the server c is connected to
	c    net.Conn
	br   *bufio.Reader
	req  []byte // the request being written, reused
}

func newConn() *conn { return &conn{} }

// requestTimeout bounds one request: a server that hangs fails the
// operation instead of hanging the benchmark.
const requestTimeout = 60 * time.Second

// do sends one request to url ("http://host:port/path") and returns the
// status and the body of the answer. A nil body makes it a GET.
func (cn *conn) do(url string, body []byte) (status int, answer []byte, err error) {
	rest, ok := strings.CutPrefix(url, "http://")
	slash := strings.IndexByte(rest, '/')
	if !ok || slash < 0 {
		return 0, nil, fmt.Errorf("conn: cannot parse %q", url)
	}
	addr, path := rest[:slash], rest[slash:]
	if cn.c == nil || cn.addr != addr {
		cn.close()
		c, err := net.DialTimeout("tcp", addr, requestTimeout)
		if err != nil {
			return 0, nil, err
		}
		cn.addr, cn.c, cn.br = addr, c, bufio.NewReaderSize(c, 64<<10)
	}
	defer func() {
		if err != nil {
			cn.close()
		}
	}()
	if err := cn.c.SetDeadline(time.Now().Add(requestTimeout)); err != nil {
		return 0, nil, err
	}
	q := cn.req[:0]
	if body == nil {
		q = append(q, "GET "...)
	} else {
		q = append(q, "POST "...)
	}
	q = append(append(append(q, path...), " HTTP/1.1\r\nHost: "...), addr...)
	if body != nil {
		q = append(q, "\r\nContent-Type: application/json\r\nContent-Length: "...)
		q = strconv.AppendInt(q, int64(len(body)), 10)
	}
	q = append(append(q, "\r\n\r\n"...), body...)
	cn.req = q
	if _, err := cn.c.Write(q); err != nil {
		return 0, nil, err
	}
	resp, err := http.ReadResponse(cn.br, nil)
	if err != nil {
		return 0, nil, err
	}
	answer, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, nil, err
	}
	if resp.Close {
		cn.close()
	}
	return resp.StatusCode, answer, nil
}

func (cn *conn) close() {
	if cn.c != nil {
		cn.c.Close()
		cn.c = nil
	}
}

// tally counts the operations of a run. Any non-2xx answer, transport
// error or failed check is a failed operation.
type tally struct {
	attempted atomic.Int64
	failed    atomic.Int64

	mu     sync.Mutex
	logged int
}

// fail records one failed operation and prints the first few reasons.
func (t *tally) fail(format string, args ...any) {
	t.failed.Add(1)
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.logged < 10 {
		t.logged++
		fmt.Fprintf(os.Stderr, "FAILED: "+format+"\n", args...)
	}
}

// get issues one GET as one attempted operation and returns the body of
// a 200 answer; anything else is counted as a failure and returns nil.
func (t *tally) get(c *conn, url string) []byte {
	t.attempted.Add(1)
	status, body, err := c.do(url, nil)
	if err != nil {
		t.fail("GET %s: %v", url, err)
		return nil
	}
	if status != http.StatusOK {
		t.fail("GET %s: status %d: %s", url, status, firstLine(body))
		return nil
	}
	return body
}

// ingestReply is the answer to POST /v1/papers with an array body.
type ingestReply struct {
	Epoch       uint64 `json:"epoch"`
	Assignments [][]struct {
		Paper int `json:"paper"`
	} `json:"assignments"`
}

// post ingests one batch as one attempted operation and returns the
// paper id the server gave each paper, or nil after counting a failure.
func (t *tally) post(c *conn, base string, body []byte, papers int) []int {
	t.attempted.Add(1)
	status, raw, err := c.do(base+"/v1/papers", body)
	if err != nil {
		t.fail("POST /v1/papers: %v", err)
		return nil
	}
	if status != http.StatusOK {
		t.fail("POST /v1/papers: status %d: %s", status, firstLine(raw))
		return nil
	}
	var rep ingestReply
	if err := json.Unmarshal(raw, &rep); err != nil || len(rep.Assignments) != papers {
		t.fail("POST /v1/papers: %d assignments for %d papers (%v)", len(rep.Assignments), papers, err)
		return nil
	}
	ids := make([]int, papers)
	for i, slots := range rep.Assignments {
		if len(slots) == 0 {
			t.fail("POST /v1/papers: paper %d of the batch has no assignment", i)
			return nil
		}
		ids[i] = slots[0].Paper
	}
	return ids
}

// authorReply is the part of an author record the checks read.
type authorReply struct {
	ID   int    `json:"id"`
	Name string `json:"name"`
}

// resolve asks who wrote the index-th name of a paper and checks that
// the answer carries the expected name. It returns the author id, or -1
// after counting a failure.
func (t *tally) resolve(c *conn, base string, paper, index int, want string) int {
	body := t.get(c, base+query{ep: epResolve, paper: paper, index: index}.path())
	if body == nil {
		return -1
	}
	var a authorReply
	if err := json.Unmarshal(body, &a); err != nil || a.Name != want {
		t.fail("resolve paper %d index %d: got %q, want %q (%v)", paper, index, a.Name, want, err)
		return -1
	}
	return a.ID
}
