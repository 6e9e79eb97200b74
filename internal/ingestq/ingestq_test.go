package ingestq

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"iuad/internal/bib"
	"iuad/internal/core"
)

// mkPapers builds n distinguishable one-author papers.
func mkPapers(tag string, n int) []bib.Paper {
	out := make([]bib.Paper, n)
	for i := range out {
		out[i] = bib.Paper{Title: fmt.Sprintf("%s-%d", tag, i), Authors: []string{"Q Tester"}}
	}
	return out
}

// seqCommitter is a test CommitFunc that assigns each paper a global
// ingest sequence number (as Assignment.Vertex), records every commit
// call, and detects overlapping commits.
type seqCommitter struct {
	mu      sync.Mutex
	seq     int
	calls   [][]string // titles per commit call
	running atomic.Int32
	gate    chan struct{} // when non-nil, each commit waits here first
	fail    func(title string) error
}

func (c *seqCommitter) commit(batch []bib.Paper) ([][]core.Assignment, error) {
	if c.running.Add(1) != 1 {
		panic("overlapping commits")
	}
	defer c.running.Add(-1)
	if c.gate != nil {
		<-c.gate
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	titles := make([]string, 0, len(batch))
	out := make([][]core.Assignment, 0, len(batch))
	for _, p := range batch {
		if c.fail != nil {
			if err := c.fail(p.Title); err != nil {
				c.calls = append(c.calls, titles)
				return out, err
			}
		}
		titles = append(titles, p.Title)
		out = append(out, []core.Assignment{{Vertex: c.seq}})
		c.seq++
	}
	c.calls = append(c.calls, titles)
	return out, nil
}

func TestSubmitCommitsSerially(t *testing.T) {
	c := &seqCommitter{}
	q := New(c.commit, Config{})
	res, err := q.Submit(context.Background(), mkPapers("a", 3))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 || res[0][0].Vertex != 0 || res[2][0].Vertex != 2 {
		t.Fatalf("results %+v", res)
	}
	if res2, err := q.Submit(context.Background(), mkPapers("b", 2)); err != nil || res2[0][0].Vertex != 3 {
		t.Fatalf("second submit %+v, %v", res2, err)
	}
	st := q.Stats()
	if st.AdmittedBatches != 2 || st.AdmittedPapers != 5 || st.Commits != 2 || st.Depth != 0 {
		t.Fatalf("stats %+v", st)
	}
	if st.QueueWait.Count != 2 || st.PublishLag.Count != 2 || st.GroupedBatches != 0 {
		t.Fatalf("latency counts %+v", st)
	}
	if nil2, err := q.Submit(context.Background(), nil); err != nil || nil2 != nil {
		t.Fatalf("empty submit %+v, %v", nil2, err)
	}
}

// TestAckDoesNotWaitForLaterBatches: a Submit returns as soon as its
// own commit does, even while a batch that queued behind it is still
// committing — one batch, one commit, one ack.
func TestAckDoesNotWaitForLaterBatches(t *testing.T) {
	c := &seqCommitter{gate: make(chan struct{})}
	q := New(c.commit, Config{})
	defer close(c.gate)

	first := make(chan error, 1)
	go func() {
		_, err := q.Submit(context.Background(), mkPapers("a", 1))
		first <- err
	}()
	waitFor(t, func() bool { return c.running.Load() == 1 })
	second := make(chan error, 1)
	go func() {
		_, err := q.Submit(context.Background(), mkPapers("b", 1))
		second <- err
	}()
	waitFor(t, func() bool { return q.Stats().Depth == 2 })

	c.gate <- struct{}{} // release A's commit only
	select {
	case err := <-first:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("A's ack waited for B's commit")
	}
	waitFor(t, func() bool { return c.running.Load() == 1 }) // B's commit, gated
	select {
	case err := <-second:
		t.Fatalf("B returned while its commit is gated: %v", err)
	default:
	}
	c.gate <- struct{}{}
	if err := <-second; err != nil {
		t.Fatal(err)
	}
}

// TestOverloadSheds pins admission control: once queued papers exceed
// MaxQueued, Submits are rejected with *OverloadedError carrying the
// Retry-After hint, and the queue depth never exceeds the bound.
func TestOverloadSheds(t *testing.T) {
	c := &seqCommitter{gate: make(chan struct{})}
	q := New(c.commit, Config{MaxQueued: 6, RetryAfter: 250 * time.Millisecond})

	var wg sync.WaitGroup
	start := func(tag string, n int) {
		wg.Add(1)
		before := q.Stats().AdmittedBatches
		go func() {
			defer wg.Done()
			if _, err := q.Submit(context.Background(), mkPapers(tag, n)); err != nil {
				t.Errorf("%s: %v", tag, err)
			}
		}()
		waitFor(t, func() bool { return q.Stats().AdmittedBatches > before })
	}
	start("leader", 2) // in flight (depth 2)
	waitFor(t, func() bool { return c.running.Load() == 1 })
	start("parked", 4) // depth 6 == limit

	_, err := q.Submit(context.Background(), mkPapers("shed", 1))
	var ov *OverloadedError
	if !errors.As(err, &ov) {
		t.Fatalf("overflow submit = %v, want *OverloadedError", err)
	}
	if ov.Depth != 6 || ov.Limit != 6 || ov.RetryAfter != 250*time.Millisecond {
		t.Fatalf("overload detail %+v", ov)
	}
	st := q.Stats()
	if st.Depth != 6 || st.HighWater != 6 || st.RejectedBatches != 1 {
		t.Fatalf("stats %+v", st)
	}

	close(c.gate) // let everything drain
	wg.Wait()
	if st := q.Stats(); st.Depth != 0 || st.AdmittedPapers != 6 {
		t.Fatalf("post-drain stats %+v", st)
	}
	// The shed batch was never ingested.
	for _, call := range c.calls {
		for _, title := range call {
			if title == "shed-0" {
				t.Fatal("rejected batch reached the committer")
			}
		}
	}
}

// TestOversizedBatchAdmittedWhenIdle: a batch larger than MaxQueued
// still commits when the queue is empty — the bound sheds load, it
// does not deadlock big serial clients.
func TestOversizedBatchAdmittedWhenIdle(t *testing.T) {
	c := &seqCommitter{}
	q := New(c.commit, Config{MaxQueued: 4})
	if _, err := q.Submit(context.Background(), mkPapers("big", 10)); err != nil {
		t.Fatal(err)
	}
}

// TestCancelWithdraws pins the cancellation contract: a context
// cancelled while its batch is parked withdraws the batch — never
// ingested, no partial epoch — and Submit returns the ctx error
// wrapped in *CanceledError.
func TestCancelWithdraws(t *testing.T) {
	c := &seqCommitter{gate: make(chan struct{})}
	q := New(c.commit, Config{})

	done := make(chan error, 1)
	go func() {
		_, err := q.Submit(context.Background(), mkPapers("leader", 1))
		done <- err
	}()
	waitFor(t, func() bool { return c.running.Load() == 1 })

	ctx, cancel := context.WithCancel(context.Background())
	parked := make(chan error, 1)
	go func() {
		_, err := q.Submit(ctx, mkPapers("doomed", 2))
		parked <- err
	}()
	waitFor(t, func() bool { return q.Stats().Depth == 3 })
	cancel()
	err := <-parked // must return while the first commit is still gated
	var ce *CanceledError
	if !errors.As(err, &ce) || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled submit = %v, want *CanceledError wrapping context.Canceled", err)
	}
	if st := q.Stats(); st.Depth != 1 || st.CanceledBatches != 1 {
		t.Fatalf("stats after withdraw %+v", st)
	}

	close(c.gate)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	for _, call := range c.calls {
		for _, title := range call {
			if title == "doomed-0" || title == "doomed-1" {
				t.Fatal("withdrawn batch reached the committer")
			}
		}
	}
}

func TestAlreadyCancelled(t *testing.T) {
	c := &seqCommitter{}
	q := New(c.commit, Config{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := q.Submit(ctx, mkPapers("pre", 1))
	var ce *CanceledError
	if !errors.As(err, &ce) || !errors.Is(err, context.Canceled) {
		t.Fatalf("Submit with dead ctx = %v", err)
	}
	if len(c.calls) != 0 {
		t.Fatal("dead-ctx batch reached the committer")
	}
	if st := q.Stats(); st.AdmittedBatches != 0 || st.CanceledBatches != 1 {
		t.Fatalf("stats %+v", st)
	}
}

// TestCancelAfterCommitStartsCommits: once a batch's commit has
// started, cancellation no longer withdraws it — the batch publishes
// atomically and Submit reports the real result.
func TestCancelAfterCommitStartsCommits(t *testing.T) {
	c := &seqCommitter{gate: make(chan struct{})}
	q := New(c.commit, Config{})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	var res [][]core.Assignment
	var err error
	go func() {
		defer close(done)
		res, err = q.Submit(ctx, mkPapers("inflight", 2))
	}()
	waitFor(t, func() bool { return c.running.Load() == 1 }) // its commit is running
	cancel()
	close(c.gate)
	<-done
	if err != nil || len(res) != 2 {
		t.Fatalf("in-flight cancel: res %+v err %v", res, err)
	}
}

// TestCloseDrains pins the shutdown contract: Close stops admission
// (ErrClosed) and blocks until every admitted batch has committed.
func TestCloseDrains(t *testing.T) {
	c := &seqCommitter{gate: make(chan struct{})}
	q := New(c.commit, Config{})
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		before := q.Stats().AdmittedBatches
		go func(i int) {
			defer wg.Done()
			if _, err := q.Submit(context.Background(), mkPapers(fmt.Sprintf("d%d", i), 2)); err != nil {
				t.Errorf("drain batch %d: %v", i, err)
			}
		}(i)
		waitFor(t, func() bool { return q.Stats().AdmittedBatches > before })
	}
	closed := make(chan struct{})
	go func() { q.Close(); close(closed) }()
	select {
	case <-closed:
		t.Fatal("Close returned with batches still queued")
	case <-time.After(20 * time.Millisecond):
	}
	close(c.gate)
	<-closed
	wg.Wait()
	if st := q.Stats(); st.Depth != 0 || st.AdmittedPapers != 6 {
		t.Fatalf("post-close stats %+v", st)
	}
	if _, err := q.Submit(context.Background(), mkPapers("late", 1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-close submit = %v, want ErrClosed", err)
	}
	q.Close() // idempotent
}

// TestPartialCommitErrorDistribution: when the committer fails
// mid-batch, Submit returns the committed prefix together with the
// error, the failure is counted, and the batch leaves the queue.
func TestPartialCommitErrorDistribution(t *testing.T) {
	boom := errors.New("poison paper")
	c := &seqCommitter{fail: func(title string) error {
		if title == "w-1" {
			return boom
		}
		return nil
	}}
	q := New(c.commit, Config{})
	res, err := q.Submit(context.Background(), mkPapers("w", 3)) // poisoned at its 2nd paper
	if !errors.Is(err, boom) || len(res) != 1 {
		t.Fatalf("poisoned batch res=%d err=%v, want the 1-paper prefix and the error", len(res), err)
	}
	if st := q.Stats(); st.Commits != 1 || st.FailedCommits != 1 || st.Depth != 0 {
		t.Fatalf("stats %+v", st)
	}
}

// TestConcurrentSubmitters is the -race exercise: many goroutines
// hammer the queue; every admitted paper is committed exactly once,
// commits never overlap (seqCommitter panics if they do), and each
// batch's sequence numbers are contiguous (one batch, one commit).
func TestConcurrentSubmitters(t *testing.T) {
	c := &seqCommitter{}
	q := New(c.commit, Config{MaxQueued: 1 << 20}) // no shedding: count conservation
	const goroutines, batches, perBatch = 8, 25, 3
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				res, err := q.Submit(context.Background(), mkPapers(fmt.Sprintf("g%d-b%d", g, b), perBatch))
				if err != nil {
					t.Errorf("g%d b%d: %v", g, b, err)
					return
				}
				for i := 1; i < len(res); i++ {
					if res[i][0].Vertex != res[i-1][0].Vertex+1 {
						t.Errorf("batch split across commits: %d then %d", res[i-1][0].Vertex, res[i][0].Vertex)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	st := q.Stats()
	want := int64(goroutines * batches * perBatch)
	if st.AdmittedPapers != want || st.Depth != 0 {
		t.Fatalf("stats %+v, want %d papers", st, want)
	}
	total := 0
	for _, call := range c.calls {
		total += len(call)
	}
	if int64(total) != want {
		t.Fatalf("committed %d papers, admitted %d", total, want)
	}
}

// waitFor polls cond with a deadline — the test-side sync primitive
// for crossing goroutine boundaries without sleeps.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("timeout waiting for condition")
		}
		time.Sleep(200 * time.Microsecond)
	}
}
