// Package ingestq is the admission-control and group-commit layer in
// front of the serialized ingest path (iuad.Service.AddPapers).
//
// The bottom-up pipeline's write path is serialized by construction —
// that is what keeps assignments bit-identical to a serial paper
// stream — so under bursty traffic the only choices are to queue
// unboundedly (OOM), block arbitrarily (latency collapse), or admit a
// bounded amount of work and shed the rest. The queue implements the
// third, plus group commit so the bound is rarely hit:
//
//   - Admission control: the queue tracks the number of papers
//     admitted but not yet committed (the depth). A batch that would
//     push the depth past MaxQueued is rejected immediately with
//     *OverloadedError carrying a Retry-After hint — the caller maps
//     it to HTTP 429. Heap use is therefore bounded by MaxQueued
//     papers regardless of offered load.
//
//   - Group commit: the first admitted batch becomes the leader and
//     runs the commit; batches arriving while a commit is in flight
//     park as followers. When the leader finishes it scoops every
//     parked batch — in arrival order — into ONE concatenated commit:
//     one serialized core-ingest pass, one epoch publish. Because the
//     concatenation preserves arrival order and the commit function
//     ingests serially, grouped results are bit-identical to the same
//     batches committed one by one.
//
//   - Cancellation: a context cancelled while its batch is still
//     parked withdraws the batch — none of its papers are ever
//     ingested, no partial epoch exists — and Submit returns the
//     ctx error wrapped in *CanceledError. Once a batch is scooped
//     into a commit group it is past the point of no return: the
//     commit runs to completion (publishing the batch atomically)
//     even if the client has gone away.
//
//   - Drain: Close stops admission (further Submits fail with
//     ErrClosed) and blocks until every already-admitted batch has
//     committed — the graceful-shutdown contract: stop admitting,
//     flush the queue, then snapshot.
//
// See DESIGN.md §12 for the admit → group-commit → publish → drain
// state machine.
package ingestq

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"iuad/internal/bib"
	"iuad/internal/core"
	"iuad/internal/hdrhist"
)

// OverloadedError is the admission-control rejection: the queue is at
// its high-water mark and the batch was not admitted (nothing was
// ingested). RetryAfter is the server's backoff hint.
type OverloadedError struct {
	// Depth is the queued paper count at rejection time; Limit the
	// configured high-water mark.
	Depth, Limit int
	RetryAfter   time.Duration
}

func (e *OverloadedError) Error() string {
	return fmt.Sprintf("ingestq: overloaded: %d papers queued (limit %d), retry after %s",
		e.Depth, e.Limit, e.RetryAfter)
}

// CanceledError reports that the batch's context was cancelled before
// the batch reached a commit group: none of its papers were ingested
// and no epoch carries any part of it. Unwrap yields the ctx error
// (context.Canceled or context.DeadlineExceeded).
type CanceledError struct{ Err error }

func (e *CanceledError) Error() string {
	return "ingestq: batch withdrawn before commit: " + e.Err.Error()
}
func (e *CanceledError) Unwrap() error { return e.Err }

// ErrClosed is returned by Submit after Close has stopped admission.
var ErrClosed = errors.New("ingestq: queue is closed")

// CommitFunc applies one concatenated batch to the underlying store
// and publishes it as one epoch. It is only ever called from one
// goroutine at a time (the current leader). On error it may have
// committed a prefix; len(result) reports how many papers of the
// batch made it in.
type CommitFunc func(batch []bib.Paper) ([][]core.Assignment, error)

// Config parameterizes a Queue. Zero values take the defaults.
type Config struct {
	// MaxQueued is the admission high-water mark in papers (admitted
	// and not yet committed). Default 1024. A batch is always admitted
	// when the queue is empty, even if larger than MaxQueued, so a
	// lone oversized batch makes progress instead of being rejected
	// forever.
	MaxQueued int

	// MaxGroup caps the papers one group commit concatenates (bounds
	// the latency a parked batch can add to the batches behind it).
	// Default 512.
	MaxGroup int

	// RetryAfter is the backoff hint carried by OverloadedError.
	// Default 1s.
	RetryAfter time.Duration
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.MaxQueued <= 0 {
		out.MaxQueued = 1024
	}
	if out.MaxGroup <= 0 {
		out.MaxGroup = 512
	}
	if out.RetryAfter <= 0 {
		out.RetryAfter = time.Second
	}
	return out
}

// Stats is the queue's point-in-time accounting, JSON-shaped for the
// /metrics endpoint.
type Stats struct {
	// Depth is the current queued paper count; HighWater its maximum
	// ever; Limit the admission bound.
	Depth     int64 `json:"depth"`
	HighWater int64 `json:"high_water"`
	Limit     int64 `json:"limit"`

	// AdmittedBatches/AdmittedPapers count admissions;
	// RejectedBatches admission-control rejections (429s);
	// CanceledBatches batches withdrawn by context cancellation
	// before commit.
	AdmittedBatches int64 `json:"admitted_batches"`
	AdmittedPapers  int64 `json:"admitted_papers"`
	RejectedBatches int64 `json:"rejected_batches"`
	CanceledBatches int64 `json:"canceled_batches"`

	// Commits counts commit calls (== epoch publishes when every
	// commit publishes); FailedCommits the subset that returned an
	// error (e.g. a journal append refused durability — every waiter
	// in the group got the error, nothing was acked); GroupedBatches
	// counts batches that shared a commit with at least one other;
	// MaxGroupBatches is the largest group ever committed together.
	Commits         int64 `json:"commits"`
	FailedCommits   int64 `json:"failed_commits"`
	GroupedBatches  int64 `json:"grouped_batches"`
	MaxGroupBatches int64 `json:"max_group_batches"`

	// QueueWait is admission → commit start; PublishLag is admission →
	// batch durably published (the benchmark's ingestq.publish_lag_p50_us).
	QueueWait  hdrhist.Summary `json:"queue_wait"`
	PublishLag hdrhist.Summary `json:"publish_lag"`
}

// waiter is one parked Submit call.
type waiter struct {
	papers    []bib.Paper
	admitted  time.Time
	taken     bool // scooped into a commit group; past cancellation
	res       [][]core.Assignment
	err       error
	committed chan struct{}
}

// Queue is the bounded group-commit ingest queue. Construct with New.
type Queue struct {
	commit CommitFunc
	cfg    Config

	mu         sync.Mutex
	cond       *sync.Cond // signalled when the leader parks or depth drops
	pending    []*waiter
	depth      int // papers admitted, not yet committed (or withdrawn)
	highWater  int
	committing bool
	closed     bool

	admittedBatches atomic.Int64
	admittedPapers  atomic.Int64
	rejected        atomic.Int64
	canceled        atomic.Int64
	commits         atomic.Int64
	failedCommits   atomic.Int64
	groupedBatches  atomic.Int64
	maxGroup        atomic.Int64

	queueWait  *hdrhist.Histogram
	publishLag *hdrhist.Histogram
}

// New builds a queue committing through fn.
func New(fn CommitFunc, cfg Config) *Queue {
	q := &Queue{
		commit:     fn,
		cfg:        cfg.withDefaults(),
		queueWait:  hdrhist.New(),
		publishLag: hdrhist.New(),
	}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// Submit admits the batch and returns its per-paper assignments once
// committed. The batch either commits atomically inside exactly one
// epoch publish (possibly shared with other batches — group commit)
// or fails having ingested nothing:
//
//   - *OverloadedError: rejected at admission (queue past MaxQueued).
//   - *CanceledError: ctx cancelled while the batch was still parked;
//     it was withdrawn and never ingested.
//   - ErrClosed: the queue no longer admits (Close ran).
//
// An empty batch commits trivially (no epoch, nil results).
func (q *Queue) Submit(ctx context.Context, papers []bib.Paper) ([][]core.Assignment, error) {
	if len(papers) == 0 {
		return nil, nil
	}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			q.canceled.Add(1)
			return nil, &CanceledError{Err: err}
		}
	}
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return nil, ErrClosed
	}
	if q.depth > 0 && q.depth+len(papers) > q.cfg.MaxQueued {
		depth := q.depth
		q.mu.Unlock()
		q.rejected.Add(1)
		return nil, &OverloadedError{Depth: depth, Limit: q.cfg.MaxQueued, RetryAfter: q.cfg.RetryAfter}
	}
	w := &waiter{papers: papers, admitted: time.Now(), committed: make(chan struct{})}
	q.pending = append(q.pending, w)
	q.depth += len(papers)
	if q.depth > q.highWater {
		q.highWater = q.depth
	}
	q.admittedBatches.Add(1)
	q.admittedPapers.Add(int64(len(papers)))
	if !q.committing {
		q.committing = true
		q.mu.Unlock()
		q.runLeader()
		// The leader drains until the queue is empty, which includes
		// its own waiter: w is committed by the time runLeader returns.
	} else {
		q.mu.Unlock()
		var cancelCh <-chan struct{}
		if ctx != nil {
			cancelCh = ctx.Done()
		}
		select {
		case <-w.committed:
		case <-cancelCh:
			if q.withdraw(w) {
				q.canceled.Add(1)
				return nil, &CanceledError{Err: ctx.Err()}
			}
			// Already scooped into a commit group: the commit runs to
			// completion and the batch publishes atomically; report
			// the truth of what happened, not the cancellation.
			<-w.committed
		}
	}
	return w.res, w.err
}

// withdraw removes w from the pending queue if the leader has not
// scooped it yet, reporting whether it did.
func (q *Queue) withdraw(w *waiter) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if w.taken {
		return false
	}
	for i, p := range q.pending {
		if p == w {
			q.pending = append(q.pending[:i], q.pending[i+1:]...)
			q.depth -= len(w.papers)
			q.cond.Broadcast()
			return true
		}
	}
	return false
}

// runLeader drains the queue: repeatedly scoop a group of parked
// batches (arrival order, up to MaxGroup papers), commit them as one
// concatenated batch, and distribute the results. Exactly one leader
// runs at a time; it exits when the queue is empty.
func (q *Queue) runLeader() {
	for {
		q.mu.Lock()
		var group []*waiter
		groupPapers := 0
		for len(q.pending) > 0 {
			w := q.pending[0]
			if len(group) > 0 && groupPapers+len(w.papers) > q.cfg.MaxGroup {
				break
			}
			w.taken = true
			group = append(group, w)
			groupPapers += len(w.papers)
			q.pending = q.pending[1:]
		}
		if len(group) == 0 {
			q.committing = false
			q.cond.Broadcast()
			q.mu.Unlock()
			return
		}
		q.mu.Unlock()

		var batch []bib.Paper
		if len(group) == 1 {
			batch = group[0].papers
		} else {
			batch = make([]bib.Paper, 0, groupPapers)
			for _, w := range group {
				batch = append(batch, w.papers...)
			}
			q.groupedBatches.Add(int64(len(group)))
		}
		for {
			old := q.maxGroup.Load()
			if int64(len(group)) <= old || q.maxGroup.CompareAndSwap(old, int64(len(group))) {
				break
			}
		}
		commitStart := time.Now()
		for _, w := range group {
			q.queueWait.Record(int64(commitStart.Sub(w.admitted)))
		}
		res, err := q.commit(batch)
		q.commits.Add(1)
		if err != nil {
			q.failedCommits.Add(1)
		}

		// Distribute: res covers a prefix of the concatenated batch —
		// all of it when err is nil, and strictly less otherwise (the
		// failing paper is never in res). A waiter fully inside the
		// prefix succeeded even when a later waiter failed; a waiter
		// cut by the error boundary gets its committed prefix plus
		// the error; waiters entirely beyond it get the error alone.
		off := 0
		for _, w := range group {
			end := off + len(w.papers)
			switch {
			case end <= len(res):
				w.res = res[off:end:end]
			case off < len(res):
				w.res, w.err = res[off:len(res):len(res)], err
			default:
				w.err = err
			}
			off = end
		}
		q.mu.Lock()
		q.depth -= groupPapers
		q.cond.Broadcast()
		q.mu.Unlock()
		now := time.Now()
		for _, w := range group {
			q.publishLag.Record(int64(now.Sub(w.admitted)))
			close(w.committed)
		}
	}
}

// Close stops admission and drains: it blocks until every admitted
// batch has committed, then returns. Idempotent and safe to call
// concurrently with Submit — Submits that lose the race fail with
// ErrClosed, Submits already admitted are flushed.
func (q *Queue) Close() {
	q.mu.Lock()
	q.closed = true
	for q.committing || len(q.pending) > 0 {
		q.cond.Wait()
	}
	q.mu.Unlock()
}

// Stats returns the queue's cumulative accounting and current depth.
func (q *Queue) Stats() Stats {
	q.mu.Lock()
	depth, high := q.depth, q.highWater
	q.mu.Unlock()
	return Stats{
		Depth:           int64(depth),
		HighWater:       int64(high),
		Limit:           int64(q.cfg.MaxQueued),
		AdmittedBatches: q.admittedBatches.Load(),
		AdmittedPapers:  q.admittedPapers.Load(),
		RejectedBatches: q.rejected.Load(),
		CanceledBatches: q.canceled.Load(),
		Commits:         q.commits.Load(),
		FailedCommits:   q.failedCommits.Load(),
		GroupedBatches:  q.groupedBatches.Load(),
		MaxGroupBatches: q.maxGroup.Load(),
		QueueWait:       q.queueWait.Snapshot(),
		PublishLag:      q.publishLag.Snapshot(),
	}
}
