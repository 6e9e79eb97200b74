// Package ingestq is the admission-control layer in front of the
// serialized ingest path (iuad.Service.AddPapers).
//
// The bottom-up pipeline's write path is serialized by construction —
// that is what keeps assignments bit-identical to a serial paper
// stream — so under bursty traffic the only choices are to queue
// unboundedly (OOM), block arbitrarily (latency collapse), or admit a
// bounded amount of work and shed the rest. The queue implements the
// third:
//
//   - Admission control: the queue tracks the number of papers
//     admitted but not yet committed (the depth). A batch that would
//     push the depth past MaxQueued is rejected immediately with
//     *OverloadedError carrying a Retry-After hint — the caller maps
//     it to HTTP 429. Heap use is therefore bounded by MaxQueued
//     papers regardless of offered load.
//   - Commit turn: an admitted batch waits for the single commit turn,
//     commits alone through one CommitFunc call (one epoch publish),
//     and returns. Waiting batches take the turn in the order they
//     started waiting, so the drain is deterministic, and an ack never
//     waits for the commits of batches queued behind it.
//   - Cancellation: a context cancelled while its batch waits for the
//     turn withdraws the batch (nothing ingested, no partial epoch)
//     and Submit returns the ctx error wrapped in *CanceledError. A
//     commit that has started runs to completion, publishing the batch
//     atomically, even if the client has gone away.
//   - Drain: Close stops admission (further Submits fail with
//     ErrClosed) and blocks until every admitted batch has committed
//     or been withdrawn: stop admitting, flush the queue, snapshot.
//
// See DESIGN.md §12 for the admit → wait for the commit turn → commit
// → publish → reply state machine.
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
// the batch's commit started: none of its papers were ingested and no
// epoch carries any part of it. Unwrap yields the ctx error
// (context.Canceled or context.DeadlineExceeded).
type CanceledError struct{ Err error }

func (e *CanceledError) Error() string {
	return "ingestq: batch withdrawn before commit: " + e.Err.Error()
}
func (e *CanceledError) Unwrap() error { return e.Err }

// ErrClosed is returned by Submit after Close has stopped admission.
var ErrClosed = errors.New("ingestq: queue is closed")

// CommitFunc applies one admitted batch to the underlying store and
// publishes it as one epoch. Only the holder of the commit turn calls
// it, so calls never overlap. On error it may have committed a prefix;
// len(result) reports how many papers of the batch made it in.
type CommitFunc func(batch []bib.Paper) ([][]core.Assignment, error)

// Config parameterizes a Queue. Zero values take the defaults.
type Config struct {
	// MaxQueued is the admission high-water mark in papers (admitted
	// and not yet committed). Default 1024. A batch is always admitted
	// when the queue is empty, even if larger than MaxQueued, so a
	// lone oversized batch makes progress instead of being rejected
	// forever.
	MaxQueued int

	// RetryAfter is the backoff hint carried by OverloadedError.
	// Default 1s.
	RetryAfter time.Duration
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.MaxQueued <= 0 {
		out.MaxQueued = 1024
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

	// Commits counts commit calls, one per admitted batch that was not
	// withdrawn (== epoch publishes when every commit publishes);
	// FailedCommits the subset that returned an error (e.g. a journal
	// append refused durability — the batch was not acked).
	Commits       int64 `json:"commits"`
	FailedCommits int64 `json:"failed_commits"`

	// GroupedBatches is always 0: every batch commits alone. The field
	// stays because the benchmark reports it as ingestq.grouped_ratio.
	GroupedBatches int64 `json:"grouped_batches"`

	// QueueWait is admission → commit start; PublishLag is admission →
	// batch durably published (the benchmark's ingestq.publish_lag_p50_us).
	QueueWait  hdrhist.Summary `json:"queue_wait"`
	PublishLag hdrhist.Summary `json:"publish_lag"`
}

// Queue is the bounded ingest queue. Construct with New.
type Queue struct {
	commit CommitFunc
	cfg    Config
	turn   chan struct{} // one slot: holding it is the right to commit

	mu        sync.Mutex
	drained   *sync.Cond // signalled when the depth drops
	depth     int        // papers admitted, not yet committed or withdrawn
	highWater int
	closed    bool

	admittedBatches atomic.Int64
	admittedPapers  atomic.Int64
	rejected        atomic.Int64
	canceled        atomic.Int64
	commits         atomic.Int64
	failedCommits   atomic.Int64

	queueWait  *hdrhist.Histogram
	publishLag *hdrhist.Histogram
}

// New builds a queue committing through fn.
func New(fn CommitFunc, cfg Config) *Queue {
	q := &Queue{
		commit:     fn,
		cfg:        cfg.withDefaults(),
		turn:       make(chan struct{}, 1),
		queueWait:  hdrhist.New(),
		publishLag: hdrhist.New(),
	}
	q.drained = sync.NewCond(&q.mu)
	return q
}

// Submit admits the batch and returns its per-paper assignments once
// committed. The batch either commits atomically as exactly one epoch
// publish of its own or fails having ingested nothing:
//
//   - *OverloadedError: rejected at admission (queue past MaxQueued).
//   - *CanceledError: ctx cancelled while the batch waited for the
//     commit turn; it was withdrawn and never ingested.
//   - ErrClosed: the queue no longer admits (Close ran).
//
// An empty batch commits trivially (no epoch, nil results).
func (q *Queue) Submit(ctx context.Context, papers []bib.Paper) ([][]core.Assignment, error) {
	if len(papers) == 0 {
		return nil, nil
	}
	var done <-chan struct{}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			q.canceled.Add(1)
			return nil, &CanceledError{Err: err}
		}
		done = ctx.Done()
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
	q.depth += len(papers)
	if q.depth > q.highWater {
		q.highWater = q.depth
	}
	q.admittedBatches.Add(1)
	q.admittedPapers.Add(int64(len(papers)))
	q.mu.Unlock()
	admitted := time.Now()

	select {
	case q.turn <- struct{}{}:
	case <-done:
		q.release(len(papers))
		q.canceled.Add(1)
		return nil, &CanceledError{Err: ctx.Err()}
	}
	q.queueWait.Record(int64(time.Since(admitted)))
	res, err := q.commit(papers)
	q.commits.Add(1)
	if err != nil {
		q.failedCommits.Add(1)
	}
	q.publishLag.Record(int64(time.Since(admitted)))
	<-q.turn
	q.release(len(papers))
	return res, err
}

// release takes n papers off the depth and wakes a draining Close.
func (q *Queue) release(n int) {
	q.mu.Lock()
	q.depth -= n
	q.drained.Broadcast()
	q.mu.Unlock()
}

// Close stops admission and drains: it blocks until every admitted
// batch has committed or been withdrawn, then returns. Idempotent and
// safe to call concurrently with Submit — Submits that lose the race
// fail with ErrClosed, Submits already admitted are flushed.
func (q *Queue) Close() {
	q.mu.Lock()
	q.closed = true
	for q.depth > 0 {
		q.drained.Wait()
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
		QueueWait:       q.queueWait.Snapshot(),
		PublishLag:      q.publishLag.Snapshot(),
	}
}
