// Package faultinject is the chaos layer of the serving stack: named
// fault points compiled into the production code paths, disarmed by
// default, that tests arm with hooks to inject publish delays,
// snapshot-write errors, and journal append, fsync and replay faults.
//
// The design goal is a hot path that costs one atomic load when
// nothing is armed (the common case — production and every
// non-chaos test):
//
//	if err := faultinject.Fire(faultinject.SnapshotWrite); err != nil {
//		return err
//	}
//
// Chaos tests arm a point and get a disarm func back:
//
//	defer faultinject.Arm(faultinject.PublishDelay, func() error {
//		<-gate // hold the publish pipeline open
//		return nil
//	})()
//
// Hooks run on the goroutine that hits the fault point, so a blocking
// hook stalls exactly the code path under test. Points that inject
// errors (SnapshotWrite) return the hook's error; delay points'
// errors are ignored by their call sites — a sleep hook returns nil.
package faultinject

import "sync/atomic"

// Point names one compiled-in fault site.
type Point int32

const (
	// PublishDelay fires in ViewPublisher.Apply before the epoch's
	// view is built and swapped in — a hook here delays
	// every epoch publish (and, transitively, backs the ingest queue
	// up) without holding any lock readers could touch.
	PublishDelay Point = iota

	// SnapshotWrite fires at the head of every crash-safe snapshot
	// file write (WriteFileAtomic); a non-nil hook error aborts the
	// write exactly like a disk error would.
	SnapshotWrite

	// JournalAppend fires at the head of every write-ahead journal
	// record append, before any bytes reach the segment file; a hook
	// error fails the batch before it is acked — the "disk write
	// failed" fault of the durability contract (DESIGN.md §14).
	JournalAppend

	// JournalFsync fires immediately before every journal fsync; a
	// hook error surfaces exactly like fsync returning EIO, which
	// under the per-commit policy must fail the batch before the ack.
	JournalFsync

	// JournalReplay fires once per journal segment at the head of
	// recovery replay; a hook error aborts Open the way an unreadable
	// segment would.
	JournalReplay

	numPoints
)

var (
	// armedCount gates the fast path: one atomic load answers "is any
	// fault armed at all" for every Fire call.
	armedCount atomic.Int32
	hooks      [numPoints]atomic.Pointer[func() error]
)

// Enabled reports whether any fault point is armed.
func Enabled() bool { return armedCount.Load() != 0 }

// Fire runs the hook armed at p, returning its error. Disarmed points
// return nil after one atomic load.
func Fire(p Point) error {
	if armedCount.Load() == 0 {
		return nil
	}
	if f := hooks[p].Load(); f != nil {
		return (*f)()
	}
	return nil
}

// Arm installs hook at p and returns the disarm func. Arming an
// already-armed point replaces the hook (the previous arm's disarm
// then removes the replacement — chaos tests should disarm in LIFO
// order or not overlap). Disarm is idempotent.
func Arm(p Point, hook func() error) (disarm func()) {
	hooks[p].Store(&hook)
	armedCount.Add(1)
	var once atomic.Bool
	return func() {
		if once.CompareAndSwap(false, true) {
			hooks[p].Store(nil)
			armedCount.Add(-1)
		}
	}
}
