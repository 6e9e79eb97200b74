package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"iuad/internal/bib"
	"iuad/internal/faultinject"
)

// testBatch builds a small deterministic batch; i varies content so
// every record differs.
func testBatch(i, papers int) []bib.Paper {
	b := make([]bib.Paper, papers)
	for k := range b {
		b[k] = bib.Paper{
			Title:   fmt.Sprintf("journaled paper %d-%d on streamed graphs", i, k),
			Venue:   "ICDE",
			Year:    2019 + (i+k)%3,
			Authors: []string{fmt.Sprintf("Wal Author %d", (i+k)%5), fmt.Sprintf("Wal Coauthor %d", (i+3*k)%7)},
		}
	}
	return b
}

// appendN opens a journal at dir, recovers it against baseEpoch, and
// appends n batches starting at epoch baseEpoch+1.
func appendN(t *testing.T, dir string, cfg Config, baseEpoch uint64, n int) {
	t.Helper()
	j, err := Open(dir, cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if _, err := j.Recover(baseEpoch, nil); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	for i := 0; i < n; i++ {
		if _, err := j.Append(baseEpoch+1+uint64(i), testBatch(i, 1+i%3)); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// replayAll recovers dir against baseEpoch collecting every batch.
func replayAll(t *testing.T, dir string, baseEpoch uint64) ([][]bib.Paper, *ReplayReport) {
	t.Helper()
	j, err := Open(dir, Config{Fsync: SyncOff})
	if err != nil {
		t.Fatalf("Open for replay: %v", err)
	}
	defer j.Close()
	var got [][]bib.Paper
	rep, err := j.Recover(baseEpoch, func(epoch uint64, batch []bib.Paper) error {
		want := baseEpoch + 1 + uint64(len(got))
		if epoch != want {
			return fmt.Errorf("apply saw epoch %d, want %d", epoch, want)
		}
		got = append(got, batch)
		return nil
	})
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	return got, rep
}

func segmentFiles(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var segs []string
	for _, e := range ents {
		if _, _, ok := parseSegmentName(e.Name()); ok {
			segs = append(segs, filepath.Join(dir, e.Name()))
		}
	}
	return segs
}

func TestRecordRoundTrip(t *testing.T) {
	for _, policy := range []Policy{SyncPerCommit, SyncGrouped, SyncOff} {
		t.Run(policy.String(), func(t *testing.T) {
			dir := t.TempDir()
			appendN(t, dir, Config{Fsync: policy}, 5, 7)
			got, rep := replayAll(t, dir, 5)
			if len(got) != 7 || rep.Batches != 7 {
				t.Fatalf("replayed %d batches (report %d), want 7", len(got), rep.Batches)
			}
			if rep.TruncatedTail {
				t.Fatalf("clean journal reported a truncated tail: %+v", rep)
			}
			for i, b := range got {
				want := testBatch(i, 1+i%3)
				if len(b) != len(want) {
					t.Fatalf("batch %d: %d papers, want %d", i, len(b), len(want))
				}
				for k := range b {
					if b[k].Title != want[k].Title || b[k].Venue != want[k].Venue ||
						b[k].Year != want[k].Year || len(b[k].Authors) != len(want[k].Authors) {
						t.Fatalf("batch %d paper %d mismatch: %+v vs %+v", i, k, b[k], want[k])
					}
				}
			}
		})
	}
}

func TestAppendBeforeRecoverRejected(t *testing.T) {
	j, err := Open(t.TempDir(), Config{Fsync: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if _, err := j.Append(1, testBatch(0, 1)); err == nil || !strings.Contains(err.Error(), "before Recover") {
		t.Fatalf("Append before Recover: err = %v, want 'before Recover'", err)
	}
}

func TestDoubleOpenFailsFastWithTypedLockError(t *testing.T) {
	dir := t.TempDir()
	j1, err := Open(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = Open(dir, Config{})
	if !errors.Is(err, ErrLocked) {
		t.Fatalf("second Open: err = %v, want ErrLocked", err)
	}
	var le *LockError
	if !errors.As(err, &le) || le.Dir != dir {
		t.Fatalf("second Open: err = %#v, want *LockError for %s", err, dir)
	}
	// Releasing the first opener frees the directory.
	if err := j1.Close(); err != nil {
		t.Fatal(err)
	}
	j3, err := Open(dir, Config{})
	if err != nil {
		t.Fatalf("Open after Close: %v", err)
	}
	j3.Close()
}

func TestTornTailTruncatedAtEveryCut(t *testing.T) {
	master := t.TempDir()
	appendN(t, master, Config{Fsync: SyncOff}, 0, 3)
	segs := segmentFiles(t, master)
	if len(segs) != 1 {
		t.Fatalf("want 1 segment, got %v", segs)
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	// Find where the third record starts by replaying sizes: records
	// are [12B header][payload]; walk two records forward.
	off := int64(segHeaderLen)
	for i := 0; i < 2; i++ {
		plen := int64(uint32(data[off]) | uint32(data[off+1])<<8 | uint32(data[off+2])<<16 | uint32(data[off+3])<<24)
		off += recHeaderLen + plen
	}
	if off >= int64(len(data)) {
		t.Fatalf("offset walk overran: %d >= %d", off, len(data))
	}
	// Every cut strictly inside the final record must truncate to two
	// clean batches — never an error, never a replay of torn bytes.
	for cut := off + 1; cut < int64(len(data)); cut += 7 {
		dir := t.TempDir()
		torn := filepath.Join(dir, filepath.Base(segs[0]))
		if err := os.WriteFile(torn, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		got, rep := replayAll(t, dir, 0)
		if len(got) != 2 {
			t.Fatalf("cut %d: replayed %d batches, want 2", cut, len(got))
		}
		if !rep.TruncatedTail || rep.TruncatedOffset != off {
			t.Fatalf("cut %d: report %+v, want truncated tail at %d", cut, rep, off)
		}
		// The truncation is durable: a second recovery is clean.
		got2, rep2 := replayAll(t, dir, 0)
		if len(got2) != 2 || rep2.TruncatedTail {
			t.Fatalf("cut %d: second recovery got %d batches, truncated=%v", cut, len(got2), rep2.TruncatedTail)
		}
	}
}

func TestTornSegmentHeaderDropped(t *testing.T) {
	dir := t.TempDir()
	appendN(t, dir, Config{Fsync: SyncOff}, 0, 2)
	seg := segmentFiles(t, dir)[0]
	data, _ := os.ReadFile(seg)
	if err := os.WriteFile(seg, data[:segHeaderLen-5], 0o644); err != nil {
		t.Fatal(err)
	}
	got, rep := replayAll(t, dir, 0)
	if len(got) != 0 || !rep.TruncatedTail {
		t.Fatalf("torn header: got %d batches, report %+v", len(got), rep)
	}
	if len(segmentFiles(t, dir)) != 0 {
		t.Fatal("torn-header segment not removed")
	}
}

func TestCorruptInteriorRejectedWithTypedError(t *testing.T) {
	dir := t.TempDir()
	appendN(t, dir, Config{Fsync: SyncOff}, 0, 3)
	seg := segmentFiles(t, dir)[0]
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte of the FIRST record: a valid record
	// follows, so the torn-tail rule must not excuse it.
	data[segHeaderLen+recHeaderLen+3] ^= 0xFF
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := Open(dir, Config{Fsync: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	_, err = j.Recover(0, func(uint64, []bib.Paper) error { return nil })
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("corrupt interior: err = %v, want *CorruptError", err)
	}
	if ce.Path != seg || ce.Offset != segHeaderLen {
		t.Fatalf("corrupt record located at %s:%d, want %s:%d", ce.Path, ce.Offset, seg, int64(segHeaderLen))
	}
}

func TestCorruptTailInNonFinalSegmentRejected(t *testing.T) {
	dir := t.TempDir()
	// Tiny segment bound: every batch rolls to a new segment file.
	appendN(t, dir, Config{Fsync: SyncOff, MaxSegmentBytes: 1}, 0, 3)
	segs := segmentFiles(t, dir)
	if len(segs) != 3 {
		t.Fatalf("want 3 segments, got %v", segs)
	}
	// Tear the tail of the FIRST segment. Mid-journal truncation is
	// corruption — replaying past it would renumber acked epochs.
	data, _ := os.ReadFile(segs[0])
	if err := os.WriteFile(segs[0], data[:len(data)-4], 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := Open(dir, Config{Fsync: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	_, err = j.Recover(0, func(uint64, []bib.Paper) error { return nil })
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("non-final torn tail: err = %v, want *CorruptError", err)
	}
}

func TestEpochGapRejected(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Config{Fsync: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Recover(0, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := j.Append(1, testBatch(0, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := j.Append(3, testBatch(1, 1)); err != nil { // skips epoch 2
		t.Fatal(err)
	}
	j.Close()
	j2, err := Open(dir, Config{Fsync: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	_, err = j2.Recover(0, func(uint64, []bib.Paper) error { return nil })
	var ce *CorruptError
	if !errors.As(err, &ce) || !strings.Contains(ce.Reason, "epoch 3, want 2") {
		t.Fatalf("epoch gap: err = %v, want *CorruptError about epoch 3 vs 2", err)
	}
}

func TestRollbackWithdrawsLastRecord(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Config{Fsync: SyncPerCommit})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Recover(0, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := j.Append(1, testBatch(0, 2)); err != nil {
		t.Fatal(err)
	}
	tok, err := j.Append(2, testBatch(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Rollback(tok); err != nil {
		t.Fatalf("Rollback: %v", err)
	}
	// The next batch reuses the rolled-back epoch.
	if _, err := j.Append(2, testBatch(2, 1)); err != nil {
		t.Fatal(err)
	}
	j.Close()
	got, _ := replayAll(t, dir, 0)
	if len(got) != 2 {
		t.Fatalf("replayed %d batches, want 2", len(got))
	}
	if got[1][0].Title != testBatch(2, 1)[0].Title {
		t.Fatalf("epoch 2 replayed the rolled-back batch: %q", got[1][0].Title)
	}
}

// copyDir clones the regular files of a journal directory: what a
// SIGKILL at this instant would leave behind.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestCutRetireGCsSegmentsAndRecoveryDropsStale pins the two-phase
// rotation: Cut keys later records to the cut epoch and deletes
// nothing, so until Retire the directory recovers from EITHER base —
// the whole chain on the old one, the tail on the new one — and Retire
// then deletes exactly the segments keyed below the new base.
func TestCutRetireGCsSegmentsAndRecoveryDropsStale(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Config{Fsync: SyncOff, MaxSegmentBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Recover(0, nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := j.Append(uint64(i+1), testBatch(i, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Cut(3); err != nil {
		t.Fatalf("Cut: %v", err)
	}
	if _, err := j.Append(4, testBatch(10, 2)); err != nil {
		t.Fatal(err)
	}
	if segs := segmentFiles(t, dir); len(segs) != 4 {
		t.Fatalf("Cut must not delete: %d segments, want 3 keyed 0 + 1 keyed 3: %v", len(segs), segs)
	}

	// Crash after the cut, base write never finished: the old base
	// (epoch 0) gets the whole chain, across the key boundary.
	got, rep := replayAll(t, copyDir(t, dir), 0)
	if len(got) != 4 || rep.StaleRemoved != 0 || got[3][0].Title != testBatch(10, 2)[0].Title {
		t.Fatalf("old-base recovery: %d batches, report %+v", len(got), rep)
	}
	// Crash after the base rename, before Retire: the new base (epoch
	// 3) replays only the tail and drops the segments it covers.
	got, rep = replayAll(t, copyDir(t, dir), 3)
	if len(got) != 1 || rep.StaleRemoved != 3 {
		t.Fatalf("new-base recovery: %d batches, report %+v", len(got), rep)
	}

	if err := j.Retire(3); err != nil {
		t.Fatalf("Retire: %v", err)
	}
	segs := segmentFiles(t, dir)
	if len(segs) != 1 || filepath.Base(segs[0]) != segmentName(3, 4) {
		t.Fatalf("Retire left %v, want only the segment keyed 3", segs)
	}
	fi, err := os.Stat(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	st := j.Stats()
	if st.BaseEpoch != 3 || st.Rotations != 1 || st.BatchesSinceRotate != 1 || st.Segments != 1 {
		t.Fatalf("stats after retire: %+v", st)
	}
	if batches, bytes := j.SinceBase(); batches != 1 || bytes != fi.Size() {
		t.Fatalf("SinceBase = %d batches, %d bytes; want 1 and the surviving segment's %d bytes", batches, bytes, fi.Size())
	}
	j.Close()

	// A leftover keyed below the base is dropped without being read.
	stale := filepath.Join(dir, segmentName(0, 99))
	if err := os.WriteFile(stale, []byte("not even a header"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, rep = replayAll(t, dir, 3)
	if len(got) != 1 || got[0][0].Title != testBatch(10, 2)[0].Title {
		t.Fatalf("replay after retire: %d batches", len(got))
	}
	if rep.StaleRemoved != 1 {
		t.Fatalf("stale segment not GC'd: %+v", rep)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatal("stale segment file still present")
	}
}

// TestRecoverAppendsAfterTheChain: a recovery that replayed segments
// keyed above the base must key its own generation so that it still
// sorts last — otherwise the NEXT recovery would read it too early.
func TestRecoverAppendsAfterTheChain(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Config{Fsync: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Recover(0, nil); err != nil {
		t.Fatal(err)
	}
	for e := uint64(1); e <= 2; e++ {
		if _, err := j.Append(e, testBatch(int(e), 1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Cut(2); err != nil { // base@2 is never written
		t.Fatal(err)
	}
	if _, err := j.Append(3, testBatch(3, 1)); err != nil {
		t.Fatal(err)
	}
	j.Close()

	appendFrom := func(base, first uint64) {
		t.Helper()
		j, err := Open(dir, Config{Fsync: SyncOff})
		if err != nil {
			t.Fatal(err)
		}
		defer j.Close()
		if _, err := j.Recover(base, nil); err != nil {
			t.Fatalf("Recover: %v", err)
		}
		if _, err := j.Append(first, testBatch(int(first), 1)); err != nil {
			t.Fatal(err)
		}
	}
	appendFrom(0, 4) // restart on the old base, one more batch
	got, rep := replayAll(t, dir, 0)
	if len(got) != 4 || rep.Segments != 3 {
		t.Fatalf("chain + post-recovery generation: %d batches, report %+v", len(got), rep)
	}
}

func TestGroupedPolicyFsyncsInBackground(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Config{Fsync: SyncGrouped, GroupInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if _, err := j.Recover(0, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := j.Append(1, testBatch(0, 1)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for j.Stats().Fsyncs == 0 {
		if time.Now().After(deadline) {
			t.Fatal("grouped policy never fsynced")
		}
		time.Sleep(time.Millisecond)
	}
	if lat := j.Stats().FsyncLatency; lat.Count == 0 {
		t.Fatalf("fsync latency histogram empty: %+v", lat)
	}
}

func TestAppendFaultFailsBatchAndJournalStaysConsistent(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Config{Fsync: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Recover(0, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := j.Append(1, testBatch(0, 1)); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("injected append failure")
	disarm := faultinject.Arm(faultinject.JournalAppend, func() error { return boom })
	_, err = j.Append(2, testBatch(1, 1))
	disarm()
	if !errors.Is(err, boom) {
		t.Fatalf("Append under fault: err = %v, want injected", err)
	}
	// The failed append left no trace: epoch 2 is writable again.
	if _, err := j.Append(2, testBatch(2, 1)); err != nil {
		t.Fatalf("Append after fault: %v", err)
	}
	j.Close()
	got, _ := replayAll(t, dir, 0)
	if len(got) != 2 {
		t.Fatalf("replayed %d batches, want 2", len(got))
	}
}

func TestFsyncFaultFailsBatchUnderPerCommit(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Config{Fsync: SyncPerCommit})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if _, err := j.Recover(0, nil); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("injected fsync failure")
	disarm := faultinject.Arm(faultinject.JournalFsync, func() error { return boom })
	_, err = j.Append(1, testBatch(0, 1))
	disarm()
	if !errors.Is(err, boom) {
		t.Fatalf("Append under fsync fault: err = %v, want injected", err)
	}
	// An fsync failure latches the journal: durability is unknown, so
	// further appends must refuse rather than silently continue.
	if _, err := j.Append(1, testBatch(1, 1)); err == nil {
		t.Fatal("append after fsync failure unexpectedly succeeded")
	}
}

func TestReplayFaultAbortsRecovery(t *testing.T) {
	dir := t.TempDir()
	appendN(t, dir, Config{Fsync: SyncOff}, 0, 2)
	boom := errors.New("injected replay failure")
	disarm := faultinject.Arm(faultinject.JournalReplay, func() error { return boom })
	defer disarm()
	j, err := Open(dir, Config{Fsync: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if _, err := j.Recover(0, func(uint64, []bib.Paper) error { return nil }); !errors.Is(err, boom) {
		t.Fatalf("Recover under fault: err = %v, want injected", err)
	}
}

func TestStatsAccounting(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Config{Fsync: SyncPerCommit})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Recover(0, nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := j.Append(uint64(i+1), testBatch(i, 2)); err != nil {
			t.Fatal(err)
		}
	}
	st := j.Stats()
	if st.AppendedBatches != 4 || st.AppendedPapers != 8 {
		t.Fatalf("append counters: %+v", st)
	}
	if st.Fsyncs < 4 || st.FsyncLatency.Count < 4 {
		t.Fatalf("per-commit fsync accounting: %+v", st)
	}
	if st.Segments != 1 || st.SegmentBytes <= segHeaderLen {
		t.Fatalf("segment accounting: %+v", st)
	}
	if st.Fsync != "percommit" {
		t.Fatalf("policy string: %q", st.Fsync)
	}
	j.Close()
	if _, err := j.Append(9, testBatch(9, 1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after close: %v", err)
	}
}

func TestParsePolicy(t *testing.T) {
	for in, want := range map[string]Policy{
		"percommit": SyncPerCommit, "Per-Commit": SyncPerCommit,
		"grouped": SyncGrouped, "off": SyncOff, "none": SyncOff,
	} {
		got, err := ParsePolicy(in)
		if err != nil || got != want {
			t.Fatalf("ParsePolicy(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParsePolicy("bogus"); err == nil {
		t.Fatal("ParsePolicy accepted bogus")
	}
}
