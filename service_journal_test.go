package iuad_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"iuad"
	"iuad/internal/faultinject"
)

// copyJournalDir clones a journal directory byte-for-byte into a fresh
// temp dir. This is the in-process stand-in for SIGKILL: the clone has
// the files a crashed process would leave behind (the flock dies with
// the process and is not part of the bytes), and opening the clone is
// exactly the restart path. The source service must be quiescent (no
// in-flight AddPapers) when called.
func copyJournalDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
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

// journalSegments lists the wal.* segment files in dir, sorted.
func journalSegments(t *testing.T, dir string) []string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "wal.e*"))
	if err != nil {
		t.Fatal(err)
	}
	return segs
}

// noCompact keeps every batch in the journal so tests control exactly
// what recovery must replay.
var noCompact = iuad.JournalConfig{Fsync: iuad.FsyncOff, CompactEvery: -1}

// TestJournalCrashRecoveryEquivalence is the tentpole pin: a journaled
// service killed after N acked batches and reopened over the same
// directory answers every query — and scores every future slot, to the
// bit (math.Float64bits) — exactly like a process that never crashed.
// Runs without and with a mid-stream compaction (so recovery exercises
// both "refit + full replay" and "base snapshot + suffix replay"). The
// subtest names are kept from when a sharded layout existed.
func TestJournalCrashRecoveryEquivalence(t *testing.T) {
	for _, tc := range []struct {
		name    string
		compact bool
	}{
		{"unsharded", false},
		{"unsharded-compacted", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := serviceDataset(71)
			stream := streamProbes(d, "jrn", 12)
			const batchSize = 3
			open := func(jdir string) *iuad.Service {
				t.Helper()
				opts := []iuad.Option{
					iuad.WithConfig(equivCoreConfig(1)),
					iuad.WithJournalConfig(jdir, noCompact),
				}
				svc, err := iuad.Open(d.Corpus, opts...)
				if err != nil {
					t.Fatal(err)
				}
				return svc
			}

			jdir := t.TempDir()
			live := open(jdir)
			defer live.Close()
			ref, err := iuad.Open(d.Corpus, iuad.WithConfig(equivCoreConfig(1)))
			if err != nil {
				t.Fatal(err)
			}
			defer ref.Close()

			var liveRes, refRes [][]iuad.Assignment
			batches := 0
			for off := 0; off < len(stream); off += batchSize {
				end := off + batchSize
				if end > len(stream) {
					end = len(stream)
				}
				lr, err := live.AddPapers(context.Background(), stream[off:end])
				if err != nil {
					t.Fatal(err)
				}
				rr, err := ref.AddPapers(context.Background(), stream[off:end])
				if err != nil {
					t.Fatal(err)
				}
				liveRes = append(liveRes, lr...)
				refRes = append(refRes, rr...)
				batches++
				if tc.compact && batches == 2 {
					if err := live.Compact(); err != nil {
						t.Fatal(err)
					}
				}
			}
			for i := range refRes {
				for j := range refRes[i] {
					a, b := refRes[i][j], liveRes[i][j]
					if a.Slot != b.Slot || a.Vertex != b.Vertex || a.Created != b.Created ||
						math.Float64bits(a.Score) != math.Float64bits(b.Score) {
						t.Fatalf("journaled paper %d slot %d: ref %+v, got %+v", i, j, a, b)
					}
				}
			}
			liveFP := surfaceFingerprint(t, live)
			liveEpoch := live.Epoch()

			// Crash: clone the directory out from under the still-open
			// service and restart over the clone.
			crash := copyJournalDir(t, jdir)
			rec := open(crash)
			defer rec.Close()

			rep := rec.JournalRecovery()
			if rep == nil {
				t.Fatal("recovered service has no replay report")
			}
			wantBatches := batches
			if tc.compact {
				wantBatches = batches - 2 // first two are in the base
			}
			if rep.Batches != wantBatches || rep.TruncatedTail {
				t.Fatalf("replay report %+v, want %d batches and no torn tail", rep, wantBatches)
			}
			if rec.Epoch() != liveEpoch {
				t.Fatalf("recovered epoch %d, want %d", rec.Epoch(), liveEpoch)
			}
			if got := surfaceFingerprint(t, rec); got != liveFP {
				t.Fatal("recovered query surface diverged from the never-crashed process")
			}

			// The future must match too: the next batch scores
			// bit-identically on both processes.
			post := streamProbes(d, "post", 3)
			wantPost, err := live.AddPapers(context.Background(), post)
			if err != nil {
				t.Fatal(err)
			}
			gotPost, err := rec.AddPapers(context.Background(), post)
			if err != nil {
				t.Fatal(err)
			}
			for i := range wantPost {
				for j := range wantPost[i] {
					a, b := wantPost[i][j], gotPost[i][j]
					if a.Slot != b.Slot || a.Vertex != b.Vertex || a.Created != b.Created ||
						math.Float64bits(a.Score) != math.Float64bits(b.Score) {
						t.Fatalf("post-recovery paper %d slot %d: want %+v, got %+v", i, j, a, b)
					}
				}
			}
		})
	}
}

// TestJournalTornTailTruncatedOnOpen pins the torn-tail rule at the
// service level: a crash mid-append leaves a half-written final record;
// Open truncates it, reports it, and serves the state as of the last
// complete batch.
func TestJournalTornTailTruncatedOnOpen(t *testing.T) {
	d := serviceDataset(73)
	jdir := t.TempDir()
	svc, err := iuad.Open(d.Corpus,
		iuad.WithConfig(equivCoreConfig(1)), iuad.WithJournalConfig(jdir, noCompact))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	stream := streamProbes(d, "torn", 6)
	for i := 0; i < 3; i++ {
		if _, err := svc.AddPapers(context.Background(), stream[i*2:i*2+2]); err != nil {
			t.Fatal(err)
		}
	}
	epoch := svc.Epoch()

	crash := copyJournalDir(t, jdir)
	segs := journalSegments(t, crash)
	if len(segs) != 1 {
		t.Fatalf("segments %v, want exactly 1", segs)
	}
	fi, err := os.Stat(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	// Tear 5 bytes off the end: inside the last record's checksummed
	// payload.
	if err := os.Truncate(segs[0], fi.Size()-5); err != nil {
		t.Fatal(err)
	}

	rec, err := iuad.Open(d.Corpus,
		iuad.WithConfig(equivCoreConfig(1)), iuad.WithJournalConfig(crash, noCompact))
	if err != nil {
		t.Fatalf("torn tail must not fail recovery: %v", err)
	}
	defer rec.Close()
	rep := rec.JournalRecovery()
	if rep == nil || !rep.TruncatedTail || rep.Batches != 2 {
		t.Fatalf("replay report %+v, want truncated tail with 2 replayed batches", rep)
	}
	if rec.Epoch() != epoch-1 {
		t.Fatalf("recovered epoch %d, want %d (last batch torn away)", rec.Epoch(), epoch-1)
	}
}

// TestJournalCorruptInteriorFailsOpen pins the other side of the
// torn-tail rule: damage to a record with complete records AFTER it is
// not a crash artifact — it means an acked batch would be silently
// dropped, so Open must refuse with the typed corruption error.
func TestJournalCorruptInteriorFailsOpen(t *testing.T) {
	d := serviceDataset(79)
	jdir := t.TempDir()
	svc, err := iuad.Open(d.Corpus,
		iuad.WithConfig(equivCoreConfig(1)), iuad.WithJournalConfig(jdir, noCompact))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	stream := streamProbes(d, "corrupt", 6)
	for i := 0; i < 3; i++ {
		if _, err := svc.AddPapers(context.Background(), stream[i*2:i*2+2]); err != nil {
			t.Fatal(err)
		}
	}

	crash := copyJournalDir(t, jdir)
	segs := journalSegments(t, crash)
	if len(segs) != 1 {
		t.Fatalf("segments %v, want exactly 1", segs)
	}
	b, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte of the FIRST record (after the 32-byte
	// segment header and 12-byte record header).
	b[32+12+4] ^= 0xff
	if err := os.WriteFile(segs[0], b, 0o644); err != nil {
		t.Fatal(err)
	}

	_, err = iuad.Open(d.Corpus,
		iuad.WithConfig(equivCoreConfig(1)), iuad.WithJournalConfig(crash, noCompact))
	if err == nil {
		t.Fatal("open over a corrupt journal interior succeeded")
	}
	var ce *iuad.JournalCorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("corrupt-interior error %v, want *iuad.JournalCorruptError", err)
	}
	if ce.Path != segs[0] || ce.Offset != 32 {
		t.Fatalf("corrupt record at %s offset %d, want %s offset 32", ce.Path, ce.Offset, segs[0])
	}
}

// TestJournalDoubleOpenLocked pins the single-writer lock: a second
// Open on a live journal directory fails fast with the typed lock
// error, and the directory is usable again after Close.
func TestJournalDoubleOpenLocked(t *testing.T) {
	d := serviceDataset(83)
	jdir := t.TempDir()
	svc, err := iuad.Open(d.Corpus,
		iuad.WithConfig(equivCoreConfig(1)), iuad.WithJournalConfig(jdir, noCompact))
	if err != nil {
		t.Fatal(err)
	}

	_, err = iuad.Open(d.Corpus,
		iuad.WithConfig(equivCoreConfig(1)), iuad.WithJournalConfig(jdir, noCompact))
	if !errors.Is(err, iuad.ErrJournalLocked) {
		t.Fatalf("double open = %v, want ErrJournalLocked", err)
	}
	var le *iuad.JournalLockError
	if !errors.As(err, &le) || le.Dir != jdir {
		t.Fatalf("double open error %v, want *JournalLockError for %s", err, jdir)
	}

	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	again, err := iuad.Open(nil, iuad.WithJournal(jdir))
	if err != nil {
		t.Fatalf("reopen after Close: %v", err)
	}
	again.Close()
}

// TestJournalAppendFaultFailsBeforeAck is the chaos contract: when the
// write-ahead record cannot be written, AddPapers fails with the typed
// JournalError BEFORE anything is acked or published — the epoch does
// not move, the paper count does not move, the failure is counted, and
// a post-crash recovery sees only the batches that were acked.
func TestJournalAppendFaultFailsBeforeAck(t *testing.T) {
	d := serviceDataset(89)
	jdir := t.TempDir()
	svc, err := iuad.Open(d.Corpus,
		iuad.WithConfig(equivCoreConfig(1)), iuad.WithJournalConfig(jdir, noCompact))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	stream := streamProbes(d, "chaos", 4)

	if _, err := svc.AddPapers(context.Background(), stream[:2]); err != nil {
		t.Fatal(err)
	}
	epoch, papers := svc.Epoch(), svc.Stats().StreamedPapers

	boom := fmt.Errorf("injected journal fault")
	disarm := faultinject.Arm(faultinject.JournalAppend, func() error { return boom })
	_, err = svc.AddPapers(context.Background(), stream[2:])
	disarm()
	var je *iuad.JournalError
	if !errors.As(err, &je) || !errors.Is(err, boom) {
		t.Fatalf("faulted ingest = %v, want *iuad.JournalError wrapping the fault", err)
	}
	if svc.Epoch() != epoch || svc.Stats().StreamedPapers != papers {
		t.Fatalf("failed journal write half-landed: epoch %d->%d papers %d->%d",
			epoch, svc.Epoch(), papers, svc.Stats().StreamedPapers)
	}
	if fc := svc.Ingest().FailedCommits; fc != 1 {
		t.Fatalf("failed_commits %d, want 1", fc)
	}

	// The journal holds exactly the acked batch: recovery over a clone
	// replays one batch and lands on the pre-fault epoch.
	rec, err := iuad.Open(d.Corpus,
		iuad.WithConfig(equivCoreConfig(1)), iuad.WithJournalConfig(copyJournalDir(t, jdir), noCompact))
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if rep := rec.JournalRecovery(); rep.Batches != 1 {
		t.Fatalf("replay report %+v, want exactly the acked batch", rep)
	}
	if rec.Epoch() != epoch {
		t.Fatalf("recovered epoch %d, want %d", rec.Epoch(), epoch)
	}

	// The live service keeps working after the fault clears.
	if _, err := svc.AddPapers(context.Background(), stream[2:]); err != nil {
		t.Fatalf("post-fault ingest: %v", err)
	}
	if svc.Epoch() != epoch+1 {
		t.Fatalf("post-fault epoch %d, want %d", svc.Epoch(), epoch+1)
	}
}

// TestJournalFsyncFaultLatches pins per-commit durability: a failed
// fsync fails the batch before the ack (durability unknown = not
// acked), and the journal refuses everything after it — no batch may
// be acked past a write the disk would not confirm. Close still
// snapshots cleanly, and the successor serves the pre-fault state.
func TestJournalFsyncFaultLatches(t *testing.T) {
	d := serviceDataset(97)
	jdir := t.TempDir()
	svc, err := iuad.Open(d.Corpus, iuad.WithConfig(equivCoreConfig(1)),
		iuad.WithJournalConfig(jdir, iuad.JournalConfig{Fsync: iuad.FsyncPerCommit, CompactEvery: -1}))
	if err != nil {
		t.Fatal(err)
	}
	stream := streamProbes(d, "fsync", 4)
	if _, err := svc.AddPapers(context.Background(), stream[:2]); err != nil {
		t.Fatal(err)
	}
	epoch := svc.Epoch()
	fp := surfaceFingerprint(t, svc)

	boom := fmt.Errorf("injected fsync fault")
	disarm := faultinject.Arm(faultinject.JournalFsync, func() error { return boom })
	_, err = svc.AddPapers(context.Background(), stream[2:])
	disarm()
	var je *iuad.JournalError
	if !errors.As(err, &je) {
		t.Fatalf("fsync-faulted ingest = %v, want *iuad.JournalError", err)
	}
	if svc.Epoch() != epoch {
		t.Fatalf("epoch moved past an unconfirmed write: %d -> %d", epoch, svc.Epoch())
	}
	// The latch: even with the fault gone, appends stay refused.
	if _, err = svc.AddPapers(context.Background(), stream[2:]); !errors.As(err, &je) {
		t.Fatalf("post-fault ingest = %v, want latched *iuad.JournalError", err)
	}

	if err := svc.Close(); err != nil {
		t.Fatalf("close after fsync fault: %v", err)
	}
	rec, err := iuad.Open(nil, iuad.WithJournal(jdir))
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if rec.Epoch() != epoch {
		t.Fatalf("successor epoch %d, want %d", rec.Epoch(), epoch)
	}
	if got := surfaceFingerprint(t, rec); got != fp {
		t.Fatal("successor diverged from the pre-fault state")
	}
}

// TestJournalReplayFaultFailsOpen: recovery that cannot read the
// journal must fail the Open loudly, never serve a prefix.
func TestJournalReplayFaultFailsOpen(t *testing.T) {
	d := serviceDataset(101)
	jdir := t.TempDir()
	svc, err := iuad.Open(d.Corpus,
		iuad.WithConfig(equivCoreConfig(1)), iuad.WithJournalConfig(jdir, noCompact))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if _, err := svc.AddPapers(context.Background(), streamProbes(d, "replay", 2)); err != nil {
		t.Fatal(err)
	}
	crash := copyJournalDir(t, jdir)

	boom := fmt.Errorf("injected replay fault")
	disarm := faultinject.Arm(faultinject.JournalReplay, func() error { return boom })
	defer disarm()
	_, err = iuad.Open(d.Corpus,
		iuad.WithConfig(equivCoreConfig(1)), iuad.WithJournalConfig(crash, noCompact))
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("open under replay fault = %v, want the injected fault", err)
	}
	if !strings.Contains(err.Error(), "journal recovery") {
		t.Fatalf("replay failure lacks recovery context: %v", err)
	}
}

// TestJournalCloseCompactsCleanReopen: Close compacts, so a clean
// shutdown leaves a base snapshot and an empty journal — the successor
// opens with zero replay and the identical query surface. The reopen
// also deletes the temp file a base write killed before its rename
// leaves behind, and nothing else.
func TestJournalCloseCompactsCleanReopen(t *testing.T) {
	d := serviceDataset(103)
	jdir := t.TempDir()
	svc, err := iuad.Open(d.Corpus,
		iuad.WithConfig(equivCoreConfig(1)), iuad.WithJournalConfig(jdir, noCompact))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.AddPapers(context.Background(), streamProbes(d, "clean", 4)); err != nil {
		t.Fatal(err)
	}
	fp := surfaceFingerprint(t, svc)
	epoch := svc.Epoch()
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	if segs := journalSegments(t, jdir); len(segs) != 0 {
		t.Fatalf("clean shutdown left journal segments %v", segs)
	}
	fi, err := os.Stat(filepath.Join(jdir, "base.snap"))
	if err != nil {
		t.Fatalf("clean shutdown left no base snapshot: %v", err)
	}
	if last := svc.Compaction().Last; last == nil || last.BaseBytes != fi.Size() {
		t.Fatalf("last compaction %+v, want base_bytes %d (the size of base.snap)", last, fi.Size())
	}
	stray, unrelated := filepath.Join(jdir, ".iuad-snap-x"), filepath.Join(jdir, "notes.txt")
	for _, p := range []string{stray, unrelated} {
		if err := os.WriteFile(p, []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// No corpus needed: the base snapshot carries everything.
	rec, err := iuad.Open(nil, iuad.WithJournal(jdir))
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if _, err := os.Stat(stray); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("stray snapshot temp survived Open: %v", err)
	}
	if _, err := os.Stat(unrelated); err != nil {
		t.Fatalf("Open removed an unrelated file: %v", err)
	}
	if rep := rec.JournalRecovery(); rep == nil || rep.Batches != 0 || rep.Segments != 0 {
		t.Fatalf("clean reopen replayed %+v, want nothing", rep)
	}
	if rec.Epoch() != epoch {
		t.Fatalf("clean reopen epoch %d, want %d", rec.Epoch(), epoch)
	}
	if got := surfaceFingerprint(t, rec); got != fp {
		t.Fatal("clean reopen diverged")
	}
}

// TestJournalBackgroundCompaction: crossing the CompactEvery threshold
// rewrites the base in the background and empties the journal; a crash
// right after still recovers the full surface.
func TestJournalBackgroundCompaction(t *testing.T) {
	d := serviceDataset(107)
	jdir := t.TempDir()
	svc, err := iuad.Open(d.Corpus, iuad.WithConfig(equivCoreConfig(1)),
		iuad.WithJournalConfig(jdir, iuad.JournalConfig{Fsync: iuad.FsyncOff, CompactEvery: 2}))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	stream := streamProbes(d, "bgc", 6)
	for i := 0; i < 3; i++ {
		if _, err := svc.AddPapers(context.Background(), stream[i*2:i*2+2]); err != nil {
			t.Fatal(err)
		}
	}
	// The trigger is async; wait for the rotation to land.
	deadline := 200
	for ; deadline > 0; deadline-- {
		if svc.JournalStats().Rotations > 0 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if deadline == 0 {
		t.Fatalf("background compaction never ran: %+v", svc.JournalStats())
	}

	fp := surfaceFingerprint(t, svc)
	epoch := svc.Epoch()
	rec, err := iuad.Open(nil, iuad.WithJournalConfig(copyJournalDir(t, jdir),
		iuad.JournalConfig{Fsync: iuad.FsyncOff, CompactEvery: 2}))
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if rec.Epoch() != epoch {
		t.Fatalf("recovered epoch %d, want %d", rec.Epoch(), epoch)
	}
	if got := surfaceFingerprint(t, rec); got != fp {
		t.Fatal("post-compaction recovery diverged")
	}
}
