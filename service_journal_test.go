package iuad_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"iuad"
	"iuad/internal/bib"
	"iuad/internal/faultinject"
	"iuad/internal/snapshot"
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
			// Every batch but the last is applied by the outcome the next
			// record carries.
			if rep.Batches != wantBatches || rep.Decided != wantBatches-1 || rep.TruncatedTail {
				t.Fatalf("replay report %+v, want %d batches (%d decided) and no torn tail", rep, wantBatches, wantBatches-1)
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

// baseVersion reads the format version of the base snapshot at path.
func baseVersion(t *testing.T, path string) uint64 {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	v, n := binary.Uvarint(b[len("IUADSNAP"):])
	if n <= 0 {
		t.Fatalf("%s: no version after the magic", path)
	}
	return v
}

// dirFiles reads every regular file of dir, by name.
func dirFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{}
	for _, e := range ents {
		if e.Type().IsRegular() {
			if files[e.Name()], err = os.ReadFile(filepath.Join(dir, e.Name())); err != nil {
				t.Fatal(err)
			}
		}
	}
	return files
}

// journalWithBase writes a journal directory over d: a compacted base
// with two batches of two papers in segments on top of it.
func journalWithBase(t *testing.T, d *iuad.SyntheticDataset) string {
	t.Helper()
	jdir := t.TempDir()
	svc, err := iuad.Open(d.Corpus,
		iuad.WithConfig(equivCoreConfig(1)), iuad.WithJournalConfig(jdir, noCompact))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	stream := streamProbes(d, "retired", 6)
	for i := 0; i < 3; i++ {
		if _, err := svc.AddPapers(context.Background(), stream[i*2:i*2+2]); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			if err := svc.Compact(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if v := baseVersion(t, iuad.JournalBasePath(jdir)); v != 1004 {
		t.Fatalf("compacted base is version %d, want 1004", v)
	}
	return copyJournalDir(t, jdir)
}

// assertRefusedRetired checks that an Open over dir failed with the typed
// error for a retired version, naming the version and the last build
// that reads it, and that no file of dir changed.
func assertRefusedRetired(t *testing.T, name string, svc *iuad.Service, err error, version uint64, dir string, before map[string][]byte) {
	t.Helper()
	if err == nil {
		svc.Close()
		t.Fatalf("%s: Open over version %d succeeded", name, version)
	}
	var ve *iuad.VersionError
	var ce *iuad.JournalCorruptError
	if !errors.As(err, &ve) || ve.Version != version || ve.LastBuild != "13f9370" ||
		!strings.Contains(err.Error(), "13f9370") || errors.As(err, &ce) {
		t.Fatalf("%s: Open = %v, want a *iuad.VersionError for version %d naming build 13f9370, not corruption", name, err, version)
	}
	after := dirFiles(t, dir)
	for f, b := range before {
		if !bytes.Equal(after[f], b) {
			t.Fatalf("%s: %s changed on disk after the refused Open", name, f)
		}
	}
}

// TestJournalRefuses1001Base: a base written before the CRC trailer
// (format 1001) is refused by its version, under WithJournal and
// WithSnapshot, and left untouched with the segments on top of it. The
// build it names upgrades it.
func TestJournalRefuses1001Base(t *testing.T) {
	dir := journalWithBase(t, serviceDataset(109))
	base := iuad.JournalBasePath(dir)
	// Rewrite the 1004 base as 1001: the same header and body, the
	// 2-byte version patched and the 4-byte CRC trailer cut.
	b, err := os.ReadFile(base)
	if err != nil {
		t.Fatal(err)
	}
	var v1001 [binary.MaxVarintLen64]byte
	if n := binary.PutUvarint(v1001[:], 1001); n != 2 {
		t.Fatalf("version 1001 encodes in %d bytes, want 2", n)
	}
	at := len("IUADSNAP")
	copy(b[at:at+2], v1001[:2])
	if err := os.WriteFile(base, b[:len(b)-4], 0o644); err != nil {
		t.Fatal(err)
	}
	before := dirFiles(t, dir)
	if len(before) < 3 {
		t.Fatalf("journal directory holds %d files, want a base and segments", len(before))
	}
	svc, err := iuad.Open(nil, iuad.WithJournalConfig(dir, noCompact))
	assertRefusedRetired(t, "WithJournal", svc, err, 1001, dir, before)
	svc, err = iuad.Open(nil, iuad.WithSnapshot(base))
	assertRefusedRetired(t, "WithSnapshot", svc, err, 1001, dir, before)
}

// TestJournalRefuses2001Segment: segments of version-2001 records (no
// outcome) over a valid base are refused by their version, not reported
// as corruption and not cut off as a torn tail, and every file stays as
// it was.
func TestJournalRefuses2001Segment(t *testing.T) {
	dir := journalWithBase(t, serviceDataset(131))
	segs, err := filepath.Glob(filepath.Join(dir, "wal.e*"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments in %s (err %v)", dir, err)
	}
	for _, seg := range segs {
		rewriteRecords2001(t, seg)
	}
	before := dirFiles(t, dir)
	svc, err := iuad.Open(nil, iuad.WithJournalConfig(dir, noCompact))
	assertRefusedRetired(t, "2001 segment", svc, err, 2001, dir, before)
}

// rewriteRecords2001 rewrites every record of the segment at path the
// way the 2001 build wrote it: the epoch and the batch, no outcome. A
// segment is a 32-byte header, then records framed as [u32 LE payload
// length][u64 LE FNV-64a of the payload][payload].
func rewriteRecords2001(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	const segHeaderLen, recHeaderLen = 32, 12
	out := append([]byte(nil), data[:segHeaderLen]...)
	for off := segHeaderLen; off < len(data); {
		end := off + recHeaderLen + int(binary.LittleEndian.Uint32(data[off:]))
		sr, err := snapshot.NewReader(bytes.NewReader(data[off+recHeaderLen:end]), 2002)
		if err != nil {
			t.Fatal(err)
		}
		var payload bytes.Buffer
		sw := snapshot.NewWriter(&payload, 2001)
		sw.Uvarint(sr.Uvarint())
		n := sr.Int()
		sw.Int(n)
		for i := 0; i < n; i++ {
			p, err := bib.DecodePaperSnapshot(sr)
			if err != nil {
				t.Fatal(err)
			}
			bib.EncodePaperSnapshot(sw, &p)
		}
		if err := errors.Join(sr.Err(), sw.Close()); err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		h.Write(payload.Bytes())
		out = binary.LittleEndian.AppendUint32(out, uint32(payload.Len()))
		out = binary.LittleEndian.AppendUint64(out, h.Sum64())
		out = append(out, payload.Bytes()...)
		off = end
	}
	if err := os.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestJournalDecisionReplayMatchesScoring pins replay by recorded
// decision. Over one history, decision replay and a service that never
// crashed answer every query alike and score the next batch to the bit,
// for one and four workers. Replay scores only the last batch, whose
// outcome no record carries.
func TestJournalDecisionReplayMatchesScoring(t *testing.T) {
	d := serviceDataset(131)
	var stream []iuad.Paper
	s, c := streamProbes(d, "v2001", 12), collabProbes(d, "v2001", 12)
	for i := range s {
		stream = append(stream, s[i], c[i])
	}
	const batches, batchSize = 6, 4
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			open := func(jdir string) *iuad.Service {
				t.Helper()
				opts := []iuad.Option{iuad.WithConfig(equivCoreConfig(workers))}
				if jdir != "" {
					opts = append(opts, iuad.WithJournalConfig(jdir, noCompact))
				}
				svc, err := iuad.Open(d.Corpus, opts...)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { svc.Close() })
				return svc
			}
			jdir := t.TempDir()
			live, ref := open(jdir), open("")
			for b := 0; b < batches; b++ {
				for _, svc := range []*iuad.Service{live, ref} {
					if _, err := svc.AddPapers(context.Background(), stream[b*batchSize:(b+1)*batchSize]); err != nil {
						t.Fatal(err)
					}
				}
			}
			decided := open(copyJournalDir(t, jdir))
			rep := decided.JournalRecovery()
			if rep.Batches != batches || rep.Decided != batches-1 {
				t.Fatalf("replay report %+v, want %d batches, %d decided", rep, batches, batches-1)
			}
			if decided.Epoch() != ref.Epoch() {
				t.Fatalf("epoch %d, want %d", decided.Epoch(), ref.Epoch())
			}
			if surfaceFingerprint(t, decided) != surfaceFingerprint(t, ref) {
				t.Fatal("query surface differs from the never-crashed service")
			}

			post := append(streamProbes(d, "after-replay", 3), collabProbes(d, "after-replay", 3)...)
			want, err := ref.AddPapers(context.Background(), post)
			if err != nil {
				t.Fatal(err)
			}
			for name, svc := range map[string]*iuad.Service{"live": live, "decision replay": decided} {
				got, err := svc.AddPapers(context.Background(), post)
				if err != nil {
					t.Fatal(err)
				}
				assertSameAssignments(t, name+", next batch", want, got)
			}
		})
	}
}

// TestJournalBadOutcomeFailsOpen: a recorded vertex must be an existing
// vertex carrying the slot's name or exactly the next free ID. Anything
// else is a corrupt journal — Open refuses with the typed error at the
// record that carried the outcome, naming the batch's epoch, and never
// falls back to scoring.
func TestJournalBadOutcomeFailsOpen(t *testing.T) {
	d := serviceDataset(137)
	jdir := t.TempDir()
	svc, err := iuad.Open(d.Corpus,
		iuad.WithConfig(equivCoreConfig(1)), iuad.WithJournalConfig(jdir, noCompact))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	// Batch 1 is one slot with a name no vertex carries: its outcome is
	// the vertex it creates. Record 2 carries that outcome.
	res, err := svc.AddPapers(context.Background(), []iuad.Paper{{Title: "outcome probe", Authors: []string{"Outcome Probe Nobody"}}})
	if err != nil {
		t.Fatal(err)
	}
	created := res[0][0].Vertex
	if !res[0][0].Created || created == 0 {
		t.Fatalf("probe slot assigned %+v, want a created vertex", res[0][0])
	}
	if _, err := svc.AddPapers(context.Background(), streamProbes(d, "outcome", 2)); err != nil {
		t.Fatal(err)
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
	// Record 2 is the last one; its payload ends with the outcome of
	// batch 1: a slot count of 1, then the vertex.
	off2 := 32 + 12 + int(binary.LittleEndian.Uint32(b[32:36]))
	payload := b[off2+12:]
	if int(binary.LittleEndian.Uint32(b[off2:off2+4])) != len(payload) {
		t.Fatalf("record 2 at %d is not the last record of the segment", off2)
	}
	outcome := func(v int) []byte { return binary.AppendUvarint(binary.AppendUvarint(nil, 1), uint64(v)) }
	if !bytes.HasSuffix(payload, outcome(created)) {
		t.Fatalf("record 2 does not end with batch 1's outcome (vertex %d)", created)
	}
	head := payload[:len(payload)-len(outcome(created))]

	for _, tc := range []struct {
		name   string
		vertex int
	}{
		{"out of range", created + 1},
		{"wrong name", 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := append(append([]byte(nil), head...), outcome(tc.vertex)...)
			h := fnv.New64a()
			h.Write(p)
			rec := binary.LittleEndian.AppendUint32(nil, uint32(len(p)))
			rec = binary.LittleEndian.AppendUint64(rec, h.Sum64())
			bad := append(append(append([]byte(nil), b[:off2]...), rec...), p...)
			dir := t.TempDir()
			seg := filepath.Join(dir, filepath.Base(segs[0]))
			if err := os.WriteFile(seg, bad, 0o644); err != nil {
				t.Fatal(err)
			}
			rec2, err := iuad.Open(d.Corpus,
				iuad.WithConfig(equivCoreConfig(1)), iuad.WithJournalConfig(dir, noCompact))
			if err == nil {
				rec2.Close()
				t.Fatalf("open over an outcome naming vertex %d succeeded", tc.vertex)
			}
			var ce *iuad.JournalCorruptError
			if !errors.As(err, &ce) || ce.Path != seg || ce.Offset != int64(off2) {
				t.Fatalf("open = %v, want *iuad.JournalCorruptError at %s offset %d", err, seg, off2)
			}
			if !strings.Contains(err.Error(), "outcome of epoch 1") {
				t.Fatalf("error %q does not name the batch's epoch", err)
			}
		})
	}
}
