package iuad_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"iuad"
	"iuad/internal/core"
	"iuad/internal/faultinject"
)

// collabProbes are streamed papers whose co-author lists join authors
// the corpus already knows, so ingest adds edges between existing
// vertices (and grows their paper sets) — the state the pinned-view
// encoder has to re-derive edge papers for.
func collabProbes(d *iuad.SyntheticDataset, phase string, n int) []iuad.Paper {
	var out []iuad.Paper
	for k := 0; k < n; k++ {
		p0 := d.Corpus.Paper(iuad.PaperID((3 * k) % d.Corpus.Len()))
		p1 := d.Corpus.Paper(iuad.PaperID((7*k + 1) % d.Corpus.Len()))
		authors := append([]string(nil), p0.Authors...)
		for _, a := range p1.Authors {
			dup := false
			for _, b := range authors {
				dup = dup || a == b
			}
			if !dup {
				authors = append(authors, a)
			}
		}
		out = append(out, iuad.Paper{
			Title:   fmt.Sprintf("compaction %s probe %d on shared manifold indexes", phase, k),
			Venue:   p1.Venue,
			Year:    2022 + k%2,
			Authors: authors,
		})
	}
	return out
}

// dirBytes reads every regular file of dir.
func dirBytes(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = b
	}
	return out
}

// assertPinnedMatchesReference saves svc through the pinned-view
// encoder and through the map-walking reference writer at the same
// epoch and requires identical bytes, streamed and on disk.
func assertPinnedMatchesReference(t *testing.T, svc *iuad.Service, when string) {
	t.Helper()
	pl, epoch := svc.Pipeline(), svc.Epoch()
	var got, want bytes.Buffer
	if err := svc.Save(&got); err != nil {
		t.Fatalf("%s: Save: %v", when, err)
	}
	if err := core.SaveService(&want, pl, epoch); err != nil {
		t.Fatalf("%s: reference SaveService: %v", when, err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("%s: pinned stream (%d bytes) differs from the reference (%d bytes)", when, got.Len(), want.Len())
	}
	gotDir, wantDir := t.TempDir(), t.TempDir()
	if err := svc.SaveFile(filepath.Join(gotDir, "s.snap")); err != nil {
		t.Fatalf("%s: SaveFile: %v", when, err)
	}
	err := core.WriteFileAtomic(filepath.Join(wantDir, "s.snap"), func(w io.Writer) error {
		return core.SaveService(w, pl, epoch)
	})
	if err != nil {
		t.Fatalf("%s: reference save: %v", when, err)
	}
	gotFiles, wantFiles := dirBytes(t, gotDir), dirBytes(t, wantDir)
	if len(gotFiles) != len(wantFiles) {
		t.Fatalf("%s: pinned save wrote %d files, reference %d", when, len(gotFiles), len(wantFiles))
	}
	for name, b := range wantFiles {
		if !bytes.Equal(gotFiles[name], b) {
			t.Fatalf("%s: file %s differs from the reference (%d vs %d bytes)", when, name, len(gotFiles[name]), len(b))
		}
	}
}

// TestPinnedSnapshotMatchesReference is the differential pin of the
// off-lock encoder: on every golden corpus, right after the fit and
// after streamed batches, a snapshot encoded from the pinned view is
// byte-identical to the reference writer's output. (The subtest names
// keep their "shards=1" suffix from when a sharded layout existed.)
func TestPinnedSnapshotMatchesReference(t *testing.T) {
	for ci, scfg := range equivSynthConfigs() {
		scfg := scfg
		t.Run(fmt.Sprintf("corpus%d_seed%d_shards=1", ci, scfg.Seed), func(t *testing.T) {
			t.Parallel()
			d := iuad.GenerateSynthetic(scfg)
			svc, err := iuad.Open(d.Corpus, iuad.WithConfig(equivCoreConfig(1)))
			if err != nil {
				t.Fatal(err)
			}
			defer svc.Close()
			assertPinnedMatchesReference(t, svc, "after fit")
			for b, batch := range [][]iuad.Paper{
				streamProbes(d, "pin", 9), collabProbes(d, "pin", 12), collabProbes(d, "again", 5),
			} {
				if _, err := svc.AddPapers(context.Background(), batch); err != nil {
					t.Fatal(err)
				}
				assertPinnedMatchesReference(t, svc, fmt.Sprintf("after batch %d", b))
			}
		})
	}
}

// overlayDir copies the regular files of every src into a fresh
// directory, later sources winning.
func overlayDir(t *testing.T, srcs ...string) string {
	t.Helper()
	dst := t.TempDir()
	for _, src := range srcs {
		for name, b := range dirBytes(t, src) {
			if err := os.WriteFile(filepath.Join(dst, name), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	return dst
}

// TestJournalCompactionCrashWindows kills (by copying the directory) a
// journaled service in each window of a compaction — after the cut with
// the base write failed, after the base rename but before the retire,
// after the retire — and requires every copy to recover the full query
// surface of a process that never crashed, replaying exactly the
// batches its base does not hold and dropping exactly the segments it
// covers.
func TestJournalCompactionCrashWindows(t *testing.T) {
	// The subtest name is kept from when a sharded layout existed.
	t.Run("shards=1", func(t *testing.T) {
		d := serviceDataset(109)
		open := func(corpus *iuad.Corpus, jdir string) *iuad.Service {
			t.Helper()
			opts := []iuad.Option{iuad.WithConfig(equivCoreConfig(1))}
			if jdir != "" {
				opts = append(opts, iuad.WithJournalConfig(jdir, noCompact))
			}
			svc, err := iuad.Open(corpus, opts...)
			if err != nil {
				t.Fatal(err)
			}
			return svc
		}
		jdir := t.TempDir()
		live, ref := open(d.Corpus, jdir), open(d.Corpus, "")
		defer live.Close()
		defer ref.Close()
		stream := collabProbes(d, "win", 18)
		next := 0
		add := func() {
			t.Helper()
			for _, svc := range []*iuad.Service{live, ref} {
				if _, err := svc.AddPapers(context.Background(), stream[next:next+3]); err != nil {
					t.Fatal(err)
				}
			}
			next += 3
		}
		// recoverAndCheck restarts over a copy and compares it with
		// the never-crashed, never-journaled reference.
		recoverAndCheck := func(window, crashed string, wantBatches, wantStale int) {
			t.Helper()
			rec := open(nil, crashed)
			defer rec.Close()
			rep := rec.JournalRecovery()
			if rep.Batches != wantBatches || rep.StaleRemoved != wantStale || rep.TruncatedTail {
				t.Fatalf("%s: replay report %+v, want %d batches replayed, %d stale segments removed", window, rep, wantBatches, wantStale)
			}
			if rec.Epoch() != ref.Epoch() {
				t.Fatalf("%s: recovered epoch %d, want %d", window, rec.Epoch(), ref.Epoch())
			}
			if surfaceFingerprint(t, rec) != surfaceFingerprint(t, ref) {
				t.Fatalf("%s: recovered query surface differs from the never-crashed reference", window)
			}
		}

		add()
		add()
		if err := live.Compact(); err != nil { // base@2
			t.Fatal(err)
		}
		add()
		add() // epoch 4: two batches in one segment keyed 2

		// Window 1: the cut lands, the base write fails.
		boom := errors.New("injected disk failure")
		disarm := faultinject.Arm(faultinject.SnapshotWrite, func() error { return boom })
		err := live.Compact()
		disarm()
		if !errors.Is(err, boom) {
			t.Fatalf("Compact under a snapshot-write fault = %v, want the injected error", err)
		}
		if c := live.Compaction(); c.Failures != 1 || c.LastError == "" || c.Last == nil || c.Last.Epoch != 2 {
			t.Fatalf("failed compaction not surfaced: %+v", c)
		}
		add() // epoch 5 lands in the generation keyed 4
		if segs := journalSegments(t, jdir); len(segs) != 2 {
			t.Fatalf("after the failed compaction: segments %v, want one keyed 2 and one keyed 4", segs)
		}
		recoverAndCheck("after cut, base write failed", copyJournalDir(t, jdir), 3, 0)

		// The next attempt succeeds from the longer chain.
		beforeRetire := copyJournalDir(t, jdir)
		if err := live.Compact(); err != nil { // base@5, segments keyed 2 and 4 retired
			t.Fatal(err)
		}
		if c := live.Compaction(); c.Failures != 1 || c.Last.Epoch != 5 || c.BytesSinceBase != 0 {
			t.Fatalf("compaction after the failure: %+v", c)
		}
		if segs := journalSegments(t, jdir); len(segs) != 0 {
			t.Fatalf("retire left %v", segs)
		}
		// Window 3 first (it is the live directory): after the retire.
		recoverAndCheck("after retire", copyJournalDir(t, jdir), 0, 0)
		// Window 2: the new base is renamed in, nothing retired yet —
		// the pre-compaction segments under the post-compaction base.
		recoverAndCheck("after base rename, before retire", overlayDir(t, beforeRetire, jdir), 0, 2)

		// The same two windows with a commit landed beside the
		// compaction (a record in the generation keyed 5).
		add() // epoch 6
		recoverAndCheck("after retire, one commit later", copyJournalDir(t, jdir), 1, 0)
		recoverAndCheck("before retire, one commit later", overlayDir(t, beforeRetire, jdir), 1, 2)
	})
}

// TestJournalCompactionBesideWriters runs compactions while writers
// keep committing: the commits of E+1… land in the generation cut at E
// while the base of E is still being encoded. Run under -race it is the
// proof that the encoder reads nothing ingest writes; the reopen proves
// base + chain reproduce the live state bit for bit; and the lock-hold
// of a compaction stays O(1) — under 5 ms where walking the state (the
// reference encode) costs over 20 ms.
func TestJournalCompactionBesideWriters(t *testing.T) {
	if testing.Short() {
		t.Skip("fits a multi-thousand-paper corpus")
	}
	var (
		d         *iuad.SyntheticDataset
		svc       *iuad.Service
		jdir      string
		refEncode time.Duration
	)
	// Grow the corpus until the reference encode is over 20 ms (the
	// first size is enough under -race).
	for _, authors := range []int{1000, 2500} {
		scfg := iuad.DefaultSyntheticConfig()
		scfg.Seed = 5
		scfg.Authors = authors
		scfg.Communities = 20
		d = iuad.GenerateSynthetic(scfg)
		jdir = t.TempDir()
		var err error
		svc, err = iuad.Open(d.Corpus, iuad.WithConfig(equivCoreConfig(2)), iuad.WithJournalConfig(jdir, noCompact))
		if err != nil {
			t.Fatal(err)
		}
		t0 := time.Now()
		if err := core.SaveService(io.Discard, svc.Pipeline(), svc.Epoch()); err != nil {
			t.Fatal(err)
		}
		if refEncode = time.Since(t0); refEncode > 20*time.Millisecond {
			break
		}
		svc.Close()
		svc = nil
	}
	if svc == nil {
		t.Skipf("reference encode only %v on the largest corpus: no O(state) cost to compare against", refEncode)
	}
	defer svc.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for w := range errs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; ; k++ {
				select {
				case <-stop:
					return
				default:
				}
				batch := collabProbes(d, fmt.Sprintf("w%d-%d", w, k), 2)
				if _, err := svc.AddPapers(context.Background(), batch); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	minHeld := time.Hour
	beside := 0
	for i := 0; i < 4; i++ {
		if err := svc.Compact(); err != nil {
			t.Fatal(err)
		}
		c := svc.Compaction()
		if held := time.Duration(c.Last.LockHeldUs * float64(time.Microsecond)); held < minHeld {
			minHeld = held
		}
		if svc.Epoch() > c.Last.Epoch {
			beside++ // commits landed while this base was being written
		}
	}
	close(stop)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if beside == 0 {
		t.Fatal("no commit landed beside any of 4 compactions: the test exercised nothing")
	}
	if c := svc.Compaction(); c.Failures != 0 {
		t.Fatalf("compaction failures: %+v", c)
	}
	t.Logf("reference encode %v, shortest lock hold %v, %d of 4 compactions had commits beside them", refEncode, minHeld, beside)
	if minHeld >= 5*time.Millisecond {
		t.Fatalf("compaction held the write lock %v (reference encode %v): not O(1)", minHeld, refEncode)
	}

	fp, epoch := surfaceFingerprint(t, svc), svc.Epoch()
	rec, err := iuad.Open(nil, iuad.WithJournalConfig(copyJournalDir(t, jdir), noCompact))
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if rec.Epoch() != epoch || surfaceFingerprint(t, rec) != fp {
		t.Fatalf("reopen after compactions beside writers diverged (epoch %d, want %d)", rec.Epoch(), epoch)
	}
}

// TestJournalDefaultTriggerEndToEnd drives the product-default trigger
// through the public API: the first commit on a fresh directory writes
// a base, later commits do not compact again until the journal reaches
// an eighth of it, and then one does.
func TestJournalDefaultTriggerEndToEnd(t *testing.T) {
	d := serviceDataset(113)
	svc, err := iuad.Open(d.Corpus, iuad.WithConfig(equivCoreConfig(1)),
		iuad.WithJournalConfig(t.TempDir(), iuad.JournalConfig{Fsync: iuad.FsyncOff}))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	waitRotations := func(n int64) *iuad.CompactionStatus {
		t.Helper()
		for deadline := time.Now().Add(20 * time.Second); ; time.Sleep(2 * time.Millisecond) {
			if svc.JournalStats().Rotations >= n {
				return svc.Compaction()
			}
			if time.Now().After(deadline) {
				t.Fatalf("compaction %d never completed: %+v", n, svc.JournalStats())
			}
		}
	}
	if _, err := svc.AddPapers(context.Background(), collabProbes(d, "first", 2)); err != nil {
		t.Fatal(err)
	}
	c := waitRotations(1)
	if c.Last == nil || c.Last.Epoch != 1 || c.Last.BaseBytes <= 0 {
		t.Fatalf("first commit on a fresh directory: %+v", c)
	}
	base := c.Last.BaseBytes
	for k := 0; svc.JournalStats().Rotations == 1; k++ {
		if k == 10000 {
			t.Fatalf("journal never reached 1/8 of the %d-byte base: %+v", base, svc.Compaction())
		}
		if _, err := svc.AddPapers(context.Background(), collabProbes(d, fmt.Sprintf("fill%d", k), 4)); err != nil {
			t.Fatal(err)
		}
		if svc.Compaction().BytesSinceBase*8 >= base {
			waitRotations(2) // this commit crossed 1/8: its compaction must land
		}
	}
	c = svc.Compaction()
	if at := c.Last.JournalBytesAtStart; at*8 < base || at*8 > 2*base {
		t.Fatalf("second compaction started at %d journal bytes; the trigger is 1/8 of the %d-byte base", at, base)
	}
}
