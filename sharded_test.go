package iuad_test

import (
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"iuad"
	"iuad/internal/core"
)

// surfaceFingerprint materializes the ENTIRE query surface of a
// service — stats (minus the shard count), every author record, every
// name listing, every slot resolution — into one comparable string.
// Two services with equal fingerprints answer every query identically.
func surfaceFingerprint(t *testing.T, svc *iuad.Service) string {
	t.Helper()
	var b strings.Builder
	st := svc.Stats()
	fmt.Fprintf(&b, "stats papers=%d corpus=%d streamed=%d authors=%d names=%d edges=%d slots=%d\n",
		st.Papers, st.CorpusPapers, st.StreamedPapers, st.Authors, st.Names, st.Edges, st.Slots)
	names := map[string]bool{}
	for id := 0; id < st.Authors; id++ {
		a, err := svc.Author(id)
		if err != nil {
			fmt.Fprintf(&b, "author %d: dead\n", id)
			continue
		}
		names[a.Name] = true
		fmt.Fprintf(&b, "author %d: %q papers=%v years=[%d,%d] venues=%v deg=%d\n",
			a.ID, a.Name, a.Papers, a.FirstYear, a.LastYear, a.Venues, a.Coauthors)
		peers, err := svc.Coauthors(id)
		if err != nil {
			t.Fatalf("Coauthors(%d): %v", id, err)
		}
		fmt.Fprintf(&b, "coauthors %d:", id)
		for _, p := range peers {
			fmt.Fprintf(&b, " %d", p.ID)
		}
		b.WriteByte('\n')
	}
	sorted := make([]string, 0, len(names))
	for name := range names {
		sorted = append(sorted, name)
	}
	sort.Strings(sorted)
	for _, name := range sorted {
		fmt.Fprintf(&b, "byname %q:", name)
		for _, a := range svc.AuthorsByName(name) {
			fmt.Fprintf(&b, " %d", a.ID)
		}
		b.WriteByte('\n')
	}
	for pid := 0; pid < st.Papers; pid++ {
		p, err := svc.Paper(iuad.PaperID(pid))
		if err != nil {
			t.Fatalf("Paper(%d): %v", pid, err)
		}
		for idx := range p.Authors {
			a, err := svc.ResolveSlot(iuad.Slot{Paper: iuad.PaperID(pid), Index: idx})
			if err != nil {
				fmt.Fprintf(&b, "slot %d/%d: %v\n", pid, idx, err)
				continue
			}
			fmt.Fprintf(&b, "slot %d/%d: %d\n", pid, idx, a.ID)
		}
	}
	return b.String()
}

func flatten(res [][]iuad.Assignment) [][]iuad.Assignment { return res }

// TestShardedSerialEquivalence is the tentpole contract: for every
// shard count, the sharded service's assignments AND entire query
// surface are bit-identical to the unsharded Workers=1 reference fed
// the same batches.
func TestShardedSerialEquivalence(t *testing.T) {
	d := serviceDataset(53)
	stream := streamProbes(d, "shard", 12)
	const batchSize = 3

	feed := func(svc *iuad.Service) [][]iuad.Assignment {
		t.Helper()
		var out [][]iuad.Assignment
		for off := 0; off < len(stream); off += batchSize {
			end := off + batchSize
			if end > len(stream) {
				end = len(stream)
			}
			res, err := svc.AddPapers(context.Background(), stream[off:end])
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, res...)
		}
		return out
	}

	ref, err := iuad.Open(d.Corpus, iuad.WithConfig(equivCoreConfig(1)))
	if err != nil {
		t.Fatal(err)
	}
	wantRes := feed(ref)
	wantFP := surfaceFingerprint(t, ref)
	wantEpoch := ref.Epoch()

	for _, shards := range []int{1, 2, 4, 8} {
		for _, workers := range []int{1, 2} {
			t.Run(fmt.Sprintf("shards=%d workers=%d", shards, workers), func(t *testing.T) {
				svc, err := iuad.Open(d.Corpus,
					iuad.WithConfig(equivCoreConfig(workers)), iuad.WithShards(shards))
				if err != nil {
					t.Fatal(err)
				}
				gotRes := feed(svc)
				assertSameAssignments(t, "sharded vs reference", flatten(wantRes), flatten(gotRes))
				if got := svc.Epoch(); got != wantEpoch {
					t.Fatalf("epoch %d, want %d", got, wantEpoch)
				}
				if got := surfaceFingerprint(t, svc); got != wantFP {
					t.Fatalf("query surface diverged from unsharded reference (shards=%d workers=%d)", shards, workers)
				}
				if got := svc.Stats().Shards; got != shards {
					t.Fatalf("stats shards %d, want %d", got, shards)
				}
				infos := svc.Shards()
				if len(infos) != shards {
					t.Fatalf("%d shard infos, want %d", len(infos), shards)
				}
				authors, slots := 0, 0
				for i, info := range infos {
					if info.Shard != i {
						t.Fatalf("shard info %d reports index %d", i, info.Shard)
					}
					if info.Pending != 0 {
						t.Fatalf("shard %d pending %d after quiesce", i, info.Pending)
					}
					authors += info.Authors
					slots += info.Slots
				}
				st := svc.Stats()
				if authors != st.Authors {
					t.Fatalf("shard authors sum %d, stats %d", authors, st.Authors)
				}
				if slots == 0 || st.Slots == 0 {
					t.Fatal("no slots accounted")
				}
			})
		}
	}
}

// TestShardedConcurrentWriters drives concurrent AddPapers through a
// sharded service (run under -race in CI). Group commit may fold
// concurrent batches into one epoch, so the epoch count is bounded by
// the batch count, not equal to it; what must hold for every
// interleaving is that each epoch was published exactly once, every
// acked paper is resolvable, and the pending counters return to zero.
func TestShardedConcurrentWriters(t *testing.T) {
	d := serviceDataset(59)
	svc, err := iuad.Open(d.Corpus, iuad.WithConfig(equivCoreConfig(1)), iuad.WithShards(8))
	if err != nil {
		t.Fatal(err)
	}
	const writers, batchesPer = 4, 5
	var wg sync.WaitGroup
	errs := make([]error, writers)
	acked := make([][]iuad.Assignment, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for b := 0; b < batchesPer; b++ {
				batch := []iuad.Paper{
					{Title: fmt.Sprintf("race probe %d-%d on streamed graphs", w, b),
						Venue: "KDD", Year: 2021,
						Authors: []string{fmt.Sprintf("Writer %d Author %d", w, b%3)}},
					{Title: fmt.Sprintf("race probe %d-%d second", w, b),
						Venue: "VLDB", Year: 2022,
						Authors: []string{fmt.Sprintf("Writer %d Author %d", w, (b+1)%3)}},
				}
				res, err := svc.AddPapers(context.Background(), batch)
				if err != nil {
					errs[w] = err
					return
				}
				for _, as := range res {
					acked[w] = append(acked[w], as...)
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	epoch := svc.Epoch()
	if epoch < 1 || epoch > writers*batchesPer {
		t.Fatalf("epoch %d, want 1..%d (at most one per batch)", epoch, writers*batchesPer)
	}
	for w := range acked {
		if len(acked[w]) != 2*batchesPer {
			t.Fatalf("writer %d: %d acked slots, want %d", w, len(acked[w]), 2*batchesPer)
		}
		for _, a := range acked[w] {
			got, err := svc.ResolveSlot(a.Slot)
			if err != nil || got.ID != a.Vertex {
				t.Fatalf("acked slot %+v assigned to %d resolves to %+v, %v", a.Slot, a.Vertex, got, err)
			}
		}
	}
	for _, info := range svc.Shards() {
		if info.Pending != 0 {
			t.Fatalf("shard %d pending %d after all writers returned", info.Shard, info.Pending)
		}
	}
	cs := svc.Contention()
	if cs.Shards != 8 || uint64(cs.Publishes) != epoch {
		t.Fatalf("contention %+v at epoch %d: publishes must equal the epoch", cs, epoch)
	}
}

// TestShardedSnapshotRoundTrip exercises the composite snapshot end to
// end: parallel save, full reload under the same and a different shard
// count, strict failure on a lost segment, partial recovery with the
// option, and a consistent re-save after recovery.
func TestShardedSnapshotRoundTrip(t *testing.T) {
	d := serviceDataset(61)
	dir := t.TempDir()
	path := filepath.Join(dir, "svc.snap")
	const shards = 4

	live, err := iuad.Open(d.Corpus,
		iuad.WithConfig(equivCoreConfig(1)), iuad.WithShards(shards), iuad.WithSnapshot(path))
	if err != nil {
		t.Fatal(err)
	}
	pre := streamProbes(d, "pre", 6)
	if _, err := live.AddPapers(context.Background(), pre); err != nil {
		t.Fatal(err)
	}
	liveStats := live.Stats()
	liveFP := surfaceFingerprint(t, live)
	liveInfos := live.Shards()
	if err := live.Close(); err != nil {
		t.Fatal(err)
	}

	// The composite layout: the manifest plus one segment per shard.
	segs, err := filepath.Glob(path + ".e*")
	if err != nil || len(segs) != shards {
		t.Fatalf("segment files %v (err %v), want %d", segs, err, shards)
	}

	restored, err := iuad.Open(nil, iuad.WithSnapshot(path), iuad.WithShards(shards))
	if err != nil {
		t.Fatal(err)
	}
	if restored.Recovery() != nil {
		t.Fatalf("full reload reported recovery %+v", restored.Recovery())
	}
	if got := restored.Stats(); got != liveStats {
		t.Fatalf("restored stats %+v, want %+v", got, liveStats)
	}
	if got := surfaceFingerprint(t, restored); got != liveFP {
		t.Fatal("restored query surface differs from live")
	}
	// Per-shard serving counters survive the round trip.
	for i, info := range restored.Shards() {
		if info.Epoch != liveInfos[i].Epoch || info.Publishes != liveInfos[i].Publishes ||
			info.Authors != liveInfos[i].Authors || info.Slots != liveInfos[i].Slots {
			t.Fatalf("shard %d info %+v, want %+v", i, info, liveInfos[i])
		}
	}

	// A different runtime shard count re-partitions the same state:
	// placement is re-derived from the name hash, answers unchanged.
	rest2, err := iuad.Open(nil, iuad.WithSnapshot(path), iuad.WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	if got := surfaceFingerprint(t, rest2); got != liveFP {
		t.Fatal("2-shard reload of a 4-shard snapshot diverged")
	}

	// Post-restore ingest matches a never-stopped reference pipeline.
	ref, err := iuad.Disambiguate(d.Corpus, equivCoreConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	addAll(t, ref, pre)
	post := streamProbes(d, "post", 5)
	want := addAll(t, ref, post)
	got, err := restored.AddPapers(context.Background(), post)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		for j := range want[i] {
			a, b := want[i][j], got[i][j]
			if a.Slot != b.Slot || a.Vertex != b.Vertex || a.Created != b.Created ||
				math.Float64bits(a.Score) != math.Float64bits(b.Score) {
				t.Fatalf("post-restore paper %d slot %d: ref %+v, got %+v", i, j, a, b)
			}
		}
	}

	// Lose one segment. Pick a shard that owns authors, and a name it
	// owns plus a name it does not, to probe both sides of recovery.
	lostShard := -1
	for _, info := range liveInfos {
		if info.Authors > 0 {
			lostShard = info.Shard
			break
		}
	}
	if lostShard < 0 {
		t.Fatal("no shard owns authors")
	}
	var lostName, safeName string
	for pid := 0; pid < d.Corpus.Len() && (lostName == "" || safeName == ""); pid++ {
		for _, name := range d.Corpus.Paper(iuad.PaperID(pid)).Authors {
			if core.ShardOfName(name, shards) == lostShard {
				lostName = name
			} else {
				safeName = name
			}
		}
	}
	if lostName == "" || safeName == "" {
		t.Fatalf("could not find probe names (lost %q, safe %q)", lostName, safeName)
	}
	lostIDs := restored.AuthorsByName(lostName)
	if len(lostIDs) == 0 {
		t.Fatalf("name %q has no authors before the loss", lostName)
	}
	safeBefore := restored.AuthorsByName(safeName)

	lostSeg := fmt.Sprintf("%s.e%d.s%03d", path, liveStats.Epoch, lostShard)
	if err := os.Remove(lostSeg); err != nil {
		t.Fatal(err)
	}

	// Strict open refuses the damaged composite — even with a corpus
	// at hand it must error loudly, not misread the lost segment's
	// fs.ErrNotExist as "no snapshot" and silently refit from scratch.
	if _, err := iuad.Open(nil, iuad.WithSnapshot(path), iuad.WithShards(shards)); err == nil {
		t.Fatal("open of a damaged composite succeeded without WithPartialRecovery")
	} else if errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("damaged-composite error wraps fs.ErrNotExist (would refit silently): %v", err)
	}
	if svc, err := iuad.Open(d.Corpus,
		iuad.WithConfig(equivCoreConfig(1)), iuad.WithSnapshot(path), iuad.WithShards(shards)); err == nil {
		svc.Close()
		t.Fatal("open with corpus + damaged composite refit instead of failing")
	}

	partial, err := iuad.Open(nil, iuad.WithSnapshot(path), iuad.WithShards(shards), iuad.WithPartialRecovery())
	if err != nil {
		t.Fatal(err)
	}
	rep := partial.Recovery()
	if rep == nil {
		t.Fatal("partial reload reported no recovery")
	}
	if len(rep.MissingSegments) != 1 || rep.MissingSegments[0] != lostShard {
		t.Fatalf("missing segments %v, want [%d]", rep.MissingSegments, lostShard)
	}
	if rep.LostAuthors != liveInfos[lostShard].Authors || rep.LostSlots != liveInfos[lostShard].Slots {
		t.Fatalf("recovery %+v, want authors=%d slots=%d",
			rep, liveInfos[lostShard].Authors, liveInfos[lostShard].Slots)
	}
	// Lost names answer empty; lost IDs are unknown; surviving shards
	// answer exactly as before.
	if got := partial.AuthorsByName(lostName); len(got) != 0 {
		t.Fatalf("lost name %q still lists %d authors", lostName, len(got))
	}
	if _, err := partial.Author(lostIDs[0].ID); !errors.Is(err, iuad.ErrUnknownAuthor) {
		t.Fatalf("Author(lost %d) = %v, want ErrUnknownAuthor", lostIDs[0].ID, err)
	}
	safeAfter := partial.AuthorsByName(safeName)
	if len(safeAfter) != len(safeBefore) {
		t.Fatalf("surviving name %q: %d authors, want %d", safeName, len(safeAfter), len(safeBefore))
	}
	for i := range safeAfter {
		if safeAfter[i].ID != safeBefore[i].ID || safeAfter[i].Name != safeBefore[i].Name {
			t.Fatalf("surviving author %d changed: %+v vs %+v", i, safeAfter[i], safeBefore[i])
		}
	}

	// The legacy stream format cannot carry the holes.
	if err := partial.Save(io.Discard); err == nil {
		t.Fatal("legacy Save of a partially-recovered service succeeded")
	}

	// Re-ingesting a lost name starts its block from scratch.
	as, err := partial.AddPaper(context.Background(), iuad.Paper{
		Title: "fresh start after recovery", Venue: "KDD", Year: 2024,
		Authors: []string{lostName},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(as) != 1 || !as[0].Created {
		t.Fatalf("re-ingest of lost name: %+v, want a fresh vertex", as)
	}
	relisted := partial.AuthorsByName(lostName)
	if len(relisted) != 1 || relisted[0].ID != as[0].Vertex {
		t.Fatalf("re-ingested name lists %+v, want vertex %d", relisted, as[0].Vertex)
	}

	// A re-save after recovery is a complete snapshot again.
	path2 := filepath.Join(dir, "svc2.snap")
	if err := partial.SaveFile(path2); err != nil {
		t.Fatal(err)
	}
	reopened, err := iuad.Open(nil, iuad.WithSnapshot(path2), iuad.WithShards(shards))
	if err != nil {
		t.Fatal(err)
	}
	if reopened.Recovery() != nil {
		t.Fatalf("re-saved snapshot still partial: %+v", reopened.Recovery())
	}
	if got := reopened.AuthorsByName(lostName); len(got) != 1 || got[0].ID != as[0].Vertex {
		t.Fatalf("re-saved lost name lists %+v", got)
	}
	if got, want := surfaceFingerprint(t, reopened), surfaceFingerprint(t, partial); got != want {
		t.Fatal("re-saved snapshot diverged from the recovered service")
	}
}

// TestCorruptSegmentTypedError pins the two failure shapes of a
// composite-snapshot open. A segment whose BYTES are wrong (bit rot,
// torn write) must surface as the typed *core.ErrCorruptSegment with
// the segment path and offset; a segment that is simply GONE must not
// masquerade as corruption — and neither shape may wrap fs.ErrNotExist
// (which the corpus-at-hand open path would misread as "no snapshot,
// refit silently").
func TestCorruptSegmentTypedError(t *testing.T) {
	d := serviceDataset(67)
	dir := t.TempDir()
	path := filepath.Join(dir, "svc.snap")
	const shards = 3

	live, err := iuad.Open(d.Corpus,
		iuad.WithConfig(equivCoreConfig(1)), iuad.WithShards(shards), iuad.WithSnapshot(path))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := live.AddPapers(context.Background(), streamProbes(d, "corr", 4)); err != nil {
		t.Fatal(err)
	}
	if err := live.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(path + ".e*")
	if err != nil || len(segs) != shards {
		t.Fatalf("segment files %v (err %v), want %d", segs, err, shards)
	}
	sort.Strings(segs)
	victim := segs[1]
	pristine, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	restore := func() {
		if err := os.WriteFile(victim, pristine, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	strictOpen := func() error {
		t.Helper()
		svc, err := iuad.Open(nil, iuad.WithSnapshot(path), iuad.WithShards(shards))
		if err == nil {
			svc.Close()
			t.Fatal("strict open of a damaged composite succeeded")
		}
		if errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("damaged-composite error wraps fs.ErrNotExist: %v", err)
		}
		return err
	}

	// Flipped byte in the payload: checksum catches it, typed error
	// names the file.
	mangled := append([]byte(nil), pristine...)
	mangled[len(mangled)/2] ^= 0xff
	if err := os.WriteFile(victim, mangled, 0o644); err != nil {
		t.Fatal(err)
	}
	err = strictOpen()
	var ce *core.ErrCorruptSegment
	if !errors.As(err, &ce) {
		t.Fatalf("flipped-byte open error %v, want *core.ErrCorruptSegment", err)
	}
	if ce.Path != victim {
		t.Fatalf("corrupt path %q, want %q", ce.Path, victim)
	}

	// Truncated segment: size disagrees with the manifest; the typed
	// error reports where the bytes stop.
	restore()
	if err := os.Truncate(victim, int64(len(pristine)/3)); err != nil {
		t.Fatal(err)
	}
	ce = nil
	if err = strictOpen(); !errors.As(err, &ce) {
		t.Fatalf("truncated open error %v, want *core.ErrCorruptSegment", err)
	}
	if ce.Path != victim || ce.Offset != int64(len(pristine)/3) {
		t.Fatalf("truncated segment error %+v, want path %q offset %d", ce, victim, len(pristine)/3)
	}

	// Corruption still admits partial recovery: the damaged shard is
	// reported lost, the rest serve.
	partial, err := iuad.Open(nil, iuad.WithSnapshot(path), iuad.WithShards(shards), iuad.WithPartialRecovery())
	if err != nil {
		t.Fatal(err)
	}
	if rep := partial.Recovery(); rep == nil || len(rep.MissingSegments) != 1 {
		t.Fatalf("partial recovery of corrupt segment: %+v", partial.Recovery())
	}
	partial.Close()

	// A MISSING segment is a different failure shape: still a loud
	// strict-open error, but not a corruption claim about bytes that
	// do not exist.
	restore()
	if err := os.Remove(victim); err != nil {
		t.Fatal(err)
	}
	ce = nil
	if err = strictOpen(); errors.As(err, &ce) {
		t.Fatalf("missing segment misreported as corrupt: %+v", ce)
	}
}
