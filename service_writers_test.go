package iuad_test

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"iuad"
)

// surfaceFingerprint materializes the ENTIRE query surface of a
// service — stats, every author record, every name listing, every
// slot resolution — into one comparable string.
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
			t.Fatalf("Author(%d): %v", id, err)
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

// TestServiceConcurrentWriters drives concurrent AddPapers through a
// service (run under -race in CI). Every batch commits alone,
// so for every interleaving the epoch equals the batch count and the
// commit count, each epoch was published exactly once, and every acked
// paper is resolvable.
func TestServiceConcurrentWriters(t *testing.T) {
	d := serviceDataset(59)
	svc, err := iuad.Open(d.Corpus, iuad.WithConfig(equivCoreConfig(1)))
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
	if commits := svc.Ingest().Commits; epoch != writers*batchesPer || uint64(commits) != epoch {
		t.Fatalf("epoch %d, %d commits: want both %d (one per batch)", epoch, commits, writers*batchesPer)
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
	cs := svc.Contention()
	if uint64(cs.Publishes) != epoch {
		t.Fatalf("contention %+v at epoch %d: publishes must equal the epoch", cs, epoch)
	}
}
