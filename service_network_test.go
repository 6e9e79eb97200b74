package iuad_test

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"

	"iuad"
)

// analyticsFingerprint hashes everything the analytics surface can
// answer — network stats, the full community partition, and sampled
// ego/collaborator/clustering queries — with float64 fields folded in
// as raw bits, so equality means byte-identity, not approximation.
// Safe to call from any goroutine.
func analyticsFingerprint(svc *iuad.Service) string {
	h := sha256.New()
	n := svc.Network()
	fmt.Fprintf(h, "net %+v|%x|%x|%x|%x\n", n,
		math.Float64bits(n.Density), math.Float64bits(n.LargestComponentFraction),
		math.Float64bits(n.AvgClustering), math.Float64bits(n.DegreeSlope))
	c := svc.Communities()
	fmt.Fprintf(h, "comm %d %d %d %v %v\n", c.Epoch, c.Count, c.Rounds, c.Converged, c.Sizes)
	_ = binary.Write(h, binary.LittleEndian, c.Labels)
	for id := 0; id < len(c.Labels); id += 7 {
		eg, err := svc.Ego(id, 2)
		if err != nil {
			fmt.Fprintf(h, "ego %d: %v\n", id, err)
			continue
		}
		fmt.Fprintf(h, "ego %d %+v\n", id, *eg)
		cols, _ := svc.TopCollaborators(id, 5)
		for _, col := range cols {
			fmt.Fprintf(h, "col %d %d %d %x %s\n",
				col.ID, col.SharedPapers, col.CommonNeighbors, math.Float64bits(col.Overlap), col.Name)
		}
		cl, _ := svc.Clustering(id)
		fmt.Fprintf(h, "clu %+v %x\n", cl, math.Float64bits(cl.Coefficient))
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestNetstatsEpochConsistency is the analytics consistency contract:
// analytics answered mid-ingest — while writers race the readers — are
// bit-identical to re-running the same queries on that epoch's
// published snapshot, and the whole surface (Communities included) is
// byte-identical across worker counts. Readers must
// never observe a half-built cache: any fingerprint captured within
// one epoch must equal the reference fingerprint of that epoch.
func TestNetstatsEpochConsistency(t *testing.T) {
	d := serviceDataset(31)
	probes := streamProbes(d, "net", 10)

	// Reference: serial service, analytics re-run at every
	// epoch boundary.
	ref, err := iuad.Open(d.Corpus, iuad.WithConfig(equivCoreConfig(1)))
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	want := map[uint64]string{0: analyticsFingerprint(ref)}
	for _, p := range probes {
		if _, err := ref.AddPaper(context.Background(), p); err != nil {
			t.Fatal(err)
		}
		want[ref.Epoch()] = analyticsFingerprint(ref)
	}

	// Live: different worker count, with reader goroutines querying
	// analytics while the ingester publishes.
	svc, err := iuad.Open(d.Corpus, iuad.WithConfig(equivCoreConfig(2)))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	var mu sync.Mutex
	observed := map[uint64]string{}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				// Epoch unchanged across the whole sweep ⇒ every query
				// inside it was answered from that epoch (publishes are
				// monotonic), so the sweep is attributable to one epoch.
				e0 := svc.Epoch()
				fp := analyticsFingerprint(svc)
				if svc.Epoch() == e0 {
					mu.Lock()
					observed[e0] = fp
					mu.Unlock()
				}
			}
		}()
	}
	// The ingester fingerprints every epoch it publishes, with the
	// reader goroutines racing their own sweeps against the publishes —
	// every epoch is deterministically checked, and whatever the readers
	// additionally catch mid-ingest is checked too.
	record := func() {
		e := svc.Epoch()
		fp := analyticsFingerprint(svc)
		mu.Lock()
		observed[e] = fp
		mu.Unlock()
	}
	record() // epoch 0, before any publish
	for _, p := range probes {
		if _, err := svc.AddPaper(context.Background(), p); err != nil {
			t.Fatal(err)
		}
		record()
	}
	close(stop)
	wg.Wait()

	if len(observed) < 2 {
		t.Fatalf("captured only %d epochs", len(observed))
	}
	for epoch, fp := range observed {
		wantFP, ok := want[epoch]
		if !ok {
			t.Fatalf("observed epoch %d the reference never published", epoch)
		}
		if fp != wantFP {
			t.Errorf("epoch %d: mid-ingest analytics diverge from the epoch's snapshot", epoch)
		}
	}

	// Cache accounting: the reader storm must have been mostly
	// lock-free hits. Rebuilds exceed the epoch count only when a
	// reader's already-loaded view goes stale across a publish (the
	// compile runs but the store is skipped), and each such rebuild
	// needs one concurrently racing query — so the bound is epochs ×
	// concurrent queriers (3 readers + the ingester).
	as := svc.Analytics()
	if as.Hits == 0 {
		t.Fatal("no analytics-cache hits under repeat queries")
	}
	epochs := int64(len(probes)) + 1
	if as.Rebuilds > epochs*4 {
		t.Fatalf("%d rebuilds for %d epochs", as.Rebuilds, epochs)
	}
	if as.Rebuilds > as.Misses {
		t.Fatalf("%d rebuilds exceed %d misses", as.Rebuilds, as.Misses)
	}
}

// TestEgoEdgeCases covers the BFS boundary contract: hops 0 (and
// negative hops, clamped to 0) return just the author; unknown and
// out-of-range authors return ErrUnknownAuthor.
func TestEgoEdgeCases(t *testing.T) {
	d := serviceDataset(33)
	svc, err := iuad.Open(d.Corpus, iuad.WithConfig(equivCoreConfig(2)))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	for _, hops := range []int{0, -3} {
		eg, err := svc.Ego(0, hops)
		if err != nil {
			t.Fatalf("Ego(0, %d): %v", hops, err)
		}
		if len(eg.Vertices) != 1 || eg.Vertices[0].ID != 0 || len(eg.Edges) != 0 || eg.Hops != 0 {
			t.Fatalf("Ego(0, %d) = %+v, want just the center", hops, eg)
		}
		if len(eg.Names) != 1 || eg.Names[0] == "" {
			t.Fatalf("Ego(0, %d) names = %v", hops, eg.Names)
		}
	}

	st := svc.Stats()
	for _, id := range []int{-1, st.Authors, st.Authors + 99} {
		if _, err := svc.Ego(id, 1); !errors.Is(err, iuad.ErrUnknownAuthor) {
			t.Fatalf("Ego(%d, 1) = %v, want ErrUnknownAuthor", id, err)
		}
		if _, err := svc.TopCollaborators(id, 3); !errors.Is(err, iuad.ErrUnknownAuthor) {
			t.Fatalf("TopCollaborators(%d) = %v, want ErrUnknownAuthor", id, err)
		}
		if _, err := svc.Clustering(id); !errors.Is(err, iuad.ErrUnknownAuthor) {
			t.Fatalf("Clustering(%d) = %v, want ErrUnknownAuthor", id, err)
		}
	}

	// Ego names and degrees agree with the serving surface at the same
	// epoch (no ingest running here).
	eg, err := svc.Ego(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i, ev := range eg.Vertices {
		a, err := svc.Author(int(ev.ID))
		if err != nil {
			t.Fatalf("ego vertex %d unknown to the serving surface: %v", ev.ID, err)
		}
		if eg.Names[i] != a.Name || ev.Degree != a.Coauthors {
			t.Fatalf("ego vertex %d: name %q degree %d, serving surface %q %d",
				ev.ID, eg.Names[i], ev.Degree, a.Name, a.Coauthors)
		}
	}
}

// TestEgoDuringConcurrentIngest races analytics readers against a
// concurrent ingest (run under -race in CI): every answer must be
// well-formed and attributable to a published epoch, and the only
// acceptable error is ErrUnknownAuthor for not-yet-published vertices.
func TestEgoDuringConcurrentIngest(t *testing.T) {
	d := serviceDataset(47)
	svc, err := iuad.Open(d.Corpus, iuad.WithConfig(equivCoreConfig(2)))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	baseAuthors := svc.Stats().Authors

	// Each reader runs a fixed number of sweeps (not a stop-channel
	// race) so the amount of read work is deterministic: with far more
	// analytics calls than published epochs, repeat same-epoch queries —
	// and therefore cache hits — are guaranteed however the scheduler
	// interleaves readers and ingester.
	const sweeps = 120
	var wg sync.WaitGroup
	errCh := make(chan error, 8)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < sweeps; i++ {
				id := (i*13 + r*7) % baseAuthors
				eg, err := svc.Ego(id, 1+i%2)
				if err != nil {
					if !errors.Is(err, iuad.ErrUnknownAuthor) {
						errCh <- fmt.Errorf("Ego(%d): %w", id, err)
						return
					}
					continue
				}
				if len(eg.Vertices) == 0 || eg.Vertices[0].ID != int32(id) || len(eg.Names) != len(eg.Vertices) {
					errCh <- fmt.Errorf("malformed ego of %d: %+v", id, eg)
					return
				}
				cols, err := svc.TopCollaborators(id, 4)
				if err != nil && !errors.Is(err, iuad.ErrUnknownAuthor) {
					errCh <- fmt.Errorf("TopCollaborators(%d): %w", id, err)
					return
				}
				if len(cols) > 0 && cols[0].Name == "" {
					errCh <- fmt.Errorf("collaborator of %d has no name", id)
					return
				}
				if n := svc.Network(); n.Authors <= 0 {
					errCh <- fmt.Errorf("network stats report %d authors", n.Authors)
					return
				}
			}
		}(r)
	}
	ingestErr := make(chan error, 1)
	go func() {
		for _, p := range streamProbes(d, "race", 8) {
			if _, err := svc.AddPaper(context.Background(), p); err != nil {
				ingestErr <- err
				return
			}
		}
		ingestErr <- nil
	}()
	wg.Wait()
	if err := <-ingestErr; err != nil {
		t.Fatal(err)
	}
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	if svc.Analytics().Hits == 0 {
		t.Fatal("analytics cache never hit during the read storm")
	}
}
