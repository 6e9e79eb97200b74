package iuad_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"iuad"
	"iuad/internal/faultinject"
)

// waitUntil polls cond with a deadline — the test-side primitive for
// observing another goroutine's progress without sleeps.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %s", what)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// blockPublish arms the PublishDelay fault point with a gated hook:
// the returned entered channel reports a publish reaching the point,
// and the release function unblocks it (idempotent via sync.Once).
func blockPublish() (entered chan struct{}, release func(), disarm func()) {
	entered = make(chan struct{}, 64)
	gate := make(chan struct{})
	var once sync.Once
	disarm = faultinject.Arm(faultinject.PublishDelay, func() error {
		entered <- struct{}{}
		<-gate
		return nil
	})
	return entered, func() { once.Do(func() { close(gate) }) }, disarm
}

// TestServiceConcurrentBatchesBitIdentical is the equivalence pin for
// concurrent writers: batches that arrive while a publish is in flight
// wait for the commit turn and commit one by one — one commit, one
// epoch each — and the assignments are bit-identical to replaying the
// same batches serially in the observed order on a service that never
// saw concurrency.
func TestServiceConcurrentBatchesBitIdentical(t *testing.T) {
	d := serviceDataset(61)
	cfg := equivCoreConfig(2)
	svc, err := iuad.Open(d.Corpus, iuad.WithConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	const nBatches, batchSize = 8, 3
	papers := streamProbes(d, "group", nBatches*batchSize)
	batches := make([][]iuad.Paper, nBatches)
	for b := range batches {
		batches[b] = papers[b*batchSize : (b+1)*batchSize]
	}

	// Stall the first publish so every other batch parks behind it,
	// waiting for the commit turn.
	entered, release, disarm := blockPublish()
	defer disarm()
	defer release()

	results := make([][][]iuad.Assignment, nBatches)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		res, err := svc.AddPapers(context.Background(), batches[0])
		if err != nil {
			t.Errorf("first batch: %v", err)
		}
		results[0] = res
	}()
	<-entered // the first batch holds the turn, stalled inside its publish
	for b := 1; b < nBatches; b++ {
		wg.Add(1)
		before := svc.Ingest().Depth
		go func(b int) {
			defer wg.Done()
			res, err := svc.AddPapers(context.Background(), batches[b])
			if err != nil {
				t.Errorf("batch %d: %v", b, err)
			}
			results[b] = res
		}(b)
		waitUntil(t, "batch parked", func() bool { return svc.Ingest().Depth > before })
	}
	disarm() // later publishes run free; only the stalled one holds
	release()
	wg.Wait()

	ist := svc.Ingest()
	if got := svc.Stats(); ist.Commits != nBatches || got.Epoch != nBatches {
		t.Fatalf("%d commits, epoch %d for %d batches: want one commit and one epoch per batch",
			ist.Commits, got.Epoch, nBatches)
	}

	// Recover the observed global order from the assigned paper IDs and
	// replay it serially on a fresh service.
	order := make([]int, nBatches)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool {
		return results[order[i]][0][0].Slot.Paper < results[order[j]][0][0].Slot.Paper
	})
	ref, err := iuad.Open(d.Corpus, iuad.WithConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	for _, b := range order {
		want, err := ref.AddPapers(context.Background(), batches[b])
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			for j := range want[i] {
				a, g := want[i][j], results[b][i][j]
				if a.Slot != g.Slot || a.Vertex != g.Vertex || a.Created != g.Created ||
					math.Float64bits(a.Score) != math.Float64bits(g.Score) {
					t.Fatalf("batch %d paper %d slot %d: serial %+v, concurrent %+v", b, i, j, a, g)
				}
			}
		}
	}
}

// TestServiceOverloadSheds pins the backpressure contract end to end:
// with a slow publish holding the queue at its bound, further
// AddPapers reject with *OverloadedError (nothing ingested), while
// readers — contention accounting included — keep answering from the
// last published epoch. (The subtest name is kept from when a sharded
// layout existed.)
func TestServiceOverloadSheds(t *testing.T) {
	d := serviceDataset(67)
	t.Run("shards=1", func(t *testing.T) {
		svc, err := iuad.Open(d.Corpus, iuad.WithConfig(equivCoreConfig(2)),
			iuad.WithIngestConfig(iuad.IngestConfig{MaxQueued: 4, RetryAfter: 250 * time.Millisecond}))
		if err != nil {
			t.Fatal(err)
		}
		defer svc.Close()
		probes := streamProbes(d, "shed", 5)

		entered, release, disarm := blockPublish()
		defer disarm()
		defer release()

		var wg sync.WaitGroup
		submit := func(ps []iuad.Paper) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := svc.AddPapers(context.Background(), ps); err != nil {
					t.Errorf("admitted batch failed: %v", err)
				}
			}()
		}
		submit(probes[0:2]) // leader: commits, stalls in publish (depth 2)
		<-entered
		submit(probes[2:4]) // parks (depth 4 == bound)
		waitUntil(t, "follower parked", func() bool { return svc.Ingest().Depth == 4 })

		_, err = svc.AddPapers(context.Background(), probes[4:5])
		var ov *iuad.OverloadedError
		if !errors.As(err, &ov) {
			t.Fatalf("overflow AddPapers = %v, want *OverloadedError", err)
		}
		if ov.Depth != 4 || ov.Limit != 4 || ov.RetryAfter != 250*time.Millisecond {
			t.Fatalf("overload detail %+v", ov)
		}

		// Readers never block on the stalled publish: the epoch
		// published before the stall answers everything.
		st := svc.Stats()
		if st.Epoch != 0 || st.StreamedPapers != 0 {
			t.Fatalf("stalled publish leaked state to readers: %+v", st)
		}
		if _, err := svc.Author(0); err != nil {
			t.Fatalf("reader blocked or failed during stalled publish: %v", err)
		}
		if got := svc.AuthorsByName(d.Corpus.Paper(0).Authors[0]); len(got) == 0 {
			t.Fatal("name query empty during stalled publish")
		}
		if cs := svc.Contention(); cs.Publishes != 0 {
			t.Fatalf("stalled publish leaked into the contention accounting: %+v", cs)
		}

		disarm()
		release()
		wg.Wait()
		ist := svc.Ingest()
		if ist.Depth != 0 || ist.RejectedBatches != 1 || ist.AdmittedPapers != 4 {
			t.Fatalf("post-drain ingest stats %+v", ist)
		}
		if st := svc.Stats(); st.StreamedPapers != 4 {
			t.Fatalf("drained %d streamed papers, want 4 (shed batch must not land)", st.StreamedPapers)
		}
	})
}

// TestServiceAddPapersCancel pins the cancellation contract: a context
// cancelled before its batch reaches a commit withdraws the batch —
// ctx.Err() comes back wrapped in *CanceledError and NO partial epoch
// is ever published.
func TestServiceAddPapersCancel(t *testing.T) {
	d := serviceDataset(71)
	svc, err := iuad.Open(d.Corpus, iuad.WithConfig(equivCoreConfig(2)))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	probes := streamProbes(d, "cancel", 4)

	// Already-cancelled context: rejected before admission.
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = svc.AddPapers(dead, probes[0:2])
	var ce *iuad.CanceledError
	if !errors.As(err, &ce) || !errors.Is(err, context.Canceled) {
		t.Fatalf("dead-ctx AddPapers = %v, want *CanceledError wrapping context.Canceled", err)
	}
	if st := svc.Stats(); st.Epoch != 0 || st.StreamedPapers != 0 {
		t.Fatalf("dead-ctx batch left state: %+v", st)
	}

	// Mid-flight: cancel while the batch is parked behind a stalled
	// publish — withdrawn, never ingested.
	entered, release, disarm := blockPublish()
	defer disarm()
	defer release()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := svc.AddPapers(context.Background(), probes[0:2]); err != nil {
			t.Errorf("leader: %v", err)
		}
	}()
	<-entered
	ctx, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	parked := make(chan error, 1)
	go func() {
		_, err := svc.AddPapers(ctx, probes[2:4])
		parked <- err
	}()
	waitUntil(t, "batch parked", func() bool { return svc.Ingest().Depth == 4 })
	cancel2()
	// The withdrawal must complete while the publish is still stalled —
	// proof the cancelled batch did not wait for (or join) any epoch.
	err = <-parked
	if !errors.As(err, &ce) || !errors.Is(err, context.Canceled) {
		t.Fatalf("parked AddPapers = %v, want *CanceledError wrapping context.Canceled", err)
	}
	disarm()
	release()
	wg.Wait()
	if st := svc.Stats(); st.Epoch != 1 || st.StreamedPapers != 2 {
		t.Fatalf("after withdraw: %+v, want epoch 1 with the leader's 2 papers only", st)
	}
	// Two cancellations so far: the dead-ctx batch and the withdrawal.
	if ist := svc.Ingest(); ist.CanceledBatches != 2 {
		t.Fatalf("ingest stats %+v", ist)
	}
}

// TestServiceCloseDrainsConcurrentIngest is the shutdown race pin,
// meant for -race: Close racing a storm of AddPapers stops admission,
// flushes every admitted batch, and snapshots the fully-drained state.
// Every batch either lands completely (and survives the snapshot) or
// reports ErrClosed having ingested nothing. Double Close is a no-op.
func TestServiceCloseDrainsConcurrentIngest(t *testing.T) {
	d := serviceDataset(73)
	snap := filepath.Join(t.TempDir(), "drain.snap")
	svc, err := iuad.Open(d.Corpus, iuad.WithConfig(equivCoreConfig(2)), iuad.WithSnapshot(snap))
	if err != nil {
		t.Fatal(err)
	}

	const writers, batchesPer, perBatch = 4, 3, 2
	var landed atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		probes := streamProbes(d, fmt.Sprintf("drain%d", g), batchesPer*perBatch)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := 0; b < batchesPer; b++ {
				_, err := svc.AddPapers(context.Background(), probes[b*perBatch:(b+1)*perBatch])
				switch {
				case err == nil:
					landed.Add(perBatch)
				case errors.Is(err, iuad.ErrClosed):
					// lost the admission race to Close; nothing ingested
				default:
					t.Errorf("unexpected AddPapers error: %v", err)
				}
			}
		}()
	}
	waitUntil(t, "first admission", func() bool { return svc.Ingest().AdmittedBatches > 0 })
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if err := svc.Close(); err != nil {
		t.Fatalf("second Close = %v, want nil", err)
	}
	if _, err := svc.AddPapers(context.Background(), streamProbes(d, "late", 1)); !errors.Is(err, iuad.ErrClosed) {
		t.Fatalf("post-Close AddPapers = %v, want ErrClosed", err)
	}
	if ist := svc.Ingest(); ist.Depth != 0 {
		t.Fatalf("Close returned with depth %d", ist.Depth)
	}

	restored, err := iuad.Open(nil, iuad.WithSnapshot(snap))
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	if st := restored.Stats(); int64(st.StreamedPapers) != landed.Load() {
		t.Fatalf("snapshot has %d streamed papers, %d batches reported success", st.StreamedPapers, landed.Load())
	}
}

// TestServiceSnapshotWriteFaultCloseRetryable: an injected snapshot
// write error fails Close without marking the service closed, so a
// later Close retries the save and succeeds — no silent data loss.
func TestServiceSnapshotWriteFaultCloseRetryable(t *testing.T) {
	d := serviceDataset(83)
	snap := filepath.Join(t.TempDir(), "fault.snap")
	svc, err := iuad.Open(d.Corpus, iuad.WithConfig(equivCoreConfig(2)), iuad.WithSnapshot(snap))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.AddPapers(context.Background(), streamProbes(d, "fault", 2)); err != nil {
		t.Fatal(err)
	}

	boom := errors.New("injected disk failure")
	disarm := faultinject.Arm(faultinject.SnapshotWrite, func() error { return boom })
	if err := svc.Close(); !errors.Is(err, boom) {
		disarm()
		t.Fatalf("Close under snapshot fault = %v, want injected error", err)
	}
	disarm()
	if err := svc.Close(); err != nil {
		t.Fatalf("retried Close = %v", err)
	}
	restored, err := iuad.Open(nil, iuad.WithSnapshot(snap))
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	if st := restored.Stats(); st.StreamedPapers != 2 {
		t.Fatalf("retried snapshot lost data: %+v", st)
	}
}

// TestServiceInvalidBatchAtomic: validation happens before admission,
// so a malformed paper anywhere in the batch means NOTHING from the
// batch is ingested — no partial epoch, no valid-prefix leak.
func TestServiceInvalidBatchAtomic(t *testing.T) {
	d := serviceDataset(89)
	svc, err := iuad.Open(d.Corpus, iuad.WithConfig(equivCoreConfig(2)))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	batch := streamProbes(d, "valid", 2)
	batch = append(batch, iuad.Paper{Title: "no authors at all"})
	if _, err := svc.AddPapers(context.Background(), batch); err == nil {
		t.Fatal("invalid batch accepted")
	}
	if st := svc.Stats(); st.Epoch != 0 || st.StreamedPapers != 0 {
		t.Fatalf("invalid batch leaked a prefix: %+v", st)
	}
	if ist := svc.Ingest(); ist.AdmittedBatches != 0 {
		t.Fatalf("invalid batch was admitted: %+v", ist)
	}
}
