package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"syscall"
)

// sweep is the re-baseline ROADMAP asks for: does -workers, -shards, the
// client's batch size or journal compaction buy or cost anything on this
// box's cores? It reuses
// the cold start and an ingest slice of the workloads, and
// only sets flags the server already has. Informational: nothing here
// is gated, and the table goes into bench/README.md by hand.
func sweep(bin string, seed int64) int {
	const ingestSeconds = 3.0 // nominal: 6,000 papers per point
	fmt.Printf("%-8s %-7s %-6s %-8s %10s %12s %12s %12s\n", "workers", "shards", "batch", "compact", "fit_s", "papers/s", "ack_p50_ms", "ack_p99_ms")
	point := func(workers, shards, batch, compactEvery int) error {
		r, err := newRun(bin, shape{name: "sweep", coldStarts: 1}, seed, fullScale)
		if err != nil {
			return err
		}
		defer removeScratch(r.dir)
		defer killAll()
		r.serverArgs = []string{"-workers", strconv.Itoa(workers), "-shards", strconv.Itoa(shards), "-compact-every", strconv.Itoa(compactEvery)}
		r.batch = batch
		srv, err := r.startFit(0, filepath.Join(r.dir, "journal"))
		if err != nil {
			return err
		}
		r.ingestSlice(srv, r.take(ingestPapers(ingestSeconds, batch)))
		srv.stop(syscall.SIGKILL)
		if f := r.t.failed.Load(); f > 0 {
			return fmt.Errorf("%d operations failed", f)
		}
		acks := r.ingest.acks.sorted()
		fmt.Printf("%-8d %-7d %-6d %-8d %10.3f %12.0f %12.3f %12.2f\n", workers, shards, batch, compactEvery,
			r.fits[0], r.ingest.rates[0], acks.quantile(0.5), acks.quantile(0.99))
		return nil
	}
	for _, workers := range []int{1, 2, 4} {
		for _, shards := range []int{1, 2, 8} {
			if err := point(workers, shards, ingestBatch, 0); err != nil {
				fmt.Fprintf(os.Stderr, "bench: sweep: %v\n", err)
				return 1
			}
		}
	}
	for _, batch := range []int{1, 16, 128} {
		if err := point(0, 1, batch, 0); err != nil {
			fmt.Fprintf(os.Stderr, "bench: sweep: %v\n", err)
			return 1
		}
	}
	// What the default compaction threshold (0 = 64 batches) costs the
	// write path: the same point with compaction off.
	if err := point(0, 1, ingestBatch, -1); err != nil {
		fmt.Fprintf(os.Stderr, "bench: sweep: %v\n", err)
		return 1
	}
	return 0
}
