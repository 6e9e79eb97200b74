// Command iuadserver exposes the iuad.Service query and write API as
// JSON over HTTP — the serving shape of the paper's incremental claim
// (§V-E): fit once, then answer author queries and ingest newly
// published papers with no retraining, restart from a snapshot with no
// EM re-run. The handler itself lives in internal/httpapi so tests can
// run it in-process.
//
// Endpoints:
//
//	GET  /healthz                      liveness (also reports the epoch)
//	GET  /v1/stats                     published network sizes
//	GET  /metrics                      ingest queue, contention, per-endpoint latency
//	GET  /v1/authors?name=Wei+Wang     the homonym set of an exact name
//	GET  /v1/authors/{id}              one author: name, papers, years, venues
//	GET  /v1/authors/{id}/coauthors    the author's collaboration neighbors
//	GET  /v1/authors/{id}/ego?hops=H   bounded-BFS ego subgraph with edge weights
//	GET  /v1/authors/{id}/collaborators?k=K  strongest coauthors + overlap features
//	GET  /v1/authors/{id}/clustering   local clustering coefficient and triangles
//	GET  /v1/network                   whole-graph topology: density, components, degrees
//	GET  /v1/communities               deterministic label-propagation partition
//	GET  /v1/resolve?paper=P&index=I   who wrote the I-th name of paper P
//	GET  /v1/papers/{id}               one published paper record
//	POST /v1/papers                    ingest; body = one paper object or an array
//
// The analytics endpoints (/v1/network, /v1/communities, and the
// ego/collaborators/clustering subresources) are answered from an
// epoch-keyed cache compiled lazily per published epoch (DESIGN.md
// §13): repeat queries on one epoch are a single atomic load, e.g.
//
//	curl localhost:8080/v1/communities
//
// POST bodies are bibliographic records:
//
//	{"title": "...", "venue": "VLDB", "year": 2024, "authors": ["Wei Wang", ...]}
//
// A JSON array of records is ingested as ONE atomic batch: it is
// admitted whole by the bounded ingest queue, committed on its own as
// one epoch publish (and one journal record under -journal), and
// either every paper lands or none does. Overload is a first-class
// answer, not a hang: past the queue's high-water mark (-ingest-queue)
// the server responds 429 with a Retry-After header and the stable
// error envelope {"error":{"code":"overloaded",...}} — clients back
// off and retry the whole batch.
//
// Lifecycle: the service loads -snapshot when the file exists
// (skipping the fit entirely); on SIGINT/SIGTERM the server stops
// admitting, drains in-flight requests and queued ingest batches, and
// persists the fully-drained state back to -snapshot, so the next
// start resumes exactly where this one stopped.
//
// Crash safety: -journal DIR (mutually exclusive with -snapshot)
// turns on the write-ahead batch journal (DESIGN.md §14). Every acked
// ingest batch is journaled before it is applied, so a SIGKILL — or,
// with -fsync percommit, a power cut — loses nothing that was acked:
// the restart replays the journal on top of the base snapshot and
// reproduces the killed process bit for bit. The listener comes up
// BEFORE recovery (requests answer 503 {"code":"starting"} until
// replay finishes), so health probes see the process immediately;
// /healthz flips to 200 with the recovery report once serving.
//
// Run a self-contained demo instance (synthetic corpus, no data files):
//
//	iuadserver -synthetic -addr :8080 -journal /tmp/iuad-wal
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"iuad"
	"iuad/internal/httpapi"
	"iuad/internal/sched"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("iuadserver: ")
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		corpusPth  = flag.String("corpus", "", "JSONL corpus to fit when no snapshot exists")
		snapPath   = flag.String("snapshot", "", "service snapshot: loaded if present, written on shutdown")
		workers    = flag.Int("workers", 0, "worker pool bound (0 = one per logical CPU)")
		synthetic  = flag.Bool("synthetic", false, "fit a small synthetic corpus when no snapshot/corpus is given (demo/smoke)")
		journalDir = flag.String("journal", "", "write-ahead journal directory: crash-safe continuous durability (mutually exclusive with -snapshot)")
		fsyncMode  = flag.String("fsync", "percommit", "journal fsync policy: percommit (power-loss safe), grouped, or off (SIGKILL-safe only)")
		compactN   = flag.Int("compact-every", 0, "base-snapshot compaction trigger: 0 = when the journal reaches 1/8 of the base's bytes (default), N > 0 = every N journaled batches, negative = never")
		ingestQ    = flag.Int("ingest-queue", 0, "ingest admission bound in papers; past it POST /v1/papers answers 429 (0 = default 1024)")
		readTO     = flag.Duration("read-timeout", 30*time.Second, "per-request read deadline (http.Server.ReadTimeout; 0 = unlimited)")
		writeTO    = flag.Duration("write-timeout", 60*time.Second, "per-request write deadline (http.Server.WriteTimeout; covers slow ingests; 0 = unlimited)")
		drainTO    = flag.Duration("drain-timeout", 15*time.Second, "graceful-shutdown bound for in-flight HTTP requests")
		retryAfter = flag.Duration("retry-after", time.Second, "backoff hint carried by 429 overload responses")
	)
	// Ignored: the serving state has one layout. The flag stays because
	// the benchmark's sweep still passes it.
	flag.Int("shards", 1, "ignored (the serving state has one layout)")
	flag.Parse()

	if *journalDir != "" && *snapPath != "" {
		log.Fatal("-journal and -snapshot are mutually exclusive: the journal owns its base snapshot")
	}
	fsync, err := iuad.ParseFsyncPolicy(*fsyncMode)
	if err != nil {
		log.Fatal(err)
	}

	// Listen BEFORE opening the service: journal replay can take a
	// while, and probes should see a live (if 503 "starting") process
	// the moment it exists. Attach atomically flips the full API on.
	api := httpapi.NewPending()
	srv := &http.Server{
		Addr:              *addr,
		Handler:           api,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       *readTO,
		WriteTimeout:      *writeTO,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	log.Printf("listening on %s (recovering)", *addr)

	svc, err := openService(*corpusPth, *snapPath, *journalDir, *workers, *compactN,
		fsync, *synthetic, *ingestQ, *retryAfter)
	if err != nil {
		log.Fatal(err)
	}
	api.Attach(svc)
	st := svc.Stats()
	log.Printf("serving epoch %d: %d papers, %d authors, %d edges",
		st.Epoch, st.Papers, st.Authors, st.Edges)
	if rep := svc.JournalRecovery(); rep != nil {
		log.Printf("journal recovery: %d batches (%d papers) replayed from %d segments on base epoch %d in %.1fms",
			rep.Batches, rep.Papers, rep.Segments, rep.BaseEpoch, float64(rep.WallNs)/1e6)
		if rep.TruncatedTail {
			log.Printf("journal recovery: torn tail truncated at %s offset %d (unacked crash remnant)",
				rep.TruncatedPath, rep.TruncatedOffset)
		}
	}

	select {
	case err := <-errCh:
		log.Fatal(err)
	case <-ctx.Done():
	}
	// Drain order (DESIGN.md §12): stop accepting HTTP work, then let
	// Close stop ingest admission, flush the queued batches, and
	// persist the fully-drained state. A request cancelled by the
	// drain deadline withdraws its queued batch — nothing half-lands.
	log.Print("shutting down: draining requests")
	shutCtx, cancel := context.WithTimeout(context.Background(), *drainTO)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		log.Printf("drain: %v", err)
	}
	if err := svc.Close(); err != nil {
		log.Fatalf("snapshot on shutdown: %v", err)
	}
	switch {
	case *journalDir != "":
		log.Printf("journal compacted; state persisted to %s", *journalDir)
	case *snapPath != "":
		log.Printf("state persisted to %s", *snapPath)
	}
}

// openService builds the Service from (in priority order) a journal
// directory, an existing snapshot, a JSONL corpus, or the synthetic
// demo corpus.
func openService(corpusPath, snapPath, journalDir string, workers, compactN int,
	fsync iuad.FsyncPolicy, synthetic bool, ingestQ int, retryAfter time.Duration) (*iuad.Service, error) {
	opts := []iuad.Option{
		iuad.WithWorkers(workers),
		iuad.WithIngestConfig(iuad.IngestConfig{MaxQueued: ingestQ, RetryAfter: retryAfter}),
	}
	if journalDir != "" {
		opts = append(opts, iuad.WithJournalConfig(journalDir,
			iuad.JournalConfig{Fsync: fsync, CompactEvery: compactN}))
		if _, err := os.Stat(iuad.JournalBasePath(journalDir)); err == nil {
			log.Printf("recovering from journal %s (no refit)", journalDir)
			return iuad.Open(nil, opts...)
		}
	}
	if snapPath != "" {
		opts = append(opts, iuad.WithSnapshot(snapPath))
		if _, err := os.Stat(snapPath); err == nil {
			log.Printf("restoring from snapshot %s (no refit)", snapPath)
			return iuad.Open(nil, opts...)
		}
	}
	var corpus *iuad.Corpus
	switch {
	case corpusPath != "":
		c, err := iuad.LoadCorpusFile(corpusPath)
		if err != nil {
			return nil, err
		}
		c.Freeze()
		corpus = c
		log.Printf("fitting %d papers from %s", corpus.Len(), corpusPath)
	case synthetic:
		scfg := iuad.DefaultSyntheticConfig()
		scfg.Seed = 7
		scfg.Authors = 300
		scfg.Communities = 8
		corpus = iuad.GenerateSynthetic(scfg).Corpus
		log.Printf("fitting synthetic demo corpus (%d papers)", corpus.Len())
	default:
		return nil, errors.New("nothing to serve: pass -corpus, -synthetic, -snapshot pointing at an existing file, or -journal pointing at a directory that holds a base snapshot")
	}
	cfg := iuad.DefaultConfig()
	if corpus.Len() < 2000 {
		// Small corpora: train on more pairs and skip the (noisy at this
		// scale) embedding-heavy defaults; the demo stays fast.
		cfg.SampleRate = 0.5
		cfg.Embedding.Dim = 16
		cfg.Embedding.Epochs = 2
	}
	// One line on where the fit's seconds went. The embedding fit is the
	// largest stage of a cold start and the only one -workers cannot
	// split; it uses a second processor when there is one.
	var fit struct{ scn, embeddings, stage2 time.Duration }
	cfg.StageHook = func(stage string, d time.Duration) {
		switch stage {
		case "scn":
			fit.scn += d
		case "embeddings":
			fit.embeddings += d
		default:
			fit.stage2 += d
		}
	}
	opts = append(opts, iuad.WithConfig(cfg))
	svc, err := iuad.Open(corpus, opts...)
	if err == nil {
		log.Printf("fit: scn %.3fs embeddings %.3fs stage2 %.3fs total %.3fs, workers %d",
			fit.scn.Seconds(), fit.embeddings.Seconds(), fit.stage2.Seconds(),
			(fit.scn + fit.embeddings + fit.stage2).Seconds(), sched.Workers(workers))
	}
	return svc, err
}
