package iuad

import (
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"iuad/internal/bib"
	"iuad/internal/core"
	"iuad/internal/ingestq"
	"iuad/internal/netstats"
	"iuad/internal/wal"
)

// Service is the serving-first face of IUAD: a concurrency-safe façade
// over a fitted Pipeline with a lock-free query API and a serialized,
// batched write API.
//
// # Read/write contract
//
// Writers (AddPaper / AddPapers) are serialized by an internal mutex;
// after each write batch the service publishes a new immutable view —
// an epoch — and swaps it in with a single atomic pointer store.
// Readers (ResolveSlot, Author, Coauthors, AuthorsByName, Stats) load
// that pointer once and answer entirely from the immutable epoch they
// got: no lock, no blocking, and never a partially-applied write. A
// reader may observe the epoch from just before a concurrent write —
// never a torn one. See DESIGN.md §8.
//
// Construct a Service with Open (corpus in, fitted service out) or
// NewService (wrap an already-fitted Pipeline).
type Service struct {
	mu           sync.Mutex // serializes writers and pins snapshots
	pl           *core.Pipeline
	pub          *core.ViewPublisher
	q            *ingestq.Queue  // admission control + commit turn (DESIGN.md §12)
	net          *netstats.Cache // epoch-keyed analytics (DESIGN.md §13)
	snapshotPath string
	closed       bool

	// Crash-safe continuous durability (WithJournal; DESIGN.md §14).
	journal      *wal.Journal
	journalBase  string            // base-snapshot path inside the journal dir
	jrec         *wal.ReplayReport // what recovery replayed, nil when not journaled
	compactEvery int               // JournalConfig.CompactEvery (0 = size-tiered trigger)
	compactMu    sync.Mutex        // one compaction at a time; taken before mu
	baseBytes    atomic.Int64      // size of the base on disk (0 = none yet)
	compacting   atomic.Bool       // a compaction is between its cut and its retire
	compactFails atomic.Int64
	compactErr   atomic.Pointer[string]
	compactLast  atomic.Pointer[CompactionReport]
	closedA      atomic.Bool // lock-free mirror of closed for /healthz
}

// Stats is the point-in-time summary served by Service.Stats.
type Stats = core.ServiceStats

// Author is the query API's author record: one conjectured real-world
// author (a GCN vertex) with its attributed papers and the career
// aggregates the collaboration-network literature queries — active
// years and publishing venues.
type Author struct {
	ID   int    `json:"id"`
	Name string `json:"name"`
	// Papers is sorted ascending; IDs resolve via Service.Paper.
	Papers []PaperID `json:"papers"`
	// FirstYear/LastYear span the author's dated papers (0 = no dated
	// papers).
	FirstYear int `json:"first_year"`
	LastYear  int `json:"last_year"`
	// Venues lists the author's distinct publishing venues, most
	// frequent first (ties lexicographic).
	Venues []string `json:"venues"`
	// Coauthors is the author's degree in the collaboration network.
	Coauthors int `json:"coauthors"`
}

// options collects the functional Open/NewService configuration.
type options struct {
	cfg          Config
	cfgSet       bool
	workers      int
	workersSet   bool
	snapshotPath string
	ingest       ingestq.Config
	journalDir   string
	journal      wal.Config
}

// Option configures Open and NewService.
type Option func(*options)

// WithConfig replaces the pipeline configuration used when Open fits a
// corpus (default: DefaultConfig). WithWorkers applies on top.
func WithConfig(cfg Config) Option {
	return func(o *options) { o.cfg = cfg; o.cfgSet = true }
}

// WithWorkers bounds the pipeline's worker pool. Results are
// bit-identical for every value; the knob only changes wall time.
func WithWorkers(n int) Option {
	return func(o *options) { o.workers = n; o.workersSet = true }
}

// WithSnapshot binds the service to a snapshot file: Open loads it
// instead of refitting when it exists (the corpus argument may then be
// nil), and Close writes the current state back to it atomically
// (write to a temp file, then rename). A file that exists but does not
// load is refused with *SnapshotError, never refit over.
func WithSnapshot(path string) Option {
	return func(o *options) { o.snapshotPath = path }
}

// WithJournal turns on crash-safe continuous durability (DESIGN.md
// §14): dir holds a base snapshot plus a write-ahead batch journal.
// Every committed ingest batch is journaled — checksummed and fsynced
// per the configured policy — BEFORE it lands in memory or is acked,
// so an acked AddPapers survives kill -9, not just a clean Close; the
// next batch's record also carries the vertex each of its slots was
// assigned to. Open loads the newest base snapshot from dir (fitting
// the corpus only when none exists yet) and replays the journal on
// top of it: each batch whose assignments were recorded is applied by
// them without scoring, the last batch is scored again, and the state
// is bit-identical to a process that never crashed.
// When the journal has grown to 1/8 of the base snapshot's bytes a
// background compaction writes a fresh base — encoded from a pinned
// epoch beside the commits, not under the write lock — and retires the
// segments it covers, bounding recovery time at replaying about an
// eighth of the base. Close compacts, so a clean shutdown restarts
// with an empty journal.
//
// The directory admits ONE live service at a time: a second Open
// fails fast with ErrJournalLocked. Mutually exclusive with
// WithSnapshot (the journal owns its own base snapshot).
func WithJournal(dir string) Option {
	return func(o *options) { o.journalDir = dir }
}

// WithJournalConfig is WithJournal with explicit tuning: fsync policy
// (default FsyncPerCommit), grouped-fsync cadence, segment roll size,
// and CompactEvery (0, the default, is the size-tiered trigger of
// WithJournal; positive compacts every that many batches instead;
// negative disables automatic compaction).
func WithJournalConfig(dir string, cfg JournalConfig) Option {
	return func(o *options) { o.journalDir = dir; o.journal = cfg }
}

// WithIngestConfig configures the ingest admission queue: MaxQueued
// bounds it in papers (admitted but not yet committed; default 1024)
// and RetryAfter is the backoff hint (default 1s). Past the bound
// AddPapers rejects immediately with *OverloadedError — the
// backpressure signal HTTP servers map to 429 — so heap use under
// overload stays bounded instead of queueing without limit. Zero
// fields take the defaults. See DESIGN.md §12.
func WithIngestConfig(cfg ingestq.Config) Option {
	return func(o *options) { o.ingest = cfg }
}

// Open builds a serving Service. With a snapshot option whose file
// exists, the service is restored from it — no EM re-run, and the
// restored service answers every query and ingest bit-identically to
// the one that saved it. Otherwise the frozen corpus is disambiguated
// with the configured pipeline (this is the expensive fit path).
//
//	svc, err := iuad.Open(corpus, iuad.WithWorkers(8), iuad.WithSnapshot("iuad.snap"))
//	defer svc.Close()
func Open(corpus *Corpus, opts ...Option) (*Service, error) {
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	if o.journalDir != "" {
		if o.snapshotPath != "" {
			return nil, errors.New("iuad: WithJournal and WithSnapshot are mutually exclusive (the journal owns its base snapshot)")
		}
		return openJournaled(corpus, &o)
	}
	pl, epoch, err := loadOrFit(corpus, o.snapshotPath, &o)
	if err != nil {
		return nil, err
	}
	return newService(pl, epoch, &o), nil
}

// loadOrFit loads the base snapshot at path, or fits the corpus when
// there is none (no path, or no file: the fit is deterministic, so
// journaled batches replay onto an identical state). Any other load
// failure is returned, never refit over.
func loadOrFit(corpus *Corpus, path string, o *options) (*core.Pipeline, uint64, error) {
	if path != "" {
		pl, epoch, err := core.LoadServiceSnapshot(path)
		switch {
		case err == nil:
			return pl, epoch, nil
		case !errors.Is(err, fs.ErrNotExist):
			return nil, 0, fmt.Errorf("iuad: load snapshot: %w", err)
		}
	}
	pl, err := fitCorpus(corpus, o)
	if errors.Is(err, ErrNoCorpus) && path != "" {
		err = fmt.Errorf("%w: no snapshot at %s", err, path)
	}
	return pl, 0, err
}

// fitCorpus runs the expensive fit path on a frozen corpus.
func fitCorpus(corpus *Corpus, o *options) (*core.Pipeline, error) {
	if corpus == nil {
		return nil, ErrNoCorpus
	}
	if !corpus.Frozen() {
		return nil, ErrNotFrozen
	}
	cfg := DefaultConfig()
	if o.cfgSet {
		cfg = o.cfg
	}
	if o.workersSet {
		cfg.Workers = o.workers
	}
	return core.Run(corpus, cfg)
}

// openJournaled is the WithJournal recovery path: lock the journal
// directory, load the newest base snapshot (or fit the corpus when
// the directory is fresh), then replay the journaled batches on top —
// exactly the commits a crashed process acked after its last base.
// A batch whose outcome the next record carries is registered under
// those decisions; the rest are scored by the same deterministic
// ingest code. Either way the recovered assignments are bit-identical
// to never having crashed.
func openJournaled(corpus *Corpus, o *options) (*Service, error) {
	j, err := wal.Open(o.journalDir, o.journal)
	if err != nil {
		return nil, err
	}
	ok := false
	defer func() {
		if !ok {
			j.Close()
		}
	}()
	// The lock makes the directory ours: a base write a crash cut short
	// left its temp file behind, and no one else will delete it.
	core.RemoveAtomicTemps(j.Dir())
	base := j.BasePath()
	pl, epoch, err := loadOrFit(corpus, base, o)
	if err != nil {
		return nil, err
	}
	s := newService(pl, epoch, o)
	s.journal = j
	s.journalBase = base
	s.compactEvery = o.journal.CompactEvery
	s.baseBytes.Store(snapshotBytes(base))
	var last [][]core.Assignment
	jrep, err := j.RecoverOutcomes(epoch, func(epoch uint64, batch []bib.Paper, outcome []int) (err error) {
		last, err = s.replayBatch(epoch, batch, outcome)
		return err
	})
	if err != nil {
		s.q.Close()
		return nil, fmt.Errorf("iuad: journal recovery: %w", err)
	}
	if last != nil {
		// The last batch was scored; the next commit's record carries
		// its outcome, so a later recovery does not score it again.
		j.RecordOutcome(s.pub.CapturedEpoch(), outcomeOf(last))
	}
	s.jrec = jrep
	ok = true
	return s, nil
}

// replayBatch applies one journaled batch during recovery and publishes
// it as its epoch, like a live commit. With an outcome the batch is
// registered under the recorded decisions (core.ApplyOutcome, which
// validates every vertex); without one it is scored through AddPapers.
// No lock needed: recovery runs before the service is returned.
func (s *Service) replayBatch(epoch uint64, batch []bib.Paper, outcome []int) ([][]core.Assignment, error) {
	if want := s.pub.CapturedEpoch() + 1; epoch != want {
		return nil, fmt.Errorf("iuad: journal batch publishes epoch %d, service expects %d", epoch, want)
	}
	var res [][]core.Assignment
	var err error
	if outcome != nil {
		if res, err = s.pl.ApplyOutcome(batch, outcome); err != nil {
			return nil, fmt.Errorf("%w: %w", wal.ErrBadOutcome, err)
		}
	} else if res, err = s.pl.AddPapers(context.Background(), batch); err != nil {
		return nil, err
	}
	s.pub.Publish(res)
	return res, nil
}

// outcomeOf flattens a batch's assignments into the journal's outcome:
// the vertex of every slot, in paper then author order.
func outcomeOf(res [][]core.Assignment) []int {
	n := 0
	for _, as := range res {
		n += len(as)
	}
	out := make([]int, 0, n)
	for _, as := range res {
		for _, a := range as {
			out = append(out, a.Vertex)
		}
	}
	return out
}

// NewService wraps an already-fitted pipeline (e.g. one built with
// Disambiguate) in the serving façade at epoch 0; SaveFile then writes
// the base snapshot Open(nil, WithSnapshot(path)) restores. The
// pipeline must not be used directly while the service is serving: the
// service owns all writes from here on.
func NewService(pl *Pipeline, opts ...Option) (*Service, error) {
	if pl == nil || pl.GCN == nil {
		return nil, fmt.Errorf("iuad: NewService needs a fitted pipeline")
	}
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	return newService(pl, 0, &o), nil
}

func newService(pl *core.Pipeline, epoch uint64, o *options) *Service {
	if o.workersSet {
		pl.Cfg.Workers = o.workers
	}
	s := &Service{
		pl:           pl,
		pub:          core.NewViewPublisher(pl, epoch),
		net:          netstats.NewCache(pl.Cfg.Workers),
		snapshotPath: o.snapshotPath,
	}
	s.q = ingestq.New(s.commitBatch, o.ingest)
	return s
}

// AddPaper disambiguates and registers one newly published paper
// (§V-E), publishing a new epoch. It is AddPapers with a batch of one.
func (s *Service) AddPaper(ctx context.Context, p Paper) ([]Assignment, error) {
	res, err := s.AddPapers(ctx, []Paper{p})
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// AddPapers ingests a batch of newly published papers in order and
// publishes one new epoch covering the whole batch. Assignments are
// bit-identical to ingesting the papers one at a time — batching only
// shares work (one invalidation pass per paper's neighborhood, one
// profile warm-up per paper, one epoch publish per batch) — so batch
// boundaries are a throughput choice, not a semantic one.
//
// The batch is atomic: it is validated up front and either publishes
// whole — as exactly one epoch of its own, one journal record when
// journaled (DESIGN.md §12) — or fails having ingested nothing.
// Failure modes are typed:
//
//   - *OverloadedError: the bounded ingest queue (WithIngestConfig) is
//     past its high-water mark; retry after the hint. HTTP servers map
//     this to 429 with a Retry-After header.
//   - *CanceledError (unwrapping ctx.Err()): ctx was cancelled while
//     the batch was still queued; it was withdrawn without ingesting
//     anything and no epoch carries any part of it. Once the batch's
//     commit has started it runs to completion even if ctx dies.
//   - ErrClosed: Close has shut the write API down.
func (s *Service) AddPapers(ctx context.Context, batch []Paper) ([][]Assignment, error) {
	// Validate before admission so a malformed paper cannot fail a
	// commit mid-batch: admitted batches always commit whole.
	for i := range batch {
		if err := batch[i].Validate(); err != nil {
			return nil, fmt.Errorf("iuad: batch paper %d: %w", i, err)
		}
	}
	res, err := s.q.Submit(ctx, batch)
	if errors.Is(err, ingestq.ErrClosed) {
		return res, ErrClosed
	}
	return res, err
}

// commitBatch is the ingest queue's CommitFunc: it applies one
// caller's admitted batch under the write lock as one journal record
// and one epoch. The queue calls it from one goroutine at a time — the
// holder of the commit turn — which preserves the serialized-ingest
// bit-identity contract. The batch is already validated and past
// cancellation, so it runs with a background context: an admitted
// batch publishes whole or not at all.
func (s *Service) commitBatch(batch []bib.Paper) ([][]core.Assignment, error) {
	t0 := time.Now()
	s.mu.Lock()
	s.pub.AddIngestWait(time.Since(t0).Nanoseconds())
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	// Write-ahead: journal the batch BEFORE it touches memory. A
	// failed append fails the whole batch here — before the ack, with
	// no in-memory mutation to unwind — so a batch is acked only if
	// its journal record is durable per the configured policy.
	var tok wal.AppendToken
	epoch := s.pub.CapturedEpoch() + 1
	if s.journal != nil {
		var jerr error
		tok, jerr = s.journal.Append(epoch, batch)
		if jerr != nil {
			s.mu.Unlock()
			return nil, &JournalError{Err: jerr}
		}
	}
	res, err := s.pl.AddPapers(context.Background(), batch)
	switch {
	case s.journal == nil:
	case err == nil:
		// The next record carries these decisions, so recovery applies
		// them instead of scoring the batch again.
		s.journal.RecordOutcome(epoch, outcomeOf(res))
	case len(res) == 0:
		// Nothing landed in memory: withdraw the record so recovery
		// cannot replay a batch this process never applied. (With a
		// committed prefix the record must stay — the prefix is in
		// memory; up-front validation makes that path unreachable
		// for admitted batches.)
		s.journal.Rollback(tok)
	}
	if len(res) > 0 {
		// Publish under the lock: the commit turn already orders every
		// epoch, so the lock only makes Pin, Save and Close see a
		// whole one.
		s.pub.Publish(res)
	}
	compact := err == nil && s.journal != nil && s.compactionDue()
	s.mu.Unlock()
	if compact && s.compactMu.TryLock() {
		// Base compaction runs off the commit path: ingest keeps acking
		// against the journal while the fresh base is encoded and
		// written. A failure is counted and the next commit retries.
		go func() {
			defer s.compactMu.Unlock()
			// Ask again under compactMu: a compaction that finished
			// between the check above and TryLock has already relieved
			// the pressure this commit saw.
			if s.compactionDue() {
				_ = s.compactHeld() // recorded in Compaction()
			}
		}()
	}
	return res, err
}

// compactRatio is the size-tiered trigger: a compaction starts when the
// journal holds 1/compactRatio of the base's bytes, which bounds write
// amplification at compactRatio+1 and a crash's replay at that share.
const compactRatio = 8

// compactionDue decides, after a journaled commit, whether to start a
// compaction. No base on disk counts as 0 bytes, so the first commit
// after a fresh fit writes one. The journal's pressure only drops when
// a compaction retires, so a failed one leaves the trigger armed.
func (s *Service) compactionDue() bool {
	batches, bytes := s.journal.SinceBase()
	switch {
	case s.compactEvery < 0:
		return false
	case s.compactEvery > 0:
		return batches >= int64(s.compactEvery)
	}
	return bytes*compactRatio >= s.baseBytes.Load()
}

// snapshotBytes is the size of the snapshot file at path (0 when
// there is none).
func snapshotBytes(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
}

// Compact writes a fresh base snapshot into the journal directory and
// retires the journal segments it covers, returning once both are done
// (DESIGN.md §14). The write lock is held only to pin the published
// epoch E and cut the journal there; the base is encoded from the
// pinned view beside later commits, renamed into place, and only then
// are the segments keyed below E deleted — so a crash at any point
// recovers from whichever base is on disk, and a failed base write
// merely leaves a longer journal for the next attempt. One compaction
// runs at a time. Errors: ErrClosed after Close; journaled services only.
func (s *Service) Compact() error {
	if s.journal == nil {
		return errors.New("iuad: Compact needs a journaled service (WithJournal)")
	}
	s.compactMu.Lock()
	defer s.compactMu.Unlock()
	return s.compactHeld()
}

// compactHeld is one compaction; the caller holds compactMu.
func (s *Service) compactHeld() (err error) {
	s.compacting.Store(true)
	defer func() {
		s.compacting.Store(false)
		if err != nil {
			s.compactFails.Add(1)
			msg := err.Error()
			s.compactErr.Store(&msg)
		}
	}()
	t0 := time.Now()
	s.mu.Lock()
	locked := time.Now()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	pin := s.pub.Pin()
	rep := CompactionReport{Epoch: pin.Epoch()}
	_, rep.JournalBytesAtStart = s.journal.SinceBase()
	err = s.journal.Cut(rep.Epoch)
	rep.LockHeldUs = float64(time.Since(locked)) / float64(time.Microsecond)
	s.mu.Unlock()
	if err != nil {
		return err
	}
	if err = pin.SaveFile(s.journalBase); err != nil {
		return err
	}
	if err = s.journal.Retire(rep.Epoch); err != nil {
		return err
	}
	rep.BaseBytes = snapshotBytes(s.journalBase)
	s.baseBytes.Store(rep.BaseBytes)
	rep.DurationMs = float64(time.Since(t0)) / float64(time.Millisecond)
	s.compactLast.Store(&rep)
	return nil
}

// Ingest returns the ingest queue's accounting: current depth against
// the admission bound, admitted/rejected/canceled/commit counters, and
// queue-wait / publish-lag latency summaries.
func (s *Service) Ingest() ingestq.Stats { return s.q.Stats() }

// Stats returns the sizes of the currently published epoch.
func (s *Service) Stats() Stats { return s.pub.Current().Stats() }

// Epoch returns the current publish epoch (one publish per write
// batch; readers can use it to detect progress).
func (s *Service) Epoch() uint64 { return s.pub.Current().Epoch() }

// ResolveSlot answers "who wrote the Index-th name of this paper": the
// author the slot is assigned to in the published network.
func (s *Service) ResolveSlot(slot Slot) (Author, error) {
	v := s.pub.Current()
	id, ok := v.ResolveSlot(slot)
	if !ok {
		return Author{}, fmt.Errorf("%w: paper %d index %d", ErrUnknownSlot, slot.Paper, slot.Index)
	}
	a, _ := authorAt(v, id)
	return a, nil
}

// Author returns the author record for a vertex ID (as returned by
// assignments, ResolveSlot, Coauthors or AuthorsByName).
func (s *Service) Author(id int) (Author, error) {
	v := s.pub.Current()
	a, ok := authorAt(v, id)
	if !ok {
		return Author{}, fmt.Errorf("%w: %d", ErrUnknownAuthor, id)
	}
	return a, nil
}

// Coauthors returns the authors adjacent to id in the published
// collaboration network, ascending by ID. Records are fully
// materialized (papers, years, venues), so the cost is proportional to
// the neighbors' total paper count — on hub authors of a scale-free
// network that is the expensive read; callers that only need IDs or
// degrees should take Author(id).Coauthors instead.
func (s *Service) Coauthors(id int) ([]Author, error) {
	v := s.pub.Current()
	nbrs, ok := v.Coauthors(id)
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrUnknownAuthor, id)
	}
	out := make([]Author, 0, len(nbrs))
	for _, u := range nbrs {
		if a, ok := authorAt(v, int(u)); ok {
			out = append(out, a)
		}
	}
	return out, nil
}

// AuthorsByName returns every published author carrying the exact
// name, ascending by ID — the homonym set the disambiguator split the
// name into. An unknown name yields an empty slice, not an error.
func (s *Service) AuthorsByName(name string) []Author {
	v := s.pub.Current()
	ids := v.VerticesOfName(name)
	out := make([]Author, 0, len(ids))
	for _, id := range ids {
		if a, ok := authorAt(v, int(id)); ok {
			out = append(out, a)
		}
	}
	return out
}

// Paper resolves a published paper record — corpus and streamed papers
// alike. The returned record is shared and must not be mutated.
func (s *Service) Paper(id PaperID) (*Paper, error) {
	p, ok := s.pub.Current().PaperMeta(id)
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrUnknownPaper, id)
	}
	return p, nil
}

// Save writes the base snapshot to w. A service restored from it with
// Open answers every query and ingest bit-identically. Like every
// snapshot of a live service it is encoded from a pinned epoch: writers
// are held out only while the epoch is pinned.
func (s *Service) Save(w io.Writer) error {
	return s.pin().Encode(w)
}

// SaveFile writes the base snapshot to path crash-safely: every file
// is written to a temp name in the target directory, fsynced, then
// renamed into place (and the directory fsynced), so a crash at any
// point leaves either the old snapshot or the new one — never a torn
// file.
func (s *Service) SaveFile(path string) error {
	return s.pin().SaveFile(path)
}

// pin pins the current epoch for a snapshot. Every commit publishes
// under s.mu, so holding it here pins a whole epoch.
func (s *Service) pin() *core.BasePin {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pub.Pin()
}

// Close shuts the write API down in drain order: stop admitting (new
// AddPapers fail, in-flight queued batches are flushed through their
// commits), then — when the service was opened with WithSnapshot —
// persist the fully-drained state to that path, so a process driving
// Close on shutdown restarts exactly where it stopped. Safe to call
// concurrently with AddPapers and idempotent: losers of the admission
// race get ErrClosed, a second Close returns nil without re-saving.
// Reads keep working against the last published epoch.
func (s *Service) Close() error {
	// Drain outside the write lock: the queued batches' commits take
	// s.mu themselves, so holding it here would deadlock the flush.
	s.q.Close()
	// Persist BEFORE marking closed: a failed save (disk full, ...)
	// leaves the service open so a later Close can retry the snapshot
	// instead of reporting success for state that was never written.
	if s.journal != nil {
		// Compact on shutdown, after any compaction still in flight:
		// the successor restarts from a fresh base with an empty
		// journal (zero replay).
		s.compactMu.Lock()
		defer s.compactMu.Unlock()
		if s.closedA.Load() {
			return nil
		}
		if err := s.compactHeld(); err != nil {
			return err
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	switch {
	case s.journal != nil:
		// Closing the journal releases the directory lock for the
		// successor.
		if err := s.journal.Close(); err != nil {
			return err
		}
	case s.snapshotPath != "":
		if err := s.pub.Pin().SaveFile(s.snapshotPath); err != nil {
			return err
		}
	}
	s.closed = true
	s.closedA.Store(true)
	return nil
}

// Closed reports whether Close has completed, without touching the
// write lock — /healthz reads it even while a long commit holds mu.
func (s *Service) Closed() bool { return s.closedA.Load() }

// JournalStats returns the write-ahead journal's accounting (append
// counters, segment sizes, fsync latency histogram) together with the
// compaction status, or nil when the service was opened without
// WithJournal.
func (s *Service) JournalStats() *JournalStats {
	if s.journal == nil {
		return nil
	}
	return &JournalStats{Stats: s.journal.Stats(), CompactionStatus: *s.Compaction()}
}

// Compaction returns where base compaction stands — journal bytes on
// top of the base, whether one is running, failures and the last
// error, and the last completed compaction's report — or nil when the
// service was opened without WithJournal. /healthz serves it.
func (s *Service) Compaction() *CompactionStatus {
	if s.journal == nil {
		return nil
	}
	st := &CompactionStatus{
		InFlight: s.compacting.Load(),
		Failures: s.compactFails.Load(),
		Last:     s.compactLast.Load(),
	}
	_, st.BytesSinceBase = s.journal.SinceBase()
	if msg := s.compactErr.Load(); msg != nil {
		st.LastError = *msg
	}
	return st
}

// JournalRecovery reports what journal recovery replayed when the
// service was opened with WithJournal (nil otherwise): batches and
// papers re-applied on top of the base snapshot, whether a torn tail
// record was truncated, and the recovery wall time.
func (s *Service) JournalRecovery() *ReplayReport { return s.jrec }

// Contention returns the cumulative write-path contention and copy
// accounting (write-lock wait, delta entries copied, flattens) — what
// /metrics serves as "contention" and the benchmark reports as
// core.view.ingest_wait_ms, delta_entries_per_publish and flattens.
func (s *Service) Contention() core.ContentionStats { return s.pub.Contention() }

// Pipeline exposes the underlying fitted pipeline for offline analysis
// (threshold sweeps, evaluation). It must not be mutated — and not
// read concurrently with service writes; the serving query surface is
// the Service API.
func (s *Service) Pipeline() *Pipeline { return s.pl }

// authorAt materializes the Author record of vertex id from one
// immutable view (lock-free; touches nothing owned by the writer).
func authorAt(v *core.View, id int) (Author, bool) {
	name, ok := v.AuthorName(id)
	if !ok {
		return Author{}, false
	}
	papers, _ := v.AuthorPapers(id)
	nbrs, _ := v.Coauthors(id)
	a := Author{
		ID:        id,
		Name:      name,
		Papers:    append([]bib.PaperID(nil), papers...),
		Coauthors: len(nbrs),
	}
	venueCount := make(map[string]int)
	for _, pid := range papers {
		p, ok := v.PaperMeta(pid)
		if !ok {
			continue
		}
		if p.Year != 0 {
			if a.FirstYear == 0 || p.Year < a.FirstYear {
				a.FirstYear = p.Year
			}
			if p.Year > a.LastYear {
				a.LastYear = p.Year
			}
		}
		if p.Venue != "" {
			venueCount[p.Venue]++
		}
	}
	if len(venueCount) > 0 {
		a.Venues = make([]string, 0, len(venueCount))
		for venue := range venueCount {
			a.Venues = append(a.Venues, venue)
		}
		sort.Slice(a.Venues, func(i, j int) bool {
			ci, cj := venueCount[a.Venues[i]], venueCount[a.Venues[j]]
			if ci != cj {
				return ci > cj
			}
			return a.Venues[i] < a.Venues[j]
		})
	}
	return a, true
}
