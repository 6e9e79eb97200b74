package iuad

import (
	"errors"

	"iuad/internal/core"
	"iuad/internal/ingestq"
	"iuad/internal/snapshot"
	"iuad/internal/wal"
)

// OverloadedError is the backpressure rejection from the bounded
// ingest queue (see WithIngestConfig): the batch was not admitted and
// nothing was ingested. Carries the queue depth, the admission limit,
// and the Retry-After hint that cmd/iuadserver surfaces as HTTP 429
// with a Retry-After header. Match with errors.As.
type OverloadedError = ingestq.OverloadedError

// CanceledError reports that AddPapers' context was cancelled while
// the batch was still queued: it was withdrawn, nothing was ingested,
// and no epoch carries any part of it. Unwrap yields the ctx error.
// Match with errors.As.
type CanceledError = ingestq.CanceledError

// IngestStats is the ingest queue's accounting, served by
// Service.Ingest and the HTTP /metrics endpoint.
type IngestStats = ingestq.Stats

// IngestConfig parameterizes the ingest queue (WithIngestConfig).
type IngestConfig = ingestq.Config

// JournalConfig parameterizes the write-ahead batch journal
// (WithJournalConfig): fsync policy, grouped-fsync cadence, segment
// roll size, and the service's compaction threshold.
type JournalConfig = wal.Config

// FsyncPolicy selects when journal appends become durable. See the
// constants below and DESIGN.md §14.
type FsyncPolicy = wal.Policy

// The journal fsync policies (JournalConfig.Fsync).
const (
	// FsyncPerCommit fsyncs inside every Append, before the ack:
	// full power-loss durability per batch.
	FsyncPerCommit = wal.SyncPerCommit
	// FsyncGrouped acks from the page cache and fsyncs on a short
	// timer: bounded power-loss window, amortized fsync cost.
	FsyncGrouped = wal.SyncGrouped
	// FsyncOff never fsyncs explicitly: survives SIGKILL (the page
	// cache outlives the process) but not power loss.
	FsyncOff = wal.SyncOff
)

// ParseFsyncPolicy maps the wire/flag spellings "percommit",
// "grouped", "off" onto their FsyncPolicy (cmd/iuadserver's -fsync).
func ParseFsyncPolicy(s string) (FsyncPolicy, error) { return wal.ParsePolicy(s) }

// JournalBasePath returns the base-snapshot path a journaled service
// maintains inside dir — useful to check, before Open, whether a
// restart can run without a corpus.
func JournalBasePath(dir string) string { return wal.BaseSnapshotPath(dir) }

// JournalStats is the journal's accounting plus the compaction status,
// one flat JSON object; served by Service.JournalStats and the HTTP
// /metrics endpoint.
type JournalStats struct {
	wal.Stats
	CompactionStatus
}

// CompactionStatus is where base compaction stands (Service.Compaction;
// /healthz serves it as "compaction").
type CompactionStatus struct {
	// BytesSinceBase is the journal bytes a recovery would replay on top
	// of the base; the default trigger fires at 1/8 of the base's bytes.
	BytesSinceBase int64 `json:"bytes_since_base"`
	InFlight       bool  `json:"compaction_in_flight"`
	// Failures counts compactions that returned an error (the trigger
	// stays armed, so the next commit retries); LastError is the most
	// recent one.
	Failures  int64             `json:"compaction_failures"`
	LastError string            `json:"last_compaction_error,omitempty"`
	Last      *CompactionReport `json:"last_compaction,omitempty"`
}

// CompactionReport describes one completed base compaction.
type CompactionReport struct {
	Epoch      uint64  `json:"epoch"` // the epoch the base was written at
	DurationMs float64 `json:"duration_ms"`
	// LockHeldUs is how long the service's write lock was held (pin the
	// epoch, cut the journal); the rest of DurationMs ran beside commits.
	LockHeldUs          float64 `json:"lock_held_us"`
	BaseBytes           int64   `json:"base_bytes"`
	JournalBytesAtStart int64   `json:"journal_bytes_at_start"`
}

// ReplayReport summarizes a journal recovery (what was replayed, what
// a crash tore off); served by Service.JournalRecovery and /healthz.
type ReplayReport = wal.ReplayReport

// JournalLockError is the typed double-Open failure on a journal
// directory; errors.Is(err, ErrJournalLocked) matches it.
type JournalLockError = wal.LockError

// JournalCorruptError reports a journal record that failed
// verification somewhere the torn-tail rule cannot excuse; Open
// refuses to serve rather than silently dropping an acked batch.
type JournalCorruptError = wal.CorruptError

// SnapshotError reports a base snapshot that exists but cannot be
// loaded (checksum, truncation, trailing bytes, unknown version). Open
// leaves the file at Path untouched and never refits over it.
type SnapshotError = core.SnapshotError

// VersionError reports a base snapshot or journal record in a format
// version this build does not read. For a retired version, LastBuild
// names the last build that reads it: open the file or directory once
// with that build and Close it to upgrade (DESIGN.md §6). Open leaves
// the files untouched. Match with errors.As.
type VersionError = snapshot.VersionError

// ErrJournalLocked reports that another process holds the journal
// directory (see WithJournal).
var ErrJournalLocked = wal.ErrLocked

// JournalError wraps a journal append/fsync failure inside the commit
// path: the batch was NOT committed and NOT acked — write-ahead means
// a batch whose record cannot be made durable never lands in memory.
// HTTP servers map it to 500. Match with errors.As.
type JournalError struct{ Err error }

func (e *JournalError) Error() string {
	return "iuad: journal write failed; batch not committed: " + e.Err.Error()
}
func (e *JournalError) Unwrap() error { return e.Err }

// Typed errors of the serving API. They are sentinel values so callers
// can branch with errors.Is; functions that wrap them add call-site
// context.
var (
	// ErrNotFrozen is returned by Open when the corpus has not been
	// frozen (call Corpus.Freeze after the last Add).
	ErrNotFrozen = errors.New("iuad: corpus is not frozen")

	// ErrNoCorpus is returned by Open when it has neither a corpus nor
	// an existing snapshot to start from.
	ErrNoCorpus = errors.New("iuad: no corpus and no snapshot to open")

	// ErrUnknownAuthor is returned by the query API for an author ID
	// outside the published network.
	ErrUnknownAuthor = errors.New("iuad: unknown author id")

	// ErrUnknownSlot is returned by ResolveSlot for a (paper, index)
	// pair outside the published network.
	ErrUnknownSlot = errors.New("iuad: unknown author slot")

	// ErrUnknownPaper is returned by Service.Paper for an ID outside
	// the published network.
	ErrUnknownPaper = errors.New("iuad: unknown paper id")

	// ErrClosed is returned by the write API after Close.
	ErrClosed = errors.New("iuad: service is closed")
)
