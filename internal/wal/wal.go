// Package wal is the write-ahead batch journal behind crash-safe
// continuous durability (DESIGN.md §14): every committed ingest batch
// — one admitted batch, which maps 1:1 to an epoch publish — is
// appended as a length-prefixed, FNV-64a-checksummed record to a
// generation-numbered segment file, BEFORE the batch is applied in
// memory or acked to the client. Each record also carries the outcome
// of the batch before it — the vertex every author slot was assigned
// to — which was not yet known when that batch was journaled. After a
// crash, Recover replays the surviving records on top of the base
// snapshot and reproduces the never-crashed state bit-identically:
// a batch whose outcome survived is applied by its recorded decisions,
// the last batch is handed over to be scored again.
//
// # On-disk layout
//
// A journal directory holds:
//
//	wal.lock            flock'd while a process owns the journal
//	base.snap[...]      the base snapshot (written by the consumer)
//	wal.e<E>.g<G>       segment keyed to epoch E: every record in it is
//	                    for an epoch > E; generation G is globally
//	                    monotonic
//
// The key is what makes compaction a two-phase rotation. Cut(E), under
// the consumer's write lock, closes the open segment and keys the next
// generation to E; once a base snapshot at E is durable, Retire(E)
// deletes the segments keyed below E. Whichever base a crash leaves on
// disk, the segments keyed at or above its epoch chain contiguously on
// top of it, and Recover replays exactly those.
//
// Each segment starts with a fixed 32-byte header (magic, format
// version, key epoch, generation) followed by records:
//
//	[u32 LE payload length][u64 LE FNV-64a of payload][payload]
//
// The payload is a versioned snapshot stream (internal/snapshot)
// carrying the batch's epoch, its papers and the previous batch's
// outcome. Records never span segments.
//
// # Durability policies
//
// SyncPerCommit fsyncs inside Append, before the caller can ack —
// full power-loss durability per batch. SyncGrouped acks from the
// page cache and fsyncs on a short timer, bounding loss under power
// failure to the group interval. SyncOff never fsyncs explicitly.
// All three survive SIGKILL equally: process death does not discard
// the page cache, so every acked batch is replayed on restart; the
// policies only differ under power loss / kernel panic.
package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"iuad/internal/bib"
	"iuad/internal/faultinject"
	"iuad/internal/hdrhist"
	"iuad/internal/snapshot"
)

const (
	segMagic     = "IUADWAL1" // 8 bytes, distinct from the snapshot magic
	segVersion   = 1
	segHeaderLen = 8 + 8 + 8 + 8 // magic + version + base epoch + generation
	recHeaderLen = 4 + 8         // u32 payload length + u64 FNV-64a

	// recordVersion is the snapshot-stream version of a record payload:
	// uvarint epoch, the batch (count, then each paper), then the
	// outcome of the batch at epoch-1 — a uvarint slot count (0 when
	// the record carries none) and one uvarint vertex ID per slot, in
	// paper then author order. A created vertex is recorded as the ID
	// it got, the next free one, so no flag is needed. It is the one
	// version written and read; 2001, the record without the outcome,
	// is retired (DESIGN.md §6). The record's integrity is the FNV-64a
	// in its frame, not the stream's.
	recordVersion = 2002

	// maxRecordBytes bounds a single record; a length field past it is
	// treated as corruption, not an allocation request.
	maxRecordBytes = 1 << 30

	lockFileName = "wal.lock"
)

// Defaults for Config zero values.
const (
	DefaultGroupInterval   = 2 * time.Millisecond
	DefaultMaxSegmentBytes = 64 << 20
)

// Policy selects when Append makes records durable.
type Policy int

const (
	// SyncPerCommit fsyncs the segment inside every Append: the ack
	// implies power-loss durability. The slowest, safest policy.
	SyncPerCommit Policy = iota
	// SyncGrouped writes through the page cache and fsyncs on a
	// Config.GroupInterval timer: one fsync amortizes many batches,
	// bounding the power-loss window to roughly the interval.
	SyncGrouped
	// SyncOff never fsyncs explicitly. Acked batches still survive
	// SIGKILL (the page cache outlives the process) but not power
	// loss. For tests and bulk loads.
	SyncOff
)

func (p Policy) String() string {
	switch p {
	case SyncPerCommit:
		return "percommit"
	case SyncGrouped:
		return "grouped"
	case SyncOff:
		return "off"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// ParsePolicy parses the -fsync flag spellings: "percommit",
// "grouped", "off".
func ParsePolicy(s string) (Policy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "percommit", "per-commit":
		return SyncPerCommit, nil
	case "grouped", "group":
		return SyncGrouped, nil
	case "off", "none":
		return SyncOff, nil
	}
	return 0, fmt.Errorf("wal: unknown fsync policy %q (want percommit, grouped, or off)", s)
}

// Config tunes a journal. The zero value is SyncPerCommit with the
// package defaults.
type Config struct {
	// Fsync is the durability policy (default SyncPerCommit).
	Fsync Policy
	// GroupInterval is the SyncGrouped fsync cadence (default 2ms).
	GroupInterval time.Duration
	// MaxSegmentBytes rolls to a fresh segment once the current one
	// grows past this (default 64 MiB).
	MaxSegmentBytes int64
	// CompactEvery is read by the embedding service (iuad.Service),
	// not the journal itself. 0, the product default, compacts when the
	// journal bytes since the base reach 1/8 of the base's bytes; > 0
	// compacts every that many journaled batches instead (tests, bench
	// sweep); < 0 disables automatic compaction.
	CompactEvery int
}

func (c Config) withDefaults() Config {
	if c.GroupInterval <= 0 {
		c.GroupInterval = DefaultGroupInterval
	}
	if c.MaxSegmentBytes <= 0 {
		c.MaxSegmentBytes = DefaultMaxSegmentBytes
	}
	return c
}

// ErrClosed is returned by operations on a closed journal.
var ErrClosed = errors.New("wal: journal is closed")

// ErrLocked reports that another process (or another open Journal in
// this one) holds the journal directory. Wrapped by *LockError.
var ErrLocked = errors.New("wal: journal directory is locked by another opener")

// LockError is the typed double-open failure: a second Open on a live
// journal directory fails fast with it instead of silently
// interleaving appends. errors.Is(err, ErrLocked) matches the
// contention case.
type LockError struct {
	Dir string
	Err error
}

func (e *LockError) Error() string { return fmt.Sprintf("wal: journal dir %s: %v", e.Dir, e.Err) }
func (e *LockError) Unwrap() error { return e.Err }

// CorruptError reports a record that failed verification in a
// position the torn-tail rule cannot excuse: mid-segment, in a
// non-final segment, or followed by a valid record. Recovery refuses
// to continue past it — silently dropping an interior batch would
// shift every later epoch and diverge from acked history.
type CorruptError struct {
	Path   string // segment file
	Offset int64  // byte offset of the bad record (0 = segment header)
	Reason string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("wal: corrupt journal record at %s:%d: %s", e.Path, e.Offset, e.Reason)
}

// Stats is the point-in-time journal accounting surfaced through
// Service.JournalStats and /metrics.
type Stats struct {
	Dir             string `json:"dir"`
	Fsync           string `json:"fsync"`
	BaseEpoch       uint64 `json:"base_epoch"`
	Generation      uint64 `json:"generation"`
	Segments        int    `json:"segments"`
	SegmentBytes    int64  `json:"segment_bytes"`
	AppendedBatches int64  `json:"appended_batches"`
	AppendedPapers  int64  `json:"appended_papers"`
	AppendedBytes   int64  `json:"appended_bytes"`
	// BatchesSinceRotate counts the batches the journal holds on top of
	// the base; Rotations counts completed Retires.
	BatchesSinceRotate int64           `json:"batches_since_rotate"`
	Rotations          int64           `json:"rotations"`
	Fsyncs             int64           `json:"fsyncs"`
	FsyncLatency       hdrhist.Summary `json:"fsync_latency"`
}

// AppendToken identifies the record an Append wrote, for Rollback.
type AppendToken struct {
	gen    uint64
	off    int64
	papers int64
	bytes  int64
}

// Journal is one process's handle on a journal directory. All methods
// are safe for concurrent use; Append is typically called from one
// committer at a time.
type Journal struct {
	dir  string
	cfg  Config
	lock *os.File

	mu         sync.Mutex
	f          *os.File // current segment (nil until the first post-recovery Append)
	fpath      string
	size       int64
	baseEpoch  uint64 // epoch of the base snapshot the journal sits on
	key        uint64 // epoch new segments are keyed to (the last Cut)
	cutBatches int64  // sinceRot at the last Cut: what its Retire takes off
	gen        uint64 // generation of the current (or next) segment
	liveSegs   int
	segBytes   int64
	recovered  bool
	closed     bool
	failed     error // latched first write/sync failure: the journal refuses further appends
	dirty      bool  // SyncGrouped: bytes written since the last fsync
	batches    int64
	papers     int64
	bytesAcc   int64
	sinceRot   int64
	rotations  int64
	fsyncs     int64

	// outcome is the last batch outcome handed over by RecordOutcome,
	// for outcomeEpoch; the record for outcomeEpoch+1 carries it. It
	// outlives the Append that carries it, so a Rollback leaves it
	// pending for the retried record.
	outcome      []int
	outcomeEpoch uint64

	fsyncLat *hdrhist.Histogram
	stopCh   chan struct{}
	doneCh   chan struct{}
}

// Open locks dir (creating it if needed) and returns a journal
// handle. The journal is not usable for Append until Recover has run
// — recovery fixes the base epoch the new records key to. A second
// Open on a live directory fails fast with *LockError (ErrLocked).
func Open(dir string, cfg Config) (*Journal, error) {
	cfg = cfg.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: create journal dir: %w", err)
	}
	lock, err := acquireLock(filepath.Join(dir, lockFileName))
	if err != nil {
		return nil, err
	}
	j := &Journal{
		dir:      dir,
		cfg:      cfg,
		lock:     lock,
		fsyncLat: hdrhist.New(),
		stopCh:   make(chan struct{}),
		doneCh:   make(chan struct{}),
	}
	if cfg.Fsync == SyncGrouped {
		go j.groupSyncLoop()
	} else {
		close(j.doneCh)
	}
	return j, nil
}

// Dir returns the journal directory.
func (j *Journal) Dir() string { return j.dir }

// BaseSnapshotPath returns the canonical base-snapshot path for a
// journal directory, without opening (and locking) the journal —
// callers use it to decide whether a restart needs a corpus at all.
func BaseSnapshotPath(dir string) string { return filepath.Join(dir, "base.snap") }

// BasePath returns the canonical base-snapshot path inside the
// journal directory. The journal does not read or write it; the
// consumer (iuad.Service) saves and loads the base there.
func (j *Journal) BasePath() string { return BaseSnapshotPath(j.dir) }

// Append journals one committed ingest batch as the record for epoch
// (which must be the epoch the batch will publish as). It returns
// only after the record is durable per the configured policy, so a
// successful Append means recovery will replay the batch; an error
// means no record survives — the caller must fail the batch before
// acking it. The token withdraws the record via Rollback if the
// in-memory apply then fails without landing anything.
//
// The record carries the outcome RecordOutcome last handed over when
// that outcome is for epoch-1.
func (j *Journal) Append(epoch uint64, batch []bib.Paper) (AppendToken, error) {
	if len(batch) == 0 {
		return AppendToken{}, errors.New("wal: empty batch")
	}
	if err := faultinject.Fire(faultinject.JournalAppend); err != nil {
		return AppendToken{}, fmt.Errorf("wal: append: %w", err)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	switch {
	case j.closed:
		return AppendToken{}, ErrClosed
	case !j.recovered:
		return AppendToken{}, errors.New("wal: Append before Recover")
	case j.failed != nil:
		return AppendToken{}, fmt.Errorf("wal: journal failed: %w", j.failed)
	}
	var outcome []int
	if j.outcome != nil && j.outcomeEpoch+1 == epoch {
		outcome = j.outcome
	}
	rec, err := encodeRecord(epoch, batch, outcome)
	if err != nil {
		return AppendToken{}, fmt.Errorf("wal: encode record: %w", err)
	}
	if j.f != nil && j.size >= j.cfg.MaxSegmentBytes {
		if err := j.rollSegmentLocked(); err != nil {
			j.failed = err
			return AppendToken{}, err
		}
	}
	if j.f == nil {
		if err := j.createSegmentLocked(); err != nil {
			j.failed = err
			return AppendToken{}, err
		}
	}
	off := j.size
	if _, err := j.f.Write(rec); err != nil {
		// A short write may have landed a prefix; cut it off so the
		// failed batch can never replay.
		j.truncateLocked(off)
		j.failed = err
		return AppendToken{}, fmt.Errorf("wal: append record: %w", err)
	}
	j.size += int64(len(rec))
	j.segBytes += int64(len(rec))
	switch j.cfg.Fsync {
	case SyncPerCommit:
		if err := j.syncLocked(); err != nil {
			// fsync failed: durability is unknown, so withdraw the
			// record — the batch will be failed before the ack and
			// must not resurface on replay.
			j.truncateLocked(off)
			j.failed = err
			return AppendToken{}, fmt.Errorf("wal: fsync record: %w", err)
		}
	case SyncGrouped:
		j.dirty = true
	}
	j.batches++
	j.papers += int64(len(batch))
	j.bytesAcc += int64(len(rec))
	j.sinceRot++
	return AppendToken{gen: j.gen, off: off, papers: int64(len(batch)), bytes: int64(len(rec))}, nil
}

// RecordOutcome hands over the outcome of the batch journaled for
// epoch once it has been applied: the vertex of every author slot, in
// paper then author order. The journal keeps the slice. Nothing is
// written now — the next record, epoch+1, carries it inside its own
// checksum and fsync — so an outcome is never durable before the
// batch after it. An outcome at or below the last Cut is dropped: the
// base written at that cut holds its batch.
func (j *Journal) RecordOutcome(epoch uint64, verts []int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if epoch <= j.key {
		return
	}
	j.outcome, j.outcomeEpoch = verts, epoch
}

// Rollback withdraws the record written by the matching Append. Only
// the most recent record can be withdrawn — it exists for the caller
// whose in-memory apply failed before anything landed, so recovery
// cannot replay a batch the process never applied.
func (j *Journal) Rollback(tok AppendToken) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ErrClosed
	}
	if j.f == nil || j.gen != tok.gen || j.size != tok.off+tok.bytes {
		return errors.New("wal: rollback token does not name the last record")
	}
	j.truncateLocked(tok.off)
	if j.failed != nil {
		return j.failed
	}
	j.batches--
	j.papers -= tok.papers
	j.bytesAcc -= tok.bytes
	j.sinceRot--
	if j.cfg.Fsync == SyncPerCommit {
		if err := j.syncLocked(); err != nil {
			j.failed = err
			return err
		}
	}
	return nil
}

// Cut ends the current generation at epoch: the open segment is
// fsynced and closed, and the records for epoch+1… land in a fresh
// generation keyed to epoch. The consumer calls it under its write
// lock, with epoch the last record appended, as the first half of a
// compaction; it costs one fsync and no directory scan. Until Retire
// nothing is deleted, so a failed or crashed base write loses nothing:
// the older segments still chain onto the older base.
func (j *Journal) Cut(epoch uint64) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ErrClosed
	}
	if j.f != nil {
		if err := j.rollSegmentLocked(); err != nil {
			j.failed = err
			return err
		}
	}
	j.key = epoch
	j.cutBatches = j.sinceRot
	if j.outcomeEpoch <= epoch {
		j.outcome = nil
	}
	return nil
}

// Retire deletes every segment keyed below epoch. The caller must have
// made a base snapshot at epoch durable FIRST, and epoch must be the
// last Cut: every segment keyed below it was closed by that Cut or an
// earlier one, so all its records are contained in the base.
func (j *Journal) Retire(epoch uint64) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ErrClosed
	}
	ents, err := os.ReadDir(j.dir)
	if err != nil {
		return err
	}
	for _, e := range ents {
		key, _, ok := parseSegmentName(e.Name())
		if !ok || key >= epoch {
			continue
		}
		fi, err := e.Info()
		if err != nil {
			return fmt.Errorf("wal: retire segment %s: %w", e.Name(), err)
		}
		if err := os.Remove(filepath.Join(j.dir, e.Name())); err != nil {
			return fmt.Errorf("wal: retire segment %s: %w", e.Name(), err)
		}
		j.liveSegs--
		j.segBytes -= fi.Size()
	}
	syncDir(j.dir) // best effort: make the removals durable
	j.baseEpoch = epoch
	j.sinceRot -= j.cutBatches
	j.cutBatches = 0
	j.rotations++
	return nil
}

// SinceBase returns what the journal holds on top of the base — the
// batches a recovery would replay and the bytes of every live segment
// it would read — the consumer's compaction pressure. Both only drop
// at Retire.
func (j *Journal) SinceBase() (batches, bytes int64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.sinceRot, j.segBytes
}

// Stats returns the point-in-time journal accounting.
func (j *Journal) Stats() Stats {
	j.mu.Lock()
	defer j.mu.Unlock()
	return Stats{
		Dir:                j.dir,
		Fsync:              j.cfg.Fsync.String(),
		BaseEpoch:          j.baseEpoch,
		Generation:         j.gen,
		Segments:           j.liveSegs,
		SegmentBytes:       j.segBytes,
		AppendedBatches:    j.batches,
		AppendedPapers:     j.papers,
		AppendedBytes:      j.bytesAcc,
		BatchesSinceRotate: j.sinceRot,
		Rotations:          j.rotations,
		Fsyncs:             j.fsyncs,
		FsyncLatency:       j.fsyncLat.Snapshot(),
	}
}

// Close fsyncs and closes the current segment, stops the grouped-sync
// loop, and releases the directory lock. Idempotent.
func (j *Journal) Close() error {
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return nil
	}
	j.closed = true
	j.mu.Unlock()
	close(j.stopCh)
	<-j.doneCh
	j.mu.Lock()
	defer j.mu.Unlock()
	var first error
	if j.f != nil {
		if j.cfg.Fsync != SyncOff {
			if err := j.syncLocked(); err != nil {
				first = err
			}
		}
		if err := j.f.Close(); err != nil && first == nil {
			first = err
		}
		j.f = nil
	}
	if j.lock != nil {
		releaseLock(j.lock)
		j.lock = nil
	}
	return first
}

// groupSyncLoop is the SyncGrouped flusher: one fsync per interval
// covers every batch appended since the last one.
func (j *Journal) groupSyncLoop() {
	defer close(j.doneCh)
	t := time.NewTicker(j.cfg.GroupInterval)
	defer t.Stop()
	for {
		select {
		case <-j.stopCh:
			return
		case <-t.C:
			j.mu.Lock()
			if j.dirty && j.f != nil && j.failed == nil {
				if err := j.syncLocked(); err != nil {
					j.failed = err
				}
				j.dirty = false
			}
			j.mu.Unlock()
		}
	}
}

func (j *Journal) syncLocked() error {
	if err := faultinject.Fire(faultinject.JournalFsync); err != nil {
		return err
	}
	t0 := time.Now()
	err := j.f.Sync()
	j.fsyncLat.RecordSince(t0)
	j.fsyncs++
	return err
}

// createSegmentLocked opens the generation's segment file and writes
// its header. Segments are opened O_APPEND so a truncate-then-write
// sequence (Rollback, per-commit fsync failure) cannot leave a hole.
func (j *Journal) createSegmentLocked() error {
	path := filepath.Join(j.dir, segmentName(j.key, j.gen))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: create segment: %w", err)
	}
	var hdr [segHeaderLen]byte
	copy(hdr[:8], segMagic)
	binary.LittleEndian.PutUint64(hdr[8:16], segVersion)
	binary.LittleEndian.PutUint64(hdr[16:24], j.key)
	binary.LittleEndian.PutUint64(hdr[24:32], j.gen)
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		os.Remove(path)
		return fmt.Errorf("wal: write segment header: %w", err)
	}
	if j.cfg.Fsync != SyncOff {
		if err := f.Sync(); err != nil {
			f.Close()
			os.Remove(path)
			return fmt.Errorf("wal: fsync segment header: %w", err)
		}
		syncDir(j.dir) // the segment's directory entry must survive too
	}
	j.f, j.fpath, j.size = f, path, segHeaderLen
	j.liveSegs++
	j.segBytes += segHeaderLen
	return nil
}

// rollSegmentLocked closes the full segment and bumps the generation;
// the next Append lazily creates the successor.
func (j *Journal) rollSegmentLocked() error {
	if j.cfg.Fsync != SyncOff {
		if err := j.syncLocked(); err != nil {
			return err
		}
	}
	if err := j.f.Close(); err != nil {
		return err
	}
	j.f, j.fpath, j.size = nil, "", 0
	j.dirty = false
	j.gen++
	return nil
}

func (j *Journal) truncateLocked(off int64) {
	if j.f == nil {
		return
	}
	if err := j.f.Truncate(off); err != nil {
		if j.failed == nil {
			j.failed = err
		}
		return
	}
	j.segBytes -= j.size - off
	j.size = off
}

// encodeRecord frames one batch: [u32 len][u64 fnv64a][payload], the
// payload being a versioned snapshot stream of (epoch, papers, the
// outcome of epoch-1 or nothing).
func encodeRecord(epoch uint64, batch []bib.Paper, outcome []int) ([]byte, error) {
	var payload bytes.Buffer
	sw := snapshot.NewWriter(&payload, recordVersion)
	sw.Uvarint(epoch)
	sw.Int(len(batch))
	for i := range batch {
		bib.EncodePaperSnapshot(sw, &batch[i])
	}
	sw.Uvarint(uint64(len(outcome)))
	for _, v := range outcome {
		sw.Uvarint(uint64(v))
	}
	if err := sw.Close(); err != nil {
		return nil, err
	}
	if payload.Len() > maxRecordBytes {
		return nil, fmt.Errorf("wal: batch encodes to %d bytes (max %d)", payload.Len(), maxRecordBytes)
	}
	rec := make([]byte, recHeaderLen+payload.Len())
	binary.LittleEndian.PutUint32(rec[0:4], uint32(payload.Len()))
	binary.LittleEndian.PutUint64(rec[4:12], fnv64a(payload.Bytes()))
	copy(rec[recHeaderLen:], payload.Bytes())
	return rec, nil
}

// decodeRecordPayload decodes one record: its epoch, its batch and the
// outcome of the batch before it (nil when the record carries none). A
// record of another version is a *snapshot.VersionError.
func decodeRecordPayload(payload []byte) (uint64, []bib.Paper, []int, error) {
	sr, err := snapshot.NewReader(bytes.NewReader(payload), recordVersion)
	if err != nil {
		return 0, nil, nil, err
	}
	epoch := sr.Uvarint()
	n := sr.Int()
	if err := sr.Err(); err != nil {
		return 0, nil, nil, err
	}
	if n < 0 || n > len(payload) {
		return 0, nil, nil, fmt.Errorf("wal: implausible batch size %d", n)
	}
	papers := make([]bib.Paper, 0, n)
	for i := 0; i < n; i++ {
		p, err := bib.DecodePaperSnapshot(sr)
		if err != nil {
			return 0, nil, nil, err
		}
		papers = append(papers, p)
	}
	k := sr.Uvarint()
	if err := sr.Err(); err != nil {
		return 0, nil, nil, err
	}
	if k > uint64(len(payload)) {
		return 0, nil, nil, fmt.Errorf("wal: implausible outcome size %d", k)
	}
	var outcome []int
	if k > 0 {
		outcome = make([]int, k)
		for i := range outcome {
			v := sr.Uvarint()
			if v > math.MaxInt32 {
				return 0, nil, nil, fmt.Errorf("wal: implausible vertex %d in the outcome", v)
			}
			outcome[i] = int(v)
		}
	}
	if err := sr.Err(); err != nil {
		return 0, nil, nil, err
	}
	return epoch, papers, outcome, nil
}

func fnv64a(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

func segmentName(key, gen uint64) string {
	return fmt.Sprintf("wal.e%d.g%08d", key, gen)
}

func parseSegmentName(name string) (key, gen uint64, ok bool) {
	rest, found := strings.CutPrefix(name, "wal.e")
	if !found {
		return 0, 0, false
	}
	i := strings.Index(rest, ".g")
	if i < 0 {
		return 0, 0, false
	}
	b, err1 := strconv.ParseUint(rest[:i], 10, 64)
	g, err2 := strconv.ParseUint(rest[i+2:], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, 0, false
	}
	return b, g, true
}

// syncDir fsyncs a directory so renames/creates/removes inside it are
// durable. Best effort: some filesystems refuse directory fsync.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync()
	d.Close()
}
