package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"iuad/internal/bib"
	"iuad/internal/faultinject"
)

// Apply consumes one replayed batch. Recovery calls it with strictly
// increasing epochs (baseEpoch+1, baseEpoch+2, ...); an error aborts
// recovery.
type Apply func(epoch uint64, batch []bib.Paper) error

// ReplayReport summarizes one recovery: what was replayed, what a
// crash tore off, what compaction left behind. Served by /healthz.
type ReplayReport struct {
	BaseEpoch uint64 `json:"base_epoch"`
	Segments  int    `json:"segments"`
	Batches   int    `json:"batches"`
	Papers    int    `json:"papers"`
	// TruncatedTail is set when the final record was torn by a crash
	// mid-write and was cut off (the batch it held was never acked
	// durable-complete, so dropping it is correct).
	TruncatedTail   bool   `json:"truncated_tail,omitempty"`
	TruncatedPath   string `json:"truncated_path,omitempty"`
	TruncatedOffset int64  `json:"truncated_offset,omitempty"`
	// StaleRemoved counts segments keyed below the base epoch that
	// were garbage-collected (a crash between the base rename and
	// Retire leaves them behind; their batches are contained in the
	// base).
	StaleRemoved int   `json:"stale_removed,omitempty"`
	WallNs       int64 `json:"wall_ns"`
}

// Recover binds the journal to the base snapshot's epoch: it deletes
// the segments keyed below it (fully contained in the base) and
// replays every record of the rest on top of it, in (key, generation)
// order, feeding each batch to apply. Segments keyed above the base
// epoch are the tail of a compaction whose base never became durable;
// they chain onto the older segments under the same contiguity check.
//
// Verification rules (DESIGN.md §14):
//
//   - every record's FNV-64a checksum must match;
//   - record epochs must be exactly contiguous from baseEpoch+1;
//   - a record torn by a crash mid-write — short header, length past
//     EOF, or checksum mismatch with nothing valid after it, in the
//     FINAL segment — is truncated off, not an error;
//   - any other failure is a *CorruptError naming the segment and
//     byte offset: an interior batch cannot be dropped silently.
//
// After Recover the journal appends into a fresh generation, so a
// previously-truncated tail can never be appended into.
func (j *Journal) Recover(baseEpoch uint64, apply Apply) (*ReplayReport, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil, ErrClosed
	}
	if j.recovered {
		return nil, errors.New("wal: Recover called twice")
	}
	t0 := time.Now()
	ents, err := os.ReadDir(j.dir)
	if err != nil {
		return nil, err
	}
	type seg struct {
		key, gen uint64
		path     string
	}
	var segs []seg
	var stale []string
	maxGen, maxKey := uint64(0), baseEpoch
	for _, e := range ents {
		key, gen, ok := parseSegmentName(e.Name())
		if !ok {
			continue
		}
		if gen > maxGen {
			maxGen = gen
		}
		if key > maxKey {
			maxKey = key
		}
		if key >= baseEpoch {
			segs = append(segs, seg{key, gen, filepath.Join(j.dir, e.Name())})
		} else {
			stale = append(stale, filepath.Join(j.dir, e.Name()))
		}
	}
	sort.Slice(segs, func(a, b int) bool {
		if segs[a].key != segs[b].key {
			return segs[a].key < segs[b].key
		}
		return segs[a].gen < segs[b].gen
	})
	rep := &ReplayReport{BaseEpoch: baseEpoch}
	next := baseEpoch + 1
	for i, sg := range segs {
		last := i == len(segs)-1
		if err := j.replaySegment(sg.path, sg.gen, last, &next, apply, rep); err != nil {
			return nil, err
		}
	}
	for _, p := range stale {
		if os.Remove(p) == nil {
			rep.StaleRemoved++
		}
	}
	if rep.StaleRemoved > 0 {
		syncDir(j.dir)
	}
	j.baseEpoch = baseEpoch
	j.key = maxKey     // keeps new segments last in (key, generation) order
	j.gen = maxGen + 1 // always a fresh generation: never append into a truncated tail
	j.sinceRot = int64(rep.Batches)
	j.recovered = true
	rep.WallNs = time.Since(t0).Nanoseconds()
	return rep, nil
}

// replaySegment verifies and applies one segment's records. last
// marks the final (highest-generation) segment, the only place the
// torn-tail rule applies.
func (j *Journal) replaySegment(path string, gen uint64, last bool, next *uint64, apply Apply, rep *ReplayReport) error {
	if err := faultinject.Fire(faultinject.JournalReplay); err != nil {
		return fmt.Errorf("wal: replay %s: %w", filepath.Base(path), err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("wal: read segment: %w", err)
	}
	if len(data) < segHeaderLen ||
		string(data[:8]) != segMagic ||
		binary.LittleEndian.Uint64(data[8:16]) != segVersion ||
		binary.LittleEndian.Uint64(data[24:32]) != gen {
		// A header can only be torn if the crash hit before the very
		// first record's fsync; with records present after it in a
		// non-final segment this is real corruption.
		if !last {
			return &CorruptError{Path: path, Offset: 0, Reason: "bad segment header"}
		}
		if err := os.Remove(path); err != nil {
			return fmt.Errorf("wal: drop torn segment: %w", err)
		}
		syncDir(j.dir)
		rep.TruncatedTail = true
		rep.TruncatedPath = path
		rep.TruncatedOffset = 0
		return nil
	}
	j.liveSegs++
	rep.Segments++
	off := int64(segHeaderLen)
	n := int64(len(data))
	for off < n {
		if n-off < recHeaderLen {
			return j.tornOrCorrupt(path, off, last, "short record header", rep)
		}
		plen := int64(binary.LittleEndian.Uint32(data[off : off+4]))
		sum := binary.LittleEndian.Uint64(data[off+4 : off+12])
		end := off + recHeaderLen + plen
		if plen > maxRecordBytes || end > n {
			return j.tornOrCorrupt(path, off, last, "record length past end of segment", rep)
		}
		payload := data[off+recHeaderLen : end]
		if fnv64a(payload) != sum {
			// Checksum-bad in final position is the classic torn
			// write; the same failure followed by a valid record is
			// interior corruption (the tail rule cannot excuse it).
			if !last || hasValidRecordAt(data, end) {
				return &CorruptError{Path: path, Offset: off, Reason: "checksum mismatch"}
			}
			return j.truncateTail(path, off, rep)
		}
		epoch, batch, err := decodeRecordPayload(payload)
		if err != nil {
			return &CorruptError{Path: path, Offset: off, Reason: "payload decode: " + err.Error()}
		}
		if epoch != *next {
			return &CorruptError{Path: path, Offset: off,
				Reason: fmt.Sprintf("record epoch %d, want %d (missing or reordered batch)", epoch, *next)}
		}
		if apply != nil {
			if err := apply(epoch, batch); err != nil {
				return fmt.Errorf("wal: apply journaled batch (epoch %d): %w", epoch, err)
			}
		}
		*next++
		rep.Batches++
		rep.Papers += len(batch)
		off = end
	}
	j.segBytes += n
	return nil
}

func (j *Journal) tornOrCorrupt(path string, off int64, last bool, reason string, rep *ReplayReport) error {
	if !last {
		return &CorruptError{Path: path, Offset: off, Reason: reason}
	}
	return j.truncateTail(path, off, rep)
}

// truncateTail cuts the torn final record off and makes the cut
// durable, so the next recovery sees a cleanly-ended segment.
func (j *Journal) truncateTail(path string, off int64, rep *ReplayReport) error {
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return fmt.Errorf("wal: open segment for tail truncation: %w", err)
	}
	defer f.Close()
	if err := f.Truncate(off); err != nil {
		return fmt.Errorf("wal: truncate torn tail: %w", err)
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("wal: fsync truncated segment: %w", err)
	}
	rep.TruncatedTail = true
	rep.TruncatedPath = path
	rep.TruncatedOffset = off
	j.segBytes += off
	return nil
}

// hasValidRecordAt reports whether a complete, checksum-valid record
// starts at off — evidence that a bad record before it is interior
// corruption rather than a torn tail.
func hasValidRecordAt(data []byte, off int64) bool {
	n := int64(len(data))
	if n-off < recHeaderLen {
		return false
	}
	plen := int64(binary.LittleEndian.Uint32(data[off : off+4]))
	sum := binary.LittleEndian.Uint64(data[off+4 : off+12])
	end := off + recHeaderLen + plen
	if plen > maxRecordBytes || end > n {
		return false
	}
	return fnv64a(data[off+recHeaderLen:end]) == sum
}
