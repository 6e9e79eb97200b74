package core

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"iuad/internal/bib"
	"iuad/internal/faultinject"
	"iuad/internal/graph"
	"iuad/internal/intern"
	"iuad/internal/snapshot"
)

// The sharded composite snapshot: a manifest file at the snapshot path
// plus one segment file per shard, saved and loaded in parallel.
//
// Layout. The manifest (version 1002) carries the serving epoch, the
// per-shard serving counters and segment descriptors (file name, size,
// FNV-64a checksum), the dead-vertex list, and the pipeline's common
// body — everything of the legacy 1001 format EXCEPT the GCN. Each
// segment (version 1003) carries one shard's slice of the GCN: the
// vertices of the shard's name blocks (with their global IDs), the
// edges owned by the lower endpoint's shard, and the slot assignments
// of the shard's names. Merge order at load is deterministic —
// ascending shard index, ascending vertex ID within a segment — and
// reproduces the exact unsharded iteration orders because global IDs
// are preserved verbatim.
//
// Crash safety. Segments are written first (each one temp-file +
// fsync + rename), the manifest last — the manifest rename is the
// commit point. Segment names embed the saved epoch, so an interrupted
// save never overwrites the committed generation's segments; stale
// generations are garbage-collected after a successful commit.
//
// Partial recovery. When a segment is missing or corrupt, the load can
// (opt-in) proceed without it: the lost shard's vertices become dead
// vertices — the global ID space keeps its shape, so every surviving
// ID, slot and edge stays valid — and edges or retained pair scores
// touching a dead vertex are dropped. Because a name block lives
// wholly in one shard, a lost segment loses whole blocks: queries for
// surviving names are answered exactly as before, lost names simply
// start from scratch on their next ingest.

// ShardedServiceSnapshotVersion is the wire-format version of the
// composite manifest. It lives in the 1000+ service namespace, above
// the legacy single-file ServiceSnapshotVersion (1001).
const ShardedServiceSnapshotVersion = 1002

// shardSegmentVersion is the wire-format version of one shard segment.
const shardSegmentVersion = 1003

// RecoveryReport describes what a partial load lost. A nil report
// means the snapshot loaded completely.
type RecoveryReport struct {
	// MissingSegments lists the shard indexes whose segment file was
	// missing or failed verification, ascending.
	MissingSegments []int `json:"missing_segments"`
	// LostAuthors/LostSlots are the owned counts the manifest recorded
	// for the missing segments.
	LostAuthors int `json:"lost_authors"`
	LostSlots   int `json:"lost_slots"`
	// DroppedEdges counts surviving-segment edges discarded because
	// their other endpoint was lost; DroppedPairs counts retained
	// pair scores and forced merges discarded the same way.
	DroppedEdges int `json:"dropped_edges"`
	DroppedPairs int `json:"dropped_pairs"`
}

// WriteFileAtomic writes a file crash-safely: temp file in the target
// directory, fsync, rename, then fsync the directory so neither a
// torn write nor a lost rename can damage a previously committed file.
func WriteFileAtomic(path string, write func(io.Writer) error) error {
	// Chaos point: an armed SnapshotWrite hook aborts the write here,
	// exactly like a failing disk — before the temp file exists, so
	// the committed snapshot generation is never touched.
	if err := faultinject.Fire(faultinject.SnapshotWrite); err != nil {
		return err
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".iuad-snap-*")
	if err != nil {
		return err
	}
	cleanup := func() { tmp.Close(); os.Remove(tmp.Name()) }
	if err := write(tmp); err != nil {
		cleanup()
		return err
	}
	if err := tmp.Sync(); err != nil {
		cleanup()
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}

// segmentFileName names the shard segment of one saved generation;
// embedding the epoch keeps an in-progress save from overwriting the
// committed generation's segments.
func segmentFileName(base string, epoch uint64, shard int) string {
	return fmt.Sprintf("%s.e%d.s%03d", base, epoch, shard)
}

// isSegmentFileName reports whether name is a segment file of base
// (any generation), for stale-generation cleanup.
func isSegmentFileName(base, name string) bool {
	rest, ok := strings.CutPrefix(name, base+".e")
	if !ok {
		return false
	}
	gen, shard, ok := strings.Cut(rest, ".s")
	if !ok || gen == "" || len(shard) != 3 {
		return false
	}
	for _, c := range gen + shard {
		if c < '0' || c > '9' {
			return false
		}
	}
	return true
}

// shardSegment is one shard's bucketed slice of the GCN, in the
// deterministic save order.
type shardSegment struct {
	verts []int     // global vertex IDs, ascending
	edges [][2]int  // (lo,hi) keys, sorted
	slots []segSlot // sorted (paper, index)

	name string
	buf  bytes.Buffer
	sum  uint64
}

// gcnRows reads the per-vertex and per-edge rows a segment carries: off
// the live network (the reference path below) or off a pinned View
// (view_snapshot.go).
type gcnRows interface {
	vertexRow(id int) (nameID intern.ID, isolated bool, papers []bib.PaperID)
	// edgePapers returns the papers of edge (u,v), u < v. buf is scratch
	// an implementation may fill and return.
	edgePapers(u, v int, buf []bib.PaperID) []bib.PaperID
}

func (n *Network) vertexRow(id int) (intern.ID, bool, []bib.PaperID) {
	v := &n.Verts[id]
	return v.NameID, v.Isolated, v.Papers
}

func (n *Network) edgePapers(u, v int, _ []bib.PaperID) []bib.PaperID {
	return n.EdgePapers[[2]int{u, v}]
}

// SaveShardedService writes the composite snapshot to path: one
// segment per seed (the runtime shard count), encoded and persisted in
// parallel, then the manifest as the commit point. seeds carries the
// per-shard serving counters (each ShardInfo's Epoch and Publishes).
//
// This is the map-walking reference writer: a live Service saves
// through ViewPublisher.Pin instead, whose output is pinned
// byte-identical to this one.
func SaveShardedService(path string, pl *Pipeline, epoch uint64, seeds []ShardSeed) error {
	if pl == nil || pl.GCN == nil || pl.SCN == nil {
		return fmt.Errorf("core: SaveShardedService before BuildGCN")
	}
	if len(seeds) == 0 {
		seeds = []ShardSeed{{Epoch: epoch}}
	}
	n := len(seeds)
	if n > MaxShards {
		return fmt.Errorf("core: %d shards exceeds MaxShards=%d", n, MaxShards)
	}
	gcn := pl.GCN

	// Bucket the GCN by owning shard, in the legacy encode orders.
	segs := make([]shardSegment, n)
	var dead []int
	for i := range gcn.Verts {
		if gcn.Verts[i].NameID < 0 {
			dead = append(dead, i)
			continue
		}
		sh := ShardOfName(gcn.Verts[i].Name, n)
		segs[sh].verts = append(segs[sh].verts, i)
	}
	keys := make([][2]int, 0, len(gcn.EdgePapers))
	for key := range gcn.EdgePapers {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	for _, key := range keys {
		if gcn.Verts[key[0]].NameID < 0 || gcn.Verts[key[1]].NameID < 0 {
			continue // edge to a vertex lost in an earlier partial recovery
		}
		sh := ShardOfName(gcn.Verts[key[0]].Name, n)
		segs[sh].edges = append(segs[sh].edges, key)
	}
	slots := make([]Slot, 0, len(gcn.SlotVertex))
	for s := range gcn.SlotVertex {
		slots = append(slots, s)
	}
	sort.Slice(slots, func(i, j int) bool {
		if slots[i].Paper != slots[j].Paper {
			return slots[i].Paper < slots[j].Paper
		}
		return slots[i].Index < slots[j].Index
	})
	for _, s := range slots {
		v := gcn.SlotVertex[s]
		if gcn.Verts[v].NameID < 0 {
			continue
		}
		sh := ShardOfName(gcn.Verts[v].Name, n)
		segs[sh].slots = append(segs[sh].slots, segSlot{slot: s, vert: v})
	}
	return writeComposite(path, pl, epoch, seeds, len(gcn.Verts), segs, dead, gcn, liveBody(pl, false))
}

// writeComposite persists bucketed segments and then the manifest —
// the part of a composite save that does not depend on where the GCN
// rows come from. total is the vertex count (dead ones included).
func writeComposite(path string, pl *Pipeline, epoch uint64, seeds []ShardSeed, total int,
	segs []shardSegment, dead []int, rows gcnRows, body bodyParts) error {
	n := len(segs)
	dir, base := filepath.Dir(path), filepath.Base(path)

	// Encode and persist every segment in parallel (temp+fsync+rename
	// each), before the manifest commit.
	errs := make([]error, n)
	var wg sync.WaitGroup
	for sh := range segs {
		wg.Add(1)
		go func(sh int) {
			defer wg.Done()
			seg := &segs[sh]
			sw := snapshot.NewWriter(&seg.buf, shardSegmentVersion)
			sw.Int(sh)
			sw.Int(n)
			sw.Int(len(seg.verts))
			for _, id := range seg.verts {
				nameID, iso, papers := rows.vertexRow(id)
				sw.Varint(int64(id))
				sw.Varint(int64(nameID))
				sw.Bool(iso)
				encodePaperIDs(sw, papers)
			}
			sw.Int(len(seg.edges))
			var buf []bib.PaperID
			for _, key := range seg.edges {
				sw.Int(key[0])
				sw.Int(key[1])
				buf = rows.edgePapers(key[0], key[1], buf[:0])
				encodePaperIDs(sw, buf)
			}
			sw.Int(len(seg.slots))
			for _, s := range seg.slots {
				sw.Varint(int64(s.slot.Paper))
				sw.Int(s.slot.Index)
				sw.Int(s.vert)
			}
			if err := sw.Close(); err != nil {
				errs[sh] = err
				return
			}
			h := fnv.New64a()
			h.Write(seg.buf.Bytes())
			seg.sum = h.Sum64()
			seg.name = segmentFileName(base, epoch, sh)
			errs[sh] = WriteFileAtomic(filepath.Join(dir, seg.name), func(w io.Writer) error {
				_, err := w.Write(seg.buf.Bytes())
				return err
			})
		}(sh)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}

	// Manifest: serving counters, segment descriptors, dead vertices,
	// and the common pipeline body (everything but the GCN).
	err := WriteFileAtomic(path, func(w io.Writer) error {
		sw := snapshot.NewWriter(w, ShardedServiceSnapshotVersion)
		sw.Uvarint(epoch)
		sw.Int(n)
		sw.Int(total)
		for sh := range segs {
			sw.Uvarint(seeds[sh].Epoch)
			sw.Uvarint(seeds[sh].Publishes)
			sw.Int(len(segs[sh].verts))
			sw.Int(len(segs[sh].slots))
			sw.String(segs[sh].name)
			sw.Uvarint(uint64(segs[sh].buf.Len()))
			sw.Uvarint(segs[sh].sum)
		}
		sw.Ints(dead)
		if err := encodePipelineBody(sw, pl, body); err != nil {
			return err
		}
		return sw.Close()
	})
	if err != nil {
		return err
	}

	// Garbage-collect segment files of superseded generations
	// (best-effort; stale files are harmless, just disk).
	keep := make(map[string]bool, n)
	for sh := range segs {
		keep[segs[sh].name] = true
	}
	if entries, err := os.ReadDir(dir); err == nil {
		for _, e := range entries {
			if !e.IsDir() && !keep[e.Name()] && isSegmentFileName(base, e.Name()) {
				os.Remove(filepath.Join(dir, e.Name()))
			}
		}
	}
	return nil
}

// segMeta is one manifest segment descriptor.
type segMeta struct {
	seed    ShardSeed
	authors int
	slots   int
	name    string
	size    uint64
	sum     uint64
}

// ErrCorruptSegment reports a composite-snapshot segment file that
// EXISTS but fails verification — truncated against its manifest
// size, checksum-bad, or undecodable. It is deliberately a different
// shape from a missing segment (a plain fs error carrying
// fs.ErrNotExist): "the file vanished" and "the file's interior is
// damaged" need different operator responses, and only the former is
// the expected residue of a partial copy. Match with errors.As; the
// strict (non-partial) open wraps it, the partial-recovery path
// reports the segment in RecoveryReport either way.
type ErrCorruptSegment struct {
	Path string
	// Offset is the byte offset of the earliest failure the loader
	// can localize: the manifest-declared size for a truncated file,
	// 0 when the damage is file-global (checksum mismatch) or inside
	// the compressed decode stream.
	Offset int64
	Reason string
}

func (e *ErrCorruptSegment) Error() string {
	return fmt.Sprintf("core: corrupt snapshot segment %s (offset %d): %s", e.Path, e.Offset, e.Reason)
}

// segPayload is one decoded segment, pre-merge.
type segPayload struct {
	verts   []segVert
	edges   []segEdge
	slots   []segSlot
	missing error // why the segment is unusable (nil = loaded)
}

type segVert struct {
	id     int
	nameID int64
	iso    bool
	papers []bib.PaperID
}

type segEdge struct {
	u, v   int
	papers []bib.PaperID
}

type segSlot struct {
	slot Slot
	vert int
}

// OpenServiceSnapshot opens a service snapshot at path, auto-detecting
// the legacy single-file format (1001) vs the sharded composite
// manifest (1002). For composites it loads segments in parallel; with
// allowPartial, missing or corrupt segments degrade to dead vertices
// and the returned RecoveryReport says what was lost (nil when the
// load was complete). The returned seeds restore per-shard serving
// counters when the runtime shard count matches the saved one.
func OpenServiceSnapshot(path string, allowPartial bool) (*Pipeline, uint64, []ShardSeed, *RecoveryReport, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, nil, nil, err
	}
	defer f.Close()
	sr, ver, err := snapshot.NewReaderVersions(f, ServiceSnapshotVersion, ShardedServiceSnapshotVersion)
	if err != nil {
		return nil, 0, nil, nil, err
	}
	if ver == ServiceSnapshotVersion {
		epoch := sr.Uvarint()
		if err := sr.Err(); err != nil {
			return nil, 0, nil, nil, err
		}
		pl, err := decodePipelineBody(sr, true)
		if err != nil {
			return nil, 0, nil, nil, err
		}
		return pl, epoch, nil, nil, nil
	}
	return loadShardedService(sr, filepath.Dir(path), allowPartial)
}

func loadShardedService(sr *snapshot.Reader, dir string, allowPartial bool) (*Pipeline, uint64, []ShardSeed, *RecoveryReport, error) {
	fail := func(err error) (*Pipeline, uint64, []ShardSeed, *RecoveryReport, error) {
		return nil, 0, nil, nil, err
	}
	epoch := sr.Uvarint()
	n := sr.Int()
	total := sr.Int()
	if err := sr.Err(); err != nil {
		return fail(err)
	}
	if n < 1 || n > MaxShards {
		return fail(fmt.Errorf("core: composite snapshot has %d shards", n))
	}
	if total < 0 {
		return fail(fmt.Errorf("core: composite snapshot has %d vertices", total))
	}
	metas := make([]segMeta, n)
	for sh := range metas {
		m := &metas[sh]
		m.seed.Epoch = sr.Uvarint()
		m.seed.Publishes = sr.Uvarint()
		m.authors = sr.Int()
		m.slots = sr.Int()
		m.name = sr.String()
		m.size = sr.Uvarint()
		m.sum = sr.Uvarint()
	}
	dead := sr.Ints()
	if err := sr.Err(); err != nil {
		return fail(err)
	}
	pl, err := decodePipelineBody(sr, false)
	if err != nil {
		return fail(err)
	}

	// Segments: read, verify and decode in parallel.
	payloads := make([]segPayload, n)
	var wg sync.WaitGroup
	for sh := range payloads {
		wg.Add(1)
		go func(sh int) {
			defer wg.Done()
			payloads[sh] = loadSegment(filepath.Join(dir, metas[sh].name), &metas[sh], sh, n)
		}(sh)
	}
	wg.Wait()

	rep := &RecoveryReport{}
	for sh := range payloads {
		if payloads[sh].missing != nil {
			rep.MissingSegments = append(rep.MissingSegments, sh)
			rep.LostAuthors += metas[sh].authors
			rep.LostSlots += metas[sh].slots
		}
	}
	if len(rep.MissingSegments) > 0 && !allowPartial {
		first := rep.MissingSegments[0]
		cause := payloads[first].missing
		var ce *ErrCorruptSegment
		if errors.As(cause, &ce) {
			// A corrupt segment is typed and never carries
			// fs.ErrNotExist, so wrapping with %w is safe AND useful:
			// callers branch on errors.As to tell "interior damage,
			// refuse/alert" from "file vanished, maybe refit".
			return fail(fmt.Errorf("core: %d of %d snapshot segments unusable (first: shard %d): %w; open with partial recovery to serve the surviving shards",
				len(rep.MissingSegments), n, first, cause))
		}
		// %v, not %w: a deleted segment's fs.ErrNotExist must not make
		// the whole composite look like an absent snapshot — callers
		// (Service.Open) would silently refit from scratch.
		return fail(fmt.Errorf("core: %d of %d snapshot segments unusable (first: shard %d: %v); open with partial recovery to serve the surviving shards",
			len(rep.MissingSegments), n, first, cause))
	}

	// Merge, ascending shard index then ascending vertex ID — the
	// deterministic order that reproduces unsharded iteration orders.
	names := pl.Corpus.NameTable()
	gcn := newNetwork(pl.Corpus)
	gcn.G = graph.New(total)
	gcn.Verts = make([]Vertex, total)
	for i := range gcn.Verts {
		gcn.Verts[i] = Vertex{ID: i, NameID: -1, Isolated: true}
	}
	covered := make([]bool, total)
	for _, id := range dead {
		if id < 0 || id >= total || covered[id] {
			return fail(fmt.Errorf("core: composite snapshot dead vertex %d invalid", id))
		}
		covered[id] = true // stays a hole, by design
	}
	for sh := range payloads {
		if payloads[sh].missing != nil {
			continue
		}
		prev := -1
		for _, sv := range payloads[sh].verts {
			if sv.id <= prev || sv.id >= total || covered[sv.id] {
				return fail(fmt.Errorf("core: segment %d vertex id %d invalid", sh, sv.id))
			}
			prev = sv.id
			if sv.nameID < 0 || int(sv.nameID) >= names.Len() {
				return fail(fmt.Errorf("core: segment %d vertex %d has name id %d of %d", sh, sv.id, sv.nameID, names.Len()))
			}
			name := names.String(intern.ID(sv.nameID))
			if ShardOfName(name, n) != sh {
				return fail(fmt.Errorf("core: segment %d vertex %d name %q belongs to shard %d", sh, sv.id, name, ShardOfName(name, n)))
			}
			covered[sv.id] = true
			gcn.Verts[sv.id] = Vertex{ID: sv.id, NameID: intern.ID(sv.nameID), Name: name, Papers: sv.papers, Isolated: sv.iso}
			for int(sv.nameID) >= len(gcn.byName) {
				gcn.byName = append(gcn.byName, nil)
			}
			gcn.byName[sv.nameID] = append(gcn.byName[sv.nameID], sv.id)
		}
	}
	lost := 0
	for _, c := range covered {
		if !c {
			lost++
		}
	}
	if lost != rep.LostAuthors {
		return fail(fmt.Errorf("core: composite snapshot covers %d of %d vertices but manifest says %d lost", total-lost, total, rep.LostAuthors))
	}
	deadVert := func(id int) bool { return gcn.Verts[id].NameID < 0 }
	for sh := range payloads {
		if payloads[sh].missing != nil {
			continue
		}
		for _, se := range payloads[sh].edges {
			if se.u < 0 || se.v < 0 || se.u >= total || se.v >= total || se.u == se.v {
				return fail(fmt.Errorf("core: segment %d edge %d-%d invalid", sh, se.u, se.v))
			}
			if deadVert(se.u) || deadVert(se.v) {
				rep.DroppedEdges++
				continue
			}
			gcn.G.AddEdge(se.u, se.v)
			gcn.EdgePapers[edgeKey(se.u, se.v)] = se.papers
		}
		for _, ss := range payloads[sh].slots {
			if ss.vert < 0 || ss.vert >= total || deadVert(ss.vert) {
				return fail(fmt.Errorf("core: segment %d slot %+v assigned to invalid vertex %d", sh, ss.slot, ss.vert))
			}
			gcn.SlotVertex[ss.slot] = ss.vert
		}
	}
	// Retained pair scores and forced merges referencing lost vertices
	// go with them (they only feed offline analysis and re-saves).
	if len(rep.MissingSegments) > 0 {
		kept := pl.scored[:0]
		for _, sp := range pl.scored {
			if inRange(sp.A, total) && inRange(sp.B, total) && !deadVert(sp.A) && !deadVert(sp.B) {
				kept = append(kept, sp)
			} else {
				rep.DroppedPairs++
			}
		}
		pl.scored = kept
		keptFM := pl.forcedMerges[:0]
		for _, fm := range pl.forcedMerges {
			if inRange(fm[0], total) && inRange(fm[1], total) && !deadVert(fm[0]) && !deadVert(fm[1]) {
				keptFM = append(keptFM, fm)
			} else {
				rep.DroppedPairs++
			}
		}
		pl.forcedMerges = keptFM
	}

	pl.GCN = gcn
	if err := pl.finishRestore(); err != nil {
		return fail(err)
	}
	seeds := make([]ShardSeed, n)
	for sh := range metas {
		seeds[sh] = metas[sh].seed
	}
	if len(rep.MissingSegments) == 0 {
		rep = nil
	}
	return pl, epoch, seeds, rep, nil
}

func inRange(id, total int) bool { return id >= 0 && id < total }

// loadSegment reads, checksums and decodes one segment file. Failures
// land in segPayload.missing so the caller can choose strict error vs
// partial recovery.
func loadSegment(path string, m *segMeta, sh, n int) segPayload {
	// Two failure shapes, deliberately distinct: a read error is a
	// MISSING segment (fs.ErrNotExist and friends — the partial-copy
	// residue partial recovery was built for); everything after a
	// successful read is a CORRUPT one, typed *ErrCorruptSegment.
	miss := func(err error) segPayload { return segPayload{missing: err} }
	corrupt := func(off int64, reason string) segPayload {
		return segPayload{missing: &ErrCorruptSegment{Path: path, Offset: off, Reason: reason}}
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return miss(err)
	}
	if uint64(len(b)) != m.size {
		off := int64(len(b))
		if uint64(len(b)) > m.size {
			off = int64(m.size)
		}
		return corrupt(off, fmt.Sprintf("segment is %d bytes, manifest says %d", len(b), m.size))
	}
	h := fnv.New64a()
	h.Write(b)
	if h.Sum64() != m.sum {
		return corrupt(0, "segment fails its checksum")
	}
	sr, err := snapshot.NewReader(bytes.NewReader(b), shardSegmentVersion)
	if err != nil {
		return corrupt(0, err.Error())
	}
	if got, gotN := sr.Int(), sr.Int(); got != sh || gotN != n {
		return corrupt(0, fmt.Sprintf("segment is shard %d/%d, want %d/%d", got, gotN, sh, n))
	}
	var p segPayload
	nv := sr.Int()
	if sr.Err() != nil || nv < 0 || nv != m.authors {
		return corrupt(0, fmt.Sprintf("segment has %d vertices, manifest says %d", nv, m.authors))
	}
	for i := 0; i < nv && sr.Err() == nil; i++ {
		p.verts = append(p.verts, segVert{
			id:     int(sr.Varint()),
			nameID: sr.Varint(),
			iso:    sr.Bool(),
			papers: decodePaperIDs(sr),
		})
	}
	ne := sr.Int()
	if sr.Err() != nil || ne < 0 {
		return corrupt(0, "segment has a corrupt edge count")
	}
	for i := 0; i < ne && sr.Err() == nil; i++ {
		p.edges = append(p.edges, segEdge{u: sr.Int(), v: sr.Int(), papers: decodePaperIDs(sr)})
	}
	ns := sr.Int()
	if sr.Err() != nil || ns < 0 {
		return corrupt(0, "segment has a corrupt slot count")
	}
	for i := 0; i < ns && sr.Err() == nil; i++ {
		p.slots = append(p.slots, segSlot{
			slot: Slot{Paper: bib.PaperID(sr.Varint()), Index: sr.Int()},
			vert: sr.Int(),
		})
	}
	if err := sr.Err(); err != nil {
		return corrupt(0, err.Error())
	}
	return p
}
