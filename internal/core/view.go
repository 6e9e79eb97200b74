package core

import (
	"sync/atomic"

	"iuad/internal/bib"
	"iuad/internal/faultinject"
	"iuad/internal/intern"
)

// This file implements the published read-model behind the serving API
// (iuad.Service): an immutable View that answers author queries without
// any lock, and the ViewPublisher that derives a fresh View from the
// pipeline after each write epoch.
//
// Concurrency contract. A View is deeply immutable: once published,
// none of its reachable state is ever written again, so any number of
// goroutines may query it while the writer keeps mutating the pipeline
// and publishing later epochs. The ViewPublisher has ONE writer: the
// owning service publishes under its write lock, inside the ingest
// queue's commit turn, so two publishes never overlap and epochs are
// published in order by construction. A publish captures the write's
// touch set (COW paper-set headers, materialized coauthor lists),
// folds it into the base+delta tables, and publishes the next View
// with one atomic store, so readers never observe a torn epoch.
//
// Three sharing disciplines make publishing cheap without breaking
// immutability:
//
//   - Append-only slices (slot table, per-vertex name columns, streamed
//     papers): the publisher appends to its own backing array and each
//     View holds a length-bounded header. Readers never index past
//     their header's length, and published entries are never
//     overwritten, so sharing one backing array across epochs is
//     race-free even while the publisher appends.
//
//   - Copy-on-write entries (per-vertex paper sets): unionPapers never
//     mutates a slice it returns — growth allocates a fresh slice — so
//     a capture can hold the pipeline's own per-vertex slice headers.
//
//   - Base + delta layering: the bulk of the vertex-indexed tables
//     lives in a shared immutable base; entries touched since the base
//     was built live in a small immutable delta map re-copied (and
//     occasionally flattened) at each publish, so per-publish cost is
//     proportional to the delta, amortized.

// ServiceStats is the point-in-time summary served by Stats(): the
// epoch it was published at and the sizes of the published network.
type ServiceStats struct {
	// Epoch counts publishes; it increases by exactly one per write
	// batch, so readers can detect progress and tests can assert that
	// no partially-published state is ever observable.
	Epoch uint64 `json:"epoch"`
	// Papers = CorpusPapers + StreamedPapers.
	Papers         int `json:"papers"`
	CorpusPapers   int `json:"corpus_papers"`
	StreamedPapers int `json:"streamed_papers"`
	// Authors is the number of conjectured authors (GCN vertices).
	Authors int `json:"authors"`
	// Names is the number of distinct author-name strings seen.
	Names int `json:"names"`
	// Edges is the number of collaboration edges.
	Edges int `json:"edges"`
	// Slots is the number of assigned author occurrences.
	Slots int `json:"slots"`
}

// ContentionStats is the write-path contention and copy accounting of
// the view publisher: how long a commit waited for the service's write
// lock, and how much base+delta state publishing re-copied. All
// counters are cumulative since the publisher was built.
type ContentionStats struct {
	// Publishes counts published epochs.
	Publishes int64 `json:"publishes"`
	// IngestWaitNs is time commits spent waiting for the service's
	// write lock. The commit turn already serializes commits, so this
	// only counts waits behind a compaction's pin and cut, a Save or a
	// Close.
	IngestWaitNs int64 `json:"ingest_wait_ns"`
	// ApplyWaitNs is always 0: publishes have one writer and take no
	// lock of their own. The field stays because the benchmark reports
	// it as core.view.apply_wait_ms.
	ApplyWaitNs int64 `json:"apply_wait_ns"`
	// DeltaEntriesCopied counts base+delta map entries re-copied at
	// publish time.
	DeltaEntriesCopied int64 `json:"delta_entries_copied"`
	// Flattens counts delta→base folds.
	Flattens int64 `json:"flattens"`
}

// viewTables are a View's vertex-indexed read tables: an immutable
// base shared across epochs plus the entries touched since the base
// was built.
type viewTables struct {
	papersBase  [][]bib.PaperID // by vertex ID
	papersDelta map[int32][]bib.PaperID

	coauthBase  [][]int32 // by vertex ID
	coauthDelta map[int32][]int32

	byNameBase  map[string][]int32 // vertex IDs, ascending
	byNameDelta map[string][]int32
}

// View is one published epoch of the serving read-model. All methods
// are safe for concurrent use without synchronization; slices returned
// by methods are shared with the view and MUST NOT be mutated.
type View struct {
	stats  ServiceStats
	corpus *bib.Corpus
	extra  []bib.Paper // streamed papers (append-only shared header)

	// slotOff[p]..slotOff[p+1] indexes slotVert for paper p's slots.
	slotOff  []int32 // len = stats.Papers + 1 (append-only shared)
	slotVert []int32 // assigned vertex per slot (append-only shared)

	names []string // per-vertex author name (append-only shared)
	// nameIDs/isolated are the per-vertex columns only the base-snapshot
	// encoder reads (append-only shared; immutable once a vertex exists).
	nameIDs  []intern.ID
	isolated []bool

	viewTables
}

// Epoch returns the publish epoch of this view.
func (v *View) Epoch() uint64 { return v.stats.Epoch }

// Stats returns the sizes of the published network.
func (v *View) Stats() ServiceStats { return v.stats }

// NumVertices returns the number of published authors (vertices).
func (v *View) NumVertices() int { return v.stats.Authors }

// AuthorName returns the name of vertex id, and whether id is a
// published vertex.
func (v *View) AuthorName(id int) (string, bool) {
	if id < 0 || id >= v.stats.Authors {
		return "", false
	}
	return v.names[id], true
}

// AuthorPapers returns the sorted paper IDs attributed to vertex id.
// The slice is shared with the view; do not mutate.
func (v *View) AuthorPapers(id int) ([]bib.PaperID, bool) {
	if id < 0 || id >= v.stats.Authors {
		return nil, false
	}
	if p, ok := v.papersDelta[int32(id)]; ok {
		return p, true
	}
	if id < len(v.papersBase) {
		return v.papersBase[id], true
	}
	return nil, true
}

// Coauthors returns the sorted vertex IDs adjacent to vertex id in the
// published collaboration network. The slice is shared; do not mutate.
func (v *View) Coauthors(id int) ([]int32, bool) {
	if id < 0 || id >= v.stats.Authors {
		return nil, false
	}
	if c, ok := v.coauthDelta[int32(id)]; ok {
		return c, true
	}
	if id < len(v.coauthBase) {
		return v.coauthBase[id], true
	}
	return nil, true
}

// AppendCoauthors appends the sorted coauthor vertex IDs of id to buf
// and returns the extended buffer — the append-into-caller-buffer
// variant of Coauthors for read paths that aggregate adjacency across
// many vertices (compiling per-epoch analytics, exporting CSR rows).
// It allocates nothing when buf has capacity.
func (v *View) AppendCoauthors(id int, buf []int32) ([]int32, bool) {
	c, ok := v.Coauthors(id)
	if !ok {
		return buf, false
	}
	return append(buf, c...), true
}

// VerticesOfName returns the ascending vertex IDs carrying the exact
// author name. The slice is shared; do not mutate.
func (v *View) VerticesOfName(name string) []int32 {
	if ids, ok := v.byNameDelta[name]; ok {
		return ids
	}
	return v.byNameBase[name]
}

// ResolveSlot returns the vertex the (paper, index) author occurrence
// is assigned to, or false when the slot is outside the published
// epoch.
func (v *View) ResolveSlot(s Slot) (int, bool) {
	p := int(s.Paper)
	if p < 0 || p >= v.stats.Papers {
		return 0, false
	}
	lo, hi := v.slotOff[p], v.slotOff[p+1]
	if s.Index < 0 || s.Index >= int(hi-lo) {
		return 0, false
	}
	vert := v.slotVert[lo+int32(s.Index)]
	if vert < 0 {
		return 0, false
	}
	return int(vert), true
}

// PaperMeta resolves a published paper record — corpus papers and
// streamed papers alike. The returned record is immutable.
func (v *View) PaperMeta(id bib.PaperID) (*bib.Paper, bool) {
	if id < 0 || int(id) >= v.stats.Papers {
		return nil, false
	}
	if int(id) < v.stats.CorpusPapers {
		return v.corpus.Paper(id), true
	}
	return &v.extra[int(id)-v.stats.CorpusPapers], true
}

// flattenSlack bounds how large a delta may grow relative to its base
// before a publish folds it into a fresh base: len(delta) is kept under
// flattenMin + len(base)/flattenDiv, so lookup stays O(1) with a small
// constant and per-publish cost stays proportional to the touch set,
// amortized.
const (
	flattenMin = 64
	flattenDiv = 4
)

// nameEntry records one vertex created by a capture, for the byName
// delta.
type nameEntry struct {
	name string
	vert int32
}

// vertTouch is one touched vertex's captured state: the COW paper-set
// header and a privately copied coauthor list (graph adjacency
// mutates in place and cannot be shared).
type vertTouch struct {
	id     int32
	papers []bib.PaperID
	coauth []int32
}

// PublishCapture is one write batch's touch set, taken by Capture and
// turned into a published View by Apply.
type PublishCapture struct {
	epoch    uint64
	newNames []nameEntry
	verts    []vertTouch
}

// ViewPublisher derives Views from a pipeline. It has a single writer —
// Publish, Capture and Apply must never run concurrently with each
// other or with pipeline ingest — while Current and Contention are
// safe from any goroutine.
type ViewPublisher struct {
	pl  *Pipeline
	cur atomic.Pointer[View]

	// Append-only column builders (Views hold length-bounded headers).
	slotOff  []int32
	slotVert []int32
	names    []string
	nameIDs  []intern.ID
	isolated []bool

	epoch uint64 // last captured epoch

	// Contention and copy accounting (see ContentionStats).
	ingestWaitNs atomic.Int64
	publishes    atomic.Int64
	deltaCopied  atomic.Int64
	flattens     atomic.Int64
}

// NewViewPublisher builds the initial full view of pl at the given
// epoch. The initial build is O(V + E + slots); every later publish is
// proportional to the write's touch set.
func NewViewPublisher(pl *Pipeline, epoch uint64) *ViewPublisher {
	vp := &ViewPublisher{pl: pl, epoch: epoch}

	gcn := pl.GCN
	nVerts := len(gcn.Verts)

	papers := corpusLen(pl)
	vp.slotOff = make([]int32, 1, papers+1)
	for pid := 0; pid < papers; pid++ {
		np := len(pl.PaperByID(bib.PaperID(pid)).Authors)
		for idx := 0; idx < np; idx++ {
			vert, ok := gcn.SlotVertex[Slot{Paper: bib.PaperID(pid), Index: idx}]
			if !ok {
				vert = -1
			}
			vp.slotVert = append(vp.slotVert, int32(vert))
		}
		vp.slotOff = append(vp.slotOff, int32(len(vp.slotVert)))
	}

	vp.names = make([]string, nVerts)
	vp.nameIDs = make([]intern.ID, nVerts)
	vp.isolated = make([]bool, nVerts)
	t := viewTables{
		papersBase:  make([][]bib.PaperID, nVerts),
		papersDelta: map[int32][]bib.PaperID{},
		coauthBase:  make([][]int32, nVerts),
		coauthDelta: map[int32][]int32{},
		byNameBase:  map[string][]int32{},
		byNameDelta: map[string][]int32{},
	}
	// All adjacency rows are carved out of one slab: two allocations for
	// the whole build instead of one per vertex. Published rows stay
	// immutable — each is capacity-bounded, and a realloc on growth only
	// abandons (never mutates) the old backing array.
	coauthSlab := make([]int32, 0, 2*gcn.G.NumEdges())
	for i := 0; i < nVerts; i++ {
		vert := &gcn.Verts[i]
		vp.names[i] = vert.Name
		vp.nameIDs[i] = vert.NameID
		vp.isolated[i] = vert.Isolated
		t.papersBase[i] = vert.Papers
		if start := len(coauthSlab); gcn.G.Degree(i) > 0 {
			coauthSlab = appendNeighborIDs(gcn, i, coauthSlab)
			t.coauthBase[i] = coauthSlab[start:len(coauthSlab):len(coauthSlab)]
		}
		t.byNameBase[vert.Name] = append(t.byNameBase[vert.Name], int32(i))
	}
	vp.cur.Store(vp.view(epoch, t))
	return vp
}

// Current returns the most recently published view.
func (vp *ViewPublisher) Current() *View { return vp.cur.Load() }

// CapturedEpoch returns the epoch of the last capture — the published
// epoch whenever no Capture awaits its Apply. Writer only.
func (vp *ViewPublisher) CapturedEpoch() uint64 { return vp.epoch }

// Publish folds one write batch into a fresh immutable View and
// publishes it: Capture + Apply back to back. Writer only.
func (vp *ViewPublisher) Publish(batches [][]Assignment) *View {
	return vp.Apply(vp.Capture(batches))
}

// Capture snapshots one write batch — the assignments AddPapers
// returned — and appends its papers and vertices to the columns. It
// must be called with the assignments of every paper ingested since
// the previous Capture, in ingest order; the write's touch set is
// exactly the assigned vertices (papers and edges only ever change
// there), so that is all it copies. Writer only; Apply applies the
// last Capture.
func (vp *ViewPublisher) Capture(batches [][]Assignment) *PublishCapture {
	gcn := vp.pl.GCN
	vp.epoch++
	c := &PublishCapture{epoch: vp.epoch}

	// Slot table: append the new papers' slots (append-only sharing).
	for _, as := range batches {
		for _, a := range as {
			vp.slotVert = append(vp.slotVert, int32(a.Vertex))
		}
		vp.slotOff = append(vp.slotOff, int32(len(vp.slotVert)))
	}

	// New vertices: extend the columns and the byName delta (created
	// vertices are also in the assigned touch set below).
	for i := len(vp.names); i < len(gcn.Verts); i++ {
		name := gcn.Verts[i].Name
		vp.names = append(vp.names, name)
		vp.nameIDs = append(vp.nameIDs, gcn.Verts[i].NameID)
		vp.isolated = append(vp.isolated, gcn.Verts[i].Isolated)
		c.newNames = append(c.newNames, nameEntry{name: name, vert: int32(i)})
	}

	// Touched vertices: fresh paper-set headers (copy-on-write slices,
	// safe to share) and freshly materialized coauthor lists.
	seen := make(map[int32]bool, 8)
	var coauthSlab []int32 // one backing array for the batch's coauthor rows
	for _, as := range batches {
		for _, a := range as {
			if seen[int32(a.Vertex)] {
				continue
			}
			seen[int32(a.Vertex)] = true
			var coauth []int32
			if start := len(coauthSlab); gcn.G.Degree(a.Vertex) > 0 {
				coauthSlab = appendNeighborIDs(gcn, a.Vertex, coauthSlab)
				coauth = coauthSlab[start:len(coauthSlab):len(coauthSlab)]
			}
			c.verts = append(c.verts, vertTouch{
				id:     int32(a.Vertex),
				papers: gcn.Verts[a.Vertex].Papers,
				coauth: coauth,
			})
		}
	}
	return c
}

// Apply folds a capture into the previous view's tables and publishes
// the next view with one atomic store. Writer only; Apply applies the
// last Capture.
func (vp *ViewPublisher) Apply(c *PublishCapture) *View {
	t := vp.cur.Load().viewTables
	if len(c.newNames) > 0 {
		delta := make(map[string][]int32, len(t.byNameDelta)+len(c.newNames))
		for k, ids := range t.byNameDelta {
			delta[k] = ids
		}
		vp.deltaCopied.Add(int64(len(t.byNameDelta)))
		for _, ne := range c.newNames {
			cur, ok := delta[ne.name]
			if !ok {
				cur = t.byNameBase[ne.name]
			}
			delta[ne.name] = append(append(make([]int32, 0, len(cur)+1), cur...), ne.vert)
		}
		t.byNameDelta = delta
	}
	if len(c.verts) > 0 {
		pd := make(map[int32][]bib.PaperID, len(t.papersDelta)+len(c.verts))
		for k, p := range t.papersDelta {
			pd[k] = p
		}
		cd := make(map[int32][]int32, len(t.coauthDelta)+len(c.verts))
		for k, co := range t.coauthDelta {
			cd[k] = co
		}
		vp.deltaCopied.Add(int64(len(t.papersDelta) + len(t.coauthDelta)))
		for _, vt := range c.verts {
			pd[vt.id] = vt.papers
			cd[vt.id] = vt.coauth
		}
		t.papersDelta, t.coauthDelta = pd, cd
	}
	vp.flatten(&t)
	// Chaos point: delays every epoch publish before the view is
	// swapped in — the injected "publish is slow" fault the ingest
	// queue must absorb by shedding load, not by growing unboundedly.
	faultinject.Fire(faultinject.PublishDelay)
	v := vp.view(c.epoch, t)
	vp.cur.Store(v)
	vp.publishes.Add(1)
	return v
}

// view builds the View of the writer's current columns at epoch over
// the given tables.
func (vp *ViewPublisher) view(epoch uint64, t viewTables) *View {
	return &View{
		stats:      vp.statsAt(epoch),
		corpus:     vp.pl.Corpus,
		extra:      vp.pl.extra,
		slotOff:    vp.slotOff,
		slotVert:   vp.slotVert,
		names:      vp.names,
		nameIDs:    vp.nameIDs,
		isolated:   vp.isolated,
		viewTables: t,
	}
}

// AddIngestWait accrues time a writer spent waiting for the service's
// write lock (reported in ContentionStats).
func (vp *ViewPublisher) AddIngestWait(ns int64) { vp.ingestWaitNs.Add(ns) }

// Contention returns the cumulative write-path contention and copy
// accounting.
func (vp *ViewPublisher) Contention() ContentionStats {
	return ContentionStats{
		Publishes:          vp.publishes.Load(),
		IngestWaitNs:       vp.ingestWaitNs.Load(),
		DeltaEntriesCopied: vp.deltaCopied.Load(),
		Flattens:           vp.flattens.Load(),
	}
}

// statsAt reads the pipeline's current sizes. Writer only.
func (vp *ViewPublisher) statsAt(epoch uint64) ServiceStats {
	pl := vp.pl
	return ServiceStats{
		Epoch:          epoch,
		Papers:         corpusLen(pl),
		CorpusPapers:   pl.Corpus.Len(),
		StreamedPapers: len(pl.extra),
		Authors:        len(pl.GCN.Verts),
		Names:          pl.Corpus.NameTable().Len(),
		Edges:          pl.GCN.EdgeCount(),
		Slots:          len(vp.slotVert),
	}
}

// flatten folds any oversized delta into a fresh base so lookups stay
// cheap; bases are rebuilt at most every O(base/flattenDiv) touches.
func (vp *ViewPublisher) flatten(t *viewTables) {
	n := len(vp.names)
	if len(t.papersDelta) > flattenMin+len(t.papersBase)/flattenDiv {
		base := make([][]bib.PaperID, n)
		copy(base, t.papersBase)
		for id, p := range t.papersDelta {
			base[id] = p
		}
		t.papersBase, t.papersDelta = base, map[int32][]bib.PaperID{}
		vp.flattens.Add(1)
	}
	if len(t.coauthDelta) > flattenMin+len(t.coauthBase)/flattenDiv {
		base := make([][]int32, n)
		copy(base, t.coauthBase)
		for id, c := range t.coauthDelta {
			base[id] = c
		}
		t.coauthBase, t.coauthDelta = base, map[int32][]int32{}
		vp.flattens.Add(1)
	}
	if len(t.byNameDelta) > flattenMin+len(t.byNameBase)/flattenDiv {
		base := make(map[string][]int32, len(t.byNameBase)+len(t.byNameDelta))
		for name, ids := range t.byNameBase {
			base[name] = ids
		}
		for name, ids := range t.byNameDelta {
			base[name] = ids
		}
		t.byNameBase, t.byNameDelta = base, map[string][]int32{}
		vp.flattens.Add(1)
	}
}

// appendNeighborIDs materializes the sorted adjacency of vertex v into
// buf and returns the extended buffer (graph adjacency mutates in place
// and cannot be shared with lock-free readers). Callers carve per-vertex
// rows out of one capture-owned slab instead of allocating a fresh slice
// per call; carved rows must be capacity-bounded (three-index sliced) so
// later appends can never write into a published row.
func appendNeighborIDs(n *Network, v int, buf []int32) []int32 {
	return n.G.AppendNeighbors(v, buf)
}

// corpusLen is the total paper count: frozen corpus + streamed.
func corpusLen(pl *Pipeline) int { return pl.Corpus.Len() + len(pl.extra) }
