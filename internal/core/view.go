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
// The view is *sharded by name block* (see shard.go): per-author state
// is partitioned into N shardViews, each owned by the shard of the
// author's name, plus a global spine (slot table, name column, and the
// vertex→shard/rank routing columns) shared by every shard. Queries
// fan out lock-free — a read loads ONE atomic composite pointer and
// routes through the spine to the owning shard's immutable state — and
// results merge deterministically: per-shard data is keyed by global
// vertex IDs, so iteration orders (ascending vertex ID within a name,
// ascending neighbor ID, slot order) are exactly the unsharded ones.
//
// Concurrency contract. A View is deeply immutable: once published,
// none of its reachable state is ever written again, so any number of
// goroutines may query it while the writer keeps mutating the pipeline
// and publishing later epochs. The ViewPublisher has ONE writer: the
// owning service publishes under its write lock, inside the ingest
// queue's commit turn, so two publishes never overlap and epochs are
// published in order by construction. A publish captures the write's
// touch set (COW paper-set headers, materialized coauthor lists),
// folds it into each touched shard's base+delta state, and swaps the
// touched shard pointers into a copy of the previous composite, which
// it publishes with one atomic store, so readers never observe a torn
// epoch.
//
// Three sharing disciplines make publishing cheap without breaking
// immutability:
//
//   - Append-only slices (slot table, name and routing columns,
//     streamed papers): the publisher appends to its own backing array
//     and each View holds a length-bounded header. Readers never index
//     past their header's length, and published entries are never
//     overwritten, so sharing one backing array across epochs is
//     race-free even while the publisher appends.
//
//   - Copy-on-write entries (per-vertex paper sets): unionPapers never
//     mutates a slice it returns — growth allocates a fresh slice — so
//     a capture can hold the pipeline's own per-vertex slice headers.
//
//   - Base + delta layering, now per shard: the bulk of a shard's
//     vertex-indexed tables lives in a shared immutable base (indexed
//     by shard-local rank); entries touched since the base was built
//     live in a small immutable delta map re-copied (and occasionally
//     flattened) at each publish. Per-publish cost is proportional to
//     the touched shard's delta — about 1/N of the unsharded cost.

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
	// Shards is the serving partition count (1 = unsharded).
	Shards int `json:"shards"`
}

// shardView is one shard's immutable slice of a published epoch. Its
// vertex-indexed tables are keyed by shard-local rank (the spine's
// vertRank column), so each shard's base arrays are dense and sized by
// the authors it owns, not the whole corpus.
type shardView struct {
	// epoch is the global epoch that last touched this shard; pubs
	// counts the publishes that touched it.
	epoch uint64
	pubs  uint64
	// authors/slots are the vertices and assigned occurrences owned.
	authors int
	slots   int

	papersBase  [][]bib.PaperID // by rank
	papersDelta map[int32][]bib.PaperID

	coauthBase  [][]int32 // by rank; values are global vertex IDs
	coauthDelta map[int32][]int32

	byNameBase  map[string][]int32 // global vertex IDs, ascending
	byNameDelta map[string][]int32
}

// View is one published epoch of the serving read-model: the global
// spine plus one immutable shardView per shard. All methods are safe
// for concurrent use without synchronization; slices returned by
// methods are shared with the view and MUST NOT be mutated.
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
	// vertShard/vertRank route a global vertex ID to its owning shard
	// and its dense index there (append-only shared).
	vertShard []uint8
	vertRank  []int32

	shards []*shardView
}

// Epoch returns the publish epoch of this view.
func (v *View) Epoch() uint64 { return v.stats.Epoch }

// Stats returns the sizes of the published network.
func (v *View) Stats() ServiceStats { return v.stats }

// NumVertices returns the number of published authors (vertices).
func (v *View) NumVertices() int { return v.stats.Authors }

// AuthorName returns the name of vertex id, and whether id is a
// published, live vertex. Vertices lost to a partial snapshot recovery
// carry an empty name and report false.
func (v *View) AuthorName(id int) (string, bool) {
	if id < 0 || id >= v.stats.Authors {
		return "", false
	}
	name := v.names[id]
	if name == "" {
		return "", false // dead vertex (lost snapshot segment)
	}
	return name, true
}

// AuthorPapers returns the sorted paper IDs attributed to vertex id.
// The slice is shared with the view; do not mutate.
func (v *View) AuthorPapers(id int) ([]bib.PaperID, bool) {
	if id < 0 || id >= v.stats.Authors {
		return nil, false
	}
	sv := v.shards[v.vertShard[id]]
	r := v.vertRank[id]
	if p, ok := sv.papersDelta[r]; ok {
		return p, true
	}
	if int(r) < len(sv.papersBase) {
		return sv.papersBase[r], true
	}
	return nil, true
}

// Coauthors returns the sorted vertex IDs adjacent to vertex id in the
// published collaboration network. The slice is shared; do not mutate.
func (v *View) Coauthors(id int) ([]int32, bool) {
	if id < 0 || id >= v.stats.Authors {
		return nil, false
	}
	sv := v.shards[v.vertShard[id]]
	r := v.vertRank[id]
	if c, ok := sv.coauthDelta[r]; ok {
		return c, true
	}
	if int(r) < len(sv.coauthBase) {
		return sv.coauthBase[r], true
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
// author name, served from the owning shard's index. The slice is
// shared; do not mutate.
func (v *View) VerticesOfName(name string) []int32 {
	sv := v.shards[ShardOfName(name, len(v.shards))]
	if ids, ok := sv.byNameDelta[name]; ok {
		return ids
	}
	return sv.byNameBase[name]
}

// ResolveSlot returns the vertex the (paper, index) author occurrence
// is assigned to, or false when the slot is outside the published
// epoch (or was lost to a partial snapshot recovery).
func (v *View) ResolveSlot(s Slot) (int, bool) {
	p := int(s.Paper)
	if p < 0 || p >= v.stats.Papers {
		return 0, false
	}
	lo, hi := v.slotOff[p], v.slotOff[p+1]
	if s.Index < 0 || int32(s.Index) >= hi-lo {
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
// amortized. With sharding the bound applies per shard, so both the
// deltas copied per publish and the bases rebuilt per flatten are ≈1/N
// of the unsharded sizes.
const (
	flattenMin = 64
	flattenDiv = 4
)

// publisherShard is the writer's count of one shard's owned vertices
// and assigned slots, grown at capture time.
type publisherShard struct {
	authors int
	slots   int
}

// nameEntry records one vertex created by a capture, for the owning
// shard's byName delta.
type nameEntry struct {
	name string
	vert int32
}

// vertTouch is one touched vertex's captured state: its shard-local
// rank, the COW paper-set header, and a privately copied coauthor
// list (graph adjacency mutates in place and cannot be shared).
type vertTouch struct {
	rank   int32
	papers []bib.PaperID
	coauth []int32
}

// shardTouch is the slice of one capture destined for one shard.
type shardTouch struct {
	shard    int
	newNames []nameEntry
	verts    []vertTouch
}

// PublishCapture is one write batch's touch set, taken by Capture and
// turned into a published View by Apply.
type PublishCapture struct {
	epoch   uint64
	touches []*shardTouch // ascending shard index
}

// ViewPublisher derives Views from a pipeline, sharded by name block.
// It has a single writer — Publish, Capture and Apply must never run
// concurrently with each other or with pipeline ingest — while Current,
// ShardInfos and Contention are safe from any goroutine.
type ViewPublisher struct {
	pl  *Pipeline
	n   int // shard count
	cur atomic.Pointer[View]

	// Append-only spine builders (Views hold length-bounded headers).
	slotOff   []int32
	slotVert  []int32
	names     []string
	nameIDs   []intern.ID
	isolated  []bool
	vertShard []uint8
	vertRank  []int32

	epoch uint64 // last captured epoch

	shards []publisherShard

	// Contention and copy accounting (see ContentionStats).
	ingestWaitNs atomic.Int64
	publishes    atomic.Int64
	deltaCopied  atomic.Int64
	flattens     atomic.Int64
}

// NewViewPublisher builds the initial unsharded (N=1) view of pl at
// the given epoch — the compatibility constructor used by tests and
// single-shard services.
func NewViewPublisher(pl *Pipeline, epoch uint64) *ViewPublisher {
	return NewShardedViewPublisher(pl, epoch, 1, nil)
}

// NewShardedViewPublisher builds the initial full view of pl at the
// given epoch, partitioned into NormShards(shards) shards. seeds, when
// non-nil and of matching length, restores per-shard epoch/publish
// counters from a composite snapshot. The initial build is
// O(V + E + slots); every later publish is proportional to the write's
// touch set.
func NewShardedViewPublisher(pl *Pipeline, epoch uint64, shards int, seeds []ShardSeed) *ViewPublisher {
	n := NormShards(shards)
	vp := &ViewPublisher{pl: pl, n: n, epoch: epoch, shards: make([]publisherShard, n)}

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

	// Routing spine: shard by name hash, dense rank within the shard.
	// Dead vertices (lost to a partial snapshot recovery; NameID < 0)
	// keep their global ID and rank but are invisible to the name
	// index and the query surface.
	vp.names = make([]string, nVerts)
	vp.nameIDs = make([]intern.ID, nVerts)
	vp.isolated = make([]bool, nVerts)
	vp.vertShard = make([]uint8, nVerts)
	vp.vertRank = make([]int32, nVerts)
	for i := 0; i < nVerts; i++ {
		vert := &gcn.Verts[i]
		name := ""
		if vert.NameID >= 0 {
			name = vert.Name
		}
		sh := ShardOfName(name, n)
		vp.names[i] = name
		vp.nameIDs[i] = vert.NameID
		vp.isolated[i] = vert.Isolated
		vp.vertShard[i] = uint8(sh)
		vp.vertRank[i] = int32(vp.shards[sh].authors)
		vp.shards[sh].authors++
	}

	views := make([]*shardView, n)
	for sh := range views {
		views[sh] = &shardView{
			epoch:       epoch,
			authors:     vp.shards[sh].authors,
			papersBase:  make([][]bib.PaperID, vp.shards[sh].authors),
			papersDelta: map[int32][]bib.PaperID{},
			coauthBase:  make([][]int32, vp.shards[sh].authors),
			coauthDelta: map[int32][]int32{},
			byNameBase:  map[string][]int32{},
			byNameDelta: map[string][]int32{},
		}
	}
	// All adjacency rows are carved out of one slab: two allocations for
	// the whole build instead of one per vertex. Published rows stay
	// immutable — each is capacity-bounded, and a realloc on growth only
	// abandons (never mutates) the old backing array.
	coauthSlab := make([]int32, 0, 2*gcn.G.NumEdges())
	for i := 0; i < nVerts; i++ {
		sv := views[vp.vertShard[i]]
		r := vp.vertRank[i]
		sv.papersBase[r] = gcn.Verts[i].Papers
		if start := len(coauthSlab); gcn.G.Degree(i) > 0 {
			coauthSlab = appendNeighborIDs(gcn, i, coauthSlab)
			sv.coauthBase[r] = coauthSlab[start:len(coauthSlab):len(coauthSlab)]
		}
		if name := vp.names[i]; name != "" {
			sv.byNameBase[name] = append(sv.byNameBase[name], int32(i))
		}
	}
	for _, vert := range vp.slotVert {
		if vert >= 0 {
			vp.shards[vp.vertShard[vert]].slots++
		}
	}
	for sh := range views {
		views[sh].slots = vp.shards[sh].slots
		if len(seeds) == n {
			views[sh].epoch = seeds[sh].Epoch
			views[sh].pubs = seeds[sh].Publishes
		}
	}
	vp.cur.Store(vp.view(epoch, views))
	return vp
}

// Current returns the most recently published view.
func (vp *ViewPublisher) Current() *View { return vp.cur.Load() }

// Shards returns the shard count.
func (vp *ViewPublisher) Shards() int { return vp.n }

// CapturedEpoch returns the epoch of the last capture — the published
// epoch whenever no Capture awaits its Apply. Writer only.
func (vp *ViewPublisher) CapturedEpoch() uint64 { return vp.epoch }

// Publish folds one write batch into a fresh immutable View and
// publishes it: Capture + Apply back to back. Writer only.
func (vp *ViewPublisher) Publish(batches [][]Assignment) *View {
	return vp.Apply(vp.Capture(batches))
}

// Capture snapshots one write batch — the assignments AddPapers
// returned — and appends its papers and vertices to the spine. It must
// be called with the assignments of every paper ingested since the
// previous Capture, in ingest order; the write's touch set is exactly
// the assigned vertices (papers and edges only ever change there), so
// that is all it copies. Writer only; Apply applies the last Capture.
func (vp *ViewPublisher) Capture(batches [][]Assignment) *PublishCapture {
	gcn := vp.pl.GCN
	vp.epoch++
	c := &PublishCapture{epoch: vp.epoch}

	touched := make(map[int]*shardTouch, 4)
	touch := func(sh int) *shardTouch {
		t, ok := touched[sh]
		if !ok {
			t = &shardTouch{shard: sh}
			touched[sh] = t
		}
		return t
	}

	// Slot table: append the new papers' slots (append-only sharing).
	for _, as := range batches {
		for _, a := range as {
			vp.slotVert = append(vp.slotVert, int32(a.Vertex))
		}
		vp.slotOff = append(vp.slotOff, int32(len(vp.slotVert)))
	}

	// New vertices: extend the spine columns and route each to its
	// owning shard's byName delta (created vertices are also in the
	// assigned touch set below).
	for i := len(vp.names); i < len(gcn.Verts); i++ {
		name := gcn.Verts[i].Name
		sh := ShardOfName(name, vp.n)
		ps := &vp.shards[sh]
		vp.names = append(vp.names, name)
		vp.nameIDs = append(vp.nameIDs, gcn.Verts[i].NameID)
		vp.isolated = append(vp.isolated, gcn.Verts[i].Isolated)
		vp.vertShard = append(vp.vertShard, uint8(sh))
		vp.vertRank = append(vp.vertRank, int32(ps.authors))
		ps.authors++
		touch(sh).newNames = append(touch(sh).newNames, nameEntry{name: name, vert: int32(i)})
	}

	// Touched vertices: fresh paper-set headers (copy-on-write slices,
	// safe to share) and freshly materialized coauthor lists. A slot's
	// vertex always carries the slot's name, so the vertex's shard is
	// the name block's shard.
	seen := make(map[int32]bool, 8)
	var coauthSlab []int32 // one backing array for the batch's coauthor rows
	for _, as := range batches {
		for _, a := range as {
			sh := int(vp.vertShard[a.Vertex])
			vp.shards[sh].slots++
			if seen[int32(a.Vertex)] {
				continue
			}
			seen[int32(a.Vertex)] = true
			var coauth []int32
			if start := len(coauthSlab); gcn.G.Degree(a.Vertex) > 0 {
				coauthSlab = appendNeighborIDs(gcn, a.Vertex, coauthSlab)
				coauth = coauthSlab[start:len(coauthSlab):len(coauthSlab)]
			}
			touch(sh).verts = append(touch(sh).verts, vertTouch{
				rank:   vp.vertRank[a.Vertex],
				papers: gcn.Verts[a.Vertex].Papers,
				coauth: coauth,
			})
		}
	}

	c.touches = make([]*shardTouch, 0, len(touched))
	for sh := 0; sh < vp.n && len(c.touches) < len(touched); sh++ {
		if t, ok := touched[sh]; ok {
			c.touches = append(c.touches, t)
		}
	}
	return c
}

// Apply folds a capture into the touched shards and publishes the
// composite view with one atomic store. Writer only; Apply applies the
// last Capture.
func (vp *ViewPublisher) Apply(c *PublishCapture) *View {
	prev := vp.cur.Load()
	shards := make([]*shardView, len(prev.shards))
	copy(shards, prev.shards)
	for _, t := range c.touches {
		shards[t.shard] = vp.applyShard(prev.shards[t.shard], t, c.epoch)
	}
	// Chaos point: delays every epoch publish before the composite is
	// swapped in — the injected "publish is slow" fault the ingest
	// queue must absorb by shedding load, not by growing unboundedly.
	faultinject.Fire(faultinject.PublishDelay)
	v := vp.view(c.epoch, shards)
	vp.cur.Store(v)
	vp.publishes.Add(1)
	return v
}

// applyShard builds a touched shard's next immutable shardView from its
// previous one plus the capture's slice.
func (vp *ViewPublisher) applyShard(prev *shardView, t *shardTouch, epoch uint64) *shardView {
	ps := &vp.shards[t.shard]
	next := &shardView{
		epoch:       epoch,
		pubs:        prev.pubs + 1,
		authors:     ps.authors,
		slots:       ps.slots,
		papersBase:  prev.papersBase,
		papersDelta: prev.papersDelta,
		coauthBase:  prev.coauthBase,
		coauthDelta: prev.coauthDelta,
		byNameBase:  prev.byNameBase,
		byNameDelta: prev.byNameDelta,
	}
	if len(t.newNames) > 0 {
		delta := make(map[string][]int32, len(prev.byNameDelta)+len(t.newNames))
		for k, ids := range prev.byNameDelta {
			delta[k] = ids
		}
		vp.deltaCopied.Add(int64(len(prev.byNameDelta)))
		for _, ne := range t.newNames {
			cur, ok := delta[ne.name]
			if !ok {
				cur = prev.byNameBase[ne.name]
			}
			delta[ne.name] = append(append(make([]int32, 0, len(cur)+1), cur...), ne.vert)
		}
		next.byNameDelta = delta
	}
	if len(t.verts) > 0 {
		pd := make(map[int32][]bib.PaperID, len(prev.papersDelta)+len(t.verts))
		for k, p := range prev.papersDelta {
			pd[k] = p
		}
		cd := make(map[int32][]int32, len(prev.coauthDelta)+len(t.verts))
		for k, co := range prev.coauthDelta {
			cd[k] = co
		}
		vp.deltaCopied.Add(int64(len(prev.papersDelta) + len(prev.coauthDelta)))
		for _, vt := range t.verts {
			pd[vt.rank] = vt.papers
			cd[vt.rank] = vt.coauth
		}
		next.papersDelta, next.coauthDelta = pd, cd
	}
	vp.flattenShard(next)
	return next
}

// view builds the composite View of the writer's current spine at
// epoch over the given shard views.
func (vp *ViewPublisher) view(epoch uint64, shards []*shardView) *View {
	return &View{
		stats:     vp.statsAt(epoch),
		corpus:    vp.pl.Corpus,
		extra:     vp.pl.extra,
		slotOff:   vp.slotOff,
		slotVert:  vp.slotVert,
		names:     vp.names,
		nameIDs:   vp.nameIDs,
		isolated:  vp.isolated,
		vertShard: vp.vertShard,
		vertRank:  vp.vertRank,
		shards:    shards,
	}
}

// ShardInfos reports the per-shard serving summaries of the current
// view, ascending by shard index (the deterministic merge order).
func (vp *ViewPublisher) ShardInfos() []ShardInfo {
	v := vp.cur.Load()
	out := make([]ShardInfo, len(v.shards))
	for i, sv := range v.shards {
		out[i] = ShardInfo{
			Shard:     i,
			Epoch:     sv.epoch,
			Publishes: sv.pubs,
			Authors:   sv.authors,
			Slots:     sv.slots,
		}
	}
	return out
}

// AddIngestWait accrues time a writer spent waiting for the service's
// write lock (reported in ContentionStats).
func (vp *ViewPublisher) AddIngestWait(ns int64) { vp.ingestWaitNs.Add(ns) }

// Contention returns the cumulative write-path contention and copy
// accounting.
func (vp *ViewPublisher) Contention() ContentionStats {
	return ContentionStats{
		Shards:             vp.n,
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
		Shards:         vp.n,
	}
}

// flattenShard folds any oversized delta of one shard into a fresh
// base so lookups stay cheap; bases are rebuilt at most every
// O(base/flattenDiv) touches, and each base is only the shard's own
// slice of the corpus.
func (vp *ViewPublisher) flattenShard(sv *shardView) {
	n := sv.authors
	if len(sv.papersDelta) > flattenMin+len(sv.papersBase)/flattenDiv {
		base := make([][]bib.PaperID, n)
		copy(base, sv.papersBase)
		for r, p := range sv.papersDelta {
			base[r] = p
		}
		sv.papersBase, sv.papersDelta = base, map[int32][]bib.PaperID{}
		vp.flattens.Add(1)
	}
	if len(sv.coauthDelta) > flattenMin+len(sv.coauthBase)/flattenDiv {
		base := make([][]int32, n)
		copy(base, sv.coauthBase)
		for r, c := range sv.coauthDelta {
			base[r] = c
		}
		sv.coauthBase, sv.coauthDelta = base, map[int32][]int32{}
		vp.flattens.Add(1)
	}
	if len(sv.byNameDelta) > flattenMin+len(sv.byNameBase)/flattenDiv {
		base := make(map[string][]int32, len(sv.byNameBase)+len(sv.byNameDelta))
		for name, ids := range sv.byNameBase {
			base[name] = ids
		}
		for name, ids := range sv.byNameDelta {
			base[name] = ids
		}
		sv.byNameBase, sv.byNameDelta = base, map[string][]int32{}
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
