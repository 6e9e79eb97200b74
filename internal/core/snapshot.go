package core

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"iuad/internal/bib"
	"iuad/internal/emfit"
	"iuad/internal/faultinject"
	"iuad/internal/intern"
	"iuad/internal/snapshot"
	"iuad/internal/textvec"
)

// SnapshotVersion is the pipeline wire-format version. Bump on ANY
// layout change in this file or the EncodeSnapshot methods it calls.
const SnapshotVersion = 1

// ServiceSnapshotVersion is the wire-format version of service-level
// snapshots (SaveService/LoadServiceSnapshot): a small serving header
// followed by the same pipeline body as SnapshotVersion streams. Service
// versions live in their own 1000+ namespace so a pipeline snapshot
// can never be mistaken for a service snapshot (or vice versa) as the
// two formats evolve independently.
const ServiceSnapshotVersion = 1001

// SavePipeline serializes a fitted pipeline — corpus, interned-table
// tails, embeddings, SCN, GCN, fitted model, calibration, retained pair
// scores and the incremental stream — so a server can restart and answer
// AddPaper immediately, with assignments bit-identical to the pipeline
// that never stopped (§V-E serving without retraining).
//
// The similarity profile cache is deliberately not part of the state:
// AddPaper invalidates every profile an update can affect, so cached
// profiles always equal fresh rebuilds and a cold cache is equivalent.
// (This held for the map-backed profiles and holds unchanged for the
// flat slab-backed layout — profiles are derived state either way; the
// wire format carries no profile bytes and needs no version bump.)
func SavePipeline(w io.Writer, pl *Pipeline) error {
	if pl == nil || pl.GCN == nil || pl.SCN == nil {
		return fmt.Errorf("core: SavePipeline before BuildGCN")
	}
	sw := snapshot.NewWriter(w, SnapshotVersion)
	if err := encodePipelineBody(sw, pl, liveBody(pl)); err != nil {
		return err
	}
	return sw.Close()
}

// SaveService serializes a serving snapshot: the publish epoch of the
// served view followed by the full pipeline state. The view itself is
// derived state (it is rebuilt from the pipeline on load, at the saved
// epoch), so the wire format carries no view bytes — exactly like the
// profile cache, a rebuilt view is bit-equivalent to the one that was
// being served.
func SaveService(w io.Writer, pl *Pipeline, epoch uint64) error {
	if pl == nil || pl.GCN == nil || pl.SCN == nil {
		return fmt.Errorf("core: SaveService before BuildGCN")
	}
	sw := snapshot.NewWriter(w, ServiceSnapshotVersion)
	sw.Uvarint(epoch)
	if err := encodePipelineBody(sw, pl, liveBody(pl)); err != nil {
		return err
	}
	return sw.Close()
}

// bodyParts is the part of a pipeline body that ingest keeps growing:
// the three intern-table tails, the incremental stream and the GCN.
// The reference writers read them off the live pipeline (liveBody); the
// pinned-view writer (view_snapshot.go) passes the length-bounded
// headers it pinned under the service's write lock. Everything else in
// the body is immutable once the fit is done.
type bodyParts struct {
	tails [3][]string // name, venue, word: symbols interned after Freeze
	extra []bib.Paper
	gcn   func(*snapshot.Writer)
}

// liveBody reads the growing parts off the pipeline itself.
func liveBody(pl *Pipeline) bodyParts {
	return bodyParts{
		tails: [3][]string{pl.Corpus.NameTable().Tail(), pl.Corpus.VenueTable().Tail(), pl.Corpus.WordTable().Tail()},
		extra: pl.extra,
		gcn:   func(sw *snapshot.Writer) { encodeNetwork(sw, pl.GCN) },
	}
}

// encodePipelineBody writes the pipeline payload shared by pipeline-
// and service-level snapshots onto an already-opened writer.
func encodePipelineBody(sw *snapshot.Writer, pl *Pipeline, b bodyParts) error {
	cfgJSON, err := json.Marshal(&pl.Cfg)
	if err != nil {
		return fmt.Errorf("core: marshal config: %w", err)
	}
	sw.Bytes(cfgJSON)

	pl.Corpus.EncodeSnapshot(sw)
	// Symbols interned after Freeze (incremental stream); replaying them
	// in order on load reproduces identical IDs.
	for _, tail := range b.tails {
		sw.Strings(tail)
	}

	sw.Bool(pl.Emb != nil)
	if pl.Emb != nil {
		pl.Emb.EncodeSnapshot(sw)
	}
	encodeNetwork(sw, pl.SCN)
	b.gcn(sw)
	sw.Bool(pl.Model != nil)
	if pl.Model != nil {
		pl.Model.EncodeSnapshot(sw)
	}
	sw.F64(pl.CalibratedDelta)
	sw.Int(pl.TrainingPairs)

	sw.Int(len(pl.scored))
	for _, sp := range pl.scored {
		sw.Int(sp.A)
		sw.Int(sp.B)
		sw.F64(sp.Score)
	}
	sw.Int(len(pl.forcedMerges))
	for _, fm := range pl.forcedMerges {
		sw.Int(fm[0])
		sw.Int(fm[1])
	}

	sw.Int(len(b.extra))
	for i := range b.extra {
		bib.EncodePaperSnapshot(sw, &b.extra[i])
	}
	return sw.Err()
}

// LoadPipeline reconstructs a pipeline saved by SavePipeline. The
// returned pipeline serves AddPaper exactly like the original: same
// tables, same networks, same model parameters (bit patterns), same
// decision threshold.
func LoadPipeline(r io.Reader) (*Pipeline, error) {
	sr, err := snapshot.NewReader(r, SnapshotVersion)
	if err != nil {
		return nil, err
	}
	return decodePipelineBody(sr)
}

// LoadServiceSnapshot reconstructs a service saved by SaveService (or
// BasePin): the pipeline and the publish epoch it was serving. A file
// of any other snapshot version — the retired sharded composite
// manifest (1002) included — is refused with an error naming the
// version it found.
func LoadServiceSnapshot(path string) (*Pipeline, uint64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	sr, err := snapshot.NewReader(f, ServiceSnapshotVersion)
	if err != nil {
		return nil, 0, err
	}
	epoch := sr.Uvarint()
	if err := sr.Err(); err != nil {
		return nil, 0, err
	}
	pl, err := decodePipelineBody(sr)
	if err != nil {
		return nil, 0, err
	}
	return pl, epoch, nil
}

// decodePipelineBody reads the pipeline payload shared by pipeline-
// and service-level snapshots from an already-opened reader.
func decodePipelineBody(sr *snapshot.Reader) (*Pipeline, error) {
	cfgJSON := sr.Bytes()
	if err := sr.Err(); err != nil {
		return nil, err
	}
	var cfg Config
	if err := json.Unmarshal(cfgJSON, &cfg); err != nil {
		return nil, fmt.Errorf("core: unmarshal config: %w", err)
	}
	// Re-seed the unexported scoring caches BuildGCN would have set (the
	// feature-index cache keeps the incremental scoring path
	// allocation-lean after a restart).
	cfg.featIdx = cfg.enabledFeatures()
	corpus, err := bib.DecodeCorpusSnapshot(sr)
	if err != nil {
		return nil, err
	}
	for _, replay := range []struct {
		tab  *intern.Table
		what string
	}{
		{corpus.NameTable(), "name"},
		{corpus.VenueTable(), "venue"},
		{corpus.WordTable(), "word"},
	} {
		tail := sr.Strings()
		if err := sr.Err(); err != nil {
			return nil, err
		}
		if err := replay.tab.ReplayTail(tail); err != nil {
			return nil, fmt.Errorf("core: %s table: %w", replay.what, err)
		}
	}

	var emb *textvec.Embeddings
	if sr.Bool() {
		if emb, err = textvec.DecodeEmbeddingsSnapshot(sr); err != nil {
			return nil, err
		}
	}
	scn, err := decodeNetwork(sr, corpus)
	if err != nil {
		return nil, err
	}
	gcn, err := decodeNetwork(sr, corpus)
	if err != nil {
		return nil, err
	}
	var model *emfit.Model
	if sr.Bool() {
		if model, err = emfit.DecodeModelSnapshot(sr); err != nil {
			return nil, err
		}
	}
	pl := &Pipeline{
		Corpus:          corpus,
		Cfg:             cfg,
		SCN:             scn,
		GCN:             gcn,
		Model:           model,
		Emb:             emb,
		CalibratedDelta: sr.F64(),
		TrainingPairs:   sr.Int(),
	}
	ns := sr.Int()
	if err := sr.Err(); err != nil {
		return nil, err
	}
	if ns < 0 {
		return nil, fmt.Errorf("core: snapshot has %d scored pairs", ns)
	}
	// Grow by append with a per-iteration error check: a corrupt count
	// must neither pre-allocate by the untrusted length nor spin through
	// billions of no-op reads after the stream has latched an error.
	for i := 0; i < ns && sr.Err() == nil; i++ {
		pl.scored = append(pl.scored, ScoredPair{A: sr.Int(), B: sr.Int(), Score: sr.F64()})
	}
	nf := sr.Int()
	if err := sr.Err(); err != nil {
		return nil, err
	}
	if nf < 0 {
		return nil, fmt.Errorf("core: snapshot has %d forced merges", nf)
	}
	for i := 0; i < nf && sr.Err() == nil; i++ {
		pl.forcedMerges = append(pl.forcedMerges, [2]int{sr.Int(), sr.Int()})
	}

	// Incremental stream: re-derive the columnar views by looking the
	// symbols up in the replayed tables (AddPaper interned every one of
	// them, so misses mean a corrupt snapshot).
	ne := sr.Int()
	if err := sr.Err(); err != nil {
		return nil, err
	}
	if ne < 0 {
		return nil, fmt.Errorf("core: snapshot has %d extra papers", ne)
	}
	for i := 0; i < ne; i++ {
		p, err := bib.DecodePaperSnapshot(sr)
		if err != nil {
			return nil, fmt.Errorf("core: extra paper %d: %w", i, err)
		}
		p.ID = bib.PaperID(corpus.Len() + i)
		venueID := intern.None
		if p.Venue != "" {
			id, ok := corpus.VenueTable().Lookup(p.Venue)
			if !ok {
				return nil, fmt.Errorf("core: extra paper %d venue %q not interned", i, p.Venue)
			}
			venueID = id
		}
		kw := bib.Keywords(p.Title)
		kwIDs := make([]intern.ID, len(kw))
		for k, w := range kw {
			id, ok := corpus.WordTable().Lookup(w)
			if !ok {
				return nil, fmt.Errorf("core: extra paper %d keyword %q not interned", i, w)
			}
			kwIDs[k] = id
		}
		pl.extra = append(pl.extra, p)
		pl.extraKw = append(pl.extraKw, kwIDs)
		pl.extraVenue = append(pl.extraVenue, venueID)
		pl.extraYear = append(pl.extraYear, p.Year)
	}
	if err := sr.Err(); err != nil {
		return nil, err
	}
	// Paper IDs inside the networks can only be range-checked once the
	// incremental stream length is known; a corrupt ID must be a decode
	// error here, not an index panic at serving time.
	totalPapers := corpus.Len() + len(pl.extra)
	for _, net := range []struct {
		name string
		n    *Network
	}{{"SCN", pl.SCN}, {"GCN", pl.GCN}} {
		if err := validatePaperIDs(net.n, totalPapers); err != nil {
			return nil, fmt.Errorf("core: snapshot %s: %w", net.name, err)
		}
	}
	pl.sim = newSimilarityComputer(pl.GCN, pl, pl.Emb, &pl.Cfg)
	return pl, nil
}

// validatePaperIDs bounds-checks every decoded paper reference of a
// network against the total paper count (corpus + incremental stream).
func validatePaperIDs(n *Network, total int) error {
	inRange := func(ids []bib.PaperID) error {
		for _, id := range ids {
			if id < 0 || int(id) >= total {
				return fmt.Errorf("paper id %d out of range [0,%d)", id, total)
			}
		}
		return nil
	}
	for i := range n.Verts {
		if err := inRange(n.Verts[i].Papers); err != nil {
			return fmt.Errorf("vertex %d: %w", i, err)
		}
	}
	for key, papers := range n.EdgePapers {
		if err := inRange(papers); err != nil {
			return fmt.Errorf("edge %v: %w", key, err)
		}
	}
	for s := range n.SlotVertex {
		if s.Paper < 0 || int(s.Paper) >= total || s.Index < 0 {
			return fmt.Errorf("slot %+v out of range [0,%d)", s, total)
		}
	}
	return nil
}

// encodeNetwork writes a network: vertices (interned name, isolation,
// paper set), collaboration edges with their paper sets (every G edge
// has an EdgePapers entry by construction of addEdge), and the slot
// assignment. Map-backed state is emitted in sorted order so identical
// networks always produce identical bytes.
func encodeNetwork(w *snapshot.Writer, n *Network) {
	w.Int(len(n.Verts))
	for i := range n.Verts {
		v := &n.Verts[i]
		w.Varint(int64(v.NameID))
		w.Bool(v.Isolated)
		encodePaperIDs(w, v.Papers)
	}

	keys := make([][2]int, 0, len(n.EdgePapers))
	for key := range n.EdgePapers {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	w.Int(len(keys))
	for _, key := range keys {
		w.Int(key[0])
		w.Int(key[1])
		encodePaperIDs(w, n.EdgePapers[key])
	}

	slots := make([]Slot, 0, len(n.SlotVertex))
	for s := range n.SlotVertex {
		slots = append(slots, s)
	}
	sort.Slice(slots, func(i, j int) bool {
		if slots[i].Paper != slots[j].Paper {
			return slots[i].Paper < slots[j].Paper
		}
		return slots[i].Index < slots[j].Index
	})
	w.Int(len(slots))
	for _, s := range slots {
		w.Varint(int64(s.Paper))
		w.Int(s.Index)
		w.Int(n.SlotVertex[s])
	}
}

func decodeNetwork(r *snapshot.Reader, corpus *bib.Corpus) (*Network, error) {
	n := newNetwork(corpus)
	names := corpus.NameTable()
	nv := r.Int()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if nv < 0 {
		return nil, fmt.Errorf("core: snapshot network has %d vertices", nv)
	}
	for i := 0; i < nv; i++ {
		nid := intern.ID(r.Varint())
		iso := r.Bool()
		if err := r.Err(); err != nil {
			return nil, err
		}
		if nid < 0 || int(nid) >= names.Len() {
			return nil, fmt.Errorf("core: snapshot vertex %d has name id %d of %d", i, nid, names.Len())
		}
		id := n.addVertexID(nid, iso)
		n.Verts[id].Papers = decodePaperIDs(r)
	}
	ne := r.Int()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if ne < 0 {
		return nil, fmt.Errorf("core: snapshot network has %d edges", ne)
	}
	for i := 0; i < ne; i++ {
		u, v := r.Int(), r.Int()
		papers := decodePaperIDs(r)
		if err := r.Err(); err != nil {
			return nil, err
		}
		if u < 0 || v < 0 || u >= nv || v >= nv || u == v {
			return nil, fmt.Errorf("core: snapshot edge %d joins %d-%d of %d vertices", i, u, v, nv)
		}
		// Adjacency and edge papers are restored directly; addEdge would
		// redundantly re-union the already-exact vertex paper sets.
		n.G.AddEdge(u, v)
		n.EdgePapers[edgeKey(u, v)] = papers
	}
	nslot := r.Int()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if nslot < 0 {
		return nil, fmt.Errorf("core: snapshot network has %d slots", nslot)
	}
	for i := 0; i < nslot; i++ {
		s := Slot{Paper: bib.PaperID(r.Varint()), Index: r.Int()}
		v := r.Int()
		if err := r.Err(); err != nil {
			return nil, err
		}
		if v < 0 || v >= nv {
			return nil, fmt.Errorf("core: snapshot slot %+v assigned to vertex %d of %d", s, v, nv)
		}
		n.SlotVertex[s] = v
	}
	return n, nil
}

func encodePaperIDs(w *snapshot.Writer, ids []bib.PaperID) {
	w.Uvarint(uint64(len(ids)))
	for _, id := range ids {
		w.Varint(int64(id))
	}
}

func decodePaperIDs(r *snapshot.Reader) []bib.PaperID {
	ids := r.Int32s()
	if len(ids) == 0 {
		return nil
	}
	out := make([]bib.PaperID, len(ids))
	for i, id := range ids {
		out[i] = bib.PaperID(id)
	}
	return out
}

// atomicTempPrefix starts the name of every WriteFileAtomic temp file.
const atomicTempPrefix = ".iuad-snap-"

// RemoveAtomicTemps deletes the temp files WriteFileAtomic leaves in
// dir when the process dies between creating one and renaming it into
// place (best-effort). Only the exclusive owner of dir may call it: a
// live writer's temp file looks the same.
func RemoveAtomicTemps(dir string) {
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if !e.IsDir() && strings.HasPrefix(e.Name(), atomicTempPrefix) {
			os.Remove(filepath.Join(dir, e.Name()))
		}
	}
}

// WriteFileAtomic writes a file crash-safely: temp file in the target
// directory, fsync, rename, then fsync the directory so neither a
// torn write nor a lost rename can damage a previously committed file.
func WriteFileAtomic(path string, write func(io.Writer) error) error {
	// Chaos point: an armed SnapshotWrite hook aborts the write here,
	// exactly like a failing disk — before the temp file exists, so
	// the committed snapshot is never touched.
	if err := faultinject.Fire(faultinject.SnapshotWrite); err != nil {
		return err
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, atomicTempPrefix+"*")
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
