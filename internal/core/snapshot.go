package core

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
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

// The base snapshot is the one persisted format: magic, BaseVersion,
// the serving epoch, the pipeline body, then a CRC-32C of every byte
// before it. It is the one version written and read. Bump BaseVersion on
// ANY layout change in this file or the EncodeSnapshot methods it calls,
// and never reuse a retired version: 1 (the pipeline snapshot), 1001
// (the base without the trailer) and 1002/1003 (the sharded composite)
// are refused with a *snapshot.VersionError naming the last build that
// reads them (DESIGN.md §6).
const (
	BaseVersion = 1004
	crcLen      = 4
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// SnapshotError reports a base snapshot that exists but cannot be
// loaded — not a snapshot, a version this build does not read, a
// short file, bytes after the body, a CRC mismatch or a body that does
// not decode. It never means "no snapshot".
type SnapshotError struct {
	Path string
	Err  error
}

func (e *SnapshotError) Error() string {
	return fmt.Sprintf("core: base snapshot %s refused: %v", e.Path, e.Err)
}

func (e *SnapshotError) Unwrap() error { return e.Err }

// SaveService writes the base snapshot of a pipeline at an epoch by
// walking its maps: the reference BasePin.Encode must match byte for
// byte. The view and the profile cache are derived state and carry no
// bytes (AddPaper invalidates every profile an update can affect, so a
// cold cache is equivalent).
func SaveService(w io.Writer, pl *Pipeline, epoch uint64) error {
	if pl == nil || pl.GCN == nil || pl.SCN == nil {
		return fmt.Errorf("core: SaveService before BuildGCN")
	}
	return writeBase(w, pl, epoch, liveBody(pl))
}

// writeBase is the one writer of the base framing; the CRC-32C trailer
// is little-endian.
func writeBase(w io.Writer, pl *Pipeline, epoch uint64, b bodyParts) error {
	crc := crc32.New(castagnoli)
	sw := snapshot.NewWriter(io.MultiWriter(w, crc), BaseVersion)
	sw.Uvarint(epoch)
	if err := encodePipelineBody(sw, pl, b); err != nil {
		return err
	}
	if err := sw.Close(); err != nil {
		return err
	}
	_, err := w.Write(binary.LittleEndian.AppendUint32(nil, crc.Sum32()))
	return err
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

// encodePipelineBody writes the pipeline body — config, corpus,
// intern-table tails, embeddings, SCN, GCN, model, δ, retained pair
// scores, forced merges and the incremental stream — onto an
// already-opened writer.
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

// LoadServiceSnapshot reads the base snapshot at path: the pipeline
// and the epoch it was serving. A missing file is the open error
// (fs.ErrNotExist); every other failure is a *SnapshotError naming path.
func LoadServiceSnapshot(path string) (*Pipeline, uint64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	pl, epoch, err := readBase(f)
	if err != nil {
		return nil, 0, &SnapshotError{Path: path, Err: err}
	}
	return pl, epoch, nil
}

// readBase is the one reader of the base framing. It checks the
// version first, then streams one CRC-32C pass over the body and
// compares it with the trailer before decoding anything, so a damaged
// base is refused at the cost of a read and no count in it sizes an
// allocation. The decode then reads the file again; neither pass holds
// a copy of it.
func readBase(f *os.File) (*Pipeline, uint64, error) {
	fi, err := f.Stat()
	if err != nil {
		return nil, 0, err
	}
	if _, err := snapshot.NewReader(f, BaseVersion); err != nil {
		return nil, 0, err
	}
	body := fi.Size() - crcLen
	crc := crc32.New(castagnoli)
	if _, err := io.Copy(crc, io.NewSectionReader(f, 0, body)); err != nil {
		return nil, 0, err
	}
	var trailer [crcLen]byte
	if _, err := f.ReadAt(trailer[:], body); err != nil {
		return nil, 0, fmt.Errorf("CRC-32C trailer: %w", err)
	}
	if got, want := crc.Sum32(), binary.LittleEndian.Uint32(trailer[:]); got != want {
		return nil, 0, fmt.Errorf("CRC-32C of %d bytes is %08x, the trailer says %08x", body, got, want)
	}
	sr, err := snapshot.NewReader(io.NewSectionReader(f, 0, body), BaseVersion)
	if err != nil {
		return nil, 0, err
	}
	epoch := sr.Uvarint()
	pl, err := decodePipelineBody(sr)
	if err == nil {
		sr.ExpectEOF()
		err = sr.Err()
	}
	if err != nil {
		return nil, 0, err
	}
	return pl, epoch, nil
}

// decodePipelineBody reads the pipeline body from an already-opened
// reader.
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
	ns := sr.Count("scored pairs")
	// Grow by append with a per-iteration error check: a corrupt count
	// must neither pre-allocate by the untrusted length nor spin through
	// billions of no-op reads after the stream has latched an error.
	for i := 0; i < ns && sr.Err() == nil; i++ {
		pl.scored = append(pl.scored, ScoredPair{A: sr.Int(), B: sr.Int(), Score: sr.F64()})
	}
	nf := sr.Count("forced merges")
	for i := 0; i < nf && sr.Err() == nil; i++ {
		pl.forcedMerges = append(pl.forcedMerges, [2]int{sr.Int(), sr.Int()})
	}

	// Incremental stream: re-derive the columnar views by looking the
	// symbols up in the replayed tables (AddPaper interned every one of
	// them, so misses mean a corrupt snapshot).
	ne := sr.Count("extra papers")
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
	nv := r.Count("network vertices")
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
	ne := r.Count("network edges")
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
	nslot := r.Count("network slots")
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
	return n, r.Err()
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
