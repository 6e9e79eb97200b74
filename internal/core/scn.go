package core

import (
	"sort"

	"iuad/internal/bib"
	"iuad/internal/intern"
	"iuad/internal/sched"
)

// namePair is an unordered interned-name pair with A < B. For frozen
// corpus names (the only names stage 1 sees), numeric ID order equals
// lexicographic name order, so sorting namePairs reproduces the former
// string-pair ordering exactly.
type namePair struct{ A, B intern.ID }

func makeNamePair(a, b intern.ID) namePair {
	if b < a {
		a, b = b, a
	}
	return namePair{a, b}
}

// cmpNamePair orders pairs by (A, B) — the sort order of the flat
// triangle lists that γ²'s merge-join intersects.
func cmpNamePair(a, b namePair) int {
	if a.A != b.A {
		if a.A < b.A {
			return -1
		}
		return 1
	}
	if a.B != b.B {
		if a.B < b.B {
			return -1
		}
		return 1
	}
	return 0
}

// BuildSCN runs stage 1 (§IV): mine η-SCRs from the co-author lists and
// construct the stable collaboration network.
//
// Mining counts 2-itemsets directly over the interned author-ID columns
// (package fpgrowth's FrequentPairs over IDs, minus the string
// hashing: co-author lists are duplicate-free by Paper.Validate, so
// plain pair counting over int32 IDs is exact).
//
// Insertion follows the running example of Fig. 4: a stable pair (a,b)
// reuses an existing vertex named a only when a stable triangle supports
// it — some current neighbor u of that vertex has (name(u), b) ∈ F.
// Otherwise a carries no evidence of being the same person, and a fresh
// vertex is created ("initially all same-name authors are different").
//
// After all stable pairs are inserted, every author slot is assigned: to
// the stable vertex whose paper set covers it, or to a new isolated
// single-paper vertex. Slots covered by several stable vertices of the
// same name prove those vertices are one person (a slot is one physical
// author), so such vertices are merged.
func BuildSCN(corpus *bib.Corpus, cfg Config) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	// Support counting, chunked over contiguous paper ranges (one counter
	// map per worker), then reduced.
	countChunks := sched.MapChunks(cfg.workers(), corpus.Len(),
		func(lo, hi int) map[namePair]int {
			local := make(map[namePair]int)
			for i := lo; i < hi; i++ {
				ids := corpus.AuthorIDs(bib.PaperID(i))
				for x := 0; x < len(ids); x++ {
					for y := x + 1; y < len(ids); y++ {
						local[makeNamePair(ids[x], ids[y])]++
					}
				}
			}
			return local
		})
	scrs := make(map[namePair]int)
	for _, chunk := range countChunks {
		for key, c := range chunk {
			scrs[key] += c
		}
	}
	for key, c := range scrs {
		if c < cfg.Eta {
			delete(scrs, key)
		}
	}

	// Papers per stable pair. Merging the chunks in range order keeps
	// every per-pair paper list in ascending paper order — exactly the
	// serial scan's output.
	chunks := sched.MapChunks(cfg.workers(), corpus.Len(),
		func(lo, hi int) map[namePair][]bib.PaperID {
			local := make(map[namePair][]bib.PaperID)
			for i := lo; i < hi; i++ {
				ids := corpus.AuthorIDs(bib.PaperID(i))
				for x := 0; x < len(ids); x++ {
					for y := x + 1; y < len(ids); y++ {
						key := makeNamePair(ids[x], ids[y])
						if _, stable := scrs[key]; stable {
							local[key] = append(local[key], bib.PaperID(i))
						}
					}
				}
			}
			return local
		})
	pairPapers := make(map[namePair][]bib.PaperID, len(scrs))
	for _, chunk := range chunks {
		for key, ids := range chunk {
			pairPapers[key] = append(pairPapers[key], ids...)
		}
	}

	// Deterministic insertion order: support descending, then name order.
	// Processing high-support relations first anchors the network on the
	// strongest evidence before weaker relations choose attachments.
	ordered := make([]namePair, 0, len(scrs))
	for pr := range scrs {
		ordered = append(ordered, pr)
	}
	sort.Slice(ordered, func(i, j int) bool {
		si, sj := scrs[ordered[i]], scrs[ordered[j]]
		if si != sj {
			return si > sj
		}
		if ordered[i].A != ordered[j].A {
			return ordered[i].A < ordered[j].A
		}
		return ordered[i].B < ordered[j].B
	})

	n := newNetwork(corpus)
	attach := func(nid, other intern.ID) int {
		for _, id := range n.VerticesOfID(nid) {
			support := false
			n.G.VisitNeighbors(id, func(u int) {
				if support {
					return
				}
				if _, ok := scrs[makeNamePair(n.Verts[u].NameID, other)]; ok {
					support = true
				}
			})
			if support {
				return id
			}
		}
		return n.addVertexID(nid, false)
	}
	for _, pr := range ordered {
		va := attach(pr.A, pr.B)
		vb := attach(pr.B, pr.A)
		n.addEdge(va, vb, pairPapers[pr])
	}

	// Slot assignment + slot-conflict merging. Finding the stable
	// vertices that own each slot only reads the stable network built
	// above (papers have unique author names, so an isolated vertex
	// created for one slot can never own another), which makes the
	// owner scan safe to fan out; vertex creation and merging stay on
	// this goroutine, applied in paper order. Each chunk emits a flat
	// record stream — most slots have no stable owner, so this stays
	// compact even at library scale — and chunks concatenate in range
	// order, i.e. exactly the serial (paper, slot, ByName) scan order.
	type ownerRec struct {
		paper, idx, owner int32
	}
	ownerChunks := sched.MapChunks(cfg.workers(), corpus.Len(), func(lo, hi int) []ownerRec {
		var recs []ownerRec
		for i := lo; i < hi; i++ {
			pid := bib.PaperID(i)
			for idx, nid := range corpus.AuthorIDs(pid) {
				for _, id := range n.VerticesOfID(nid) {
					if containsPaper(n.Verts[id].Papers, pid) {
						recs = append(recs, ownerRec{int32(i), int32(idx), int32(id)})
					}
				}
			}
		}
		return recs
	})
	uf := newUnionFind(len(n.Verts))
	si, pos := 0, 0
	peek := func() *ownerRec {
		for si < len(ownerChunks) {
			if pos < len(ownerChunks[si]) {
				return &ownerChunks[si][pos]
			}
			si, pos = si+1, 0
		}
		return nil
	}
	for i := 0; i < corpus.Len(); i++ {
		pid := bib.PaperID(i)
		for idx, nid := range corpus.AuthorIDs(pid) {
			slot := Slot{Paper: pid, Index: idx}
			r := peek()
			if r == nil || r.paper != int32(i) || r.idx != int32(idx) {
				iso := n.addVertexID(nid, true)
				n.Verts[iso].Papers = []bib.PaperID{pid}
				n.SlotVertex[slot] = iso
				continue
			}
			first := int(r.owner)
			pos++
			n.SlotVertex[slot] = first
			for {
				r = peek()
				if r == nil || r.paper != int32(i) || r.idx != int32(idx) {
					break
				}
				uf.union(first, int(r.owner))
				pos++
			}
		}
	}
	uf.grow(len(n.Verts)) // isolated vertices added after construction
	scn, _ := n.contract(uf.find)
	return scn, nil
}

func containsPaper(papers []bib.PaperID, p bib.PaperID) bool {
	i := sort.Search(len(papers), func(k int) bool { return papers[k] >= p })
	return i < len(papers) && papers[i] == p
}

// contract rebuilds the network with vertex groups collapsed according to
// find. Groups are guaranteed by callers to be name-homogeneous. The
// returned remap gives every old vertex's new ID — the carry that lets
// iterative refinement transplant profiles and pair scores of untouched
// vertices across rounds instead of rebuilding them.
func (n *Network) contract(find func(int) int) (*Network, []int) {
	out := newNetwork(n.Corpus)
	remap := make([]int, len(n.Verts))
	for i := range remap {
		remap[i] = -1
	}
	// Deterministic new IDs: ascending over old IDs.
	for old := range n.Verts {
		root := find(old)
		if remap[root] == -1 {
			remap[root] = out.addVertexID(n.Verts[root].NameID, true)
		}
		remap[old] = remap[root]
	}
	for old := range n.Verts {
		v := &n.Verts[old]
		nv := &out.Verts[remap[old]]
		nv.Papers = unionPapers(nv.Papers, v.Papers)
		if !v.Isolated {
			nv.Isolated = false
		}
	}
	for key, papers := range n.EdgePapers {
		u, v := remap[key[0]], remap[key[1]]
		if u == v {
			continue // edge collapsed inside a merged vertex
		}
		out.addEdge(u, v, papers)
	}
	for slot, old := range n.SlotVertex {
		out.SlotVertex[slot] = remap[old]
	}
	return out, remap
}

// unionFind is a disjoint-set forest over vertex IDs.
type unionFind struct {
	parent []int
}

func newUnionFind(n int) *unionFind {
	uf := &unionFind{parent: make([]int, n)}
	for i := range uf.parent {
		uf.parent[i] = i
	}
	return uf
}

// grow extends the forest to cover n elements.
func (u *unionFind) grow(n int) {
	for len(u.parent) < n {
		u.parent = append(u.parent, len(u.parent))
	}
}

// len returns the number of elements in the forest.
func (u *unionFind) len() int { return len(u.parent) }

func (u *unionFind) find(x int) int {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]]
		x = u.parent[x]
	}
	return x
}

// union merges by smaller root so contraction IDs stay deterministic.
func (u *unionFind) union(a, b int) {
	ra, rb := u.find(a), u.find(b)
	if ra == rb {
		return
	}
	if rb < ra {
		ra, rb = rb, ra
	}
	u.parent[rb] = ra
}
