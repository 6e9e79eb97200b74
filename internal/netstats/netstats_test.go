package netstats

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
	"testing"

	"iuad/internal/core"
	"iuad/internal/synth"
)

// testPipeline fits a small synthetic corpus once per (seed, workers).
func testPipeline(t *testing.T, seed int64, workers int) *core.Pipeline {
	t.Helper()
	scfg := synth.DefaultConfig()
	scfg.Seed = seed
	scfg.Authors = 120
	scfg.Communities = 6
	d := synth.Generate(scfg)
	cfg := core.DefaultConfig()
	cfg.Workers = workers
	cfg.Embedding.Dim = 16
	cfg.Embedding.Epochs = 2
	cfg.SampleRate = 0.5
	pl, err := core.Run(d.Corpus, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

func testView(t *testing.T, seed int64, workers int) *core.View {
	t.Helper()
	return core.NewViewPublisher(testPipeline(t, seed, workers), 0).Current()
}

// fingerprint serializes everything a Graph can answer into bytes, so
// determinism tests can demand byte-identity rather than approximate
// equality.
func fingerprint(g *Graph) []byte {
	var buf bytes.Buffer
	w := func(vs ...any) {
		for _, v := range vs {
			if err := binary.Write(&buf, binary.LittleEndian, v); err != nil {
				panic(err)
			}
		}
	}
	w(g.epoch, int64(g.n), int64(g.edges), g.weight)
	w(g.off, g.adj, g.w)
	st := g.Stats()
	fmt.Fprintf(&buf, "%+v|%x|%x|%x", st, st.Density, st.AvgClustering, st.DegreeSlope)
	c := g.Communities()
	fmt.Fprintf(&buf, "|comm %d %d %v %v", c.Count, c.Rounds, c.Converged, c.Sizes)
	w(c.Labels)
	return buf.Bytes()
}

// TestCompileInvariants checks the structural contracts of the CSR:
// sorted symmetric rows with positive weights, edge and component
// accounting that sums to the vertex count, and density/histogram
// sanity.
func TestCompileInvariants(t *testing.T) {
	v := testView(t, 42, 2)
	g := Compile(v, 2)

	if g.Epoch() != v.Epoch() {
		t.Fatalf("graph epoch %d, view epoch %d", g.Epoch(), v.Epoch())
	}
	if g.n != v.NumVertices() {
		t.Fatalf("vertices %d, view has %d", g.n, v.NumVertices())
	}
	total := 0
	for id := 0; id < g.n; id++ {
		row, wts := g.row(id)
		total += len(row)
		for i, u := range row {
			if i > 0 && row[i-1] >= u {
				t.Fatalf("vertex %d row not strictly ascending at %d", id, i)
			}
			if wts[i] < 1 {
				t.Fatalf("edge (%d,%d) weight %d < 1", id, u, wts[i])
			}
			// Symmetry: the reverse entry exists with the same weight.
			urow, uw := g.row(int(u))
			j := sort.Search(len(urow), func(k int) bool { return urow[k] >= int32(id) })
			if j >= len(urow) || urow[j] != int32(id) || uw[j] != wts[i] {
				t.Fatalf("edge (%d,%d) weight %d has no symmetric entry", id, u, wts[i])
			}
		}
	}
	if total != 2*g.edges {
		t.Fatalf("row lengths sum to %d, want 2·edges = %d", total, 2*g.edges)
	}

	st := g.Stats()
	if st.Edges != g.edges || st.Authors != g.n {
		t.Fatalf("stats %+v out of sync with graph", st)
	}
	if st.Density < 0 || st.Density > 1 {
		t.Fatalf("density %v out of [0,1]", st.Density)
	}
	sum := 0
	for _, b := range st.DegreeHistogram {
		sum += b.Count
	}
	if sum != g.n {
		t.Fatalf("degree histogram sums to %d, want %d", sum, g.n)
	}
	if st.LargestComponent > g.n || st.Components < 1 {
		t.Fatalf("components %d largest %d implausible for %d vertices", st.Components, st.LargestComponent, g.n)
	}
	if st.AvgClustering < 0 || st.AvgClustering > 1 {
		t.Fatalf("avg clustering %v out of [0,1]", st.AvgClustering)
	}
}

// TestClusteringMatchesBruteForce cross-checks the merge-join triangle
// count against a quadratic pair scan.
func TestClusteringMatchesBruteForce(t *testing.T) {
	g := Compile(testView(t, 42, 1), 1)
	hasEdge := func(u, v int32) bool {
		row, _ := g.row(int(u))
		j := sort.Search(len(row), func(k int) bool { return row[k] >= v })
		return j < len(row) && row[j] == v
	}
	checked := 0
	for id := 0; id < g.n && checked < 200; id++ {
		row, _ := g.row(id)
		brute := 0
		for i := 0; i < len(row); i++ {
			for j := i + 1; j < len(row); j++ {
				if hasEdge(row[i], row[j]) {
					brute++
				}
			}
		}
		c, ok := g.ClusteringOf(id)
		if !ok {
			t.Fatalf("vertex %d reported not ok", id)
		}
		if c.Triangles != brute {
			t.Fatalf("vertex %d: %d triangles, brute force %d", id, c.Triangles, brute)
		}
		checked++
	}
}

// TestEgoContract checks the BFS bounds: hops=0 is the center alone,
// radius growth is monotone, every edge joins reported vertices, and
// out-of-range centers report false.
func TestEgoContract(t *testing.T) {
	g := Compile(testView(t, 42, 1), 1)
	center := -1
	for id := 0; id < g.n; id++ {
		if g.Degree(id) > 0 {
			center = id
			break
		}
	}
	if center < 0 {
		t.Fatal("no connected vertex in fixture")
	}

	eg, ok := g.Ego(center, 0)
	if !ok || len(eg.Vertices) != 1 || len(eg.Edges) != 0 || eg.Vertices[0].ID != int32(center) {
		t.Fatalf("hops=0 ego = %+v, want just the center", eg)
	}
	prev := 1
	for hops := 1; hops <= 3; hops++ {
		eg, ok = g.Ego(center, hops)
		if !ok {
			t.Fatalf("hops=%d reported not ok", hops)
		}
		if len(eg.Vertices) < prev {
			t.Fatalf("hops=%d shrank ego: %d < %d vertices", hops, len(eg.Vertices), prev)
		}
		prev = len(eg.Vertices)
		in := map[int32]bool{}
		for _, ev := range eg.Vertices {
			if ev.Hop > hops {
				t.Fatalf("vertex %d at hop %d > %d", ev.ID, ev.Hop, hops)
			}
			in[ev.ID] = true
		}
		for _, e := range eg.Edges {
			if !in[e.U] || !in[e.V] || e.U >= e.V || e.Weight < 1 {
				t.Fatalf("bad induced edge %+v", e)
			}
		}
	}
	if _, ok := g.Ego(-1, 1); ok {
		t.Fatal("negative center reported ok")
	}
	if _, ok := g.Ego(g.n, 1); ok {
		t.Fatal("out-of-range center reported ok")
	}
}

// TestTopCollaborators checks ordering (weight descending, ID
// ascending within ties), the k clamp, and the overlap range.
func TestTopCollaborators(t *testing.T) {
	g := Compile(testView(t, 42, 1), 1)
	for id := 0; id < g.n; id++ {
		all, ok := g.TopCollaborators(id, 0)
		if !ok {
			t.Fatalf("vertex %d reported not ok", id)
		}
		if len(all) != g.Degree(id) {
			t.Fatalf("vertex %d: %d collaborators, degree %d", id, len(all), g.Degree(id))
		}
		for i := 1; i < len(all); i++ {
			a, b := all[i-1], all[i]
			if a.SharedPapers < b.SharedPapers ||
				(a.SharedPapers == b.SharedPapers && a.ID >= b.ID) {
				t.Fatalf("vertex %d: collaborators out of order at %d: %+v then %+v", id, i, a, b)
			}
		}
		for _, c := range all {
			if c.Overlap < 0 || c.Overlap > 1 {
				t.Fatalf("vertex %d: overlap %v out of [0,1]", id, c.Overlap)
			}
		}
		if len(all) > 2 {
			topk, _ := g.TopCollaborators(id, 2)
			if len(topk) != 2 || topk[0] != all[0] || topk[1] != all[1] {
				t.Fatalf("vertex %d: k=2 prefix mismatch", id)
			}
		}
	}
}

// TestCommunitiesContract checks the partition invariants: every
// vertex is labeled, labels are dense community indexes ordered by
// descending size, and sizes sum to the vertex count.
func TestCommunitiesContract(t *testing.T) {
	g := Compile(testView(t, 42, 1), 1)
	c := g.Communities()
	if !c.Converged {
		t.Fatalf("label propagation did not converge in %d rounds", c.Rounds)
	}
	counts := make([]int, c.Count)
	for id, l := range c.Labels {
		if l < 0 || int(l) >= c.Count {
			t.Fatalf("vertex %d has label %d outside [0,%d)", id, l, c.Count)
		}
		counts[l]++
	}
	sum := 0
	for i, n := range counts {
		if n == 0 {
			t.Fatalf("community %d is empty", i)
		}
		sum += n
	}
	if sum != g.n {
		t.Fatalf("community sizes sum to %d, want %d", sum, g.n)
	}
	for i := 1; i < len(c.Sizes); i++ {
		if c.Sizes[i] > c.Sizes[i-1] {
			t.Fatalf("sizes not descending at %d: %v", i, c.Sizes)
		}
	}
	for i := 0; i < len(c.Sizes) && i < len(counts); i++ {
		if c.Sizes[i] != counts[i] {
			t.Fatalf("reported size[%d]=%d, recounted %d", i, c.Sizes[i], counts[i])
		}
	}
	if g.Communities() != c {
		t.Fatal("second Communities() call returned a different pointer")
	}
}

// TestCompileDeterministic pins the determinism contract the CI
// analytics job enforces: compiling the same epoch across 3 runs ×
// workers {1,2} — stats, CSR and Communities alike — produces
// byte-identical results.
func TestCompileDeterministic(t *testing.T) {
	var want []byte
	for run := 0; run < 3; run++ {
		for _, workers := range []int{1, 2} {
			v := testView(t, 42, workers)
			fp := fingerprint(Compile(v, workers))
			if want == nil {
				want = fp
				continue
			}
			if !bytes.Equal(fp, want) {
				t.Fatalf("run %d workers %d: analytics diverge from first run", run, workers)
			}
		}
	}
}

// TestCacheEpochKeyed checks the cache contract: same epoch → same
// pointer via the lock-free hit path; a different view epoch → miss +
// rebuild; racing readers on one epoch coalesce into a single compile.
func TestCacheEpochKeyed(t *testing.T) {
	pl := testPipeline(t, 42, 1)
	vp := core.NewViewPublisher(pl, 0)
	v0 := vp.Current()
	c := NewCache(1)

	g0 := c.For(v0)
	if st := c.Stats(); st.Hits != 0 || st.Misses != 1 || st.Rebuilds != 1 || !st.Cached || st.Epoch != v0.Epoch() {
		t.Fatalf("after first For: %+v", st)
	}
	const readers, per = 8, 50
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if g := c.For(v0); g != g0 {
					t.Error("hit returned a different graph")
					return
				}
			}
		}()
	}
	wg.Wait()
	if st := c.Stats(); st.Hits != readers*per || st.Rebuilds != 1 {
		t.Fatalf("after %d hot reads: %+v", readers*per, st)
	}
}
