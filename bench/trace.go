package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"iuad"
	"iuad/internal/bib"
	"iuad/internal/core"
	"iuad/internal/httpapi"
	"iuad/internal/ingestq"
	"iuad/internal/netstats"
	"iuad/internal/textvec"
	"iuad/internal/wal"
)

// span is one timed call into a layer. Spans of one request (one ingest
// batch, one recovery pass) share a request number; Parent is the span
// that was open when this one began, -1 for a root.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Request int    `json:"request"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer keeps the spans of a traced run in memory until the run ends.
// The traced drivers are single goroutines, so it needs no lock.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (tr *tracer) parent() int {
	if len(tr.open) == 0 {
		return -1
	}
	return tr.open[len(tr.open)-1]
}

func (tr *tracer) begin(name string, request int) int {
	id := len(tr.spans)
	tr.spans = append(tr.spans, span{ID: id, Parent: tr.parent(), Request: request, Name: name,
		StartNs: time.Since(tr.t0).Nanoseconds()})
	tr.open = append(tr.open, id)
	return id
}

func (tr *tracer) end(id int) {
	tr.spans[id].EndNs = time.Since(tr.t0).Nanoseconds()
	tr.open = tr.open[:len(tr.open)-1]
}

// time records fn as one span.
func (tr *tracer) time(name string, request int, fn func()) {
	id := tr.begin(name, request)
	fn()
	tr.end(id)
}

// add records a finished interval as a child of the innermost open
// span; core.Config.StageHook reports stage-2 phases this way.
func (tr *tracer) add(name string, request int, start, end time.Time) {
	tr.spans = append(tr.spans, span{ID: len(tr.spans), Parent: tr.parent(), Request: request, Name: name,
		StartNs: start.Sub(tr.t0).Nanoseconds(), EndNs: end.Sub(tr.t0).Nanoseconds()})
}

// durations returns the length of every span of a name, in ns.
func (tr *tracer) durations(name string) samples {
	var out samples
	for i := range tr.spans {
		if tr.spans[i].Name == name {
			out = append(out, float64(tr.spans[i].EndNs-tr.spans[i].StartNs))
		}
	}
	return out
}

// sumByRequest totals the spans of a name per request, in ns.
func (tr *tracer) sumByRequest(name string) samples {
	sums := map[int]float64{}
	var order []int
	for i := range tr.spans {
		s := &tr.spans[i]
		if s.Name == name {
			if _, seen := sums[s.Request]; !seen {
				order = append(order, s.Request)
			}
			sums[s.Request] += float64(s.EndNs - s.StartNs)
		}
	}
	out := make(samples, len(order))
	for i, r := range order {
		out[i] = sums[r]
	}
	return out
}

// selfTimes returns, per span name, the total time not covered by the
// span's children: a layer's own share of the wall time.
func (tr *tracer) selfTimes() map[string]float64 {
	child := make([]int64, len(tr.spans))
	for i := range tr.spans {
		if p := tr.spans[i].Parent; p >= 0 {
			child[p] += tr.spans[i].EndNs - tr.spans[i].StartNs
		}
	}
	self := map[string]float64{}
	for i := range tr.spans {
		self[tr.spans[i].Name] += float64(tr.spans[i].EndNs - tr.spans[i].StartNs - child[i])
	}
	return self
}

func (tr *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(tr.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// stageSpan maps core.Config.StageHook stage names onto span names.
func stageSpan(stage string) string {
	switch {
	case stage == "score-initial":
		return "core.gcn.score_initial"
	case stage == "fit-prep":
		return "core.gcn.fit_prep"
	case stage == "em-fit":
		return "emfit.em"
	case stage == "decision":
		return "core.gcn.decision"
	case strings.HasPrefix(stage, "refine-round-"):
		return "core.gcn.refine"
	}
	return "core.gcn." + stage
}

// serverFitConfig is the configuration cmd/iuadserver fits a corpus
// with. It repeats the small-corpus rule of that command's openService
// because a main package cannot be imported; the traced fit must run
// what the server runs.
func serverFitConfig(papers int) core.Config {
	cfg := iuad.DefaultConfig()
	if papers < 2000 {
		cfg.SampleRate = 0.5
		cfg.Embedding.Dim = 16
		cfg.Embedding.Epochs = 2
	}
	cfg.Workers = 0 // the server passes -workers 0: one per logical CPU
	return cfg
}

// traced is the state of one in-process traced run.
type traced struct {
	tr     *tracer
	in     *inputs
	dir    string
	base   string      // directory holding the fitted base.snap
	papers []bib.Paper // the stream as the server receives it: no labels
	out    map[string]float64
	req    int
	lines  []string
}

func (t *traced) note(format string, args ...any) {
	t.lines = append(t.lines, fmt.Sprintf(format, args...))
}

func (t *traced) nextReq() int { t.req++; return t.req }

// tracedRun rebuilds the inputs of the end-to-end run in-process, times
// the calls into each layer's public functions, writes the spans to
// bench/out/trace-<workload>.json, and returns every per-layer metric:
// the in-process timings plus what the end-to-end run e2e read from the
// server it drove.
func tracedRun(sh shape, seed int64, sc scale, e2e *result) (map[string]float64, error) {
	dir, err := scratchDir("trace-")
	if err != nil {
		return nil, err
	}
	defer removeScratch(dir)
	in, err := generate(seed, sc)
	if err != nil {
		return nil, err
	}
	t := &traced{tr: newTracer(), in: in, dir: dir, out: map[string]float64{}}
	t.papers = make([]bib.Paper, len(in.stream))
	for i := range in.stream {
		t.papers[i] = unlabeled(&in.stream[i])
	}
	for k, v := range e2e.server {
		t.out[k] = v
	}

	steps := []func() error{t.fit, t.composedIngest, t.serviceDriver, t.handlerDriver, t.queueDriver, t.recovery}
	for _, step := range steps {
		if err := step(); err != nil {
			return nil, err
		}
	}
	t.unattributed(sh, e2e)
	t.out["trace.span_count"] = float64(len(t.tr.spans))
	path := filepath.Join(outDir, "trace-"+sh.name+".json")
	if err := t.tr.write(path); err != nil {
		return nil, err
	}
	t.note("%d spans written to %s", len(t.tr.spans), path)
	e2e.lines = append(e2e.lines, t.lines...)
	return t.out, nil
}

func (t *traced) medianOf(name string) float64 { return median(t.tr.durations(name)) }
func (t *traced) sumOf(name string) float64 {
	var sum float64
	for _, d := range t.tr.durations(name) {
		sum += d
	}
	return sum
}

// fit runs what a cold start runs, one layer call at a time.
func (t *traced) fit() error {
	basePath := filepath.Join(t.dir, "base.jsonl")
	if err := t.in.writeBase(basePath); err != nil {
		return err
	}
	tr := t.tr
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	root := tr.begin("fit", 0)
	var corpus *bib.Corpus
	var err error
	tr.time("bib.load", 0, func() {
		if corpus, err = iuad.LoadCorpusFile(basePath); err == nil {
			corpus.Freeze()
		}
	})
	if err != nil {
		return err
	}
	cfg := serverFitConfig(corpus.Len())
	cfg.StageHook = func(stage string, d time.Duration) {
		now := time.Now()
		tr.add(stageSpan(stage), 0, now.Add(-d), now)
	}
	var scn *core.Network
	tr.time("core.scn", 0, func() { scn, err = core.BuildSCN(corpus, cfg) })
	if err != nil {
		return err
	}
	var emb *textvec.Embeddings
	tr.time("textvec.train", 0, func() { emb = core.TrainEmbeddings(corpus, cfg.Embedding) })
	var pl *core.Pipeline
	tr.time("core.gcn", 0, func() { pl, err = core.BuildGCN(corpus, scn, emb, cfg) })
	if err != nil {
		return err
	}
	tr.time("core.view_init", 0, func() { core.NewShardedViewPublisher(pl, 0, 1, nil) })
	tr.end(root)
	runtime.ReadMemStats(&after)

	o := t.out
	for _, name := range []string{"bib.load", "core.scn", "textvec.train", "core.gcn", "core.gcn.score_initial",
		"core.gcn.fit_prep", "emfit.em", "core.gcn.decision", "core.gcn.refine", "core.view_init"} {
		o[name+"_s"] = t.sumOf(name) / 1e9
	}
	o["emfit.iterations"] = float64(pl.Model.Iterations)
	o["core.gcn.training_pairs"] = float64(pl.TrainingPairs)
	o["core.scn.vertices"] = float64(scn.VertexCount())
	o["core.gcn.vertices"] = float64(pl.GCN.VertexCount())
	o["fit.allocs"] = float64(after.Mallocs - before.Mallocs)
	o["fit.alloc_mb"] = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	t.note("traced fit       %.3fs = bib.load %.3f + core.scn %.3f + textvec.train %.3f + core.gcn %.3f (em %.3f) + view_init %.3f",
		t.sumOf("fit")/1e9, o["bib.load_s"], o["core.scn_s"], o["textvec.train_s"], o["core.gcn_s"], o["emfit.em_s"], o["core.view_init_s"])

	// The fitted state every later driver restores from, written the way
	// a clean shutdown writes it.
	t.base = filepath.Join(t.dir, "fitted")
	if err := os.MkdirAll(t.base, 0o755); err != nil {
		return err
	}
	return core.WriteFileAtomic(wal.BaseSnapshotPath(t.base), func(w io.Writer) error {
		return core.SaveService(w, pl, 0)
	})
}

// restored is a fitted state opened layer by layer, the way
// iuad.Service opens a journal directory.
type restored struct {
	dir   string
	j     *wal.Journal
	pl    *core.Pipeline
	pub   *core.ViewPublisher
	epoch uint64
}

// restore copies the fitted directory and opens it: every driver starts
// from the same state.
func (t *traced) restore(name string) (*restored, error) {
	rs := &restored{dir: filepath.Join(t.dir, name)}
	if err := copyDir(t.base, rs.dir); err != nil {
		return nil, err
	}
	var err error
	if rs.j, err = wal.Open(rs.dir, wal.Config{}); err != nil {
		return nil, err
	}
	pl, epoch, seeds, _, err := core.OpenServiceSnapshot(rs.j.BasePath(), false)
	if err != nil {
		rs.j.Close()
		return nil, err
	}
	rs.pl, rs.epoch = pl, epoch
	rs.pub = core.NewShardedViewPublisher(pl, epoch, 1, seeds)
	if _, err := rs.j.Recover(epoch, func(uint64, []bib.Paper) error { return nil }); err != nil {
		rs.j.Close()
		return nil, err
	}
	return rs, nil
}

// assignStats accumulates what core assignment did over a driver.
type assignStats struct {
	allocs, allocPapers uint64
	slots, created      int
}

// allocSampleEvery: reading the allocator's counters stops the world for
// tens of microseconds, a tenth of a commit, so only every eighth commit
// pays for it and the medians of the others are undisturbed.
const allocSampleEvery = 8

// commit applies one batch the way Service.commitBatch does — journal
// append, core assignment, view capture, view apply — one span each,
// named prefix+layer.
func (t *traced) commit(rs *restored, prefix string, batch []bib.Paper, st *assignStats) error {
	tr, req := t.tr, t.nextReq()
	sampleAllocs := req%allocSampleEvery == 0
	root := tr.begin(prefix+"commit", req)
	defer tr.end(root)
	var err error
	tr.time(prefix+"wal.append", req, func() { _, err = rs.j.Append(rs.pub.CapturedEpoch()+1, batch) })
	if err != nil {
		return err
	}
	var res [][]core.Assignment
	var before, after runtime.MemStats
	if sampleAllocs {
		runtime.ReadMemStats(&before)
	}
	tr.time(prefix+"core.assign", req, func() { res, err = rs.pl.AddPapers(context.Background(), batch) })
	if sampleAllocs {
		runtime.ReadMemStats(&after)
		st.allocs += after.Mallocs - before.Mallocs
		st.allocPapers += uint64(len(batch))
	}
	if err != nil {
		return err
	}
	for _, paper := range res {
		for _, a := range paper {
			st.slots++
			if a.Created {
				st.created++
			}
		}
	}
	var pc *core.PublishCapture
	tr.time(prefix+"core.view.capture", req, func() { pc = rs.pub.Capture(res) })
	tr.time(prefix+"core.view.apply", req, func() { rs.pub.Apply(pc) })
	return nil
}

// timeOps records fn(0..n-1) in spans of chunk calls each and returns
// the median time of one call in ns. Sub-microsecond calls are chunked
// so that the clock reads do not dominate what is measured.
func (t *traced) timeOps(name string, n, chunk int, fn func(i int)) float64 {
	req := t.nextReq()
	var per samples
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		id := t.tr.begin(name, req)
		for i := lo; i < hi; i++ {
			fn(i)
		}
		t.tr.end(id)
		s := &t.tr.spans[id]
		per = append(per, float64(s.EndNs-s.StartNs)/float64(hi-lo))
	}
	return median(per)
}

// draw pre-draws n queries of one endpoint.
func (t *traced) draw(ep endpoint, n, authors int) []query {
	q := t.in.querier(0, []endpoint{ep})
	out := make([]query, n)
	for i := range out {
		out[i] = q.next(authors)
	}
	return out
}

// composedIngest drives the write path below the service: the bench
// makes the calls commitBatch makes, so each layer gets its own span.
// The view it leaves behind is then read, and compiled by netstats.
func (t *traced) composedIngest() error {
	rs, err := t.restore("composed")
	if err != nil {
		return err
	}
	defer rs.j.Close()
	var st assignStats
	n := t.in.sc.tracePapers / ingestBatch
	for b := 0; b < n; b++ {
		if err := t.commit(rs, "", t.papers[b*ingestBatch:(b+1)*ingestBatch], &st); err != nil {
			return err
		}
	}
	o := t.out
	js := rs.j.Stats()
	o["wal.append_us"] = t.medianOf("wal.append") / 1e3
	o["wal.fsync_us"] = float64(js.FsyncLatency.P50Ns) / 1e3
	o["wal.bytes_per_paper"] = float64(js.AppendedBytes) / float64(js.AppendedPapers)
	o["core.assign_us_per_paper"] = t.medianOf("core.assign") / 1e3 / ingestBatch
	o["core.assign_allocs_per_paper"] = float64(st.allocs) / float64(st.allocPapers)
	o["core.assign_created_ratio"] = float64(st.created) / float64(st.slots)
	o["core.view.capture_us"] = t.medianOf("core.view.capture") / 1e3
	o["core.view.apply_us"] = t.medianOf("core.view.apply") / 1e3
	if c := rs.pub.Contention(); c.Publishes > 0 {
		o["core.view.delta_entries_per_publish"] = float64(c.DeltaEntriesCopied) / float64(c.Publishes)
	}
	t.note("traced commit    %.0f us = wal.append %.0f (fsync %.0f) + core.assign %.0f + view.capture %.0f + view.apply %.0f  (median of %d batches of %d)",
		t.medianOf("commit")/1e3, o["wal.append_us"], o["wal.fsync_us"], t.medianOf("core.assign")/1e3,
		o["core.view.capture_us"], o["core.view.apply_us"], n, ingestBatch)

	// The view after the churn, read the way Service reads it.
	v := rs.pub.Current()
	authors := v.NumVertices()
	const reads, chunk = 4000, 50
	qs := t.draw(epResolve, reads, authors)
	o["core.view.resolve_ns"] = t.timeOps("core.view.resolve", reads, chunk, func(i int) {
		v.ResolveSlot(core.Slot{Paper: bib.PaperID(qs[i].paper), Index: qs[i].index})
	})
	qs = t.draw(epByName, reads, authors)
	o["core.view.by_name_ns"] = t.timeOps("core.view.by_name", reads, chunk, func(i int) { v.VerticesOfName(qs[i].name) })
	qs = t.draw(epCoauthors, reads, authors)
	o["core.view.coauthors_ns"] = t.timeOps("core.view.coauthors", reads, chunk, func(i int) { v.Coauthors(qs[i].id) })

	// netstats on that view: what one epoch change costs an analytics
	// reader, then the per-query costs on the compiled graph.
	var g *netstats.Graph
	for i := 0; i < 3; i++ {
		req := t.nextReq()
		t.tr.time("netstats.compile", req, func() { g = netstats.Compile(v, 0) })
		t.tr.time("netstats.communities", req, func() { g.Communities() })
	}
	o["netstats.compile_ms"] = t.medianOf("netstats.compile") / 1e6
	o["netstats.communities_ms"] = t.medianOf("netstats.communities") / 1e6
	qs = t.draw(epEgo, 1000, authors)
	o["netstats.ego_us"] = t.timeOps("netstats.ego", len(qs), 10, func(i int) { g.Ego(qs[i].id, 2) }) / 1e3
	o["netstats.collab_us"] = t.timeOps("netstats.collab", len(qs), 10, func(i int) { g.TopCollaborators(qs[i].id, 10) }) / 1e3
	o["netstats.stats_us"] = t.timeOps("netstats.stats", 1000, 100, func(int) { g.Stats() }) / 1e3
	return nil
}

// openService opens a copy of the fitted directory as the server does:
// journaled, product defaults.
func (t *traced) openService(name string) (*iuad.Service, error) {
	dir := filepath.Join(t.dir, name)
	if err := copyDir(t.base, dir); err != nil {
		return nil, err
	}
	return iuad.Open(nil, iuad.WithJournalConfig(dir, iuad.JournalConfig{}))
}

// serviceDriver times Service.AddPapers, the queue and commit together,
// and then compaction and the service's read methods.
func (t *traced) serviceDriver() error {
	svc, err := t.openService("service")
	if err != nil {
		return err
	}
	defer svc.Close()
	n := t.in.sc.tracePapers / ingestBatch
	for b := 0; b < n; b++ {
		var err error
		t.tr.time("service.add", t.nextReq(), func() {
			_, err = svc.AddPapers(context.Background(), t.papers[b*ingestBatch:(b+1)*ingestBatch])
		})
		if err != nil {
			return err
		}
	}
	for i := 0; i < 3; i++ {
		var err error
		t.tr.time("service.compact", t.nextReq(), func() { err = svc.Compact() })
		if err != nil {
			return err
		}
	}
	o := t.out
	o["service.add_us"] = t.medianOf("service.add") / 1e3
	o["service.compact_ms"] = t.medianOf("service.compact") / 1e6
	authors := svc.Stats().Authors
	qs := t.draw(epAuthor, 2000, authors)
	o["service.author_ns"] = t.timeOps("service.author", len(qs), 10, func(i int) { _, _ = svc.Author(qs[i].id) })
	o["service.coauthors_ns"] = t.timeOps("service.coauthors", len(qs), 10, func(i int) { _, _ = svc.Coauthors(qs[i].id) })
	return nil
}

// handlerDriver times the production HTTP handler in-process: the same
// POSTs and GETs the end-to-end run sends, without a socket.
func (t *traced) handlerDriver() error {
	svc, err := t.openService("handler")
	if err != nil {
		return err
	}
	defer svc.Close()
	h := httpapi.New(svc)
	serve := func(name string, req int, r *http.Request) (*httptest.ResponseRecorder, error) {
		w := httptest.NewRecorder()
		t.tr.time(name, req, func() { h.ServeHTTP(w, r) })
		if w.Code != http.StatusOK {
			return nil, fmt.Errorf("traced %s %s: status %d: %s", r.Method, r.URL, w.Code, firstLine(w.Body.Bytes()))
		}
		return w, nil
	}
	n := t.in.sc.tracePapers / ingestBatch
	for b := 0; b < n; b++ {
		body := t.in.batchBody(b*ingestBatch, (b+1)*ingestBatch)
		r := httptest.NewRequest(http.MethodPost, "/v1/papers", strings.NewReader(string(body)))
		if _, err := serve("httpapi.ingest", t.nextReq(), r); err != nil {
			return err
		}
	}
	o := t.out
	o["httpapi.ingest_us"] = t.medianOf("httpapi.ingest") / 1e3

	authors := svc.Stats().Authors
	var sizes samples
	for _, ep := range readMix {
		name := "httpapi." + metricEndpoint[ep]
		req := t.nextReq()
		for _, qu := range t.draw(ep, 1500, authors) {
			w, err := serve(name, req, httptest.NewRequest(http.MethodGet, qu.path(), nil))
			if err != nil {
				return err
			}
			sizes = append(sizes, float64(w.Body.Len()))
		}
		o[name+"_us"] = t.medianOf(name) / 1e3
	}
	o["httpapi.read_bytes_p50"] = median(sizes)
	q := t.in.querier(0, analyticsMix)
	req := t.nextReq()
	for i := 0; i < 600; i++ {
		if _, err := serve("httpapi.analytics", req, httptest.NewRequest(http.MethodGet, q.next(authors).path(), nil)); err != nil {
			return err
		}
	}
	o["httpapi.analytics_us"] = t.medianOf("httpapi.analytics") / 1e3
	t.note("traced ingest    httpapi.ingest %.0f us ⊃ service.add %.0f us ⊃ commit %.0f us (three drivers, so the differences are approximate)",
		o["httpapi.ingest_us"], o["service.add_us"], t.medianOf("commit")/1e3)
	return nil
}

// metricEndpoint is the endpoint's name inside per-layer metric names.
var metricEndpoint = [numEndpoints]string{epByName: "by_name", epResolve: "resolve", epAuthor: "author", epCoauthors: "coauthors"}

// queueDriver times the admission queue alone: Submit with a commit
// function that does nothing.
func (t *traced) queueDriver() error {
	q := ingestq.New(func(batch []bib.Paper) ([][]core.Assignment, error) {
		return make([][]core.Assignment, len(batch)), nil
	}, ingestq.Config{})
	defer q.Close()
	n := t.in.sc.tracePapers / ingestBatch
	for b := 0; b < n; b++ {
		var err error
		t.tr.time("ingestq.submit", t.nextReq(), func() {
			_, err = q.Submit(context.Background(), t.papers[b*ingestBatch:(b+1)*ingestBatch])
		})
		if err != nil {
			return err
		}
	}
	t.out["ingestq.submit_us"] = t.medianOf("ingestq.submit") / 1e3
	return nil
}

// recovery builds the directory the end-to-end run crashes with — the
// fitted base plus the crash batches in the journal, no compaction —
// and then recovers it three times, one span per layer call.
func (t *traced) recovery() error {
	sc := t.in.sc
	rs, err := t.restore("crashed")
	if err != nil {
		return err
	}
	// These commits only build the crashed state; their spans carry a
	// prefix so that they stay out of the ingest drivers' medians.
	var st assignStats
	for b := 0; b < sc.crashBatches; b++ {
		lo := t.in.reserve + b*sc.crashBatch
		if err := t.commit(rs, "crash-setup.", t.papers[lo:lo+sc.crashBatch], &st); err != nil {
			rs.j.Close()
			return err
		}
	}
	if err := rs.j.Close(); err != nil {
		return err
	}

	tr := t.tr
	for pass := 0; pass < 3; pass++ {
		req := t.nextReq()
		dir := filepath.Join(t.dir, fmt.Sprintf("recover-%d", pass))
		if err := copyDir(rs.dir, dir); err != nil {
			return err
		}
		root := tr.begin("recover", req)
		var pl *core.Pipeline
		var epoch uint64
		var seeds []core.ShardSeed
		var err error
		tr.time("core.snapshot.load", req, func() {
			pl, epoch, seeds, _, err = core.OpenServiceSnapshot(wal.BaseSnapshotPath(dir), false)
		})
		if err != nil {
			return err
		}
		pub := core.NewShardedViewPublisher(pl, epoch, 1, seeds)
		j, err := wal.Open(dir, wal.Config{})
		if err != nil {
			return err
		}
		var rep *wal.ReplayReport
		tr.time("wal.replay", req, func() {
			rep, err = j.Recover(epoch, func(_ uint64, batch []bib.Paper) error {
				var res [][]core.Assignment
				var err error
				tr.time("core.replay_assign", req, func() { res, err = pl.AddPapers(context.Background(), batch) })
				if err != nil {
					return err
				}
				tr.time("core.view.replay_publish", req, func() { pub.Apply(pub.Capture(res)) })
				return nil
			})
		})
		tr.end(root)
		j.Close()
		if err != nil {
			return err
		}
		if rep.Batches != sc.crashBatches {
			return fmt.Errorf("traced recovery replayed %d batches, want %d", rep.Batches, sc.crashBatches)
		}

		// The decode cost alone: the same journal replayed into nothing.
		if j, err = wal.Open(dir, wal.Config{}); err != nil {
			return err
		}
		tr.time("wal.replay_decode", req, func() {
			_, err = j.Recover(epoch, func(uint64, []bib.Paper) error { return nil })
		})
		j.Close()
		if err != nil {
			return err
		}
	}
	o := t.out
	o["core.snapshot.load_ms"] = t.medianOf("core.snapshot.load") / 1e6
	o["wal.replay_decode_ms"] = t.medianOf("wal.replay_decode") / 1e6
	o["core.replay_assign_ms"] = median(tr.sumByRequest("core.replay_assign")) / 1e6
	o["core.view.replay_publish_ms"] = median(tr.sumByRequest("core.view.replay_publish")) / 1e6
	t.note("traced recover   %.0f ms = snapshot.load %.0f + replay (decode %.0f + assign %.0f + publish %.0f)",
		t.medianOf("recover")/1e6, o["core.snapshot.load_ms"], o["wal.replay_decode_ms"],
		o["core.replay_assign_ms"], o["core.view.replay_publish_ms"])
	return nil
}

// unattributed reports the share of the workload's own end-to-end
// median that the in-process layer calls do not cover: sockets, the
// client, scheduling between two processes, queueing behind other
// connections. It is reported, not hidden, so that the breakdown
// visibly sums to the total.
func (t *traced) unattributed(sh shape, e2e *result) {
	o := t.out
	var total, covered float64
	var what string
	switch sh.name {
	case "fit-cold":
		what, total, covered = "fit_s", e2e.e2e["fit_s"], t.sumOf("fit")/1e9
	case "ingest-durable":
		what, total, covered = "ingest_ack_p50_ms", e2e.e2e["ingest_ack_p50_ms"], o["httpapi.ingest_us"]/1e3
	case "serve-reads":
		var pooled samples
		for _, ep := range readMix {
			pooled = append(pooled, t.tr.durations("httpapi."+metricEndpoint[ep])...)
		}
		what, total, covered = "read_p50_ms", e2e.e2e["read_p50_ms"], median(pooled)/1e6
	case "serve-analytics":
		what, total, covered = "analytics p50 ms", e2e.server["client.analytics_p50_ms"], o["httpapi.analytics_us"]/1e3
	case "recover-replay":
		what, total, covered = "recover_s", e2e.e2e["recover_s"], t.medianOf("recover")/1e9
	}
	if total > 0 {
		o["trace.unattributed_share"] = 1 - covered/total
	}
	t.note("unattributed     %.1f%% of %s %.4g is outside the traced layer calls (%.4g covered)",
		100*o["trace.unattributed_share"], what, total, covered)

	// Sockets and the client, per read endpoint: what the client saw
	// minus what the server's own per-endpoint histogram saw.
	var over []float64
	for _, ep := range readMix {
		c, cok := e2e.server["client."+serverName[ep]+"_p50_us"]
		s, sok := e2e.server["server."+serverName[ep]+"_p50_us"]
		if cok && sok {
			over = append(over, c-s)
		}
	}
	if len(over) > 0 {
		o["net.client_overhead_us"] = median(over)
	}

	self := t.tr.selfTimes()
	for _, name := range sortedKeys(self) {
		if !strings.HasPrefix(name, "crash-setup.") {
			t.note("  self %-28s %10.3f ms over %d spans", name, self[name]/1e6, len(t.tr.durations(name)))
		}
	}
}

// sortedKeys returns the keys of a metric map in a stable order.
func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
