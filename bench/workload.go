package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"iuad/internal/httpapi"
)

// shape is one workload. Every workload walks the same life of a
// server — cold starts on base libraries, a crash and its recoveries,
// and rounds of durable ingest, reads and analytics under a constant
// write schedule — because every run has to report every end-to-end
// metric. A shape decides where the run's measured seconds and
// repetitions go, and with them which layers do most of the work.
type shape struct {
	name string
	why  string
	// coldStarts is how many base libraries are fitted from a cold start,
	// C(seed) first.
	coldStarts int
	// ingest, reads and analytics are the shares of --seconds given to
	// the three kinds of traffic.
	ingest, reads, analytics float64
	// recoveries is how many times the crashed directory is recovered,
	// counting the recovery that goes on to serve the traffic.
	recoveries int
}

var shapes = []shape{
	{name: "fit-cold", coldStarts: 4, ingest: 1. / 3, reads: 1. / 3, analytics: 1. / 3, recoveries: 6,
		why: "four cold starts, each on another base library: only here do bib, core stage 1, textvec, core stage 2 and emfit do most of the work while the serving layers get a third of the seconds each"},
	{name: "ingest-durable", coldStarts: 3, ingest: 0.4, reads: 0.3, analytics: 0.3, recoveries: 6,
		why: "the largest share of seconds goes to closed-loop batches of 4, so per-batch costs (httpapi JSON, ingestq, wal fsync, core assign, view publish, compaction) dominate the run"},
	{name: "serve-reads", coldStarts: 3, ingest: 0.3, reads: 0.4, analytics: 0.3, recoveries: 6,
		why: "the largest share goes to Zipf-skewed point reads beside a constant write schedule: the core view read path and httpapi do the work, so a publish-side saving that taxes readers shows"},
	{name: "serve-analytics", coldStarts: 3, ingest: 0.3, reads: 0.3, analytics: 0.4, recoveries: 6,
		why: "the largest share goes to network, community, ego and collaborator queries beside the same write schedule: netstats recompiles once per epoch, which serve-reads never touches"},
	{name: "recover-replay", coldStarts: 3, ingest: 1. / 3, reads: 1. / 3, analytics: 1. / 3, recoveries: 9,
		why: "nine recoveries of a kill -9 directory: snapshot base load, wal replay and bulk core assignment of 128-paper batches with no HTTP or fsync on the path"},
}

func shapeByName(name string) (shape, bool) {
	for _, sh := range shapes {
		if sh.name == name {
			return sh, true
		}
	}
	return shape{}, false
}

// The write schedule shared by the read and analytics slices: batches of
// 2 papers, as ISSUE 12 asked, but 10 a second instead of 40. At 40
// epochs a second one analytics reader spends 60–100% of its time
// recompiling (an epoch costs it 15–25 ms of compile and communities on
// this corpus), so analytics_ops_per_s measured how close to saturation a
// seed's graph happened to sit and swung 4× between seeds. At 10 a second
// recompiling is 15–25% of the reader's time: still what moves the
// throughput, no longer a cliff. Heavier batches at that rate (8 papers)
// put the commits at 1–3% of the wall time, which is exactly where a p99
// flips between two populations from run to run.
const (
	openLoopRate  = 10.0 // batches per second, evenly spaced
	openLoopBatch = 2    // papers per batch
	ingestBatch   = 4    // papers per closed-loop ingest batch
	setupRounds   = 3    // set-up is repeated and its median reported
	// ingestNominalRate turns the ingest share of --seconds into a number
	// of papers: about what product defaults ingest on two cores with
	// batches of 4, so that the slices last about their share.
	ingestNominalRate = 2000.0
	// rounds is how many times a run goes through ingest, reads,
	// analytics, a cold start and a recovery. This box slows down by a
	// third for seconds at a time (a neighbour on the sibling hardware
	// thread); with every kind of measurement spread over the whole run,
	// such a stretch falls on a fifth of each metric's samples, where the
	// median or fasterHalf drops it, instead of on all the samples of one
	// metric.
	rounds = 5
	// window is the stretch of a read or analytics slice that yields one
	// sample of throughput, p50 and p99: the spacing of the write
	// schedule, so every window holds one commit, and about a thousand
	// queries.
	window = 100 * time.Millisecond
)

// connections is how many connections the single load generator holds:
// never more than the cores it shares with the server.
func connections() int {
	if n := runtime.NumCPU(); n < 4 {
		return n
	}
	return 4
}

// result is what one end-to-end run measured.
type result struct {
	attempted int64
	failed    int64
	e2e       map[string]float64
	// server holds the per-layer numbers only the running server knows.
	server map[string]float64
	lines  []string // human-readable timings, printed above the JSON
}

func (r *result) note(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// run is the state of one end-to-end run.
type run struct {
	bin string
	sh  shape
	in  *inputs
	dir string // scratch directory of the run
	// libs are the libraries the run cold-starts on, one per cold start:
	// libs[0] is r.in, C(seed); the others come from librarySeed.
	libs []*inputs
	// serverArgs and batch are product defaults and ingestBatch in every
	// workload; only the sweep varies them.
	serverArgs []string
	batch      int
	t          tally
	res        *result
	conns      []*conn
	// readers query in the read and analytics slices while conns[0]
	// writes. There are at least two: a single closed-loop reader leaves
	// both cores idle half of every round trip, and what it then measures
	// is mostly how long a halted vCPU takes to wake — on a shared box the
	// noisiest number there is (ten seeds: quartile spread of
	// read_ops_per_s 21% with one reader, 7% with two, 16% with four).
	readers []*conn

	// cursor is how far into the stream the run has got: every slice is
	// handed a fixed number of papers before it starts, so that what the
	// server holds at any point of a run does not depend on how fast the
	// run went.
	cursor int

	ackedID []int32 // stream index → server paper id, -1 until acked

	fits            samples // exec → healthy of every cold start, seconds
	capped, micro   pairCounts
	ingest          ingestStats
	read, analytics trafficStats
	crash           crashState
	recovers        samples // exec → healthy of every recovery, seconds
	recoverServer   samples // the server's own replay time, ms
	peakRSS         samples // VmHWM of every server the run stopped, MB
}

// region is a contiguous part of the stream handed out front to back.
type region struct {
	next atomic.Int64
	end  int
}

// reset makes the region stream[lo:hi].
func (g *region) reset(lo, hi int) {
	g.next.Store(int64(lo))
	g.end = hi
}

// claim takes the next n papers of the region; ok is false once the
// region is used up.
func (g *region) claim(n int) (lo int, ok bool) {
	lo = int(g.next.Add(int64(n))) - n
	return lo, lo+n <= g.end
}

// take hands the next n papers of the stream to a slice.
func (r *run) take(n int) *region {
	g := &region{}
	g.reset(r.cursor, r.cursor+n)
	r.cursor += n
	return g
}

// openLoopPapers is how many papers a write schedule of length d asks
// for, rounded up.
func openLoopPapers(d time.Duration) int {
	return (int(openLoopRate*d.Seconds()) + 2) * openLoopBatch
}

// slicePapers is how many papers the write schedule of a read or
// analytics slice of length d asks for, its warm-up included.
func slicePapers(d time.Duration) int { return openLoopPapers(d + window) }

// ingestPapers is how many papers an ingest slice posts when it is given
// a share of --seconds: the papers a server ingesting at
// ingestNominalRate would take that long over, in whole batches. The
// slice is bounded by work, not by the clock: what the server holds
// after it decides what everything later costs (assignment, compaction,
// compile and memory all grow with the state), and a slice that ran for
// a fixed time handed a faster run a larger state to be slower on.
func ingestPapers(seconds float64, batch int) int {
	n := int(seconds*ingestNominalRate) / batch * batch
	if n < batch {
		n = batch
	}
	return n
}

// newRun does the set-up of a run: everything between the start of the
// workload and its first measured operation — generating C(seed) and
// the other libraries, writing them as JSONL, building the POST bodies
// and the query tables. It is done setupRounds times and the median
// reported, because one sample is too noisy to hold a bound. The caller
// calls removeScratch(r.dir).
func newRun(bin string, sh shape, seed int64, sc scale) (*run, error) {
	began := time.Now()
	dir, err := scratchDir("run-")
	if err != nil {
		return nil, err
	}
	r := &run{bin: bin, sh: sh, dir: dir, batch: ingestBatch, libs: make([]*inputs, sh.coldStarts)}
	r.res = &result{e2e: map[string]float64{}, server: map[string]float64{}}
	for i := 0; i < connections(); i++ {
		r.conns = append(r.conns, newConn())
	}
	r.readers = r.conns[1:]
	for len(r.readers) < 2 {
		r.readers = append(r.readers, newConn())
	}
	var setups []float64
	for i := 0; i < setupRounds; i++ {
		t0 := time.Now()
		if i == 0 {
			t0 = began
		}
		for k := range r.libs {
			if k == 0 {
				r.libs[k], err = generate(seed, sc)
			} else {
				r.libs[k], err = generateLibrary(librarySeed(seed, k), sc)
			}
			if err == nil {
				err = r.libs[k].writeBase(r.basePath(k))
			}
			if err != nil {
				removeScratch(dir)
				return nil, err
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	r.in = r.libs[0]
	if err := checkFingerprint(r.in); err != nil {
		removeScratch(dir)
		return nil, err
	}
	r.res.e2e["setup_s"] = median(setups)
	r.ackedID = make([]int32, len(r.in.stream))
	for i := range r.ackedID {
		r.ackedID[i] = -1
	}
	r.read = newTrafficStats("read", readMix, r.in, len(r.readers))
	r.analytics = newTrafficStats("analytics", analyticsMix, r.in, len(r.readers))
	return r, nil
}

// basePath is where library k is written as the JSONL file a server fits.
func (r *run) basePath(k int) string {
	return filepath.Join(r.dir, "base-"+strconv.Itoa(k)+".jsonl")
}

// spread says whether item i of n is due after round k of the run's
// rounds, when n items are spread evenly over them.
func spread(i, n, k int) bool { return i*rounds/n == k }

// runWorkload performs one end-to-end run of a workload: set-up, the
// first cold start and the crash, then the rounds, then the checks. It
// never traces.
func runWorkload(bin string, sh shape, seed int64, seconds float64, sc scale) (*result, error) {
	r, err := newRun(bin, sh, seed, sc)
	if err != nil {
		return nil, err
	}
	defer removeScratch(r.dir)
	defer killAll()

	perRound := seconds / rounds
	ingestN := ingestPapers(perRound*sh.ingest, r.batch)
	readFor, analyticsFor := sliceDuration(perRound, sh.reads), sliceDuration(perRound, sh.analytics)
	if need := rounds * (ingestN + slicePapers(readFor) + slicePapers(analyticsFor)); need > r.in.reserve {
		return nil, fmt.Errorf("--seconds %g needs %d stream papers, C(seed) has %d", seconds, need, r.in.reserve)
	}

	if err := r.crashedDirectory(); err != nil {
		return nil, err
	}
	srv, err := r.recoverOnce(true)
	if err != nil {
		return nil, err
	}
	for k := 0; k < rounds; k++ {
		r.ingestSlice(srv, r.take(ingestN))
		// The serving process sleeps while the other servers start, and
		// finishes what the ingest slice left it to do (a compaction, a
		// collection) before its reads are timed.
		for i := 1; i < sh.coldStarts; i++ {
			if spread(i-1, sh.coldStarts-1, k) {
				if err := r.coldStart(i); err != nil {
					return nil, err
				}
			}
		}
		for i := 1; i < sh.recoveries; i++ {
			if spread(i-1, sh.recoveries-1, k) {
				if _, err := r.recoverOnce(false); err != nil {
					return nil, err
				}
			}
		}
		r.read.slice(r, srv, k, r.take(slicePapers(readFor)), readFor)
		r.analytics.slice(r, srv, k, r.take(slicePapers(analyticsFor)), analyticsFor)
	}
	r.checkAcked(srv, 0, len(r.ackedID))
	if err := r.scrape(srv); err != nil {
		return nil, err
	}
	r.retire(srv, syscall.SIGTERM)
	r.report()
	return r.res, nil
}

func sliceDuration(seconds, share float64) time.Duration {
	return time.Duration(seconds * share * float64(time.Second))
}

// retire stops a server and keeps the most memory it ever held.
func (r *run) retire(srv *server, sig syscall.Signal) {
	if mb := srv.stop(sig).peakRSSMB; mb > 0 {
		r.peakRSS = append(r.peakRSS, mb)
	}
}

// report turns the samples of the run into its end-to-end metrics.
func (r *run) report() {
	e, res := r.res.e2e, r.res
	e["fit_s"] = median(r.fits)
	res.note("fit_s            %s  (%d libraries of %d papers)", digest(r.fits), len(r.libs), len(r.in.base))
	e["pairwise_f1"] = r.capped.f1()
	res.note("pairwise_f1      %.4f (≤ %d slots per name, %d libraries); uncapped micro F1 %.4f", r.capped.f1(), f1SlotCap, len(r.libs), r.micro.f1())

	// Throughput is the mean of the faster half of the slices. The latencies are
	// taken over the acks of all slices: the tail of an ack is the
	// compaction stall, which recurs every 64 batches, some twenty times a
	// run, so the p99 of the run sits inside that population where the p99
	// of one slice is its second or third worst stall.
	ing := &r.ingest
	acks := ing.acks.sorted()
	e["ingest_papers_per_s"] = fasterHalf(ing.rates, false)
	e["ingest_ack_p50_ms"] = acks.quantile(0.5)
	e["ingest_ack_p99_ms"] = acks.quantile(0.99)
	res.note("ingest ack ms    %s  (%d conns × batches of %d, %d papers in %d slices, %.0f papers/s)",
		digest(ing.acks), len(r.conns), r.batch, ing.papers, len(ing.rates), e["ingest_papers_per_s"])

	e["read_ops_per_s"], e["read_p50_ms"], e["read_p99_ms"] = r.read.report(res)
	var p50 float64
	e["analytics_ops_per_s"], p50, e["analytics_p99_ms"] = r.analytics.report(res)
	res.server["client.analytics_p50_ms"] = p50
	res.server["gen.late_p99_ms"] = append(r.read.late.sorted(), r.analytics.late...).sorted().quantile(0.99)

	e["recover_s"] = median(r.recovers)
	res.server["service.recover_ms"] = median(r.recoverServer)
	res.server["proc.start_ms"] = median(r.recovers)*1000 - median(r.recoverServer)
	res.note("recover_s        %s  (replay of %d×%d papers; server-side %.1f ms)",
		digest(r.recovers), r.in.sc.crashBatches, r.in.sc.crashBatch, median(r.recoverServer))

	// The most memory any server of the run ever held (VmHWM): in
	// practice the one that served the traffic, whose state every slice
	// grew by a fixed number of papers.
	e["peak_rss_mb"] = r.peakRSS.sorted().quantile(1)
	res.note("peak_rss_mb      %.1f  (VmHWM of the %d servers: %s)", e["peak_rss_mb"], len(r.peakRSS), digest(r.peakRSS))
	res.attempted = r.t.attempted.Load()
	res.failed = r.t.failed.Load()
}

// startFit starts a server that has to fit library k and times exec →
// first 200 on /healthz, then scores what it fitted. Every cold start
// fits another library (librarySeed), so that fit_s and pairwise_f1
// describe the fit and not one corpus: the micro pairwise F1 of a single
// library swings by 5–10% of itself from seed to seed.
func (r *run) startFit(k int, journal string) (*server, error) {
	srv, err := startServer(r.bin, append([]string{"-corpus", r.basePath(k), "-journal", journal}, r.serverArgs...)...)
	if err != nil {
		return nil, err
	}
	r.t.attempted.Add(1)
	took, h, err := srv.waitHealthy(r.conns[0], 3*time.Minute)
	if err != nil {
		return nil, err
	}
	if h.Epoch != 0 {
		r.t.fail("cold start: epoch %d, want 0", h.Epoch)
	}
	r.fits = append(r.fits, took.Seconds())
	if k == 0 {
		r.res.server["proc.fit_cpu_s"] = srv.proc().cpuS
	}
	r.scoreF1(srv, r.libs[k])
	return srv, nil
}

// coldStart fits library k on a server of its own, scores it and stops
// it.
func (r *run) coldStart(k int) error {
	srv, err := r.startFit(k, filepath.Join(r.dir, "journal-lib"+strconv.Itoa(k)))
	if err != nil {
		return err
	}
	r.retire(srv, syscall.SIGKILL)
	return nil
}

// fanOut runs fn(conn, i) for i in [0, n) over the run's connections.
func (r *run) fanOut(n int, fn func(c *conn, i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for _, c := range r.conns {
		wg.Add(1)
		go func(c *conn) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(c, i)
			}
		}(c)
	}
	wg.Wait()
}

// f1SlotCap is how many slots one name may contribute to pairwise_f1.
// Micro pairwise F1 counts pairs, so one prolific homonym block sets the
// score (seed 10: one name holds 16,653 of 28,189 true pairs) and the
// score swings 0.74–0.91 from seed to seed with the size of that block.
// Capping each name at a seeded sample of 20 slots keeps the metric a
// micro pairwise F1 but lets it hold a bound across seeds. The uncapped
// score is printed and pinned per seed as a correctness check.
const f1SlotCap = 20

// scoreF1 resolves every slot of every ambiguous name of a fitted
// library over HTTP and adds the pairs of the clustering, counted
// against the generator's labels, to the run's. A slot the server
// cannot resolve is a failed operation.
func (r *run) scoreF1(srv *server, lib *inputs) {
	amb := lib.ambiguous
	cluster := make([]int, len(amb))
	r.fanOut(len(amb), func(c *conn, i int) {
		cluster[i] = r.t.resolve(c, srv.url, amb[i].paper, amb[i].index, amb[i].name)
	})
	capped, micro := scoreClusters(amb, cluster, lib.seed)
	r.capped.add(capped)
	r.micro.add(micro)
	if lib != r.in {
		return
	}
	r.t.attempted.Add(1)
	if p, ok, _ := pinFor(r.in); ok && micro.f1() < p.MicroF1-f1Tolerance {
		r.t.fail("uncapped micro F1 %.4f is below the pin %.4f for seed %d by more than %.3f", micro.f1(), p.MicroF1, r.in.seed, f1Tolerance)
	}
	r.res.note("C(seed) alone    pairwise F1 %.4f capped, %.4f uncapped over %d slots of ambiguous names", capped.f1(), micro.f1(), len(amb))
}

// scoreClusters returns the capped and the uncapped pair counts of a
// clustering of the ambiguous slots.
func scoreClusters(amb []slotRef, cluster []int, seed int64) (capped, micro pairCounts) {
	byName := make(map[string][]instance)
	var names []string
	for i, s := range amb {
		if _, seen := byName[s.name]; !seen {
			names = append(names, s.name)
		}
		byName[s.name] = append(byName[s.name], instance{cluster: cluster[i], truth: s.truth})
	}
	rng := rand.New(rand.NewSource(seed*1000003 + 7))
	for _, name := range names { // first-occurrence order: deterministic
		ins := byName[name]
		micro.addName(ins)
		if len(ins) > f1SlotCap {
			rng.Shuffle(len(ins), func(i, j int) { ins[i], ins[j] = ins[j], ins[i] })
			ins = ins[:f1SlotCap]
		}
		capped.addName(ins)
	}
	return capped, micro
}

// ingestOne posts stream[lo:lo+n] and records the ids of the acked
// papers. It returns false when the batch failed.
func (r *run) ingestOne(c *conn, srv *server, lo, n int) bool {
	ids := r.t.post(c, srv.url, r.in.batchBody(lo, lo+n), n)
	if ids == nil {
		return false
	}
	for i, id := range ids {
		atomic.StoreInt32(&r.ackedID[lo+i], int32(id))
	}
	return true
}

// checkRightAfterAck resolves the first slot of a paper the server has
// just acked: an ack means published, not merely queued.
func (r *run) checkRightAfterAck(c *conn, srv *server, idx int) {
	id := int(atomic.LoadInt32(&r.ackedID[idx]))
	r.t.resolve(c, srv.url, id, 0, r.in.stream[idx].Authors[0])
}

// ingestStats is what the ingest slices of a run measured.
type ingestStats struct {
	rates  []float64 // papers per second of each slice
	acks   samples   // every ack of the run, ms
	papers int64
}

// ingestSlice is the durable write path under closed-loop load: every
// connection posts batches of r.batch papers from a shared cursor and
// waits for each ack, until the slice's papers are in.
func (r *run) ingestSlice(srv *server, papers *region) {
	var mu sync.Mutex
	var acks samples
	start := time.Now()
	var wg sync.WaitGroup
	for _, c := range r.conns {
		wg.Add(1)
		go func(c *conn) {
			defer wg.Done()
			var mine samples
			for n := 0; ; n++ {
				lo, ok := papers.claim(r.batch)
				if !ok {
					break
				}
				t0 := time.Now()
				if !r.ingestOne(c, srv, lo, r.batch) {
					continue
				}
				mine = append(mine, ms(time.Since(t0)))
				if n%10 == 0 {
					r.checkRightAfterAck(c, srv, lo)
				}
			}
			mu.Lock()
			acks = append(acks, mine...)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	if len(acks) == 0 {
		return // every batch failed and was counted
	}
	ing := &r.ingest
	ing.rates = append(ing.rates, float64(len(acks)*r.batch)/elapsed)
	ing.acks = append(ing.acks, acks...)
	ing.papers += int64(len(acks) * r.batch)
}

// trafficStats is what the slices of one query mix measured. Each window
// of each slice gives one sample of throughput, p50 and p99, and the
// metric is the mean of the faster half of those samples (fasterHalf): a
// garbage collection, a journal compaction or a noisy neighbour moves
// the windows it falls in, not the metric, while a cost that is there
// all the time is in every window. What the long stalls cost is in the
// printed p99.9.
type trafficStats struct {
	kind     string
	mix      []endpoint
	queriers []*querier // one per reader, kept across the slices

	rates, p50s, p99s []float64 // one of each per window
	all               samples
	byEndpoint        [numEndpoints]samples
	writeAcks, late   samples
	elapsed           float64
}

func newTrafficStats(kind string, mix []endpoint, in *inputs, readers int) trafficStats {
	ts := trafficStats{kind: kind, mix: mix}
	for i := 0; i < readers; i++ {
		ts.queriers = append(ts.queriers, in.querier(i, mix))
	}
	return ts
}

// slice is one stretch of a query mix under a constant write schedule.
// One connection writes open loop: batches are due on an evenly spaced
// schedule whether or not earlier ones were acked, and each is timed
// from when it was due. The readers query closed loop with no think
// time.
func (ts *trafficStats) slice(r *run, srv *server, round int, papers *region, d time.Duration) {
	var st struct {
		Authors int `json:"authors"`
	}
	if err := getJSON(r.conns[0], srv.url+"/v1/stats", &st); err != nil || st.Authors == 0 {
		r.t.attempted.Add(1)
		r.t.fail("%s slice: /v1/stats: %v", ts.kind, err)
		return
	}

	// The first window of a slice is warm-up: the traffic runs, nothing
	// of it is kept.
	start := time.Now()
	deadline := start.Add(window + d)
	var wg sync.WaitGroup

	wg.Add(1)
	go func() {
		defer wg.Done()
		c := r.conns[0]
		for n, due := range openLoopSchedule(r.in.seed+int64(ts.mix[0])+int64(round)*101, openLoopRate, window+d) {
			at := start.Add(due)
			if wait := time.Until(at); wait > 0 {
				time.Sleep(wait)
			}
			ts.late = append(ts.late, ms(time.Since(at)))
			lo, ok := papers.claim(openLoopBatch)
			if !ok {
				r.t.attempted.Add(1)
				r.t.fail("%s slice: the write schedule outran its share of the stream at paper %d", ts.kind, lo)
				return
			}
			if !r.ingestOne(c, srv, lo, openLoopBatch) {
				continue
			}
			ts.writeAcks = append(ts.writeAcks, ms(time.Since(at)))
			if n%10 == 0 {
				r.checkRightAfterAck(c, srv, lo)
			}
		}
	}()

	perConn := make([][]timedQuery, len(r.readers))
	for i, c := range r.readers {
		wg.Add(1)
		go func(i int, c *conn) {
			defer wg.Done()
			q := ts.queriers[i]
			for time.Now().Before(deadline) {
				qu := q.next(st.Authors)
				t0 := time.Now()
				if r.t.get(c, srv.url+qu.path()) != nil {
					perConn[i] = append(perConn[i], timedQuery{timed{at: time.Since(start), ms: ms(time.Since(t0))}, qu.ep})
				}
			}
		}(i, c)
	}
	wg.Wait()
	ts.elapsed += (time.Since(start) - window).Seconds()

	var all []timed
	for _, qs := range perConn {
		for _, q := range qs {
			if q.at < window {
				continue
			}
			q.at -= window
			all = append(all, q.timed)
			ts.byEndpoint[q.ep] = append(ts.byEndpoint[q.ep], q.ms)
		}
	}
	ts.all = append(ts.all, values(all)...)
	ws := windows(all, d, window)
	each := d.Seconds() / float64(len(ws))
	for _, w := range ws {
		if len(w) == 0 {
			continue // a stall longer than a window: the next one carries it
		}
		srt := w.sorted()
		ts.rates = append(ts.rates, float64(len(w))/each)
		ts.p50s = append(ts.p50s, srt.quantile(0.5))
		ts.p99s = append(ts.p99s, srt.quantile(0.99))
	}
}

// timedQuery is one answered query of a slice.
type timedQuery struct {
	timed
	ep endpoint
}

// report prints the digest of a query mix and returns its three metrics.
func (ts *trafficStats) report(res *result) (opsPerS, p50, p99 float64) {
	opsPerS, p50, p99 = fasterHalf(ts.rates, false), fasterHalf(ts.p50s, true), fasterHalf(ts.p99s, true)
	res.note("%-9s ms     %s  (%d conns, %d windows of %v; means of the faster half of the windows: %.0f ops/s, p50 %.4g, p99 %.4g; %.0f ops/s over all %.2fs)",
		ts.kind, digest(ts.all), len(ts.queriers), len(ts.rates), window, opsPerS, p50, p99, float64(len(ts.all))/ts.elapsed, ts.elapsed)
	for _, ep := range ts.mix {
		one := digest(ts.byEndpoint[ep])
		res.note("  %-15s %s", serverName[ep], one)
		res.server["client."+serverName[ep]+"_p50_us"] = one.Median * 1000
	}
	res.note("  open-loop write %s  (due-time latency; generator late %s)", digest(ts.writeAcks), digest(ts.late))
	return opsPerS, p50, p99
}

// checkAcked resolves the first slot of every acked paper of
// stream[lo:hi]: at the end of a run all of them must be there.
func (r *run) checkAcked(srv *server, lo, hi int) {
	var idx []int
	for i := lo; i < hi && i < len(r.ackedID); i++ {
		if r.ackedID[i] >= 0 {
			idx = append(idx, i)
		}
	}
	r.fanOut(len(idx), func(c *conn, k int) {
		i := idx[k]
		r.t.resolve(c, srv.url, int(r.ackedID[i]), 0, r.in.stream[i].Authors[0])
	})
}

// scrape reads the running server's own accounting at the end of the
// rounds.
func (r *run) scrape(srv *server) error {
	m, err := srv.metrics(r.conns[0])
	if err != nil {
		return fmt.Errorf("scrape /metrics: %w", err)
	}
	serverLayerMetrics(r.res.server, m, srv.proc())
	return nil
}

// serverLayerMetrics folds the server's /metrics document and /proc
// sample into per-layer metric names.
func serverLayerMetrics(out map[string]float64, m httpapi.Metrics, ps procSample) {
	ing := m.Ingest
	if ing.AdmittedBatches > 0 {
		out["ingestq.grouped_ratio"] = float64(ing.GroupedBatches) / float64(ing.AdmittedBatches)
	}
	out["ingestq.queue_wait_p50_us"] = float64(ing.QueueWait.P50Ns) / 1e3
	out["ingestq.publish_lag_p50_us"] = float64(ing.PublishLag.P50Ns) / 1e3
	out["core.view.ingest_wait_ms"] = float64(m.Contention.IngestWaitNs) / 1e6
	out["core.view.apply_wait_ms"] = float64(m.Contention.ApplyWaitNs) / 1e6
	out["core.view.flattens"] = float64(m.Contention.Flattens)
	out["proc.cpu_s"] = ps.cpuS
	out["proc.write_mb"] = ps.writeMB
	if j := m.Journal; j != nil {
		out["wal.fsyncs"] = float64(j.Fsyncs)
		out["wal.rotations"] = float64(j.Rotations)
		if j.AppendedBytes > 0 {
			out["wal.write_amp"] = ps.writeMB * (1 << 20) / float64(j.AppendedBytes)
		}
	}
	a := m.Analytics
	if a.Hits+a.Misses > 0 {
		out["netstats.cache_hit_ratio"] = float64(a.Hits) / float64(a.Hits+a.Misses)
	}
	out["netstats.rebuilds"] = float64(a.Rebuilds)
	out["netstats.compile_ms_total"] = float64(a.CompileNsTotal) / 1e6
	for name, s := range m.HTTP.Endpoints {
		out["server."+name+"_p50_us"] = float64(s.P50Ns) / 1e3
	}
}

// crashState is the kill -9 directory every recovery starts from, and
// what a recovery of it has to reproduce.
type crashState struct {
	dir         string
	epochBefore uint64  // epoch of the restarted server before the crash batches
	probes      []probe // slots whose answers were recorded before the kill
	want        uint64  // fingerprint of those answers
	lo, hi      int     // stream[lo:hi] are the crash papers
}

// crashedDirectory makes the directory the recoveries start from, as a
// user would come by it: a server fits C(seed) from a cold start (the
// run's first), is shut down cleanly (Close compacts the journal into
// base.snap), restarted, sent a fixed number of large batches that stay
// below the compaction threshold, asked for a sample of answers, and
// killed with SIGKILL.
func (r *run) crashedDirectory() error {
	sc := r.in.sc
	cs := &r.crash
	cs.dir = filepath.Join(r.dir, "journal")
	srv, err := r.startFit(0, cs.dir)
	if err != nil {
		return err
	}
	r.retire(srv, syscall.SIGTERM)
	if _, err := os.Stat(filepath.Join(cs.dir, "base.snap")); err != nil {
		return fmt.Errorf("clean shutdown left no base snapshot: %w\n%s", err, srv.stderr.String())
	}
	srv, err = startServer(r.bin, append([]string{"-journal", cs.dir}, r.serverArgs...)...)
	if err != nil {
		return err
	}
	r.t.attempted.Add(1)
	_, h0, err := srv.waitHealthy(r.conns[0], time.Minute)
	if err != nil {
		return err
	}
	if h0.Recovery == nil || h0.Recovery.Batches != 0 {
		r.t.fail("restart after a clean shutdown replayed batches: %+v", h0.Recovery)
	}
	cs.epochBefore = h0.Epoch

	cs.lo = r.in.reserve
	cs.hi = cs.lo + sc.crashBatches*sc.crashBatch
	for lo := cs.lo; lo < cs.hi; lo += sc.crashBatch {
		r.ingestOne(r.conns[0], srv, lo, sc.crashBatch)
	}
	cs.probes = r.fingerprintProbes()
	cs.want = r.answerFingerprint(srv, cs.probes)
	r.retire(srv, syscall.SIGKILL)
	if fi, err := os.Stat(filepath.Join(cs.dir, "base.snap")); err == nil {
		r.res.server["snapshot.base_mb"] = float64(fi.Size()) / (1 << 20)
	}
	r.res.server["wal.journal_mb"] = journalMB(cs.dir)
	return nil
}

// recoverOnce copies the crashed directory, starts a server on the copy,
// times exec → first 200 on /healthz and checks what came back: the
// replay report, the epoch and the answers recorded before the kill. A
// recovery that is kept goes on to serve the run's traffic, after every
// crash paper has been resolved on it; the others are stopped.
func (r *run) recoverOnce(keep bool) (*server, error) {
	sc, cs := r.in.sc, &r.crash
	i := len(r.recovers)
	fresh := filepath.Join(r.dir, "recover-"+strconv.Itoa(i))
	if err := copyDir(cs.dir, fresh); err != nil {
		return nil, err
	}
	srv, err := startServer(r.bin, append([]string{"-journal", fresh}, r.serverArgs...)...)
	if err != nil {
		return nil, err
	}
	r.t.attempted.Add(1)
	took, h, err := srv.waitHealthy(r.conns[0], time.Minute)
	if err != nil {
		return nil, err
	}
	r.recovers = append(r.recovers, took.Seconds())
	switch {
	case h.Recovery == nil:
		r.t.fail("recovery %d: /healthz carries no recovery report", i)
	case h.Recovery.Batches != sc.crashBatches || h.Recovery.Papers != sc.crashBatches*sc.crashBatch:
		r.t.fail("recovery %d: replayed %d batches, %d papers; want %d, %d", i,
			h.Recovery.Batches, h.Recovery.Papers, sc.crashBatches, sc.crashBatches*sc.crashBatch)
	default:
		r.recoverServer = append(r.recoverServer, float64(h.Recovery.WallNs)/1e6)
		r.res.server["wal.replayed_batches"] = float64(h.Recovery.Batches)
		r.res.server["wal.replayed_papers"] = float64(h.Recovery.Papers)
	}
	if want := cs.epochBefore + uint64(sc.crashBatches); h.Epoch != want {
		r.t.fail("recovery %d: epoch %d, want %d", i, h.Epoch, want)
	}
	if got := r.answerFingerprint(srv, cs.probes); got != cs.want {
		r.t.fail("recovery %d: answers differ from before the kill (fingerprint %016x, want %016x)", i, got, cs.want)
	}
	if keep {
		r.checkAcked(srv, cs.lo, cs.hi)
		return srv, nil
	}
	r.retire(srv, syscall.SIGKILL)
	return nil, os.RemoveAll(fresh)
}

// probe is one slot whose answer goes into the pre-kill fingerprint.
type probe struct{ paper, index int }

// fingerprintProbes samples slots of the base and of every acked paper,
// by the run's seed.
func (r *run) fingerprintProbes() []probe {
	rng := rand.New(rand.NewSource(r.in.seed*2654435761 + 17))
	var acked []int
	for i := range r.ackedID {
		if r.ackedID[i] >= 0 {
			acked = append(acked, i)
		}
	}
	probes := make([]probe, 0, r.in.sc.fingerprint)
	for len(probes) < r.in.sc.fingerprint {
		if len(acked) > 0 && len(probes)%2 == 1 {
			i := acked[rng.Intn(len(acked))]
			probes = append(probes, probe{int(r.ackedID[i]), rng.Intn(len(r.in.stream[i].Authors))})
			continue
		}
		p := rng.Intn(len(r.in.base))
		probes = append(probes, probe{p, rng.Intn(len(r.in.base[p].Authors))})
	}
	return probes
}

// answerFingerprint digests the full resolve answers of the probes, in
// probe order: author id, name, papers, years, venues and degree.
func (r *run) answerFingerprint(srv *server, probes []probe) uint64 {
	bodies := make([][]byte, len(probes))
	r.fanOut(len(probes), func(c *conn, i int) {
		bodies[i] = r.t.get(c, srv.url+query{ep: epResolve, paper: probes[i].paper, index: probes[i].index}.path())
	})
	h := fnv.New64a()
	for _, b := range bodies {
		h.Write(b)
		h.Write([]byte{0})
	}
	return h.Sum64()
}

// journalMB is the size of the journal segments a recovery has to read.
func journalMB(dir string) float64 {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var total int64
	for _, e := range entries {
		if len(e.Name()) > 4 && e.Name()[:4] == "wal." && e.Name() != "wal.lock" {
			if fi, err := e.Info(); err == nil {
				total += fi.Size()
			}
		}
	}
	return float64(total) / (1 << 20)
}
