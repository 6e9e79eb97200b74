package main

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net/url"
	"os"
	"sort"
	"strconv"
	"time"

	"iuad/internal/bib"
	"iuad/internal/synth"
)

// scale fixes the paper counts of a run. The workload and metric lists
// never change with it; only how many papers each part of a run sees.
type scale struct {
	papers       int // synth.ScaleConfig target for C(seed)
	base         int // first papers of C(seed), fitted at server start
	minStream    int // C(seed) must leave at least this many papers to stream
	crashBatches int // batches posted before the kill -9 (below compact-every 64)
	crashBatch   int // papers per crash batch
	fingerprint  int // resolve answers sampled into the pre-kill fingerprint
	tracePapers  int // stream papers each in-process ingest driver applies
}

// fullScale is what BENCHMARK.json measures. ISSUE 12 asked for a
// 64,000-paper corpus with a 40,000-paper base, where one cold start is
// 7 s; the driver's cap on the whole set of runs leaves about 25 s per
// run and every run fits a base at least three times, so C(seed) is
// 26,000 papers and the base 10,000. Not fewer: on 8,000 papers the fit
// over-merges every sixth library or so (uncapped micro F1 0.52 where
// its neighbours score 0.8), and a server that starts from such a fit
// holds a fifth fewer authors, which every later metric of the run then
// shows. Over thirty seeds the worst 10,000-paper fit scores 0.73.
var fullScale = scale{papers: 24000, base: 10000, minStream: 14000, crashBatches: 12, crashBatch: 128, fingerprint: 400, tracePapers: 2400}

// smokeScale is the 2,000-paper shape the tests run.
var smokeScale = scale{papers: 2000, base: 1200, minStream: 600, crashBatches: 6, crashBatch: 32, fingerprint: 100, tracePapers: 240}

// slotRef is one author occurrence of the base corpus.
type slotRef struct {
	paper, index int
	name         string
	truth        int
}

// inputs is everything a run feeds the server, derived from the seed
// alone. The server only ever sees the generated papers, never the
// seed or the truth labels.
type inputs struct {
	seed        int64
	sc          scale
	fingerprint uint64
	base        []bib.Paper
	stream      []bib.Paper
	bodies      [][]byte  // stream[i] as one JSON object, labels stripped
	ambiguous   []slotRef // base slots whose name has ≥ 2 true authors
	names       []string  // base names, most papers first (Zipf rank order)
	reserve     int       // stream[reserve:] is kept for the crash set-up
}

// wirePaper is the record the server accepts: a paper without labels.
type wirePaper struct {
	Title   string   `json:"title"`
	Venue   string   `json:"venue"`
	Year    int      `json:"year"`
	Authors []string `json:"authors"`
}

// generate builds C(seed) and splits it into the base library and the
// stream that arrives afterwards.
func generate(seed int64, sc scale) (*inputs, error) {
	in, err := generateLibrary(seed, sc)
	if err != nil {
		return nil, err
	}
	in.reserve = len(in.stream) - sc.crashBatches*sc.crashBatch
	if in.reserve < sc.minStream/2 {
		return nil, fmt.Errorf("stream of %d papers cannot reserve %d for the crash set-up", len(in.stream), sc.crashBatches*sc.crashBatch)
	}
	in.bodies = make([][]byte, len(in.stream))
	for i := range in.stream {
		b, err := json.Marshal(wireOf(&in.stream[i]))
		if err != nil {
			return nil, err
		}
		in.bodies[i] = b
	}
	return in, nil
}

// librarySeed is the seed of the i-th library a run cold-starts on.
// Library 0 is C(seed) itself, the one that goes on to serve; the others
// are only fitted and scored. The stride keeps the libraries of runs
// with neighbouring seeds apart.
func librarySeed(seed int64, i int) int64 { return seed + int64(i)*1_000_003 }

// generateLibrary builds C(seed) without the request bodies: what a cold
// start and the quality score need.
func generateLibrary(seed int64, sc scale) (*inputs, error) {
	ds := synth.Generate(synth.ScaleConfig(sc.papers, seed))
	n := ds.Corpus.Len()
	if n-sc.base < sc.minStream {
		return nil, fmt.Errorf("C(seed=%d) has %d papers: %d to stream after a base of %d, want at least %d",
			seed, n, n-sc.base, sc.base, sc.minStream)
	}
	in := &inputs{seed: seed, sc: sc}
	all := make([]bib.Paper, n)
	for i := range all {
		all[i] = *ds.Corpus.Paper(bib.PaperID(i))
	}
	in.fingerprint = fingerprintPapers(all)
	in.base, in.stream = all[:sc.base], all[sc.base:]

	truths := make(map[string]map[int]struct{})
	count := make(map[string]int)
	for i := range in.base {
		p := &in.base[i]
		for k, name := range p.Authors {
			if truths[name] == nil {
				truths[name] = make(map[int]struct{}, 1)
			}
			truths[name][int(p.Truth[k])] = struct{}{}
			count[name]++
		}
	}
	for i := range in.base {
		p := &in.base[i]
		for k, name := range p.Authors {
			if len(truths[name]) >= 2 {
				in.ambiguous = append(in.ambiguous, slotRef{paper: i, index: k, name: name, truth: int(p.Truth[k])})
			}
		}
	}
	in.names = make([]string, 0, len(count))
	for name := range count {
		in.names = append(in.names, name)
	}
	sort.Slice(in.names, func(i, j int) bool {
		ci, cj := count[in.names[i]], count[in.names[j]]
		if ci != cj {
			return ci > cj
		}
		return in.names[i] < in.names[j]
	})
	return in, nil
}

// unlabeled is the paper as the server gets to see it: no id, no labels.
func unlabeled(p *bib.Paper) bib.Paper {
	return bib.Paper{Title: p.Title, Venue: p.Venue, Year: p.Year, Authors: p.Authors}
}

func wireOf(p *bib.Paper) wirePaper {
	return wirePaper{Title: p.Title, Venue: p.Venue, Year: p.Year, Authors: p.Authors}
}

// fingerprintPapers is an FNV-64a digest of every field the workloads
// depend on, labels included. It pins the inputs: a change to
// internal/synth shows as a different fingerprint, not as a silently
// different workload.
func fingerprintPapers(papers []bib.Paper) uint64 {
	h := fnv.New64a()
	var num [8]byte
	writeInt := func(v int) {
		binary.LittleEndian.PutUint64(num[:], uint64(v))
		h.Write(num[:])
	}
	writeStr := func(s string) {
		writeInt(len(s))
		h.Write([]byte(s))
	}
	for i := range papers {
		p := &papers[i]
		writeStr(p.Title)
		writeStr(p.Venue)
		writeInt(p.Year)
		writeInt(len(p.Authors))
		for k, a := range p.Authors {
			writeStr(a)
			writeInt(int(p.Truth[k]))
		}
	}
	return h.Sum64()
}

// writeBase writes the base library as the JSONL file the server fits.
func (in *inputs) writeBase(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	enc := json.NewEncoder(w)
	for i := range in.base {
		if err := enc.Encode(wireOf(&in.base[i])); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// batchBody is the POST body for stream[lo:hi]: a JSON array.
func (in *inputs) batchBody(lo, hi int) []byte {
	size := 2
	for i := lo; i < hi; i++ {
		size += len(in.bodies[i]) + 1
	}
	b := make([]byte, 0, size)
	b = append(b, '[')
	for i := lo; i < hi; i++ {
		if i > lo {
			b = append(b, ',')
		}
		b = append(b, in.bodies[i]...)
	}
	return append(b, ']')
}

// endpoint names one query kind of a mix.
type endpoint int

const (
	epByName endpoint = iota
	epResolve
	epAuthor
	epCoauthors
	epNetwork
	epCommunities
	epEgo
	epCollaborators
	numEndpoints
)

// serverName is the endpoint's key in the server's /metrics document.
var serverName = [numEndpoints]string{
	"authors_by_name", "resolve", "author", "coauthors",
	"network", "communities", "ego", "collaborators",
}

var (
	readMix      = []endpoint{epByName, epResolve, epAuthor, epCoauthors}
	analyticsMix = []endpoint{epNetwork, epCommunities, epEgo, epCollaborators}
)

// Name popularity is a Zipf law over the names ranked by paper count,
// P(rank k) ∝ (zipfOffset + k)^-zipfS: reads concentrate on the hub
// names, as queries against a scale-free collaboration network do. The
// offset flattens the very top. With an offset of 1 the three most
// published names drew 40% of the name queries, and how large the top
// name of a generated library is varies 2× from seed to seed (an extreme
// value), so read_p99_ms was the latency of that one name and swung 60%
// with the seed. With 64 the most published 100 of 4,000 names still
// draw a third of the queries, and no single name decides a metric.
const (
	zipfS      = 1.3
	zipfOffset = 64
)

// querier draws the queries of one connection. Two queriers with the
// same seed and connection index draw the same sequence.
type querier struct {
	in   *inputs
	rng  *rand.Rand
	zipf *rand.Zipf
	mix  []endpoint
}

func (in *inputs) querier(conn int, mix []endpoint) *querier {
	rng := rand.New(rand.NewSource(in.seed*7919 + int64(conn)*104729 + int64(mix[0])))
	return &querier{in: in, rng: rng, mix: mix,
		zipf: rand.NewZipf(rng, zipfS, zipfOffset, uint64(len(in.names)-1))}
}

// query is one drawn request: the endpoint and the arguments it needs.
type query struct {
	ep           endpoint
	name         string // epByName
	paper, index int    // epResolve
	id           int    // the author endpoints
}

// next draws one query: an equal mix over the endpoints, names by Zipf
// rank, everything else uniform. authors is the number of author ids
// the server had published when the slice began (ids only grow).
func (q *querier) next(authors int) query {
	qu := query{ep: q.mix[q.rng.Intn(len(q.mix))]}
	switch qu.ep {
	case epByName:
		qu.name = q.in.names[q.zipf.Uint64()]
	case epResolve:
		qu.paper = q.rng.Intn(len(q.in.base))
		qu.index = q.rng.Intn(len(q.in.base[qu.paper].Authors))
	case epAuthor, epCoauthors, epEgo, epCollaborators:
		qu.id = q.rng.Intn(authors)
	}
	return qu
}

// path is the query as the HTTP API spells it.
func (qu query) path() string {
	id := strconv.Itoa(qu.id)
	switch qu.ep {
	case epByName:
		return "/v1/authors?name=" + url.QueryEscape(qu.name)
	case epResolve:
		return "/v1/resolve?paper=" + strconv.Itoa(qu.paper) + "&index=" + strconv.Itoa(qu.index)
	case epAuthor:
		return "/v1/authors/" + id
	case epCoauthors:
		return "/v1/authors/" + id + "/coauthors"
	case epNetwork:
		return "/v1/network"
	case epCommunities:
		return "/v1/communities"
	case epEgo:
		return "/v1/authors/" + id + "/ego?hops=2"
	default:
		return "/v1/authors/" + id + "/collaborators?k=10"
	}
}

// openLoopSchedule returns the due times of an open-loop writer over d,
// as offsets from its start: evenly spaced at the given rate, with a
// phase offset drawn from the seed. Even spacing, not Poisson: the
// number of epochs a slice publishes decides how often analytics has to
// recompile, and a count that varies ±12% between seeds would swamp the
// metric it is there to load.
func openLoopSchedule(seed int64, rate float64, d time.Duration) []time.Duration {
	gap := float64(time.Second) / rate
	offset := rand.New(rand.NewSource(seed*15485863 + 1)).Float64()
	var due []time.Duration
	for k := 0; ; k++ {
		t := time.Duration((float64(k) + offset) * gap)
		if t >= d {
			return due
		}
		due = append(due, t)
	}
}
