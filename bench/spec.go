package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"strconv"

	"iuad/internal/bib"
	"iuad/internal/core"
)

// metric is a name and its unit. The names and units live here because
// the benchmark has to print them; directions and bounds live only in
// BENCHMARK.json, and a test keeps the two lists identical.
type metric struct{ name, unit string }

// endToEnd lists what a user of the server sees. Every workload reports
// all of them.
var endToEnd = []metric{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"fit_s", "s"},
	{"pairwise_f1", "ratio"},
	{"ingest_papers_per_s", "1/s"},
	{"ingest_ack_p50_ms", "ms"},
	{"ingest_ack_p99_ms", "ms"},
	{"read_ops_per_s", "1/s"},
	{"read_p50_ms", "ms"},
	{"read_p99_ms", "ms"},
	{"analytics_ops_per_s", "1/s"},
	{"analytics_p99_ms", "ms"},
	{"recover_s", "s"},
}

// perLayer lists the single-layer numbers of the traced run, grouped by
// the end-to-end metric each is expected to move (bench/README.md).
var perLayer = []metric{
	// → fit_s
	{"bib.load_s", "s"},
	{"core.scn_s", "s"},
	{"textvec.train_s", "s"},
	{"core.gcn_s", "s"},
	{"core.gcn.score_initial_s", "s"},
	{"core.gcn.fit_prep_s", "s"},
	{"emfit.em_s", "s"},
	{"core.gcn.decision_s", "s"},
	{"core.gcn.refine_s", "s"},
	{"core.view_init_s", "s"},
	{"emfit.iterations", "count"},
	{"core.gcn.training_pairs", "count"},
	{"core.scn.vertices", "count"},
	{"core.gcn.vertices", "count"},
	{"fit.allocs", "count"},
	{"fit.alloc_mb", "MB"},
	{"proc.fit_cpu_s", "s"},
	// → ingest_*
	{"httpapi.ingest_us", "us"},
	{"service.add_us", "us"},
	{"ingestq.submit_us", "us"},
	{"wal.append_us", "us"},
	{"wal.fsync_us", "us"},
	{"wal.bytes_per_paper", "B"},
	{"core.assign_us_per_paper", "us"},
	{"core.assign_allocs_per_paper", "count"},
	{"core.assign_created_ratio", "ratio"},
	{"core.view.capture_us", "us"},
	{"core.view.apply_us", "us"},
	{"core.view.delta_entries_per_publish", "count"},
	{"service.compact_ms", "ms"},
	{"snapshot.base_mb", "MB"},
	{"ingestq.grouped_ratio", "ratio"},
	{"ingestq.queue_wait_p50_us", "us"},
	{"ingestq.publish_lag_p50_us", "us"},
	{"wal.fsyncs", "count"},
	{"wal.rotations", "count"},
	{"core.view.ingest_wait_ms", "ms"},
	{"core.view.apply_wait_ms", "ms"},
	{"proc.cpu_s", "s"},
	{"proc.write_mb", "MB"},
	{"wal.write_amp", "ratio"},
	// → read_*
	{"core.view.resolve_ns", "ns"},
	{"core.view.by_name_ns", "ns"},
	{"core.view.coauthors_ns", "ns"},
	{"service.author_ns", "ns"},
	{"service.coauthors_ns", "ns"},
	{"httpapi.resolve_us", "us"},
	{"httpapi.by_name_us", "us"},
	{"httpapi.author_us", "us"},
	{"httpapi.coauthors_us", "us"},
	{"httpapi.read_bytes_p50", "B"},
	{"core.view.flattens", "count"},
	{"net.client_overhead_us", "us"},
	// → analytics_*
	{"netstats.compile_ms", "ms"},
	{"netstats.communities_ms", "ms"},
	{"netstats.ego_us", "us"},
	{"netstats.collab_us", "us"},
	{"netstats.stats_us", "us"},
	{"httpapi.analytics_us", "us"},
	{"netstats.cache_hit_ratio", "ratio"},
	{"netstats.rebuilds", "count"},
	{"netstats.compile_ms_total", "ms"},
	// → recover_s
	{"core.snapshot.load_ms", "ms"},
	{"wal.replay_decode_ms", "ms"},
	{"core.replay_assign_ms", "ms"},
	{"core.view.replay_publish_ms", "ms"},
	{"service.recover_ms", "ms"},
	{"proc.start_ms", "ms"},
	{"wal.journal_mb", "MB"},
	{"wal.replayed_batches", "count"},
	{"wal.replayed_papers", "count"},
	// every workload
	{"trace.unattributed_share", "ratio"},
	{"trace.span_count", "count"},
	{"gen.late_p99_ms", "ms"},
}

// benchmarkFile is the part of BENCHMARK.json the benchmark reads back:
// the run length and, for `repeat`, each metric's direction and bound.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadBenchmarkFile(path string) (*benchmarkFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if bf.RunSeconds < 1 {
		return nil, fmt.Errorf("%s: run_seconds %d", path, bf.RunSeconds)
	}
	return &bf, nil
}

// fingerprints.json pins, per scale and seed, the fingerprint of C(seed)
// and the uncapped micro pairwise F1 of the fitted base. BENCHMARK.json
// admits no extra key, so the pins live beside the code; `bench pin`
// rewrites them.
//
//go:embed fingerprints.json
var fingerprintsJSON []byte

type pin struct {
	Corpus  string  `json:"corpus"`
	MicroF1 float64 `json:"micro_f1"`
}

// f1Tolerance is how far below its pin a seed's micro F1 may fall before
// the run counts a failed check. The fit is bit-identical for every
// worker count, so any movement is a change of the algorithm.
const f1Tolerance = 0.005

func pinFor(in *inputs) (pin, bool, error) {
	var pins map[string]map[string]pin
	if err := json.Unmarshal(fingerprintsJSON, &pins); err != nil {
		return pin{}, false, fmt.Errorf("fingerprints.json: %w", err)
	}
	p, ok := pins[strconv.Itoa(in.sc.papers)][strconv.FormatInt(in.seed, 10)]
	return p, ok, nil
}

// checkFingerprint aborts a run whose generated corpus is not the one
// the benchmark was defined on: someone changed internal/synth, and the
// numbers would silently describe a different workload. A seed that was
// never pinned is reported and allowed.
func checkFingerprint(in *inputs) error {
	got := fmt.Sprintf("%016x", in.fingerprint)
	p, ok, err := pinFor(in)
	switch {
	case err != nil:
		return err
	case !ok:
		fmt.Fprintf(os.Stderr, "inputs: C(seed=%d) at %d papers has fingerprint %s (seed not pinned)\n", in.seed, in.sc.papers, got)
	case got != p.Corpus:
		return fmt.Errorf("inputs changed: C(seed=%d) at %d papers has fingerprint %s, pinned %s (internal/synth no longer generates the corpus this benchmark was defined on)",
			in.seed, in.sc.papers, got, p.Corpus)
	default:
		fmt.Fprintf(os.Stderr, "inputs: C(seed=%d) fingerprint %s matches the pin\n", in.seed, got)
	}
	return nil
}

// writePins fits the base of each seed in-process and rewrites
// bench/fingerprints.json. Run it only when a change to the generator or
// to the algorithm is meant to move the inputs or the quality floor.
func writePins(seeds int64) error {
	pins := map[string]map[string]pin{}
	for _, sc := range []scale{fullScale, smokeScale} {
		key := strconv.Itoa(sc.papers)
		pins[key] = map[string]pin{}
		for seed := int64(1); seed <= seeds; seed++ {
			in, err := generate(seed, sc)
			if err != nil {
				return err
			}
			micro, err := fitMicroF1(in)
			if err != nil {
				return err
			}
			pins[key][strconv.FormatInt(seed, 10)] = pin{Corpus: fmt.Sprintf("%016x", in.fingerprint), MicroF1: micro}
			fmt.Printf("%d papers, seed %d: corpus %016x micro F1 %.4f\n", sc.papers, seed, in.fingerprint, micro)
		}
	}
	b, err := json.MarshalIndent(pins, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile("bench/fingerprints.json", append(b, '\n'), 0o644)
}

// fitMicroF1 fits the base the way the server does and scores it.
func fitMicroF1(in *inputs) (float64, error) {
	corpus := bib.NewCorpus(len(in.base))
	for i := range in.base {
		corpus.MustAdd(unlabeled(&in.base[i]))
	}
	corpus.Freeze()
	pl, err := core.Run(corpus, serverFitConfig(corpus.Len()))
	if err != nil {
		return 0, err
	}
	cluster := make([]int, len(in.ambiguous))
	for i, s := range in.ambiguous {
		cluster[i] = pl.GCN.ClusterOfSlot(core.Slot{Paper: bib.PaperID(s.paper), Index: s.index})
	}
	_, micro := scoreClusters(in.ambiguous, cluster, in.seed)
	return micro.f1(), nil
}
