package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"
)

func TestInputsAreSeedDeterministic(t *testing.T) {
	a, err := generate(5, smokeScale)
	if err != nil {
		t.Fatal(err)
	}
	b, err := generate(5, smokeScale)
	if err != nil {
		t.Fatal(err)
	}
	c, err := generate(6, smokeScale)
	if err != nil {
		t.Fatal(err)
	}
	if a.fingerprint != b.fingerprint {
		t.Errorf("same seed, different corpus: %016x vs %016x", a.fingerprint, b.fingerprint)
	}
	if a.fingerprint == c.fingerprint {
		t.Errorf("seeds 5 and 6 generate the same corpus %016x", a.fingerprint)
	}
	if len(a.stream) < smokeScale.minStream || len(a.ambiguous) == 0 || len(a.names) == 0 {
		t.Fatalf("degenerate inputs: %d stream papers, %d ambiguous slots, %d names", len(a.stream), len(a.ambiguous), len(a.names))
	}
	for i := 1; i < len(a.base); i++ {
		if a.base[i].Year < a.base[i-1].Year {
			t.Fatalf("base is not year-ordered at paper %d", i)
		}
	}

	// Same seed and connection: same query sequence. Another connection
	// or seed: another sequence.
	draw := func(in *inputs, conn int, mix []endpoint) []query {
		q := in.querier(conn, mix)
		out := make([]query, 400)
		for i := range out {
			out[i] = q.next(500)
		}
		return out
	}
	if !reflect.DeepEqual(draw(a, 0, readMix), draw(b, 0, readMix)) {
		t.Error("same seed and connection drew different queries")
	}
	if reflect.DeepEqual(draw(a, 0, readMix), draw(a, 1, readMix)) {
		t.Error("two connections drew the same queries")
	}
	if reflect.DeepEqual(draw(a, 0, readMix), draw(c, 0, readMix)) {
		t.Error("two seeds drew the same queries")
	}
	// Equal mix, and the Zipf draw favours the top-ranked names: the most
	// published tenth of them draws well over a tenth of the name queries.
	hub := map[string]bool{}
	for _, name := range a.names[:len(a.names)/10] {
		hub[name] = true
	}
	var perEndpoint [numEndpoints]int
	top := 0
	for _, mix := range [][]endpoint{readMix, analyticsMix} {
		for _, qu := range draw(a, 0, mix) {
			perEndpoint[qu.ep]++
			if qu.ep == epByName && hub[qu.name] {
				top++
			}
		}
	}
	for ep, n := range perEndpoint {
		if n < 60 || n > 140 {
			t.Errorf("endpoint %s drawn %d times of 400 in a mix of four", serverName[ep], n)
		}
	}
	if top < perEndpoint[epByName]/4 {
		t.Errorf("only %d of %d name queries hit the most published tenth of the names", top, perEndpoint[epByName])
	}

	// The other libraries of a run are other corpora, and a library is
	// the run's inputs without the request bodies.
	lib, err := generateLibrary(librarySeed(5, 1), smokeScale)
	if err != nil {
		t.Fatal(err)
	}
	if lib.fingerprint == a.fingerprint || len(lib.ambiguous) == 0 || lib.bodies != nil {
		t.Errorf("library 1 of seed 5: fingerprint %016x (C(5) is %016x), %d ambiguous slots, %d bodies",
			lib.fingerprint, a.fingerprint, len(lib.ambiguous), len(lib.bodies))
	}
	if librarySeed(5, 0) != 5 {
		t.Errorf("library 0 of seed 5 has seed %d", librarySeed(5, 0))
	}
}

func TestOpenLoopSchedule(t *testing.T) {
	a := openLoopSchedule(1, 40, 2*time.Second)
	if !reflect.DeepEqual(a, openLoopSchedule(1, 40, 2*time.Second)) {
		t.Error("same seed, different schedule")
	}
	if reflect.DeepEqual(a, openLoopSchedule(2, 40, 2*time.Second)) {
		t.Error("seeds 1 and 2 share a schedule")
	}
	if len(a) != 80 {
		t.Errorf("%d arrivals in 2s at 40/s, want 80", len(a))
	}
	for i := 1; i < len(a); i++ {
		if gap := a[i] - a[i-1]; gap < 24*time.Millisecond || gap > 26*time.Millisecond {
			t.Fatalf("gap %v between arrivals %d and %d, want 25ms", gap, i-1, i)
		}
	}
	if a[0] < 0 || a[0] >= 25*time.Millisecond || a[len(a)-1] >= 2*time.Second {
		t.Errorf("schedule runs from %v to %v, outside the phase", a[0], a[len(a)-1])
	}
	for _, d := range []time.Duration{40 * time.Millisecond, 150 * time.Millisecond, 2 * time.Second, 2667 * time.Millisecond} {
		due := openLoopSchedule(1, openLoopRate, window+d)
		if got := slicePapers(d); got < len(due)*openLoopBatch {
			t.Errorf("slicePapers(%v) reserves %d papers for %d batches of %d", d, got, len(due), openLoopBatch)
		}
	}
}

// What a slice is handed is fixed before it runs: whole batches for the
// ingest slices, and every cold start and recovery in exactly one round.
func TestRunPlan(t *testing.T) {
	for _, tc := range []struct {
		seconds float64
		batch   int
		want    int
	}{{0.6, 4, 1200}, {0.8, 4, 1600}, {0.001, 4, 4}, {1, 128, 1920}, {0.0101, 16, 16}} {
		if got := ingestPapers(tc.seconds, tc.batch); got != tc.want {
			t.Errorf("ingestPapers(%g, %d) = %d, want %d", tc.seconds, tc.batch, got, tc.want)
		}
	}
	for n := 1; n <= 12; n++ {
		perRound := make([]int, rounds)
		for i := 0; i < n; i++ {
			hits := 0
			for k := 0; k < rounds; k++ {
				if spread(i, n, k) {
					hits++
					perRound[k]++
				}
			}
			if hits != 1 {
				t.Errorf("item %d of %d is due in %d rounds", i, n, hits)
			}
		}
		for k, c := range perRound {
			if c < n/rounds || c > (n+rounds-1)/rounds {
				t.Errorf("%d items: round %d gets %d of them", n, k, c)
			}
		}
	}
}

// BENCHMARK.json and the code must name the same workloads and metrics
// with the same units, within the limits the driver enforces.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"} {
		if _, ok := keys[k]; !ok {
			t.Errorf("BENCHMARK.json lacks %q", k)
		}
		delete(keys, k)
	}
	for k := range keys {
		t.Errorf("BENCHMARK.json has the extra key %q", k)
	}
	bf, err := loadBenchmarkFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(shapes) {
		t.Fatalf("%d workloads declared, %d implemented", len(bf.Workloads), len(shapes))
	}
	for i, w := range bf.Workloads {
		if w.Name != shapes[i].name || w.Why != shapes[i].why {
			t.Errorf("workload %d: BENCHMARK.json says %q (%q), the code %q (%q)", i, w.Name, w.Why, shapes[i].name, shapes[i].why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters, limit 200", w.Name, len(w.Why))
		}
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	check := func(kind string, decls []metricDecl, code []metric, bounded bool) {
		if len(decls) != len(code) {
			t.Fatalf("%s: %d declared, %d in the code", kind, len(decls), len(code))
		}
		for i, d := range decls {
			if d.Name != code[i].name || d.Unit != code[i].unit {
				t.Errorf("%s %d: BENCHMARK.json says %s [%s], the code %s [%s]", kind, i, d.Name, d.Unit, code[i].name, code[i].unit)
			}
			if !name.MatchString(d.Name) || !unit.MatchString(d.Unit) {
				t.Errorf("%s %s [%s] is outside the driver's name or unit alphabet", kind, d.Name, d.Unit)
			}
			if d.Better != "lower" && d.Better != "higher" {
				t.Errorf("%s %s: better = %q", kind, d.Name, d.Better)
			}
			if bounded && (d.Bound <= 0 || d.Bound > 0.25) {
				t.Errorf("%s %s: bound %g outside (0, 0.25]", kind, d.Name, d.Bound)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEnd, true)
	check("per_layer", bf.PerLayer, perLayer, false)
	if bf.EndToEnd[0].Name != "setup_s" || bf.EndToEnd[0].Unit != "s" || bf.EndToEnd[0].Better != "lower" {
		t.Errorf("setup_s must be declared in seconds, lower is better: %+v", bf.EndToEnd[0])
	}
}

func TestFingerprintPins(t *testing.T) {
	in, err := generate(1, smokeScale)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkFingerprint(in); err != nil {
		t.Errorf("seed 1 at smoke scale: %v", err)
	}
	in.fingerprint ^= 1 // what a change to internal/synth looks like
	if err := checkFingerprint(in); err == nil {
		t.Error("a changed corpus passed the fingerprint check")
	}
	in.seed = 99999 // never pinned: reported, allowed
	if err := checkFingerprint(in); err != nil {
		t.Errorf("an unpinned seed was refused: %v", err)
	}
}
