package httpapi_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"iuad"
	"iuad/internal/faultinject"
	"iuad/internal/httpapi"
)

func testService(t *testing.T, opts ...iuad.Option) *iuad.Service {
	t.Helper()
	scfg := iuad.DefaultSyntheticConfig()
	scfg.Seed = 11
	scfg.Authors = 120
	scfg.Communities = 4
	cfg := iuad.DefaultConfig()
	cfg.Workers = 2
	cfg.SampleRate = 0.5
	cfg.Embedding.Dim = 16
	cfg.Embedding.Epochs = 2
	svc, err := iuad.Open(iuad.GenerateSynthetic(scfg).Corpus, append(opts, iuad.WithConfig(cfg))...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	return svc
}

// errorEnvelope decodes the stable error body every failure path must
// produce.
func errorEnvelope(t *testing.T, resp *http.Response) (code, message string) {
	t.Helper()
	var body struct {
		Error struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("error body is not the stable envelope: %v", err)
	}
	if body.Error.Code == "" || body.Error.Message == "" {
		t.Fatalf("error envelope missing fields: %+v", body)
	}
	return body.Error.Code, body.Error.Message
}

// TestErrorEnvelopeCodes drives every error path and pins its HTTP
// status and stable wire code.
func TestErrorEnvelopeCodes(t *testing.T) {
	srv := httptest.NewServer(httpapi.New(testService(t)))
	defer srv.Close()

	post := func(body string) *http.Response {
		resp, err := http.Post(srv.URL+"/v1/papers", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	get := func(path string) *http.Response {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	cases := []struct {
		name   string
		resp   *http.Response
		status int
		code   string
	}{
		{"missing name param", get("/v1/authors"), 400, "bad_request"},
		{"bad author id", get("/v1/authors/xyz"), 400, "bad_request"},
		{"unknown author", get("/v1/authors/999999"), 404, "not_found"},
		{"unknown coauthors", get("/v1/authors/999999/coauthors"), 404, "not_found"},
		{"unknown subresource", get("/v1/authors/0/nonsense"), 404, "not_found"},
		{"bad paper id", get("/v1/papers/xyz"), 400, "bad_request"},
		{"unknown paper", get("/v1/papers/999999"), 404, "not_found"},
		{"bad resolve params", get("/v1/resolve?paper=a&index=b"), 400, "bad_request"},
		{"unknown slot", get("/v1/resolve?paper=999999&index=0"), 404, "not_found"},
		{"paper id past 32 bits", get("/v1/papers/4294967296"), 400, "bad_request"},
		{"resolve paper past 32 bits", get("/v1/resolve?paper=4294967296&index=0"), 400, "bad_request"},
		{"resolve index past 32 bits", get("/v1/resolve?paper=0&index=4294967296"), 404, "not_found"},
		{"GET on ingest", get("/v1/papers"), 405, "method_not_allowed"},
		{"malformed JSON", post("{nope"), 400, "bad_request"},
		{"invalid paper", post(`{"title":"x","authors":[]}`), 400, "bad_request"},
		{"unknown ego author", get("/v1/authors/999999/ego"), 404, "not_found"},
		{"bad ego hops", get("/v1/authors/0/ego?hops=two"), 400, "bad_request"},
		{"unknown collaborators author", get("/v1/authors/999999/collaborators"), 404, "not_found"},
		{"bad collaborators k", get("/v1/authors/0/collaborators?k=x"), 400, "bad_request"},
		{"unknown clustering author", get("/v1/authors/999999/clustering"), 404, "not_found"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer tc.resp.Body.Close()
			if tc.resp.StatusCode != tc.status {
				t.Fatalf("status %d, want %d", tc.resp.StatusCode, tc.status)
			}
			if code, _ := errorEnvelope(t, tc.resp); code != tc.code {
				t.Fatalf("code %q, want %q", code, tc.code)
			}
		})
	}
}

// TestIngestRoundTrip posts a single paper and a batch, reads the
// created author back, and checks /metrics accounted for all of it.
func TestIngestRoundTrip(t *testing.T) {
	api := httpapi.New(testService(t))
	srv := httptest.NewServer(api)
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/v1/papers", "application/json",
		strings.NewReader(`{"title":"HTTP Probe","venue":"KDD","year":2024,"authors":["Http Probe Author"]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("single ingest status %d", resp.StatusCode)
	}
	var single struct {
		Epoch       uint64 `json:"epoch"`
		Assignments []struct {
			Author  int  `json:"author"`
			Created bool `json:"created"`
		} `json:"assignments"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&single); err != nil {
		t.Fatal(err)
	}
	if single.Epoch == 0 || len(single.Assignments) != 1 || !single.Assignments[0].Created {
		t.Fatalf("single ingest response %+v", single)
	}

	author, err := http.Get(fmt.Sprintf("%s/v1/authors/%d", srv.URL, single.Assignments[0].Author))
	if err != nil {
		t.Fatal(err)
	}
	defer author.Body.Close()
	var a struct {
		Name string `json:"name"`
	}
	if err := json.NewDecoder(author.Body).Decode(&a); err != nil {
		t.Fatal(err)
	}
	if a.Name != "Http Probe Author" {
		t.Fatalf("created author reads back as %q", a.Name)
	}

	batch, err := http.Post(srv.URL+"/v1/papers", "application/json",
		strings.NewReader(`[{"title":"B1","venue":"V","year":2024,"authors":["Http Probe Author"]},
		                    {"title":"B2","venue":"V","year":2024,"authors":["Another Http Author"]}]`))
	if err != nil {
		t.Fatal(err)
	}
	defer batch.Body.Close()
	var br struct {
		Assignments [][]json.RawMessage `json:"assignments"`
	}
	if err := json.NewDecoder(batch.Body).Decode(&br); err != nil {
		t.Fatal(err)
	}
	if len(br.Assignments) != 2 {
		t.Fatalf("batch ingest returned %d papers", len(br.Assignments))
	}

	m := api.Metrics()
	if m.Ingest.AdmittedPapers != 3 || m.HTTP.Requests < 3 || m.HTTP.Status2xx < 3 {
		t.Fatalf("metrics %+v", m)
	}
	if _, ok := m.HTTP.Endpoints["ingest"]; !ok {
		t.Fatalf("no ingest latency recorded: %+v", m.HTTP.Endpoints)
	}

	mr, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mr.Body.Close()
	var wire httpapi.Metrics
	if err := json.NewDecoder(mr.Body).Decode(&wire); err != nil {
		t.Fatal(err)
	}
	if wire.Ingest.AdmittedPapers != 3 || wire.Epoch == 0 {
		t.Fatalf("/metrics document %+v", wire)
	}
}

// TestAnalyticsEndpoints drives the collaboration-network surface over
// the wire: whole-graph stats, communities, and the per-author
// ego/collaborators/clustering subresources, plus the analytics-cache
// counters in /metrics.
func TestAnalyticsEndpoints(t *testing.T) {
	api := httpapi.New(testService(t))
	srv := httptest.NewServer(api)
	defer srv.Close()

	getJSON := func(path string, into any) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
	}

	var net struct {
		Authors    int     `json:"authors"`
		Edges      int     `json:"edges"`
		Density    float64 `json:"density"`
		Components int     `json:"components"`
	}
	getJSON("/v1/network", &net)
	if net.Authors <= 0 || net.Edges <= 0 || net.Density <= 0 || net.Components <= 0 {
		t.Fatalf("/v1/network = %+v", net)
	}

	var comm struct {
		Count int   `json:"count"`
		Sizes []int `json:"sizes"`
	}
	getJSON("/v1/communities", &comm)
	if comm.Count <= 0 || len(comm.Sizes) == 0 {
		t.Fatalf("/v1/communities = %+v", comm)
	}

	var eg struct {
		Center   int               `json:"center"`
		Hops     int               `json:"hops"`
		Vertices []json.RawMessage `json:"vertices"`
		Names    []string          `json:"names"`
	}
	getJSON("/v1/authors/0/ego?hops=2", &eg)
	if eg.Center != 0 || eg.Hops != 2 || len(eg.Vertices) == 0 || len(eg.Names) != len(eg.Vertices) {
		t.Fatalf("/v1/authors/0/ego = %+v", eg)
	}

	var cols []struct {
		ID           int    `json:"id"`
		SharedPapers int    `json:"shared_papers"`
		Name         string `json:"name"`
	}
	getJSON("/v1/authors/0/collaborators?k=3", &cols)
	if len(cols) == 0 || len(cols) > 3 {
		t.Fatalf("/v1/authors/0/collaborators = %+v", cols)
	}
	for _, c := range cols {
		if c.SharedPapers <= 0 || c.Name == "" {
			t.Fatalf("collaborator %+v", c)
		}
	}

	var cl struct {
		ID          int     `json:"id"`
		Degree      int     `json:"degree"`
		Coefficient float64 `json:"coefficient"`
	}
	getJSON("/v1/authors/0/clustering", &cl)
	if cl.Degree <= 0 {
		t.Fatalf("/v1/authors/0/clustering = %+v", cl)
	}

	// The whole sweep ran on one epoch: one rebuild, the rest cache
	// hits, all visible in the metrics document.
	var m httpapi.Metrics
	getJSON("/metrics", &m)
	if m.Analytics.Rebuilds != 1 || m.Analytics.Hits == 0 || !m.Analytics.Cached {
		t.Fatalf("analytics counters %+v", m.Analytics)
	}
	for _, name := range []string{"network", "communities", "ego", "collaborators", "clustering"} {
		if _, ok := m.HTTP.Endpoints[name]; !ok {
			t.Fatalf("no %s latency recorded: %+v", name, m.HTTP.Endpoints)
		}
	}

	// An epoch advance costs exactly one more rebuild, however often
	// the new epoch is then read, and the answer is the new epoch's.
	before := net.Authors
	resp, err := http.Post(srv.URL+"/v1/papers", "application/json",
		strings.NewReader(`{"title":"Network Probe","venue":"KDD","year":2024,"authors":["Network Probe Author"]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("ingest status %d", resp.StatusCode)
	}
	getJSON("/v1/network", &net)
	getJSON("/v1/network", &net)
	getJSON("/metrics", &m)
	if net.Authors != before+1 || m.Analytics.Rebuilds != 2 {
		t.Fatalf("after one ingest: %d authors (was %d), analytics counters %+v", net.Authors, before, m.Analytics)
	}
}

// TestOverloadAnswers429 pins the backpressure wire contract: with the
// queue at its bound behind a stalled publish, ingest answers 429 with
// the "overloaded" code and a Retry-After header — and never a 5xx.
func TestOverloadAnswers429(t *testing.T) {
	svc := testService(t, iuad.WithIngestConfig(iuad.IngestConfig{
		MaxQueued:  2,
		RetryAfter: 3 * time.Second,
	}))
	srv := httptest.NewServer(httpapi.New(svc))
	defer srv.Close()

	entered := make(chan struct{}, 8)
	gate := make(chan struct{})
	var once sync.Once
	release := func() { once.Do(func() { close(gate) }) }
	disarm := faultinject.Arm(faultinject.PublishDelay, func() error {
		entered <- struct{}{}
		<-gate
		return nil
	})
	defer disarm()
	defer release()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, err := http.Post(srv.URL+"/v1/papers", "application/json",
			strings.NewReader(`[{"title":"L1","authors":["Overload A"]},{"title":"L2","authors":["Overload B"]}]`))
		if err != nil {
			t.Errorf("leader: %v", err)
			return
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Errorf("leader status %d", resp.StatusCode)
		}
	}()
	<-entered // leader committed, stalled in publish; depth == bound

	resp, err := http.Post(srv.URL+"/v1/papers", "application/json",
		strings.NewReader(`{"title":"S","authors":["Shed Author"]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overload status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "3" {
		t.Fatalf("Retry-After %q, want \"3\"", ra)
	}
	if code, _ := errorEnvelope(t, resp); code != "overloaded" {
		t.Fatalf("overload code %q", code)
	}

	disarm()
	release()
	wg.Wait()
}

// TestOverloadBurstShedsAndDrains is the overload SLO on a real
// listener: a burst of concurrent 4-paper POSTs against a 4-paper
// admission bound, with every publish taking 40 ms, must be shed with
// 429 + Retry-After and never a 5xx or a hang; what was acked is
// readable, the queue empties, and Close waits for a batch that is
// mid-publish. With the bound raised past the burst nothing is shed
// and the test fails.
func TestOverloadBurstShedsAndDrains(t *testing.T) {
	svc := testService(t, iuad.WithIngestConfig(iuad.IngestConfig{MaxQueued: 4, RetryAfter: time.Second}))
	api := httpapi.New(svc)
	srv := httptest.NewServer(api)
	defer srv.Close()

	publishing := make(chan struct{}, 1)
	disarm := faultinject.Arm(faultinject.PublishDelay, func() error {
		select {
		case publishing <- struct{}{}:
		default:
		}
		time.Sleep(40 * time.Millisecond)
		return nil
	})
	defer disarm()

	type slot struct {
		Paper int `json:"paper"`
		Index int `json:"index"`
	}
	type ack struct {
		status int
		retry  string
		slots  [][]slot
		err    error
	}
	const batchPapers = 4
	authorOf := func(b, p int) string { return fmt.Sprintf("Burst Author %d %d", b, p) }
	post := func(b int) (a ack) {
		papers := make([]map[string]any, batchPapers)
		for p := range papers {
			papers[p] = map[string]any{"title": fmt.Sprintf("burst %d %d", b, p), "authors": []string{authorOf(b, p)}}
		}
		body, err := json.Marshal(papers)
		if err != nil {
			return ack{err: err}
		}
		resp, err := http.Post(srv.URL+"/v1/papers", "application/json", bytes.NewReader(body))
		if err != nil {
			return ack{err: err}
		}
		defer resp.Body.Close()
		a.status, a.retry = resp.StatusCode, resp.Header.Get("Retry-After")
		if a.status == 200 {
			var out struct {
				Assignments [][]slot `json:"assignments"`
			}
			a.err = json.NewDecoder(resp.Body).Decode(&out)
			a.slots = out.Assignments
		}
		return a
	}

	const burst = 16
	acks := make([]ack, burst)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for b := range acks {
		wg.Add(1)
		go func(b int) {
			defer wg.Done()
			<-start
			acks[b] = post(b)
		}(b)
	}
	close(start)
	wg.Wait()

	var acked, shed int64
	for b, a := range acks {
		switch {
		case a.err != nil:
			t.Fatalf("batch %d: %v", b, a.err)
		case a.status == 200:
			acked++
			if len(a.slots) != batchPapers {
				t.Fatalf("batch %d acked %d papers, want %d", b, len(a.slots), batchPapers)
			}
			for p, ss := range a.slots {
				if len(ss) != 1 {
					t.Fatalf("batch %d paper %d acked %d slots, want 1", b, p, len(ss))
				}
				resp, err := http.Get(fmt.Sprintf("%s/v1/resolve?paper=%d&index=%d", srv.URL, ss[0].Paper, ss[0].Index))
				if err != nil {
					t.Fatal(err)
				}
				var got struct {
					Name string `json:"name"`
				}
				err = json.NewDecoder(resp.Body).Decode(&got)
				resp.Body.Close()
				if err != nil || resp.StatusCode != 200 || got.Name != authorOf(b, p) {
					t.Fatalf("acked slot %+v resolves to %d %q (%v), want 200 %q", ss[0], resp.StatusCode, got.Name, err, authorOf(b, p))
				}
			}
		case a.status == http.StatusTooManyRequests:
			shed++
			if a.retry != "1" {
				t.Fatalf("batch %d: 429 with Retry-After %q, want \"1\"", b, a.retry)
			}
		default:
			t.Fatalf("batch %d: status %d, want 200 or 429", b, a.status)
		}
	}
	if acked == 0 || shed == 0 {
		t.Fatalf("%d acked, %d shed: the burst must both progress and trip backpressure", acked, shed)
	}
	m := api.Metrics()
	if m.HTTP.Status5xx != 0 || m.HTTP.Status429 != shed || m.Ingest.RejectedBatches != shed ||
		m.Ingest.AdmittedBatches != acked || m.Ingest.Depth != 0 {
		t.Fatalf("after the burst (%d acked, %d shed): http %+v, ingest %+v", acked, shed, m.HTTP, m.Ingest)
	}

	// Close while a batch is mid-publish: it must wait for that batch,
	// which is then acked, not dropped.
	select {
	case <-publishing:
	default:
	}
	last := make(chan ack, 1)
	go func() { last <- post(burst) }()
	<-publishing
	if err := svc.Close(); err != nil {
		t.Fatalf("Close with a batch in flight: %v", err)
	}
	if a := <-last; a.err != nil || a.status != 200 {
		t.Fatalf("batch in flight at Close: status %d, %v", a.status, a.err)
	}
	if m := api.Metrics(); m.Ingest.Depth != 0 || m.Ingest.AdmittedBatches != acked+1 || m.HTTP.Status5xx != 0 {
		t.Fatalf("after Close: http %+v, ingest %+v", m.HTTP, m.Ingest)
	}
}

// TestPendingLifecycle pins the listen-first/recover-second contract:
// a pending server answers 503 "starting" everywhere (healthz
// included), Attach flips the full API on atomically, and after Close
// healthz reports {"status":"closed"} with 503.
func TestPendingLifecycle(t *testing.T) {
	api := httpapi.NewPending()
	srv := httptest.NewServer(api)
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("pending /v1/stats status %d, want 503", resp.StatusCode)
	}
	if code, _ := errorEnvelope(t, resp); code != "starting" {
		t.Fatalf("pending code %q, want starting", code)
	}
	resp.Body.Close()

	var health struct {
		Status string  `json:"status"`
		Epoch  *uint64 `json:"epoch"`
	}
	getHealth := func() (int, string, *uint64) {
		t.Helper()
		resp, err := http.Get(srv.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		health = struct {
			Status string  `json:"status"`
			Epoch  *uint64 `json:"epoch"`
		}{}
		if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, health.Status, health.Epoch
	}

	if st, status, _ := getHealth(); st != 503 || status != "starting" {
		t.Fatalf("pending healthz = %d %q, want 503 starting", st, status)
	}

	svc := testService(t)
	api.Attach(svc)
	if st, status, epoch := getHealth(); st != 200 || status != "ok" || epoch == nil {
		t.Fatalf("attached healthz = %d %q epoch=%v, want 200 ok with epoch", st, status, epoch)
	}

	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	if st, status, _ := getHealth(); st != 503 || status != "closed" {
		t.Fatalf("closed healthz = %d %q, want 503 closed", st, status)
	}
}

// TestHealthzExemptFromAccounting pins the SLO-mix exemption: health
// probes must leave every request counter and latency histogram
// untouched.
func TestHealthzExemptFromAccounting(t *testing.T) {
	api := httpapi.New(testService(t))
	srv := httptest.NewServer(api)
	defer srv.Close()

	for i := 0; i < 25; i++ {
		resp, err := http.Get(srv.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("healthz status %d", resp.StatusCode)
		}
	}
	m := api.Metrics()
	if m.HTTP.Requests != 0 || m.HTTP.Status2xx != 0 {
		t.Fatalf("healthz leaked into accounting: %+v", m.HTTP)
	}
	if _, ok := m.HTTP.Endpoints["healthz"]; ok {
		t.Fatalf("healthz has a latency histogram: %+v", m.HTTP.Endpoints)
	}
}

// probeWriter runs onWrite before the first body byte is accepted: the
// earliest moment a client could act on the response.
type probeWriter struct {
	*httptest.ResponseRecorder
	onWrite func()
}

func (p *probeWriter) Write(b []byte) (int, error) {
	if p.onWrite != nil {
		p.onWrite()
		p.onWrite = nil
	}
	return p.ResponseRecorder.Write(b)
}

// TestRequestAccountedBeforeBodyReleased: by the time any byte of a
// response can reach the client, the request is already in /metrics —
// a client that reads /metrics right after an answer cannot miss it.
func TestRequestAccountedBeforeBodyReleased(t *testing.T) {
	api := httpapi.New(testService(t))
	var atWrite httpapi.Metrics
	w := &probeWriter{ResponseRecorder: httptest.NewRecorder(), onWrite: func() { atWrite = api.Metrics() }}
	api.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	if w.Code != 200 {
		t.Fatalf("status %d", w.Code)
	}
	if atWrite.HTTP.Requests != 1 || atWrite.HTTP.Status2xx != 1 || atWrite.HTTP.Endpoints["stats"].Count != 1 {
		t.Fatalf("accounting at first body write: %+v", atWrite.HTTP)
	}
	if m := api.Metrics(); m.HTTP.Requests != 1 {
		t.Fatalf("request counted %d times", m.HTTP.Requests)
	}
}

// TestJournaledHealthAndMetrics opens a journaled service and checks
// /healthz carries the recovery report shape and /metrics the journal
// section, and that a journal append fault surfaces as a 500 with the
// "internal" code (server fault, not client error) with nothing
// committed.
func TestJournaledHealthAndMetrics(t *testing.T) {
	dir := t.TempDir()
	svc := testService(t, iuad.WithJournal(dir))
	api := httpapi.New(svc)
	srv := httptest.NewServer(api)
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status   string `json:"status"`
		Recovery *struct {
			Batches int `json:"batches"`
		} `json:"recovery"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health.Status != "ok" || health.Recovery == nil {
		t.Fatalf("journaled healthz %+v, want ok with recovery report", health)
	}

	var m httpapi.Metrics
	resp, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if m.Journal == nil || m.Journal.Dir != dir {
		t.Fatalf("metrics journal section %+v, want stats for %s", m.Journal, dir)
	}

	// The first commit on a fresh directory compacts (no base yet); the
	// compaction's report then shows in both documents, next to the
	// fields that were always there.
	resp, err = http.Post(srv.URL+"/v1/papers", "application/json",
		strings.NewReader(`{"title":"First","authors":["Journal First"]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	var doc struct {
		Journal map[string]json.RawMessage `json:"journal"`
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		resp, err = http.Get(srv.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&doc)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := doc.Journal["last_compaction"]; ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("first commit never compacted: %s", doc.Journal)
		}
	}
	for _, key := range []string{"rotations", "fsyncs", "appended_bytes", "segment_bytes", "batches_since_rotate",
		"bytes_since_base", "compaction_in_flight", "compaction_failures", "last_compaction"} {
		if _, ok := doc.Journal[key]; !ok {
			t.Fatalf("metrics journal section lacks %q: %s", key, doc.Journal)
		}
	}
	var healthz struct {
		Compaction *iuad.CompactionStatus `json:"compaction"`
	}
	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(resp.Body).Decode(&healthz)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if c := healthz.Compaction; c == nil || c.Last == nil || c.Last.Epoch != 1 || c.Last.BaseBytes <= 0 ||
		c.Last.DurationMs <= 0 || c.Last.LockHeldUs <= 0 || c.Failures != 0 {
		t.Fatalf("healthz compaction %+v", c)
	}

	epochBefore := svc.Epoch()
	disarm := faultinject.Arm(faultinject.JournalAppend, func() error {
		return fmt.Errorf("injected append fault")
	})
	defer disarm()
	resp, err = http.Post(srv.URL+"/v1/papers", "application/json",
		strings.NewReader(`{"title":"J","authors":["Journal Fault"]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("journal-fault status %d, want 500", resp.StatusCode)
	}
	if code, _ := errorEnvelope(t, resp); code != "internal" {
		t.Fatalf("journal-fault code %q, want internal", code)
	}
	if svc.Epoch() != epochBefore {
		t.Fatalf("failed journal write advanced the epoch: %d -> %d", epochBefore, svc.Epoch())
	}
}
