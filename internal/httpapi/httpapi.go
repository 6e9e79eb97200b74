// Package httpapi is the HTTP face of an iuad.Service: the JSON
// query/ingest endpoints cmd/iuadserver serves, plus the /metrics
// introspection endpoint. It exists as a package (rather than code
// inside the command) so tests can run the exact production handler
// in-process.
//
// Error contract: every error response is the stable envelope
//
//	{"error": {"code": "<stable-code>", "message": "<human text>"}}
//
// where code is one of: bad_request, not_found, method_not_allowed,
// payload_too_large, canceled, deadline_exceeded, overloaded,
// shutting_down, starting, internal. Overload responses (HTTP 429)
// additionally carry a Retry-After header with the ingest queue's
// backoff hint. Clients branch on the code, never on the message.
//
// Liveness: /healthz reports {"status":"ok","epoch":N} with the
// journal recovery report and the compaction status (journal bytes on
// top of the base, failures, the last compaction's lock hold and
// duration) when the service is journaled, answers 503 while the
// service is still opening (journal replay in progress — see
// NewPending/Attach) or after Close, and is deliberately EXEMPT from
// the per-endpoint latency accounting: health probes must not skew
// the SLO mix, and a 503 during a planned drain is not a server
// error.
package httpapi

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"iuad"
	"iuad/internal/core"
	"iuad/internal/hdrhist"
)

// endpointNames fixes the latency-histogram universe: one histogram
// per logical endpoint, allocated at construction so the hot path
// only ever reads the map. /healthz is deliberately absent — probes
// are exempt from the latency SLO mix.
var endpointNames = []string{
	"stats", "metrics",
	"resolve", "authors_by_name", "author", "coauthors", "paper",
	"network", "communities", "ego", "collaborators", "clustering",
	"ingest",
}

// Server is the HTTP handler plus its request accounting. Construct
// with New (service ready) or NewPending + Attach (listen first,
// recover second — /healthz answers 503 until Attach); it is an
// http.Handler either way.
type Server struct {
	svc atomic.Pointer[iuad.Service]
	mux atomic.Pointer[http.ServeMux]

	requests  atomic.Int64
	status2xx atomic.Int64
	status4xx atomic.Int64
	status5xx atomic.Int64
	status429 atomic.Int64
	latency   map[string]*hdrhist.Histogram
}

// HTTPStats is the request-side accounting served by /metrics.
type HTTPStats struct {
	Requests  int64 `json:"requests"`
	Status2xx int64 `json:"status_2xx"`
	Status4xx int64 `json:"status_4xx"`
	Status5xx int64 `json:"status_5xx"`
	// Status429 counts backpressure rejections; also included in 4xx.
	Status429 int64 `json:"status_429"`
	// Endpoints maps logical endpoint → request latency summary.
	Endpoints map[string]hdrhist.Summary `json:"endpoints"`
}

// Metrics is the /metrics document: everything the benchmark and
// dashboards need in one lock-free read.
type Metrics struct {
	Epoch      uint64               `json:"epoch"`
	Ingest     iuad.IngestStats     `json:"ingest"`
	Contention core.ContentionStats `json:"contention"`
	Analytics  iuad.AnalyticsStats  `json:"analytics"`
	// Journal is present only when the service runs with a write-ahead
	// journal (WithJournal); includes the fsync-latency histogram.
	Journal *iuad.JournalStats `json:"journal,omitempty"`
	HTTP    HTTPStats          `json:"http"`
}

// New builds the production handler over a ready svc.
func New(svc *iuad.Service) *Server {
	s := NewPending()
	s.Attach(svc)
	return s
}

// NewPending builds a handler with no service attached yet, so the
// listener can be up (and health probes answered) while journal
// recovery runs. Every request — /healthz included — answers 503 with
// stable code "starting" until Attach installs the service. Attach
// must be called exactly once.
func NewPending() *Server {
	s := &Server{latency: make(map[string]*hdrhist.Histogram, len(endpointNames))}
	for _, name := range endpointNames {
		s.latency[name] = hdrhist.New()
	}
	pending := http.NewServeMux()
	pending.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		writeErrorCode(w, http.StatusServiceUnavailable, "starting",
			"service is recovering; not serving yet")
	})
	pending.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "starting"})
	})
	s.mux.Store(pending)
	return s
}

// Attach installs the recovered service and atomically swaps the real
// route table in; in-flight requests finish against the pending mux,
// every later request sees the full API.
func (s *Server) Attach(svc *iuad.Service) {
	s.svc.Store(svc)
	s.mux.Store(s.routes(svc))
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.Load().ServeHTTP(w, r)
}

// Metrics assembles the point-in-time metrics document (the same one
// /metrics serves). Lock-free: counters are atomics, histograms are
// concurrent, service accessors read published state. Before Attach
// only the HTTP section is populated.
func (s *Server) Metrics() Metrics {
	eps := make(map[string]hdrhist.Summary, len(s.latency))
	for name, h := range s.latency {
		if h.Count() > 0 {
			eps[name] = h.Snapshot()
		}
	}
	m := Metrics{
		HTTP: HTTPStats{
			Requests:  s.requests.Load(),
			Status2xx: s.status2xx.Load(),
			Status4xx: s.status4xx.Load(),
			Status5xx: s.status5xx.Load(),
			Status429: s.status429.Load(),
			Endpoints: eps,
		},
	}
	if svc := s.svc.Load(); svc != nil {
		m.Epoch = svc.Epoch()
		m.Ingest = svc.Ingest()
		m.Contention = svc.Contention()
		m.Analytics = svc.Analytics()
		m.Journal = svc.JournalStats()
	}
	return m
}

// statusRecorder captures the response status for the accounting
// middleware and runs the accounting before the first body byte is
// handed to the client: a caller that reads /metrics right after a
// response must find that request counted. (writeJSON hands the whole
// encoded body over in one Write, so the latency still covers the
// encode.)
type statusRecorder struct {
	http.ResponseWriter
	status int

	srv       *Server
	name      string // logical endpoint
	t0        time.Time
	accounted bool
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	r.account()
	return r.ResponseWriter.Write(b)
}

// account records the request's latency and status class, once.
func (r *statusRecorder) account() {
	if r.accounted {
		return
	}
	r.accounted = true
	s := r.srv
	s.latency[r.name].RecordSince(r.t0)
	s.requests.Add(1)
	switch {
	case r.status == http.StatusTooManyRequests:
		s.status429.Add(1)
		s.status4xx.Add(1)
	case r.status >= 500:
		s.status5xx.Add(1)
	case r.status >= 400:
		s.status4xx.Add(1)
	default:
		s.status2xx.Add(1)
	}
}

// routes builds the attached-state route table over svc. /healthz is
// registered directly on the mux — not through handle — so probes
// never enter the latency/status accounting.
func (s *Server) routes(svc *iuad.Service) *http.ServeMux {
	mux := http.NewServeMux()
	// handle registers fn under pattern with latency + status
	// accounting attributed to the logical endpoint name.
	handle := func(pattern, name string, fn http.HandlerFunc) {
		mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
			s.measured(name, w, r, fn)
		})
	}
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if svc.Closed() {
			writeJSON(w, http.StatusServiceUnavailable, map[string]any{
				"status": "closed", "epoch": svc.Epoch(),
			})
			return
		}
		resp := map[string]any{"status": "ok", "epoch": svc.Epoch()}
		if rec := svc.JournalRecovery(); rec != nil {
			resp["recovery"] = rec
		}
		if c := svc.Compaction(); c != nil {
			resp["compaction"] = c
		}
		writeJSON(w, http.StatusOK, resp)
	})
	handle("/v1/stats", "stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, svc.Stats())
	})
	handle("/metrics", "metrics", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Metrics())
	})
	handle("/v1/network", "network", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, svc.Network())
	})
	handle("/v1/communities", "communities", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, svc.Communities())
	})
	handle("/v1/resolve", "resolve", func(w http.ResponseWriter, r *http.Request) {
		paper, err1 := parsePaperID(r.URL.Query().Get("paper"))
		index, err2 := strconv.Atoi(r.URL.Query().Get("index"))
		if err1 != nil || err2 != nil {
			writeErrorCode(w, http.StatusBadRequest, "bad_request", "resolve needs integer ?paper= and ?index=")
			return
		}
		a, err := svc.ResolveSlot(iuad.Slot{Paper: paper, Index: index})
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, a)
	})
	handle("/v1/authors", "authors_by_name", func(w http.ResponseWriter, r *http.Request) {
		name := r.URL.Query().Get("name")
		if name == "" {
			writeErrorCode(w, http.StatusBadRequest, "bad_request", "listing needs ?name= (exact author name)")
			return
		}
		writeJSON(w, http.StatusOK, svc.AuthorsByName(name))
	})
	mux.HandleFunc("/v1/authors/", func(w http.ResponseWriter, r *http.Request) {
		rest := strings.TrimPrefix(r.URL.Path, "/v1/authors/")
		idStr, sub, _ := strings.Cut(rest, "/")
		name := "author"
		switch sub {
		case "coauthors", "ego", "collaborators", "clustering":
			name = sub
		}
		s.measured(name, w, r, func(w http.ResponseWriter, r *http.Request) {
			id, err := strconv.Atoi(idStr)
			if err != nil {
				writeErrorCode(w, http.StatusBadRequest, "bad_request", "bad author id "+strconv.Quote(idStr))
				return
			}
			switch sub {
			case "":
				a, err := svc.Author(id)
				if err != nil {
					writeError(w, err)
					return
				}
				writeJSON(w, http.StatusOK, a)
			case "coauthors":
				peers, err := svc.Coauthors(id)
				if err != nil {
					writeError(w, err)
					return
				}
				writeJSON(w, http.StatusOK, peers)
			case "ego":
				hops := 1
				if hs := r.URL.Query().Get("hops"); hs != "" {
					hops, err = strconv.Atoi(hs)
					if err != nil {
						writeErrorCode(w, http.StatusBadRequest, "bad_request", "bad ?hops= "+strconv.Quote(hs))
						return
					}
				}
				eg, err := svc.Ego(id, hops)
				if err != nil {
					writeError(w, err)
					return
				}
				writeJSON(w, http.StatusOK, eg)
			case "collaborators":
				k := 10
				if ks := r.URL.Query().Get("k"); ks != "" {
					k, err = strconv.Atoi(ks)
					if err != nil {
						writeErrorCode(w, http.StatusBadRequest, "bad_request", "bad ?k= "+strconv.Quote(ks))
						return
					}
				}
				cols, err := svc.TopCollaborators(id, k)
				if err != nil {
					writeError(w, err)
					return
				}
				writeJSON(w, http.StatusOK, cols)
			case "clustering":
				c, err := svc.Clustering(id)
				if err != nil {
					writeError(w, err)
					return
				}
				writeJSON(w, http.StatusOK, c)
			default:
				writeErrorCode(w, http.StatusNotFound, "not_found", "unknown author subresource "+strconv.Quote(sub))
			}
		})
	})
	mux.HandleFunc("/v1/papers/", func(w http.ResponseWriter, r *http.Request) {
		s.measured("paper", w, r, func(w http.ResponseWriter, r *http.Request) {
			idStr := strings.TrimPrefix(r.URL.Path, "/v1/papers/")
			id, err := parsePaperID(idStr)
			if err != nil {
				writeErrorCode(w, http.StatusBadRequest, "bad_request", "bad paper id "+strconv.Quote(idStr))
				return
			}
			p, err := svc.Paper(id)
			if err != nil {
				writeError(w, err)
				return
			}
			writeJSON(w, http.StatusOK, p)
		})
	})
	handle("/v1/papers", "ingest", s.handleIngest)
	return mux
}

// parsePaperID parses a decimal paper ID. IDs are 32-bit, so a larger
// number is a bad request rather than one that wraps onto a real paper.
func parsePaperID(s string) (iuad.PaperID, error) {
	id, err := strconv.ParseInt(s, 10, 32)
	return iuad.PaperID(id), err
}

// measured wraps one dynamic-path request with the same accounting
// handle applies to fixed patterns.
func (s *Server) measured(name string, w http.ResponseWriter, r *http.Request, fn http.HandlerFunc) {
	rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK, srv: s, name: name, t0: time.Now()}
	fn(rec, r)
	rec.account() // a handler that wrote no body
}

// paperIn is the wire form of a bibliographic record.
type paperIn struct {
	Title   string   `json:"title"`
	Venue   string   `json:"venue"`
	Year    int      `json:"year"`
	Authors []string `json:"authors"`
}

func (p paperIn) paper() iuad.Paper {
	return iuad.Paper{Title: p.Title, Venue: p.Venue, Year: p.Year, Authors: p.Authors}
}

// assignmentOut is the wire form of one slot decision. Score is absent
// when there was no candidate to score against (the engine reports
// −Inf there, which JSON cannot carry).
type assignmentOut struct {
	Paper   int      `json:"paper"`
	Index   int      `json:"index"`
	Author  int      `json:"author"`
	Created bool     `json:"created"`
	Score   *float64 `json:"score,omitempty"`
}

func assignmentsOut(as []iuad.Assignment) []assignmentOut {
	out := make([]assignmentOut, len(as))
	for i, a := range as {
		out[i] = assignmentOut{
			Paper: int(a.Slot.Paper), Index: a.Slot.Index,
			Author: a.Vertex, Created: a.Created,
		}
		if !math.IsInf(a.Score, 0) && !math.IsNaN(a.Score) {
			score := a.Score
			out[i].Score = &score
		}
	}
	return out
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErrorCode(w, http.StatusMethodNotAllowed, "method_not_allowed", "POST a paper object or array")
		return
	}
	// Bound the body before decoding: one oversized request must not
	// take the whole serving process down. 8 MiB fits thousands of
	// bibliographic records per batch.
	r.Body = http.MaxBytesReader(w, r.Body, 8<<20)
	dec := json.NewDecoder(r.Body)
	var raw json.RawMessage
	if err := dec.Decode(&raw); err != nil {
		writeError(w, err)
		return
	}
	svc := s.svc.Load()
	trimmed := strings.TrimLeft(string(raw), " \t\r\n")
	if strings.HasPrefix(trimmed, "[") {
		var batch []paperIn
		if err := json.Unmarshal(raw, &batch); err != nil {
			writeError(w, err)
			return
		}
		papers := make([]iuad.Paper, len(batch))
		for i := range batch {
			papers[i] = batch[i].paper()
		}
		res, err := svc.AddPapers(r.Context(), papers)
		if err != nil {
			writeError(w, err)
			return
		}
		out := make([][]assignmentOut, len(res))
		for i := range res {
			out[i] = assignmentsOut(res[i])
		}
		writeJSON(w, http.StatusOK, map[string]any{"epoch": svc.Epoch(), "assignments": out})
		return
	}
	var one paperIn
	if err := json.Unmarshal(raw, &one); err != nil {
		writeError(w, err)
		return
	}
	as, err := svc.AddPaper(r.Context(), one.paper())
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"epoch": svc.Epoch(), "assignments": assignmentsOut(as)})
}

// statusCodeOf maps an error onto its HTTP status and stable wire
// code. The order matters: the most specific typed errors first, the
// context sentinels (which typed wrappers may carry) after them.
func statusCodeOf(err error) (int, string) {
	var ov *iuad.OverloadedError
	var je *iuad.JournalError
	var mbe *http.MaxBytesError
	switch {
	case errors.As(err, &ov):
		return http.StatusTooManyRequests, "overloaded"
	case errors.As(err, &je):
		// The write-ahead record could not be made durable, so the
		// batch was refused. This is a server fault, not a bad request.
		return http.StatusInternalServerError, "internal"
	case errors.Is(err, iuad.ErrClosed):
		return http.StatusServiceUnavailable, "shutting_down"
	case errors.Is(err, iuad.ErrUnknownAuthor),
		errors.Is(err, iuad.ErrUnknownSlot),
		errors.Is(err, iuad.ErrUnknownPaper):
		return http.StatusNotFound, "not_found"
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, "deadline_exceeded"
	case errors.Is(err, context.Canceled):
		return http.StatusRequestTimeout, "canceled"
	case errors.As(err, &mbe):
		return http.StatusRequestEntityTooLarge, "payload_too_large"
	default:
		return http.StatusBadRequest, "bad_request"
	}
}

// writeError maps err onto the stable error envelope. 429s carry the
// ingest queue's backoff hint as a Retry-After header (whole seconds,
// rounded up — the header has no finer granularity).
func writeError(w http.ResponseWriter, err error) {
	status, code := statusCodeOf(err)
	if code == "overloaded" {
		var ov *iuad.OverloadedError
		if errors.As(err, &ov) {
			secs := int64((ov.RetryAfter + time.Second - 1) / time.Second)
			if secs < 1 {
				secs = 1
			}
			w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
		}
	}
	writeErrorCode(w, status, code, err.Error())
}

func writeErrorCode(w http.ResponseWriter, status int, code, msg string) {
	writeJSON(w, status, map[string]any{
		"error": map[string]string{"code": code, "message": msg},
	})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // a failed write means the client went away
}
