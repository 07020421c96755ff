// Package server exposes a secure XML database over HTTP — the deployment
// form factor the paper attributes to earlier models (§2: "designed to be
// implemented as extensions to existing web servers"), here with this
// paper's semantics: every request runs as the authenticated user, reads
// answer from the user's view, writes go through the §4.4.2 access
// controls.
//
// Endpoints (user = HTTP Basic Auth username; this demo layer performs
// identification, not authentication — wire a real verifier in front):
//
//	GET  /view                    the user's authorized view (XML)
//	GET  /query?xpath=EXPR        node results (text/plain, one per line)
//	GET  /value?xpath=EXPR        atomic result of EXPR
//	POST /update                  an <xupdate:modifications> document
//	POST /transform               an XSLT stylesheet, run as the user (§5)
//	GET  /explain?xpath=EXPR      axiom-14 decision provenance per node (JSON)
//	GET  /analyze                 static policy analysis (JSON; ?format=text)
//	POST /warm                    derive all users' permissions (?workers=N)
//	GET  /healthz                 liveness, database stats
//	GET  /traces                  the user's recent request trace summaries (JSON)
//	GET  /trace/{id}              one of the user's traces, full span tree (JSON)
//	GET  /metrics                 telemetry registry, Prometheus text format
//	GET  /debug/vars              telemetry snapshot + runtime stats (expvar)
//	GET  /debug/pprof/...         profiling (only with WithPprof)
//
// Every request is assigned an X-Request-Id, carried through the session
// context into the database audit log, and (with WithAccessLog) emitted as
// one structured JSON access-log line.
package server

import (
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"time"

	"securexml/internal/access"
	"securexml/internal/core"
	"securexml/internal/obs"
	"securexml/internal/xpath"
)

// maxBody bounds update request bodies (1 MiB).
const maxBody = 1 << 20

// defaultSlowTrace is the threshold above which a finished request trace
// is logged whole through the access logger.
const defaultSlowTrace = 500 * time.Millisecond

// Server is an http.Handler over one Database.
type Server struct {
	db         *core.Database
	mux        *http.ServeMux
	reg        *obs.Registry
	tracer     *obs.Tracer
	slowTrace  time.Duration
	accessLog  *slog.Logger
	pprof      bool
	forcedTier core.Tier
}

// Option configures the server.
type Option func(*Server)

// WithPprof mounts net/http/pprof under /debug/pprof/. Off by default:
// profiles expose internals and should be an explicit operator decision.
func WithPprof() Option {
	return func(s *Server) { s.pprof = true }
}

// WithAccessLog emits one structured JSON line per request (request ID,
// user, endpoint, status, duration) to w.
func WithAccessLog(w io.Writer) Option {
	return func(s *Server) {
		s.accessLog = slog.New(slog.NewJSONHandler(w, nil))
	}
}

// WithSlowTraceThreshold sets the latency above which finished request
// traces are logged whole (span tree included) through the access log.
// Zero disables slow-trace logging; the default is 500ms.
func WithSlowTraceThreshold(d time.Duration) Option {
	return func(s *Server) { s.slowTrace = d }
}

// WithForcedTier with core.TierView answers every /query and /value
// request on the user's materialized view, the reference route that
// agreement tests and the end-to-end benchmark's oracle compare normal
// routing against; X-Query-Tier still reports the route that served each
// read. Any other value routes normally.
func WithForcedTier(t core.Tier) Option {
	return func(s *Server) { s.forcedTier = t }
}

// New builds the handler.
func New(db *core.Database, opts ...Option) *Server {
	s := &Server{db: db, mux: http.NewServeMux(), reg: obs.Default(), slowTrace: defaultSlowTrace, forcedTier: core.TierAuto}
	for _, o := range opts {
		o(s)
	}
	s.tracer = obs.NewTracer(0, s.slowTrace, s.accessLog)
	s.reg.Help("xmlsec_http_requests_total", "HTTP requests by endpoint and status class.")
	s.reg.Help("xmlsec_http_request_duration_seconds", "HTTP request latency by endpoint.")
	s.reg.Help(obs.StageMetric, "Access-control pipeline stage latency.")
	s.reg.PublishExpvar("xmlsec")

	s.handle("GET /view", "view", s.withSession(s.handleView))
	s.handle("GET /query", "query", s.withSession(s.handleQuery))
	s.handle("GET /value", "value", s.withSession(s.handleValue))
	s.handle("POST /update", "update", s.withSession(s.handleUpdate))
	s.handle("POST /transform", "transform", s.withSession(s.handleTransform))
	s.handle("GET /explain", "explain", s.withSession(s.handleExplain))
	s.handle("GET /analyze", "analyze", s.withSession(s.handleAnalyze))
	s.handle("POST /warm", "warm", s.handleWarm)
	s.handle("GET /healthz", "healthz", s.handleHealth)
	// The trace endpoints bypass the tracing middleware: reading the trace
	// ring must not itself append traces to it. They serve a user only the
	// traces of that user's own requests.
	s.mux.HandleFunc("GET /traces", s.withSession(s.handleTraces))
	s.mux.HandleFunc("GET /trace/{id}", s.withSession(s.handleTrace))
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.Handle("GET /debug/vars", expvar.Handler())
	if s.pprof {
		s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// handle mounts h behind the telemetry middleware: request ID generation
// (X-Request-Id response header + context), status capture, per-endpoint
// request counters by status class, latency histogram, in-flight gauge and
// the structured access log.
func (s *Server) handle(pattern, endpoint string, h http.HandlerFunc) {
	inFlight := s.reg.Gauge("xmlsec_http_in_flight")
	hist := s.reg.Histogram("xmlsec_http_request_duration_seconds", obs.LatencyBuckets,
		"endpoint", endpoint)
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		reqID := obs.NewRequestID()
		ctx := obs.WithRequestID(r.Context(), reqID)
		// Every request gets a trace rooted at its endpoint span; the trace
		// ID is the request ID, so X-Request-Id doubles as the /trace/{id}
		// key.
		ctx, t := s.tracer.StartTrace(ctx, endpoint)
		// The handler span observes the endpoint latency histogram from
		// inside the trace, so the series' max-latency exemplar carries
		// this trace's ID (/metrics p99 outliers link to /trace/{id}).
		ctx, sp := obs.StartSpanCtx(ctx, "http_handler", hist)
		r = r.WithContext(ctx)
		w.Header().Set("X-Request-Id", reqID)
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		inFlight.Add(1)
		h(rec, r)
		d := sp.End()
		inFlight.Add(-1)
		t.Annotate("status", statusClass(rec.status))
		t.Finish()
		s.reg.Counter("xmlsec_http_requests_total",
			"endpoint", endpoint, "status", statusClass(rec.status)).Inc()
		if s.accessLog != nil {
			user, _, _ := r.BasicAuth()
			s.accessLog.Info("request",
				"req_id", reqID,
				"user", user,
				"method", r.Method,
				"path", r.URL.Path,
				"endpoint", endpoint,
				"status", rec.status,
				"duration_us", d.Microseconds(),
			)
		}
	})
}

// statusClass buckets an HTTP status into its class for the request
// counter. Every branch returns a literal so the status label set is
// compile-time bounded (xmlsec-vet obslabel).
func statusClass(status int) string {
	switch status / 100 {
	case 1:
		return "1xx"
	case 2:
		return "2xx"
	case 3:
		return "3xx"
	case 4:
		return "4xx"
	case 5:
		return "5xx"
	default:
		return "other"
	}
}

// statusRecorder captures the response status for metrics and logging.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// httpError writes err with the request ID appended, so a client-side
// report can be correlated with the audit log and access log.
func (s *Server) httpError(w http.ResponseWriter, r *http.Request, err error, status int) {
	msg := err.Error()
	if id := obs.RequestID(r.Context()); id != "" {
		msg += " (request " + id + ")"
	}
	http.Error(w, msg, status)
}

// statusFor maps a pipeline error to an HTTP status: identity and policy
// denials are 403, XPath grammar/type errors are the client's fault (400),
// anything else falls back to fallback.
func statusFor(err error, fallback int) int {
	var syn *xpath.SyntaxError
	switch {
	case errors.Is(err, core.ErrUnknownUser),
		errors.Is(err, core.ErrNotUser),
		errors.Is(err, access.ErrUnknownUser):
		return http.StatusForbidden
	case errors.As(err, &syn), errors.Is(err, xpath.ErrNotNodeSet):
		return http.StatusBadRequest
	}
	return fallback
}

// withSession resolves the request user into a database session. The
// middleware in handle has already assigned the request ID; if the handler
// is mounted bare (tests), one is generated here so error bodies and audit
// entries stay correlatable.
func (s *Server) withSession(h func(http.ResponseWriter, *http.Request, *core.Session)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if obs.RequestID(r.Context()) == "" {
			reqID := obs.NewRequestID()
			r = r.WithContext(obs.WithRequestID(r.Context(), reqID))
			w.Header().Set("X-Request-Id", reqID)
		}
		user, _, ok := r.BasicAuth()
		if !ok || user == "" {
			w.Header().Set("WWW-Authenticate", `Basic realm="securexml"`)
			s.httpError(w, r, errors.New("authentication required"), http.StatusUnauthorized)
			return
		}
		// Shared per-user sessions: every request for a user hits the same
		// permission cache, so one cold derivation (or a warm-up) serves
		// the whole connection population.
		session, err := s.db.Session(user)
		if err != nil {
			s.httpError(w, r, err, statusFor(err, http.StatusInternalServerError))
			return
		}
		obs.TraceFrom(r.Context()).SetUser(user)
		h(w, r, session)
	}
}

func (s *Server) handleView(w http.ResponseWriter, r *http.Request, session *core.Session) {
	body := &viewBody{w: w}
	// A failed write is the client's broken connection: nothing to report.
	if err := session.WriteViewCtx(r.Context(), body); err != nil && !body.wrote {
		s.httpError(w, r, err, statusFor(err, http.StatusInternalServerError))
	}
}

// viewBody sets the /view response headers on the single Write that
// Session.WriteViewCtx makes, where the body's length is known, so the
// response carries a Content-Length instead of being chunked.
type viewBody struct {
	w     http.ResponseWriter
	wrote bool
}

func (b *viewBody) Write(p []byte) (int, error) {
	b.wrote = true
	h := b.w.Header()
	h.Set("Content-Type", "application/xml; charset=utf-8")
	h.Set("Content-Length", strconv.Itoa(len(p)))
	return b.w.Write(p)
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request, session *core.Session) {
	expr := r.URL.Query().Get("xpath")
	if expr == "" {
		s.httpError(w, r, errors.New("missing xpath parameter"), http.StatusBadRequest)
		return
	}
	results, tier, err := session.QueryTierCtx(r.Context(), expr, s.forcedTier)
	if err != nil {
		s.httpError(w, r, err, statusFor(err, http.StatusBadRequest))
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Header().Set("X-Query-Tier", tier.String())
	for _, res := range results {
		fmt.Fprintf(w, "%s\t%s\t%s\n", res.Path, res.Kind, strings.ReplaceAll(res.Value, "\n", " "))
	}
}

func (s *Server) handleValue(w http.ResponseWriter, r *http.Request, session *core.Session) {
	expr := r.URL.Query().Get("xpath")
	if expr == "" {
		s.httpError(w, r, errors.New("missing xpath parameter"), http.StatusBadRequest)
		return
	}
	v, tier, err := session.QueryValueTierCtx(r.Context(), expr, s.forcedTier)
	if err != nil {
		s.httpError(w, r, err, statusFor(err, http.StatusBadRequest))
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Header().Set("X-Query-Tier", tier.String())
	fmt.Fprintln(w, v.Str())
}

func (s *Server) handleUpdate(w http.ResponseWriter, r *http.Request, session *core.Session) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBody+1))
	if err != nil {
		s.httpError(w, r, err, http.StatusBadRequest)
		return
	}
	if len(body) > maxBody {
		s.httpError(w, r, errors.New("request body too large"), http.StatusRequestEntityTooLarge)
		return
	}
	results, err := session.ApplyCtx(r.Context(), string(body))
	if err != nil {
		// Parse errors and hard failures; privilege refusals are not errors.
		s.httpError(w, r, err, statusFor(err, http.StatusBadRequest))
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	for i, res := range results {
		fmt.Fprintf(w, "op %d: selected=%d applied=%d created=%d removed=%d skipped=%d\n",
			i+1, res.Selected, res.Applied, res.Created, res.Removed, len(res.Skipped))
		for _, sk := range res.Skipped {
			fmt.Fprintf(w, "  skipped: %s\n", sk.Reason)
		}
	}
}

func (s *Server) handleTransform(w http.ResponseWriter, r *http.Request, session *core.Session) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBody+1))
	if err != nil {
		s.httpError(w, r, err, http.StatusBadRequest)
		return
	}
	if len(body) > maxBody {
		s.httpError(w, r, errors.New("request body too large"), http.StatusRequestEntityTooLarge)
		return
	}
	out, err := session.TransformCtx(r.Context(), string(body))
	if err != nil {
		s.httpError(w, r, err, statusFor(err, http.StatusBadRequest))
		return
	}
	w.Header().Set("Content-Type", "application/xml; charset=utf-8")
	io.WriteString(w, out)
}

func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request, _ *core.Session) {
	// ?fix=1 adds repair synthesis: the response switches to the canonical
	// findings schema (internal/findings) with a repairs array, the same
	// shape xmlsec-lint -fix -json emits.
	if r.URL.Query().Get("fix") == "1" {
		rr := s.db.PlanRepairsCtx(r.Context())
		if r.URL.Query().Get("format") == "text" {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			io.WriteString(w, rr.Canonical().Text())
			return
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		if err := json.NewEncoder(w).Encode(rr.Canonical()); err != nil {
			s.httpError(w, r, err, http.StatusInternalServerError)
		}
		return
	}
	rep := s.db.AnalyzePolicy()
	if r.URL.Query().Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, rep.Text())
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	if err := json.NewEncoder(w).Encode(rep); err != nil {
		s.httpError(w, r, err, http.StatusInternalServerError)
	}
}

// handleWarm derives every user's permissions through the bounded warm
// pool (core.WarmSessions), so the fleet's first real requests hit warm
// caches. Operator endpoint: no auth beyond reachability, like /analyze.
func (s *Server) handleWarm(w http.ResponseWriter, r *http.Request) {
	workers := 0
	if q := r.URL.Query().Get("workers"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n < 1 {
			s.httpError(w, r, fmt.Errorf("invalid workers parameter %q", q), http.StatusBadRequest)
			return
		}
		workers = n
	}
	warmed, err := s.db.WarmSessions(r.Context(), nil, workers)
	if err != nil {
		s.httpError(w, r, err, statusFor(err, http.StatusInternalServerError))
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	json.NewEncoder(w).Encode(map[string]int{"warmed": warmed})
}

// handleHealth needs no session, so it reports nothing about the
// document: its node count and version count nodes and writes hidden from
// every user (§2.2).
func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	st := s.db.Stats()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "ok rules=%d users=%d roles=%d\n", st.Rules, st.Users, st.Roles)
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.reg.WritePrometheus(w)
}

// handleExplain re-derives the axiom-14 decision provenance for every node
// the xpath expression selects in the request user's view — the nodes
// /query returns for it (GET /explain?xpath=EXPR). Diagnostic endpoint:
// each call costs a cold policy evaluation.
func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request, session *core.Session) {
	expr := r.URL.Query().Get("xpath")
	if expr == "" {
		s.httpError(w, r, errors.New("missing xpath parameter"), http.StatusBadRequest)
		return
	}
	ex, err := session.ExplainCtx(r.Context(), expr)
	if err != nil {
		s.httpError(w, r, err, statusFor(err, http.StatusBadRequest))
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	if err := json.NewEncoder(w).Encode(ex); err != nil {
		s.httpError(w, r, err, http.StatusInternalServerError)
	}
}

// handleTraces lists the session user's recent finished traces, newest
// first, as summaries (no span trees — fetch /trace/{id} for one).
func (s *Server) handleTraces(w http.ResponseWriter, _ *http.Request, session *core.Session) {
	own := []obs.TraceExport{}
	for _, sum := range s.tracer.Summaries() {
		if sum.User == session.User() {
			own = append(own, sum)
		}
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	json.NewEncoder(w).Encode(own)
}

// handleTrace returns one of the session user's finished traces, with its
// full span tree, by its ID (the request's X-Request-Id). Another user's
// trace is answered like an unknown ID.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request, session *core.Session) {
	id := r.PathValue("id")
	t, ok := s.tracer.Get(id)
	if !ok || t.Summary().User != session.User() {
		s.httpError(w, r, fmt.Errorf("no trace %q (ring keeps the most recent traces only)", id), http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	json.NewEncoder(w).Encode(t.Export())
}
