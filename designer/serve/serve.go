// Package serve exposes the designer's v2 facade as a JSON-over-HTTP
// service — the wire form of the paper's interactive interface, and the
// piece that makes the designer consumable from outside the Go module
// entirely. It is deliberately built on nothing but the public designer
// API: if serve can do it over HTTP, any external client can.
//
// The full route listing lives in openapi.yaml next to this file (kept
// in lockstep by a route-parity test). In outline: design sessions
// (create/list/detail/close, index and partition edits, evaluate,
// explain, advise, readvise), automatic advice and materialization, the
// online tuner (create/observe/status/SSE stream), schema and cache
// introspection, and the operational endpoints /healthz, /readyz, and
// /metrics.
//
// The service is multi-tenant: requests carry an X-Tenant header (a
// default tenant applies when absent), sessions are owned by the
// sessionmgr layer (LRU + TTL eviction, per-tenant quotas, IDs minted
// there), and the CPU-heavy verbs run through a bounded admission pool
// in two priority classes — interactive what-if work jumps the queue
// ahead of batch advise/materialize, and a full queue answers 429 with
// Retry-After instead of accumulating goroutines. Every error response
// carries the stable envelope {"error":{"code","message"[,"retry_after_ms"]}}.
//
// Every long-running handler threads the request context — merged with
// the session's lifetime context — into the facade, so a disconnected
// client or a reclaimed session cancels its advisor run mid-sweep.
// Design sessions are isolated on pinned engine generations: a
// concurrent /materialize does not tear an open session's evaluations.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/designer"
	"repro/designer/serve/admission"
	"repro/designer/serve/metrics"
	"repro/designer/serve/sessionmgr"
)

// Server is the HTTP front-end over one designer.
type Server struct {
	d       *designer.Designer
	mux     *http.ServeMux
	handler http.Handler
	httpSrv *http.Server
	ln      net.Listener
	done    chan struct{}
	// closing is closed at the start of Shutdown so long-lived streaming
	// handlers (SSE) exit instead of holding graceful shutdown hostage.
	closing   chan struct{}
	closeOnce sync.Once

	// Fabric sizing (options; defaults applied in New).
	maxSessions int
	sessionTTL  time.Duration
	tenantQuota int
	poolSize    int
	queueDepth  int
	holdHook    func(context.Context)

	// sm owns session lifetime: minting, LRU/TTL eviction, quotas.
	// Handlers never hold a session table of their own.
	sm *sessionmgr.Manager
	// pool is the bounded admission-controlled worker pool for the
	// CPU-heavy verbs.
	pool *admission.Pool

	// Metrics (fabric.go).
	reg            *metrics.Registry
	mReqs          *metrics.CounterVec
	mDur           *metrics.HistogramVec
	mQueueDepth    *metrics.GaugeVec
	mRunning       *metrics.Gauge
	mRejected      *metrics.CounterVec
	mEvicted       *metrics.CounterVec
	mQuotaRejected *metrics.Counter
	mSessCreated   *metrics.Counter
	mSessActive    *metrics.GaugeVec
	mCacheFullOpt  *metrics.Gauge
	mCacheCostings *metrics.Gauge
	mAPActive      *metrics.Gauge
	mAPEpoch       *metrics.Gauge
	mAPRegret      *metrics.Gauge
	mAPBuildsDone  *metrics.Counter
	mAPRollbacks   *metrics.Counter
	mAPBuildPages  *metrics.Counter
	mAPDecisions   *metrics.CounterVec
	mAPPending     *metrics.GaugeVec

	// tunerMu guards the tuner handle and all calls into it: the COLT
	// tuner serializes observation, so the server serializes access. When
	// the autopilot supervises the tuner slot, ap is non-nil and tuner is
	// nil — observations flow through the closed loop instead.
	tunerMu   sync.Mutex
	tuner     *designer.Tuner
	ap        *designer.Autopilot
	tunerOpts designer.TunerOptions

	// tunerStateMu guards a cheap read-side copy of the tuner's telemetry,
	// refreshed after every observation batch, so /tuner/status and the SSE
	// stream never block behind a long-running ObserveAll. tunerGen counts
	// tuner replacements so alert streams can tell a fresh tuner's alert
	// list from the old one's. tunerID ("t<gen>") is the id the autopilot
	// routes address.
	tunerStateMu sync.Mutex
	tunerGen     int64
	tunerID      string
	tunerActive  bool
	tunerAlerts  []tunerAlertJSON
	tunerReports []designer.TunerReport
	tunerCurrent []string
	apActive     bool
	apDecisions  []designer.AutopilotDecision
	apStatus     designer.AutopilotStatus
	apRegret     []designer.AutopilotRegretPoint
}

// goneClosed marks a session released by an explicit DELETE (as opposed
// to a manager eviction reason).
const goneClosed = "closed"

// session is one HTTP what-if design session — the payload the session
// manager carries. Its DesignSession is pinned to the engine generation
// current at creation time.
//
// mu serializes the DesignSession itself (evaluations can run for
// seconds); metaMu guards only the cheap index-key snapshot so listing
// endpoints never block behind an in-flight Evaluate.
type session struct {
	id      string
	tenant  string
	created time.Time
	// backend is the session's cost-backend kind, fixed at creation.
	backend string
	// ctx is the session's lifetime context (from the manager); it is
	// cancelled when the session is closed or evicted, aborting in-flight
	// facade work.
	ctx context.Context

	mu sync.Mutex
	ds *designer.DesignSession
	// gone is set (under mu) once the session's resources are released —
	// goneClosed after DELETE, or the eviction reason. A handler that
	// raced the release answers from it instead of touching a nil ds.
	gone string

	// lastReq/lastWl remember the most recent advise question so an
	// empty-body /readvise repeats it. Guarded by mu like the session.
	lastReq *adviseRequestJSON
	lastWl  *designer.Workload

	metaMu sync.Mutex
	keys   []string
}

// indexKeys snapshots the session's design keys without the work lock.
func (sess *session) indexKeys() []string {
	sess.metaMu.Lock()
	defer sess.metaMu.Unlock()
	return append([]string(nil), sess.keys...)
}

func (sess *session) addKey(key string) {
	sess.metaMu.Lock()
	defer sess.metaMu.Unlock()
	sess.keys = append(sess.keys, key)
}

func (sess *session) dropKey(key string) {
	sess.metaMu.Lock()
	defer sess.metaMu.Unlock()
	for i, k := range sess.keys {
		if k == key {
			sess.keys = append(sess.keys[:i], sess.keys[i+1:]...)
			return
		}
	}
}

// lockLive acquires the session work lock and reports whether the
// session is still live. On a session whose resources were already
// released it writes the appropriate error and does not hold the lock.
func (sess *session) lockLive(w http.ResponseWriter) bool {
	sess.mu.Lock()
	if sess.gone != "" {
		gone := sess.gone
		sess.mu.Unlock()
		if gone == goneClosed {
			writeError(w, http.StatusNotFound, codeSessionNotFound,
				fmt.Errorf("session %q is closed", sess.id))
		} else {
			writeError(w, http.StatusGone, codeSessionEvicted,
				fmt.Errorf("session %q was evicted (%s); create a new session", sess.id, gone))
		}
		return false
	}
	return true
}

// Option configures a Server at construction time.
type Option func(*Server)

// WithMaxSessions caps live sessions globally; at the cap, creating a
// session evicts the least-recently-used one (it answers 410 afterwards).
// <=0 keeps the default (1024).
func WithMaxSessions(n int) Option {
	return func(s *Server) { s.maxSessions = n }
}

// WithSessionTTL sets the idle timeout after which a session is
// reclaimed. <=0 disables expiry; the default is 30 minutes.
func WithSessionTTL(ttl time.Duration) Option {
	return func(s *Server) { s.sessionTTL = ttl }
}

// WithTenantQuota caps live sessions per tenant (X-Tenant header);
// at the quota, session creation answers 429 quota_exceeded. <=0
// disables per-tenant quotas (the default).
func WithTenantQuota(n int) Option {
	return func(s *Server) { s.tenantQuota = n }
}

// WithPoolSize sets the number of concurrently executing CPU-heavy
// requests (advise, readvise, evaluate, explain, materialize). <=0
// defaults to GOMAXPROCS.
func WithPoolSize(n int) Option {
	return func(s *Server) { s.poolSize = n }
}

// WithQueueDepth bounds each priority class's admission queue; a full
// queue answers 429 queue_full with Retry-After. <=0 defaults to 64.
func WithQueueDepth(n int) Option {
	return func(s *Server) { s.queueDepth = n }
}

// New creates a server over the designer.
func New(d *designer.Designer, opts ...Option) *Server {
	s := &Server{
		d:           d,
		mux:         http.NewServeMux(),
		done:        make(chan struct{}),
		closing:     make(chan struct{}),
		maxSessions: 1024,
		sessionTTL:  30 * time.Minute,
	}
	for _, opt := range opts {
		opt(s)
	}
	s.initFabric()
	s.routes()
	s.handler = s.instrument(s.mux)
	return s
}

// Handler returns the server's instrumented HTTP handler (for tests and
// embedding).
func (s *Server) Handler() http.Handler { return s.handler }

// Connection bounds. A client gets readHeaderTimeout to send its request
// headers (no slowloris holds a connection open), and a keep-alive
// connection closes after idleTimeout without a request. There is no
// whole-request read or write timeout: /api/v1/tuner/stream is long-lived.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// Start binds addr (use host:0 for an ephemeral port) and serves in the
// background until Shutdown.
func (s *Server) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.ln = ln
	s.httpSrv = &http.Server{
		Handler:           s.handler,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
	go func() {
		defer close(s.done)
		// Serve returns http.ErrServerClosed after Shutdown; a fatal accept
		// error also ends the loop. Either way closing done unblocks
		// Shutdown's drain wait, which reports the interesting part.
		_ = s.httpSrv.Serve(ln)
	}()
	return nil
}

// Addr reports the bound listen address (valid after Start).
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Shutdown gracefully stops the server: the listener closes immediately,
// in-flight requests get until ctx expires to finish, then the admission
// pool and session manager wind down. Connections still open when ctx
// expires are closed, so Shutdown returns by the caller's deadline.
func (s *Server) Shutdown(ctx context.Context) error {
	if s.httpSrv == nil {
		return nil
	}
	s.closeOnce.Do(func() { close(s.closing) })
	err := s.httpSrv.Shutdown(ctx)
	if err != nil {
		// Cut what is left: handlers past the deadline, and connections
		// that were dialed but never sent a request, which net/http's
		// Shutdown would otherwise wait on for 5 s.
		_ = s.httpSrv.Close()
	}
	select {
	case <-s.done:
	case <-ctx.Done():
	}
	if err == nil {
		// All handlers drained; the pool is idle and safe to close. On a
		// dirty shutdown (ctx expired with work in flight) leave it running
		// rather than block past the caller's deadline.
		s.pool.Close()
		// Retire the tuner slot too: closing the autopilot persists its
		// state (when a state path is configured), which is what makes
		// `dbdesigner tune --server` resumable across SIGTERM. Skipped on
		// dirty shutdowns — an in-flight observe could hold tunerMu past
		// the caller's deadline.
		s.tunerMu.Lock()
		if s.ap != nil {
			s.ap.Close()
			s.ap = nil
		}
		if s.tuner != nil {
			s.tuner.Close()
			s.tuner = nil
		}
		s.tunerMu.Unlock()
	}
	s.sm.Stop()
	return err
}

// StartAutopilot programmatically configures the tuner slot with a
// supervised autopilot — the in-process form of POST /api/v1/tuner
// followed by POST /api/v1/tuners/{id}/autopilot, used by `dbdesigner
// tune --server` to come up already tuning (and, with a state path,
// already resumed). Any existing tuner or autopilot is replaced. Returns
// the new tuner id the HTTP autopilot routes address.
func (s *Server) StartAutopilot(topts designer.TunerOptions, aopts designer.AutopilotOptions) (string, error) {
	s.tunerMu.Lock()
	defer s.tunerMu.Unlock()
	ap, err := s.d.NewAutopilot(topts, aopts)
	if err != nil {
		return "", err
	}
	if s.tuner != nil {
		s.tuner.Close()
		s.tuner = nil
	}
	if s.ap != nil {
		s.ap.Close()
	}
	s.ap = ap
	s.tunerOpts = topts
	id := s.resetTunerState()
	s.refreshTunerState()
	return id, nil
}

// route is one registered endpoint. The table is the single source of
// truth for the mux, the openapi.yaml parity test, and (via pooled
// wrappers) admission control.
type route struct {
	method  string
	pattern string
	h       http.HandlerFunc
}

// pooled runs a handler through the admission pool at the given priority.
func (s *Server) pooled(class admission.Class, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.admit(w, r, class, func() { h(w, r) })
	}
}

// routeTable lists every endpoint. Interactive what-if verbs (index
// add/drop, partitions, evaluate, explain, readvise) are admitted ahead
// of batch work (advise, materialize); control-plane and
// read-only endpoints bypass the pool entirely.
func (s *Server) routeTable() []route {
	return []route{
		{method: "GET", pattern: "/healthz", h: s.handleHealthz},
		{method: "GET", pattern: "/readyz", h: s.handleReadyz},
		{method: "GET", pattern: "/metrics", h: s.handleMetrics},
		{method: "GET", pattern: "/api/v1/health", h: s.handleHealth},
		{method: "GET", pattern: "/api/v1/schema", h: s.handleSchema},
		{method: "GET", pattern: "/api/v1/stats", h: s.handleStats},
		{method: "POST", pattern: "/api/v1/sessions", h: s.handleSessionCreate},
		{method: "GET", pattern: "/api/v1/sessions", h: s.handleSessionList},
		{method: "GET", pattern: "/api/v1/sessions/{id}", h: s.handleSessionGet},
		{method: "DELETE", pattern: "/api/v1/sessions/{id}", h: s.handleSessionClose},
		{method: "POST", pattern: "/api/v1/sessions/{id}/indexes", h: s.pooled(admission.Interactive, s.handleSessionAddIndex)},
		{method: "DELETE", pattern: "/api/v1/sessions/{id}/indexes", h: s.pooled(admission.Interactive, s.handleSessionDropIndex)},
		{method: "POST", pattern: "/api/v1/sessions/{id}/partitions/vertical", h: s.pooled(admission.Interactive, s.handleSessionVertical)},
		{method: "POST", pattern: "/api/v1/sessions/{id}/partitions/horizontal", h: s.pooled(admission.Interactive, s.handleSessionHorizontal)},
		{method: "POST", pattern: "/api/v1/sessions/{id}/evaluate", h: s.pooled(admission.Interactive, s.handleSessionEvaluate)},
		{method: "POST", pattern: "/api/v1/sessions/{id}/explain", h: s.pooled(admission.Interactive, s.handleSessionExplain)},
		{method: "POST", pattern: "/api/v1/sessions/{id}/advise", h: s.pooled(admission.Batch, s.handleSessionAdvise)},
		{method: "POST", pattern: "/api/v1/sessions/{id}/readvise", h: s.pooled(admission.Interactive, s.handleSessionReadvise)},
		{method: "POST", pattern: "/api/v1/advise", h: s.pooled(admission.Batch, s.handleAdvise)},
		{method: "POST", pattern: "/api/v1/materialize", h: s.pooled(admission.Batch, s.handleMaterialize)},
		{method: "POST", pattern: "/api/v1/tuner", h: s.handleTunerCreate},
		{method: "POST", pattern: "/api/v1/tuner/observe", h: s.handleTunerObserve},
		{method: "GET", pattern: "/api/v1/tuner/status", h: s.handleTunerStatus},
		{method: "GET", pattern: "/api/v1/tuner/stream", h: s.handleTunerStream},
		{method: "POST", pattern: "/api/v1/tuners/{id}/autopilot", h: s.pooled(admission.Batch, s.handleAutopilotStart)},
		{method: "GET", pattern: "/api/v1/tuners/{id}/autopilot", h: s.handleAutopilotStatus},
		{method: "DELETE", pattern: "/api/v1/tuners/{id}/autopilot", h: s.handleAutopilotStop},
	}
}

func (s *Server) routes() {
	for _, rt := range s.routeTable() {
		s.mux.HandleFunc(rt.method+" "+rt.pattern, rt.h)
	}
}

// --------------------------------------------------------------------------
// Wire DTOs.
// --------------------------------------------------------------------------

type indexJSON struct {
	Key     string   `json:"key"`
	Table   string   `json:"table"`
	Columns []string `json:"columns"`
	// Kind is empty for plain secondary indexes; "projection" and "aggview"
	// mark the wider design structures (their extra shape rides in the
	// include/aggs/estimated_rows fields below).
	Kind           string   `json:"kind,omitempty"`
	Include        []string `json:"include,omitempty"`
	Aggs           []string `json:"aggs,omitempty"`
	EstimatedRows  int64    `json:"estimated_rows,omitempty"`
	EstimatedPages int64    `json:"estimated_pages"`
	Hypothetical   bool     `json:"hypothetical"`
}

func toIndexJSON(ix designer.Index) indexJSON {
	return indexJSON{
		Key:            ix.Key(),
		Table:          ix.Table,
		Columns:        ix.Columns,
		Kind:           ix.Kind,
		Include:        ix.Include,
		Aggs:           ix.Aggs,
		EstimatedRows:  ix.EstimatedRows,
		EstimatedPages: ix.EstimatedPages,
		Hypothetical:   ix.Hypothetical,
	}
}

func toIndexesJSON(ixs []designer.Index) []indexJSON {
	out := make([]indexJSON, len(ixs))
	for i, ix := range ixs {
		out[i] = toIndexJSON(ix)
	}
	return out
}

type queryBenefitJSON struct {
	ID         string  `json:"id"`
	BaseCost   float64 `json:"base_cost"`
	NewCost    float64 `json:"new_cost"`
	BenefitPct float64 `json:"benefit_pct"`
}

type reportJSON struct {
	BaseTotal     float64            `json:"base_total"`
	NewTotal      float64            `json:"new_total"`
	BenefitPct    float64            `json:"benefit_pct"`
	QueryBenefits []queryBenefitJSON `json:"queries"`
}

func toReportJSON(rep *designer.Report) *reportJSON {
	if rep == nil {
		return nil
	}
	out := &reportJSON{
		BaseTotal:  rep.BaseTotal,
		NewTotal:   rep.NewTotal,
		BenefitPct: rep.AvgBenefitPct(),
	}
	for _, qb := range rep.Queries {
		out.QueryBenefits = append(out.QueryBenefits, queryBenefitJSON{
			ID: qb.ID, BaseCost: qb.BaseCost, NewCost: qb.NewCost, BenefitPct: qb.BenefitPct(),
		})
	}
	return out
}

type workloadJSON struct {
	// SQL lists explicit SELECT statements (weight 1 each).
	SQL []string `json:"sql,omitempty"`
	// Queries/Seed draw a generated SDSS workload when SQL is empty.
	Queries int   `json:"queries,omitempty"`
	Seed    int64 `json:"seed,omitempty"`
}

// workload resolves the request's workload description.
func (s *Server) workload(req workloadJSON) (*designer.Workload, error) {
	if len(req.SQL) > 0 {
		return s.d.WorkloadFromSQL(req.SQL)
	}
	n := req.Queries
	if n <= 0 {
		n = 16
	}
	seed := req.Seed
	if seed == 0 {
		seed = 2
	}
	return s.d.GenerateWorkload(seed, n)
}

// --------------------------------------------------------------------------
// Plumbing.
// --------------------------------------------------------------------------

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func readJSON(r *http.Request, v any) error {
	if r.Body == nil {
		return nil
	}
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, 1<<20))
	if err := dec.Decode(v); err != nil {
		if errors.Is(err, io.EOF) { // empty body is a valid "all defaults" request
			return nil
		}
		return fmt.Errorf("invalid JSON body: %w", err)
	}
	return nil
}

// session resolves the request's session through the manager: 404 for
// unknown/closed IDs or another tenant's session (existence is not
// leaked across tenants), 410 for one the manager reclaimed.
func (s *Server) session(w http.ResponseWriter, r *http.Request) *session {
	id := r.PathValue("id")
	ms, err := s.sm.Get(id)
	if err != nil {
		writeSessionLookupError(w, id, err)
		return nil
	}
	sess := ms.Value.(*session)
	if sess.tenant != tenantFrom(r) {
		writeError(w, http.StatusNotFound, codeSessionNotFound, fmt.Errorf("no such session %q", id))
		return nil
	}
	return sess
}

func writeSessionLookupError(w http.ResponseWriter, id string, err error) {
	var ev *sessionmgr.EvictedError
	if errors.As(err, &ev) {
		writeError(w, http.StatusGone, codeSessionEvicted,
			fmt.Errorf("session %q was evicted (%s); create a new session", id, ev.Reason))
		return
	}
	writeError(w, http.StatusNotFound, codeSessionNotFound, fmt.Errorf("no such session %q", id))
}

// --------------------------------------------------------------------------
// Handlers: health, schema, stats.
// --------------------------------------------------------------------------

// handleHealth is the legacy combined probe (kept for compatibility);
// /healthz and /readyz are the split liveness/readiness pair.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "sessions": s.sm.Len()})
}

func (s *Server) handleSchema(w http.ResponseWriter, r *http.Request) {
	type columnJSON struct {
		Name       string `json:"name"`
		Type       string `json:"type"`
		PrimaryKey bool   `json:"primary_key,omitempty"`
	}
	type tableJSON struct {
		Name     string       `json:"name"`
		RowCount int64        `json:"row_count"`
		Pages    int64        `json:"pages"`
		Columns  []columnJSON `json:"columns"`
	}
	info := s.d.Describe()
	var out []tableJSON
	for _, t := range info.Tables {
		tj := tableJSON{Name: t.Name, RowCount: t.RowCount, Pages: t.Pages}
		for _, c := range t.Columns {
			tj.Columns = append(tj.Columns, columnJSON{Name: c.Name, Type: c.Type, PrimaryKey: c.PrimaryKey})
		}
		out = append(out, tj)
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"backend": map[string]any{"kind": info.Backend.Kind, "description": info.Backend.Description},
		"tables":  out,
	})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	cs := s.d.CacheStats()
	writeJSON(w, http.StatusOK, map[string]any{
		"full_optimizations": cs.FullOptimizations,
		"cached_costings":    cs.CachedCostings,
	})
}

// --------------------------------------------------------------------------
// Handlers: what-if design sessions (Scenario 1 over the wire).
// --------------------------------------------------------------------------

func (s *Server) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	var req struct {
		// Backend prices this session through a different cost backend
		// ("native", "calibrated", "live"); empty inherits the designer's.
		Backend string `json:"backend,omitempty"`
		// DSN connects a "live" session's cost model to a PostgreSQL server:
		// the constants are fitted from its pg_settings at create time.
		DSN string `json:"dsn,omitempty"`
		// LiveTrace points a "live" session at a server-side recorded livedb
		// trace instead of a running server.
		LiveTrace string `json:"live_trace,omitempty"`
	}
	if err := readJSON(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, codeInvalidRequest, err)
		return
	}
	if (req.DSN != "" || req.LiveTrace != "") && req.Backend != designer.BackendLive {
		writeError(w, http.StatusBadRequest, codeInvalidRequest,
			fmt.Errorf("dsn/live_trace require backend %q, got %q", designer.BackendLive, req.Backend))
		return
	}
	tenant := tenantFrom(r)
	// Build the session (which pins an engine generation and may briefly
	// wait on the designer's store lock) before registering it: the
	// manager's lock protects only ID allocation and the table insert, so
	// a slow Materialize can never stall /healthz or session lookups.
	ds, err := s.d.NewDesignSessionWith(designer.SessionOptions{
		Backend: designer.BackendSpec{Kind: req.Backend, DSN: req.DSN, LiveTraceFile: req.LiveTrace},
	})
	if err != nil {
		// A backend the designer cannot build (unknown kind, replay without
		// a server-side trace) is a caller error.
		writeError(w, http.StatusBadRequest, codeInvalidRequest, err)
		return
	}
	sess := &session{tenant: tenant, backend: ds.Backend().Kind, ds: ds}
	// Seed the cheap key snapshot from the full design (base materialized
	// indexes included) so the list and detail endpoints agree.
	for _, ix := range ds.Config().Indexes() {
		sess.keys = append(sess.keys, ix.Key())
	}
	ms, err := s.sm.Create(tenant, sess)
	if err != nil {
		if errors.Is(err, sessionmgr.ErrQuotaExceeded) {
			s.mQuotaRejected.Inc()
			writeErrorRetry(w, http.StatusTooManyRequests, codeQuotaExceeded,
				fmt.Errorf("tenant %q is at its session quota (%d); close a session or retry later", tenant, s.tenantQuota),
				10*time.Second)
			return
		}
		writeError(w, http.StatusInternalServerError, codeInternal, err)
		return
	}
	sess.id, sess.created, sess.ctx = ms.ID, ms.Created, ms.Context()
	s.mSessCreated.Inc()
	writeJSON(w, http.StatusCreated, map[string]any{"id": ms.ID, "backend": sess.backend, "tenant": tenant})
}

// maxListLimit caps one page of the session listing.
const maxListLimit = 1000

func (s *Server) handleSessionList(w http.ResponseWriter, r *http.Request) {
	type sessionJSON struct {
		ID      string   `json:"id"`
		Tenant  string   `json:"tenant"`
		Created string   `json:"created"`
		Backend string   `json:"backend"`
		Indexes []string `json:"indexes"`
	}
	q := r.URL.Query()
	limit := 100
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			writeError(w, http.StatusBadRequest, codeInvalidRequest,
				fmt.Errorf("invalid limit %q: want a positive integer", v))
			return
		}
		if n > maxListLimit {
			n = maxListLimit
		}
		limit = n
	}
	page, next, err := s.sm.Page(q.Get("tenant"), q.Get("cursor"), limit)
	if err != nil {
		writeError(w, http.StatusBadRequest, codeInvalidRequest,
			fmt.Errorf("invalid cursor %q", q.Get("cursor")))
		return
	}
	out := []sessionJSON{}
	for _, ms := range page {
		sess, ok := ms.Value.(*session)
		if !ok {
			continue
		}
		sj := sessionJSON{
			ID: ms.ID, Tenant: ms.Tenant,
			Created: ms.Created.UTC().Format(time.RFC3339),
			Backend: sess.backend, Indexes: []string{},
		}
		sj.Indexes = append(sj.Indexes, sess.indexKeys()...)
		out = append(out, sj)
	}
	resp := map[string]any{"sessions": out}
	if next != "" {
		resp["next_cursor"] = next
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleSessionGet(w http.ResponseWriter, r *http.Request) {
	sess := s.session(w, r)
	if sess == nil {
		return
	}
	if !sess.lockLive(w) {
		return
	}
	cfg := sess.ds.Config()
	sess.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{
		"id":      sess.id,
		"tenant":  sess.tenant,
		"created": sess.created.UTC().Format(time.RFC3339),
		"backend": sess.backend,
		"indexes": toIndexesJSON(cfg.Indexes()),
	})
}

// handleSessionClose detaches the session from the manager immediately —
// even while a long evaluate/advise holds its work lock — cancels its
// in-flight work through the session context, and releases resources
// asynchronously once the work drains.
func (s *Server) handleSessionClose(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	ms, err := s.sm.Get(id)
	if err != nil {
		writeSessionLookupError(w, id, err)
		return
	}
	sess := ms.Value.(*session)
	if sess.tenant != tenantFrom(r) {
		writeError(w, http.StatusNotFound, codeSessionNotFound, fmt.Errorf("no such session %q", id))
		return
	}
	if _, err := s.sm.Close(id); err != nil {
		// Raced an eviction or another close between Get and Close.
		writeSessionLookupError(w, id, err)
		return
	}
	s.releaseSession(sess, goneClosed)
	writeJSON(w, http.StatusOK, map[string]any{"closed": id})
}

func (s *Server) handleSessionAddIndex(w http.ResponseWriter, r *http.Request) {
	sess := s.session(w, r)
	if sess == nil {
		return
	}
	var req struct {
		Table   string   `json:"table"`
		Columns []string `json:"columns"`
		// Include turns the structure into a covering projection; Aggs into a
		// single-table aggregate view (Columns then hold the group keys).
		// They are mutually exclusive; both empty adds a plain index.
		Include []string `json:"include,omitempty"`
		Aggs    []string `json:"aggs,omitempty"`
	}
	if err := readJSON(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, codeInvalidRequest, err)
		return
	}
	if len(req.Include) > 0 && len(req.Aggs) > 0 {
		writeError(w, http.StatusBadRequest, codeInvalidRequest,
			errors.New("include and aggs are mutually exclusive"))
		return
	}
	if !sess.lockLive(w) {
		return
	}
	var ix designer.Index
	var err error
	switch {
	case len(req.Include) > 0:
		ix, err = sess.ds.AddProjection(req.Table, req.Columns, req.Include)
	case len(req.Aggs) > 0:
		ix, err = sess.ds.AddAggView(req.Table, req.Columns, req.Aggs)
	default:
		ix, err = sess.ds.AddIndex(req.Table, req.Columns...)
	}
	if err == nil {
		// Update the key snapshot inside the work lock so it can never
		// desync from the design under concurrent add/drop of one key.
		sess.addKey(ix.Key())
	}
	sess.mu.Unlock()
	if err != nil {
		writeFacadeError(w, r, err)
		return
	}
	writeJSON(w, http.StatusCreated, toIndexJSON(ix))
}

func (s *Server) handleSessionDropIndex(w http.ResponseWriter, r *http.Request) {
	sess := s.session(w, r)
	if sess == nil {
		return
	}
	key := r.URL.Query().Get("key")
	if key == "" {
		writeError(w, http.StatusBadRequest, codeInvalidRequest, errors.New("missing ?key=table(col,...)"))
		return
	}
	if !sess.lockLive(w) {
		return
	}
	ok := sess.ds.DropIndex(key)
	if ok {
		sess.dropKey(strings.ToLower(key))
	}
	sess.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, codeIndexNotFound, fmt.Errorf("index %q not in the design", key))
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"dropped": key})
}

func (s *Server) handleSessionVertical(w http.ResponseWriter, r *http.Request) {
	sess := s.session(w, r)
	if sess == nil {
		return
	}
	var req struct {
		Table     string     `json:"table"`
		Fragments [][]string `json:"fragments"`
	}
	if err := readJSON(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, codeInvalidRequest, err)
		return
	}
	if !sess.lockLive(w) {
		return
	}
	err := sess.ds.AddVerticalPartition(req.Table, req.Fragments)
	sess.mu.Unlock()
	if err != nil {
		writeFacadeError(w, r, err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]any{"table": req.Table, "fragments": len(req.Fragments)})
}

func (s *Server) handleSessionHorizontal(w http.ResponseWriter, r *http.Request) {
	sess := s.session(w, r)
	if sess == nil {
		return
	}
	var req struct {
		Table     string `json:"table"`
		Column    string `json:"column"`
		Fragments int    `json:"fragments"`
	}
	if err := readJSON(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, codeInvalidRequest, err)
		return
	}
	if !sess.lockLive(w) {
		return
	}
	err := sess.ds.AddHorizontalPartition(req.Table, req.Column, req.Fragments)
	sess.mu.Unlock()
	if err != nil {
		writeFacadeError(w, r, err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]any{"table": req.Table, "column": req.Column, "fragments": req.Fragments})
}

func (s *Server) handleSessionEvaluate(w http.ResponseWriter, r *http.Request) {
	sess := s.session(w, r)
	if sess == nil {
		return
	}
	var req workloadJSON
	if err := readJSON(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, codeInvalidRequest, err)
		return
	}
	wl, err := s.workload(req)
	if err != nil {
		writeFacadeError(w, r, err)
		return
	}
	ctx, cancel := workCtx(r, sess)
	defer cancel()
	if !sess.lockLive(w) {
		return
	}
	rep, err := sess.ds.Evaluate(ctx, wl)
	sess.mu.Unlock()
	if err != nil {
		writeFacadeError(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, toReportJSON(rep))
}

func (s *Server) handleSessionExplain(w http.ResponseWriter, r *http.Request) {
	sess := s.session(w, r)
	if sess == nil {
		return
	}
	var req struct {
		SQL string `json:"sql"`
	}
	if err := readJSON(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, codeInvalidRequest, err)
		return
	}
	if req.SQL == "" {
		writeError(w, http.StatusBadRequest, codeInvalidRequest, errors.New("missing sql"))
		return
	}
	q, err := s.d.ParseQuery("q", req.SQL)
	if err != nil {
		writeFacadeError(w, r, err)
		return
	}
	if !sess.lockLive(w) {
		return
	}
	plan, err := sess.ds.Explain(q)
	sess.mu.Unlock()
	if err != nil {
		writeFacadeError(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"plan": plan})
}

// --------------------------------------------------------------------------
// Handlers: automatic advice + materialization (Scenario 2 over the wire).
// --------------------------------------------------------------------------

// adviseRequestJSON is the shared wire form of an advise question: a
// workload description plus advisor options.
type adviseRequestJSON struct {
	workloadJSON
	BudgetPages  int64 `json:"budget_pages,omitempty"`
	NodeBudget   int   `json:"node_budget,omitempty"`
	Partitions   bool  `json:"partitions,omitempty"`
	Interactions bool  `json:"interactions,omitempty"`
	// Projections/AggViews widen the candidate design space beyond plain
	// secondary indexes (covering projections with INCLUDE payloads,
	// single-table aggregate materialized views). Off by default: plain
	// requests keep returning bit-identical index-only designs.
	Projections bool `json:"projections,omitempty"`
	AggViews    bool `json:"agg_views,omitempty"`
}

// isZero reports an empty request body — the /readvise "repeat the last
// question" form.
func (req *adviseRequestJSON) isZero() bool {
	return len(req.SQL) == 0 && req.Queries == 0 && req.Seed == 0 &&
		req.BudgetPages == 0 && req.NodeBudget == 0 && !req.Partitions && !req.Interactions &&
		!req.Projections && !req.AggViews
}

// options maps the wire request to facade advice options.
func (req *adviseRequestJSON) options() designer.AdviceOptions {
	opts := designer.AdviceOptions{
		StorageBudgetPages: req.BudgetPages,
		NodeBudget:         req.NodeBudget,
		Partitions:         req.Partitions,
		Interactions:       req.Interactions,
	}
	if req.Projections || req.AggViews {
		opts.CandidateOptions = designer.DefaultCandidateOptions()
		opts.CandidateOptions.IncludeProjections = req.Projections
		opts.CandidateOptions.IncludeAggViews = req.AggViews
	}
	return opts
}

func (s *Server) handleAdvise(w http.ResponseWriter, r *http.Request) {
	var req adviseRequestJSON
	if err := readJSON(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, codeInvalidRequest, err)
		return
	}
	wl, err := s.workload(req.workloadJSON)
	if err != nil {
		writeFacadeError(w, r, err)
		return
	}
	advice, err := s.d.Advise(r.Context(), wl, req.options())
	if err != nil {
		writeFacadeError(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, adviceResponse(advice))
}

// adviceResponse renders an advice in the wire layout shared by /advise and
// the session advise/readvise endpoints.
func adviceResponse(advice *designer.Advice) map[string]any {
	resp := map[string]any{
		"indexes": toIndexesJSON(advice.Indexes),
		"report":  toReportJSON(advice.Report),
		"ddl":     advice.DDL(),
	}
	if advice.Solver != nil {
		resp["solver"] = map[string]any{
			"objective":     advice.Solver.Objective,
			"baseline_cost": advice.Solver.BaselineCost,
			"bound":         advice.Solver.Bound,
			"gap":           advice.Solver.Gap(),
			"proven":        advice.Solver.Proven,
			"nodes":         advice.Solver.Nodes,
			"solve_ms":      advice.Solver.SolveTime.Milliseconds(),
		}
	}
	if advice.Schedule != nil {
		type stepJSON struct {
			Index     string  `json:"index"`
			Kind      string  `json:"kind,omitempty"`
			BuildCost float64 `json:"build_cost"`
			CostAfter float64 `json:"cost_after"`
		}
		var steps []stepJSON
		for _, st := range advice.Schedule.Steps {
			steps = append(steps, stepJSON{Index: st.Index.Key(), Kind: st.Index.Kind, BuildCost: st.BuildCost, CostAfter: st.CostAfter})
		}
		resp["schedule"] = map[string]any{"steps": steps, "auc": advice.Schedule.AUC}
	}
	if advice.Partitions != nil {
		type partJSON struct {
			Table      string  `json:"table"`
			Vertical   string  `json:"vertical,omitempty"`
			Horizontal string  `json:"horizontal,omitempty"`
			BenefitPct float64 `json:"benefit_pct"`
		}
		var parts []partJSON
		for _, tp := range advice.Partitions.Tables {
			parts = append(parts, partJSON{
				Table: tp.Table, Vertical: tp.Vertical, Horizontal: tp.Horizontal,
				BenefitPct: tp.Improvement() * 100,
			})
		}
		resp["partitions"] = parts
	}
	return resp
}

// handleSessionAdvise runs the cold session-scoped pipeline against the
// session's pinned generation and primes its re-advise handle.
func (s *Server) handleSessionAdvise(w http.ResponseWriter, r *http.Request) {
	sess := s.session(w, r)
	if sess == nil {
		return
	}
	var req adviseRequestJSON
	if err := readJSON(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, codeInvalidRequest, err)
		return
	}
	wl, err := s.workload(req.workloadJSON)
	if err != nil {
		writeFacadeError(w, r, err)
		return
	}
	ctx, cancel := workCtx(r, sess)
	defer cancel()
	if !sess.lockLive(w) {
		return
	}
	advice, err := sess.ds.Advise(ctx, wl, req.options())
	if err == nil {
		sess.lastReq, sess.lastWl = &req, wl
	}
	sess.mu.Unlock()
	if err != nil {
		writeFacadeError(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, adviceResponse(advice))
}

// handleSessionReadvise answers the session's next design question warm,
// reusing the previous answer's derivation where the input delta allows. An
// empty body repeats the session's last advise question (the instant cached
// path); a non-empty body is a full new question, resolved exactly like
// /advise. The response carries a "readvise" object reporting what was
// reused.
func (s *Server) handleSessionReadvise(w http.ResponseWriter, r *http.Request) {
	sess := s.session(w, r)
	if sess == nil {
		return
	}
	var req adviseRequestJSON
	if err := readJSON(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, codeInvalidRequest, err)
		return
	}

	ctx, cancel := workCtx(r, sess)
	defer cancel()
	if !sess.lockLive(w) {
		return
	}
	wl, opts := sess.lastWl, designer.AdviceOptions{}
	if sess.lastReq != nil {
		opts = sess.lastReq.options()
	}
	if req.isZero() && wl == nil {
		// An empty body means "repeat the last question", and this session
		// never asked one — erroring beats fabricating a default workload
		// on what is documented as the instant cached path.
		sess.mu.Unlock()
		writeError(w, http.StatusBadRequest, codeInvalidRequest,
			errors.New("no previous advise question to repeat; send a workload (see POST /advise)"))
		return
	}
	if !req.isZero() {
		var err error
		wl, err = s.workload(req.workloadJSON)
		if err != nil {
			sess.mu.Unlock()
			writeFacadeError(w, r, err)
			return
		}
		opts = req.options()
	}
	start := time.Now()
	advice, stats, err := sess.ds.ReAdvise(ctx, wl, opts)
	if err == nil {
		stored := req
		if req.isZero() && sess.lastReq != nil {
			stored = *sess.lastReq
		}
		sess.lastReq, sess.lastWl = &stored, wl
	}
	sess.mu.Unlock()
	if err != nil {
		writeFacadeError(w, r, err)
		return
	}
	resp := adviceResponse(advice)
	resp["readvise"] = map[string]any{
		"warm":                stats.Warm,
		"cached":              stats.Cached,
		"candidates_reused":   stats.CandidatesReused,
		"solver_warm_started": stats.SolverWarmStarted,
		"recosted_queries":    stats.RecostedQueries,
		"reused_queries":      stats.ReusedQueries,
		"elapsed_ms":          float64(time.Since(start).Microseconds()) / 1000.0,
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleMaterialize(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Indexes []struct {
			Table   string   `json:"table"`
			Columns []string `json:"columns"`
		} `json:"indexes"`
	}
	if err := readJSON(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, codeInvalidRequest, err)
		return
	}
	if len(req.Indexes) == 0 {
		writeError(w, http.StatusBadRequest, codeInvalidRequest, errors.New("no indexes given"))
		return
	}
	var ixs []designer.Index
	for _, spec := range req.Indexes {
		ix, err := s.d.HypotheticalIndex(spec.Table, spec.Columns...)
		if err != nil {
			writeFacadeError(w, r, err)
			return
		}
		ixs = append(ixs, ix)
	}
	ioStats, err := s.d.Materialize(r.Context(), ixs)
	if err != nil {
		writeFacadeError(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"materialized": len(ixs),
		"build_io":     ioStats.Total(),
	})
}

// --------------------------------------------------------------------------
// Handlers: online tuning (Scenario 3 over the wire).
// --------------------------------------------------------------------------

func (s *Server) handleTunerCreate(w http.ResponseWriter, r *http.Request) {
	var req struct {
		EpochLength      int   `json:"epoch_length,omitempty"`
		SpaceBudgetPages int64 `json:"space_budget_pages,omitempty"`
		WhatIfBudget     int   `json:"whatif_budget,omitempty"`
	}
	if err := readJSON(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, codeInvalidRequest, err)
		return
	}
	opts := designer.DefaultTunerOptions()
	if req.EpochLength > 0 {
		opts.EpochLength = req.EpochLength
	}
	if req.SpaceBudgetPages > 0 {
		opts.SpaceBudgetPages = req.SpaceBudgetPages
	}
	if req.WhatIfBudget > 0 {
		opts.WhatIfBudget = req.WhatIfBudget
	}
	s.tunerMu.Lock()
	if s.tuner != nil {
		s.tuner.Close()
	}
	if s.ap != nil {
		// Replacing the tuner retires its autopilot too (saving its state
		// when persistence is on).
		s.ap.Close()
		s.ap = nil
	}
	s.tuner = s.d.NewOnlineTuner(opts)
	s.tunerOpts = opts
	id := s.resetTunerState()
	s.tunerMu.Unlock()
	writeJSON(w, http.StatusCreated, map[string]any{"id": id, "epoch_length": opts.EpochLength})
}

func (s *Server) handleTunerObserve(w http.ResponseWriter, r *http.Request) {
	var req struct {
		SQL []string `json:"sql"`
	}
	if err := readJSON(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, codeInvalidRequest, err)
		return
	}
	if len(req.SQL) == 0 {
		writeError(w, http.StatusBadRequest, codeInvalidRequest, errors.New("no sql given"))
		return
	}
	var qs []designer.Query
	for _, sql := range req.SQL {
		// Content-derived IDs: identical SQL re-observed over HTTP reuses
		// the tuner's cached costing entry instead of growing the cache by
		// one entry per request.
		h := fnv.New64a()
		h.Write([]byte(sql))
		q, err := s.d.ParseQuery(fmt.Sprintf("http-%x", h.Sum64()), sql)
		if err != nil {
			writeFacadeError(w, r, err)
			return
		}
		qs = append(qs, q)
	}
	s.tunerMu.Lock()
	if s.tuner == nil && s.ap == nil {
		s.tunerMu.Unlock()
		// No silent auto-create: an observe against a tuner that was never
		// configured is a client mistake (its options would be defaults the
		// caller never chose), and burying that as a 200 hides it.
		writeError(w, http.StatusNotFound, codeTunerNotConfigured,
			errors.New("no tuner configured; POST /api/v1/tuner first"))
		return
	}
	var total float64
	var err error
	if s.ap != nil {
		total, err = s.ap.ObserveAll(r.Context(), qs)
	} else {
		total, err = s.tuner.ObserveAll(r.Context(), qs)
	}
	alerts := s.refreshTunerState()
	s.tunerMu.Unlock()
	if err != nil {
		writeFacadeError(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"observed":       len(qs),
		"estimated_cost": total,
		"alerts_total":   alerts,
	})
}

type tunerAlertJSON struct {
	Epoch       int      `json:"epoch"`
	Added       []string `json:"added"`
	Dropped     []string `json:"dropped"`
	BenefitEst  float64  `json:"expected_benefit"`
	Applied     bool     `json:"applied"`
	Description string   `json:"description"`
}

// resetTunerState clears the read-side telemetry copy for a fresh tuner,
// bumps the generation, and returns the new tuner id. Callers hold
// tunerMu.
func (s *Server) resetTunerState() string {
	s.tunerStateMu.Lock()
	defer s.tunerStateMu.Unlock()
	s.tunerGen++
	s.tunerID = fmt.Sprintf("t%d", s.tunerGen)
	s.tunerActive = true
	s.tunerAlerts = nil
	s.tunerReports = nil
	s.tunerCurrent = nil
	s.apActive = false
	s.apDecisions = nil
	s.apStatus = designer.AutopilotStatus{}
	s.apRegret = nil
	return s.tunerID
}

// refreshTunerState re-copies the live tuner's (or autopilot's) telemetry
// into the read-side state and returns the alert count. Callers hold
// tunerMu (which excludes concurrent observation, making the handles safe
// to read).
func (s *Server) refreshTunerState() int {
	var srcAlerts []designer.TunerAlert
	var srcReports []designer.TunerReport
	var srcCurrent []designer.Index
	var decisions []designer.AutopilotDecision
	var apStatus designer.AutopilotStatus
	var regret []designer.AutopilotRegretPoint
	apLive := s.ap != nil
	if apLive {
		srcAlerts = s.ap.Alerts()
		srcReports = s.ap.Reports()
		srcCurrent = s.ap.Current()
		decisions = s.ap.Decisions(0)
		apStatus = s.ap.Status()
		regret = s.ap.Regret()
	} else {
		srcAlerts = s.tuner.Alerts()
		srcReports = s.tuner.Reports()
		srcCurrent = s.tuner.Current()
	}
	var alerts []tunerAlertJSON
	for _, a := range srcAlerts {
		aj := tunerAlertJSON{
			Epoch: a.Epoch, BenefitEst: a.ExpectedBenefit, Applied: a.Applied,
			Added: []string{}, Dropped: []string{}, Description: a.String(),
		}
		for _, ix := range a.Added {
			aj.Added = append(aj.Added, ix.Key())
		}
		for _, ix := range a.Dropped {
			aj.Dropped = append(aj.Dropped, ix.Key())
		}
		alerts = append(alerts, aj)
	}
	var current []string
	for _, ix := range srcCurrent {
		current = append(current, ix.Key())
	}

	s.tunerStateMu.Lock()
	defer s.tunerStateMu.Unlock()
	s.tunerAlerts = alerts
	s.tunerReports = srcReports
	s.tunerCurrent = current
	s.apActive = apLive
	s.apDecisions = decisions
	s.apStatus = apStatus
	s.apRegret = regret
	return len(alerts)
}

// tunerSnapshot reads the cheap telemetry copy — it never waits on an
// in-flight observation. gen identifies the tuner instance: it bumps every
// time POST /tuner replaces the tuner, so stream cursors can reset instead
// of skipping a fresh tuner's alerts.
func (s *Server) tunerSnapshot() (gen int64, active bool, alerts []tunerAlertJSON, reports []designer.TunerReport, current []string) {
	s.tunerStateMu.Lock()
	defer s.tunerStateMu.Unlock()
	return s.tunerGen, s.tunerActive, s.tunerAlerts, s.tunerReports, s.tunerCurrent
}

// autopilotSnapshot reads the autopilot's read-side copy.
func (s *Server) autopilotSnapshot() (gen int64, active bool, status designer.AutopilotStatus, decisions []designer.AutopilotDecision, regret []designer.AutopilotRegretPoint) {
	s.tunerStateMu.Lock()
	defer s.tunerStateMu.Unlock()
	return s.tunerGen, s.apActive, s.apStatus, s.apDecisions, s.apRegret
}

// checkTunerID verifies a path's tuner id against the live one. Callers
// hold no locks; on mismatch it writes the structured 404 and returns
// false. A stale id (from a replaced tuner) and an unknown id answer the
// same way: that tuner is gone.
func (s *Server) checkTunerID(w http.ResponseWriter, id string) bool {
	s.tunerStateMu.Lock()
	liveID := s.tunerID
	s.tunerStateMu.Unlock()
	if liveID == "" {
		writeError(w, http.StatusNotFound, codeTunerNotConfigured,
			errors.New("no tuner configured; POST /api/v1/tuner first"))
		return false
	}
	if id != liveID {
		writeError(w, http.StatusNotFound, codeTunerNotConfigured,
			fmt.Errorf("tuner %q is not live (current tuner is %q)", id, liveID))
		return false
	}
	return true
}

func (s *Server) handleTunerStatus(w http.ResponseWriter, r *http.Request) {
	gen, active, alerts, reports, current := s.tunerSnapshot()
	if gen == 0 {
		// gen counts tuner creations; 0 means no tuner has ever existed.
		writeError(w, http.StatusNotFound, codeTunerNotConfigured,
			errors.New("no tuner configured; POST /api/v1/tuner first"))
		return
	}
	type epochJSON struct {
		Epoch         int      `json:"epoch"`
		Queries       int      `json:"queries"`
		EpochCost     float64  `json:"epoch_cost"`
		WhatIfCalls   int      `json:"whatif_calls"`
		ConfigChanged bool     `json:"config_changed"`
		Indexes       []string `json:"indexes"`
	}
	epochs := []epochJSON{}
	for _, rep := range reports {
		epochs = append(epochs, epochJSON{
			Epoch: rep.Epoch, Queries: rep.Queries, EpochCost: rep.EpochCost,
			WhatIfCalls: rep.WhatIfCalls, ConfigChanged: rep.ConfigChanged, Indexes: rep.IndexKeys,
		})
	}
	if alerts == nil {
		alerts = []tunerAlertJSON{}
	}
	_, apActive, _, _, _ := s.autopilotSnapshot()
	writeJSON(w, http.StatusOK, map[string]any{
		"id":        fmt.Sprintf("t%d", gen),
		"active":    active,
		"autopilot": apActive,
		"current":   current,
		"alerts":    alerts,
		"epochs":    epochs,
	})
}

// --------------------------------------------------------------------------
// Handlers: autopilot (the ops-grade closed loop over the tuner).
// --------------------------------------------------------------------------

// autopilotStatusJSON is the wire shape of one autopilot snapshot.
func autopilotStatusJSON(id string, st designer.AutopilotStatus, regret []designer.AutopilotRegretPoint) map[string]any {
	if st.LiveIndexes == nil {
		st.LiveIndexes = []string{}
	}
	if st.Builds == nil {
		st.Builds = []designer.AutopilotBuild{}
	}
	if st.Probation == nil {
		st.Probation = []designer.AutopilotProbation{}
	}
	if regret == nil {
		regret = []designer.AutopilotRegretPoint{}
	}
	return map[string]any{
		"tuner_id": id,
		"status":   st,
		"regret":   regret,
	}
}

// handleAutopilotStart upgrades the live tuner to autopilot supervision:
// budgeted background builds, probation with rollback, regret tracking,
// and (with state_path) crash-safe persistence. The supervisor starts from
// the tuner's options but its own fresh learning state — or resumes from
// the state file when one exists.
func (s *Server) handleAutopilotStart(w http.ResponseWriter, r *http.Request) {
	var req struct {
		BuildBudgetPages int64   `json:"build_budget_pages,omitempty"`
		ProbationEpochs  int     `json:"probation_epochs,omitempty"`
		RollbackMargin   float64 `json:"rollback_margin,omitempty"`
		CooldownEpochs   int     `json:"cooldown_epochs,omitempty"`
		RegretCandidates int     `json:"regret_candidates,omitempty"`
		StatePath        string  `json:"state_path,omitempty"`
	}
	if err := readJSON(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, codeInvalidRequest, err)
		return
	}
	if !s.checkTunerID(w, r.PathValue("id")) {
		return
	}
	opts := designer.DefaultAutopilotOptions()
	if req.BuildBudgetPages > 0 {
		opts.BuildBudgetPages = req.BuildBudgetPages
	}
	if req.ProbationEpochs > 0 {
		opts.ProbationEpochs = req.ProbationEpochs
	}
	if req.RollbackMargin > 0 {
		opts.RollbackMargin = req.RollbackMargin
	}
	if req.CooldownEpochs > 0 {
		opts.CooldownEpochs = req.CooldownEpochs
	}
	if req.RegretCandidates > 0 {
		opts.RegretCandidates = req.RegretCandidates
	}
	opts.StatePath = req.StatePath

	s.tunerMu.Lock()
	if s.ap != nil {
		s.tunerMu.Unlock()
		writeError(w, http.StatusConflict, codeAutopilotActive,
			errors.New("autopilot already running; DELETE it first"))
		return
	}
	ap, err := s.d.NewAutopilot(s.tunerOpts, opts)
	if err != nil {
		s.tunerMu.Unlock()
		writeFacadeError(w, r, err)
		return
	}
	if s.tuner != nil {
		s.tuner.Close()
		s.tuner = nil
	}
	s.ap = ap
	s.refreshTunerState()
	_, _, st, _, regret := s.autopilotSnapshot()
	s.tunerMu.Unlock()
	writeJSON(w, http.StatusCreated, autopilotStatusJSON(r.PathValue("id"), st, regret))
}

func (s *Server) handleAutopilotStatus(w http.ResponseWriter, r *http.Request) {
	if !s.checkTunerID(w, r.PathValue("id")) {
		return
	}
	_, active, st, _, regret := s.autopilotSnapshot()
	if !active {
		writeError(w, http.StatusNotFound, codeAutopilotNotActive,
			errors.New("autopilot not running; POST to start it"))
		return
	}
	writeJSON(w, http.StatusOK, autopilotStatusJSON(r.PathValue("id"), st, regret))
}

// handleAutopilotStop retires the autopilot (persisting its state when a
// state path was configured). The tuner slot becomes unconfigured: the
// supervisor owned the only learning state, so continuing as a plain
// tuner would silently discard it — POST /api/v1/tuner starts fresh.
func (s *Server) handleAutopilotStop(w http.ResponseWriter, r *http.Request) {
	if !s.checkTunerID(w, r.PathValue("id")) {
		return
	}
	s.tunerMu.Lock()
	if s.ap == nil {
		s.tunerMu.Unlock()
		writeError(w, http.StatusNotFound, codeAutopilotNotActive,
			errors.New("autopilot not running; POST to start it"))
		return
	}
	err := s.ap.Close()
	s.ap = nil
	s.tunerStateMu.Lock()
	s.tunerActive = false
	s.apActive = false
	s.tunerStateMu.Unlock()
	s.tunerMu.Unlock()
	if err != nil {
		writeError(w, http.StatusInternalServerError, codeInternal, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"stopped": true})
}

// handleTunerStream streams new tuner alerts — and, when the autopilot is
// running, its decisions — as server-sent events until the client
// disconnects: the push form of Scenario 3's alert panel, extended with
// the closed loop's journal.
func (s *Server) handleTunerStream(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, codeInternal, errors.New("streaming unsupported"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fmt.Fprint(w, ": tuner alert stream\n\n")
	fl.Flush()

	sent := 0
	sentDec := 0
	lastGen := int64(-1)
	ticker := time.NewTicker(200 * time.Millisecond)
	defer ticker.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-s.closing:
			return // server shutting down; release the connection
		case <-ticker.C:
			gen, _, alerts, _, _ := s.tunerSnapshot()
			_, _, _, decisions, _ := s.autopilotSnapshot()
			if gen != lastGen {
				lastGen = gen
				sent = 0    // a replaced tuner restarts its alert list
				sentDec = 0 // ... and its decision journal
			}
			for ; sent < len(alerts); sent++ {
				payload, err := json.Marshal(alerts[sent])
				if err != nil {
					continue
				}
				fmt.Fprintf(w, "event: alert\ndata: %s\n\n", payload)
			}
			for ; sentDec < len(decisions); sentDec++ {
				payload, err := json.Marshal(decisions[sentDec])
				if err != nil {
					continue
				}
				fmt.Fprintf(w, "event: decision\ndata: %s\n\n", payload)
			}
			fl.Flush()
		}
	}
}
