// Package httpapi is gcolord's HTTP surface: the /v1 JSON API over
// service.Service, plus /metrics, /healthz, and the NDJSON event streams.
// It owns the API contract — tenancy (X-Tenant), request ids
// (X-Request-ID), strict submission decoding, the unified error envelope
// (errors.go), and the 429 + Retry-After backpressure mapping — so the
// daemon binary, the load generator, and the tests all drive the same
// code.
package httpapi

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"time"
	"unicode"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/service"
)

// Config configures the API handler.
type Config struct {
	// Service is the admission-controlled scheduler (required).
	Service *service.Service
	// Disk, when non-nil, enables /v1/store and the store metrics. It is
	// an interface (DiskBackend and ResilientBackend both satisfy it)
	// because a degraded-capable backend may have no store attached at any
	// given moment; leave it nil — not a typed-nil pointer — when no
	// persistent store is configured.
	Disk service.StoreStatser
	// Heartbeat is the idle keep-alive interval on event streams
	// (default 10s).
	Heartbeat time.Duration
	// RequestTimeout bounds each non-streaming /v1 request's handling via
	// its context (default 30s; < 0 disables). The NDJSON event streams
	// are exempt — they are long-lived by design and bounded by their own
	// heartbeat/disconnect logic.
	RequestTimeout time.Duration
	// EnablePprof additionally mounts /debug/pprof.
	EnablePprof bool
	// Logger receives one structured record per request (method, path,
	// status, tenant, request id, duration). nil disables logging.
	Logger *slog.Logger
	// MaxVertices / MaxEdges bound submitted graphs; larger submissions
	// are rejected with 413 graph_too_large (0 = 100000 vertices /
	// 10000000 edges).
	MaxVertices int
	MaxEdges    int
}

// MaxFormulaSlots caps (n+m)·K for a submission, K being the color bound
// the solve will use (core.EffectiveK). The encoding allocates n·K
// indicator variables and m·K conflict clauses, so this bounds the memory
// one accepted job can claim; the largest Table-1 instance needs 212,580
// at K=30.
const MaxFormulaSlots = 1 << 24

type api struct {
	cfg Config
	svc *service.Service
	// store renders the persistent store's families after the service's
	// (nil without Config.Disk).
	store *obs.Registry
}

// New builds the complete gcolord handler.
func New(cfg Config) http.Handler {
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = 10 * time.Second
	}
	if cfg.MaxVertices <= 0 {
		cfg.MaxVertices = 100000
	}
	if cfg.MaxEdges <= 0 {
		cfg.MaxEdges = 10000000
	}
	if cfg.RequestTimeout == 0 {
		cfg.RequestTimeout = 30 * time.Second
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	a := &api{cfg: cfg, svc: cfg.Service}
	if cfg.Disk != nil {
		a.store = storeMetrics(cfg.Disk)
	}
	mux := http.NewServeMux()
	if cfg.EnablePprof {
		// Opt-in only: profiling endpoints leak operational detail, so
		// they stay off unless -pprof is passed for a field
		// investigation.
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	// Catch-all so unknown routes answer with the error envelope instead
	// of net/http's plain-text 404.
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		apiError(w, r, http.StatusNotFound, ErrorDetail{
			Code: CodeNotFound, Message: "unknown route " + r.URL.Path,
		})
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("/readyz", a.getOnly(a.readyz))
	mux.HandleFunc("/metrics", a.timed(a.getOnly(a.metrics)))
	mux.HandleFunc("/v1/stats", a.timed(a.getOnly(func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, a.svc.Metrics().Snapshot())
	})))
	mux.HandleFunc("/v1/store", a.timed(a.getOnly(func(w http.ResponseWriter, r *http.Request) {
		if a.cfg.Disk == nil {
			apiError(w, r, http.StatusNotFound, ErrorDetail{
				Code:    CodeNotFound,
				Message: "no persistent store configured (run with -store.dir)",
			})
			return
		}
		ds, ok := a.cfg.Disk.StoreStats()
		if !ok {
			apiError(w, r, http.StatusServiceUnavailable, ErrorDetail{
				Code:    CodeStoreDegraded,
				Message: "persistent store detached after write failures; running memory-only while reopen attempts continue",
			})
			return
		}
		writeJSON(w, http.StatusOK, ds)
	})))
	mux.HandleFunc("/v1/jobs", a.timed(func(w http.ResponseWriter, r *http.Request) {
		switch r.Method {
		case http.MethodPost:
			a.submit(w, r)
		case http.MethodGet:
			writeJSON(w, http.StatusOK, a.svc.Jobs())
		default:
			apiError(w, r, http.StatusMethodNotAllowed, ErrorDetail{
				Code: CodeMethodNotAllowed, Message: "use GET or POST",
			})
		}
	}))
	mux.HandleFunc("/v1/jobs/", a.jobRoutes)
	mux.HandleFunc("/v1/trace/recent", a.timed(a.getOnly(a.recentTraces)))
	return withRequestID(withLogging(cfg.Logger, mux))
}

// readyz serves GET /readyz, the load-balancer readiness probe. Unlike
// /healthz (process liveness, always 200 while serving), readiness goes
// 503 the moment a drain starts, so rotations stop sending new work while
// in-flight jobs finish. The body reports the drain state, queue pressure,
// and disk-component health either way; a degraded store keeps the daemon
// ready (it still serves, memory-only) but is surfaced for alerting.
func (a *api) readyz(w http.ResponseWriter, r *http.Request) {
	st := a.svc.Metrics().Snapshot()
	draining, degraded := st.Bool("draining"), st.Bool("store_degraded")
	status := "ok"
	if degraded {
		status = "degraded"
	}
	if draining {
		status = "draining"
	}
	body := map[string]any{
		"status":          status,
		"queue_depth":     st.Int("queue_depth"),
		"running":         st.Int("running"),
		"journal_pending": st.Int("journal_pending"),
		"store_degraded":  degraded,
	}
	if draining {
		writeJSON(w, http.StatusServiceUnavailable, body)
		return
	}
	writeJSON(w, http.StatusOK, body)
}

// metrics serves GET /metrics in the Prometheus text exposition format
// (version 0.0.4): the service's registry, then the persistent store's.
func (a *api) metrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	a.svc.Metrics().WritePrometheus(w)
	if a.store != nil {
		a.store.WritePrometheus(w)
	}
}

// storeMetrics declares the persistent store's families, read from one
// store.Stats per scrape and absent while no store is attached. They
// have no /v1/stats keys: GET /v1/store serves the same figures.
func storeMetrics(disk service.StoreStatser) *obs.Registry {
	reg := obs.NewRegistry("gcolord_")
	reg.Table("", "", []obs.Column{
		{Name: "store_entries", Help: "Live records in the persistent store.", Gauge: true},
		{Name: "store_wal_bytes", Help: "Current WAL size in bytes.", Gauge: true},
		{Name: "store_snapshot_bytes", Help: "Current snapshot size in bytes.", Gauge: true},
		{Name: "store_tail_dropped_total", Help: "Corrupt or truncated tail records dropped at startup."},
		{Name: "store_compactions_total", Help: "Completed WAL-into-snapshot compactions."},
		{Name: "store_gc_dropped_total", Help: "Records removed by the TTL/size GC policy."},
	}, func() []obs.Row {
		st, ok := disk.StoreStats()
		if !ok {
			return nil
		}
		return []obs.Row{{Values: []int64{int64(st.Entries), st.WALBytes, st.SnapshotBytes, int64(st.TailDropped), st.Compactions, st.GCDropped}}}
	})
	return reg
}

// timed bounds one non-streaming handler through the request context: a
// stalled downstream (e.g. a disk-wedged stats call) times the one request
// out instead of pinning a connection forever. Streaming routes never pass
// through here.
func (a *api) timed(h http.HandlerFunc) http.HandlerFunc {
	if a.cfg.RequestTimeout <= 0 {
		return h
	}
	return func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), a.cfg.RequestTimeout)
		defer cancel()
		h(w, r.WithContext(ctx))
	}
}

// jobRoutes dispatches /v1/jobs/{id}[/sub]. Every subroute except the
// NDJSON events stream runs under the per-request timeout.
func (a *api) jobRoutes(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/v1/jobs/")
	id, sub, _ := strings.Cut(rest, "/")
	if sub != "events" {
		a.timed(func(w http.ResponseWriter, r *http.Request) {
			a.jobRoute(w, r, id, sub)
		})(w, r)
		return
	}
	a.jobRoute(w, r, id, sub)
}

func (a *api) jobRoute(w http.ResponseWriter, r *http.Request, id, sub string) {
	switch {
	case r.Method == http.MethodDelete && sub == "":
		if err := a.svc.Cancel(id); err != nil {
			a.jobNotFound(w, r, id)
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"id": id, "state": "canceling"})
	case r.Method == http.MethodGet && sub == "":
		info, err := a.svc.Job(id)
		if err != nil {
			a.jobNotFound(w, r, id)
			return
		}
		writeJSON(w, http.StatusOK, info)
	case r.Method == http.MethodGet && sub == "events":
		a.streamEvents(w, r, id)
	case r.Method == http.MethodGet && sub == "result":
		a.result(w, r, id)
	case r.Method == http.MethodGet && sub == "trace":
		a.trace(w, r, id)
	case sub == "" || sub == "events" || sub == "result" || sub == "trace":
		apiError(w, r, http.StatusMethodNotAllowed, ErrorDetail{
			Code: CodeMethodNotAllowed, Message: "unsupported method for this route",
		})
	default:
		apiError(w, r, http.StatusNotFound, ErrorDetail{
			Code: CodeNotFound, Message: "unknown route",
		})
	}
}

// result serves GET /v1/jobs/{id}/result: the result when there is one, a
// 202 snapshot while the job is pending, and a typed error envelope for
// terminal states that will never produce a result.
func (a *api) result(w http.ResponseWriter, r *http.Request, id string) {
	info, err := a.svc.Job(id)
	if err != nil {
		a.jobNotFound(w, r, id)
		return
	}
	if info.Result != nil {
		writeJSON(w, http.StatusOK, info.Result)
		return
	}
	switch info.State {
	case "expired":
		apiError(w, r, http.StatusGatewayTimeout, ErrorDetail{
			Code:    CodeDeadlineExceeded,
			Message: fmt.Sprintf("job %s: deadline elapsed while queued", id),
		})
	case "canceled":
		apiError(w, r, http.StatusGone, ErrorDetail{
			Code:    CodeJobCanceled,
			Message: fmt.Sprintf("job %s was canceled before producing a result", id),
		})
	case "failed":
		apiError(w, r, http.StatusInternalServerError, ErrorDetail{
			Code:    CodeJobFailed,
			Message: fmt.Sprintf("job %s failed: %s", id, info.Err),
		})
	default: // queued or running
		writeJSON(w, http.StatusAccepted, map[string]string{"id": id, "state": info.State})
	}
}

func (a *api) jobNotFound(w http.ResponseWriter, r *http.Request, id string) {
	apiError(w, r, http.StatusNotFound, ErrorDetail{
		Code:    CodeJobNotFound,
		Message: fmt.Sprintf("no job %q", id),
	})
}

// getOnly wraps a handler with a 405 envelope for non-GET methods.
func (a *api) getOnly(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			apiError(w, r, http.StatusMethodNotAllowed, ErrorDetail{
				Code: CodeMethodNotAllowed, Message: "use GET",
			})
			return
		}
		h(w, r)
	}
}

// JobRequest is the POST /v1/jobs body. Unknown fields are rejected
// (DisallowUnknownFields), so typos fail loudly instead of silently
// running with defaults.
type JobRequest struct {
	// Exactly one graph source: a named benchmark, an inline DIMACS .col
	// document, or an explicit vertex count + edge list (decoded without
	// reflection, see graph.EdgeList).
	Bench  string         `json:"bench,omitempty"`
	Dimacs string         `json:"dimacs,omitempty"`
	Name   string         `json:"name,omitempty"`
	N      int            `json:"n,omitempty"`
	Edges  graph.EdgeList `json:"edges,omitempty"`

	K   int    `json:"k,omitempty"`
	SBP string `json:"sbp,omitempty"`
	// SBPVariant names the lex-leader construction of the predicate
	// layer. There is one, "full"; "canonset", "canon", "involution",
	// "inv" and "race" are accepted as aliases of it, and any other name
	// is refused (service.ParseSBPVariant).
	SBPVariant        string `json:"sbp_variant,omitempty"`
	Engine            string `json:"engine,omitempty"`
	Portfolio         bool   `json:"portfolio,omitempty"`
	InstanceDependent bool   `json:"instance_dependent,omitempty"`
	Timeout           string `json:"timeout,omitempty"`

	// Admission fields: Priority is the queue class (0 = normal, up to
	// service.MaxPriority), Deadline the end-to-end budget including
	// queue time (Go duration string, e.g. "30s").
	Priority int    `json:"priority,omitempty"`
	Deadline string `json:"deadline,omitempty"`

	// The fields of three deleted search knobs (chronological
	// backtracking, clause vivification, dynamic LBD). Old bodies still
	// decode and run at the defaults; a negative value is still refused.
	ChronoThreshold int   `json:"chrono_threshold,omitempty"`
	VivifyBudget    int64 `json:"vivify_budget,omitempty"`
	DynamicLBD      bool  `json:"dynamic_lbd,omitempty"`

	// The six optional search knobs of core.Knobs, flattened into the
	// body. Excluded from the result cache's key.
	core.Knobs
}

// Graph materializes the request's graph source.
func (r *JobRequest) Graph() (*graph.Graph, error) {
	sources := 0
	for _, has := range []bool{r.Bench != "", r.Dimacs != "", len(r.Edges) > 0 || r.N > 0} {
		if has {
			sources++
		}
	}
	if sources != 1 {
		return nil, fmt.Errorf("specify exactly one of bench, dimacs, or n+edges")
	}
	switch {
	case r.Bench != "":
		return graph.Benchmark(r.Bench)
	case r.Dimacs != "":
		name := r.Name
		if name == "" {
			name = "dimacs"
		}
		return graph.ParseDimacs(name, strings.NewReader(r.Dimacs))
	default:
		if r.N < 0 {
			return nil, fmt.Errorf("n must be >= 0, got %d", r.N)
		}
		name := r.Name
		if name == "" {
			name = "edges"
		}
		return graph.FromEdges(name, r.N, r.Edges)
	}
}

// Spec converts the request's solver parameters to a JobSpec. Bounds are
// checked later by JobSpec.Validate (via service.SubmitTenant), except
// those of the ignored legacy knob fields: a negative one fails here with
// a *service.ValidationError that lists every invalid field.
func (r *JobRequest) Spec() (service.JobSpec, error) {
	var spec service.JobSpec
	kind, err := service.ParseSBP(r.SBP)
	if err != nil {
		return spec, err
	}
	if err := service.ParseSBPVariant(r.SBPVariant); err != nil {
		return spec, err
	}
	eng, err := service.ParseEngine(r.Engine)
	if err != nil {
		return spec, err
	}
	spec = service.JobSpec{
		K: r.K, SBP: kind, Engine: eng,
		Portfolio: r.Portfolio, InstanceDependent: r.InstanceDependent,
		Priority: r.Priority, Knobs: r.Knobs,
	}
	if r.Timeout != "" {
		d, err := time.ParseDuration(r.Timeout)
		if err != nil {
			return spec, fmt.Errorf("timeout: %w", err)
		}
		spec.Timeout = d
	}
	if r.Deadline != "" {
		d, err := time.ParseDuration(r.Deadline)
		if err != nil {
			return spec, fmt.Errorf("deadline: %w", err)
		}
		spec.Deadline = d
	}
	var legacy []service.FieldError
	if r.ChronoThreshold < 0 {
		legacy = append(legacy, service.FieldError{Field: "chrono_threshold", Message: "must be >= 0"})
	}
	if r.VivifyBudget < 0 {
		legacy = append(legacy, service.FieldError{Field: "vivify_budget", Message: "must be >= 0"})
	}
	if legacy != nil {
		var verr *service.ValidationError
		if errors.As(spec.Validate(), &verr) {
			legacy = append(legacy, verr.Fields...)
		}
		return spec, &service.ValidationError{Fields: legacy}
	}
	return spec, nil
}

// submit handles POST /v1/jobs: strict decode, graph-size limits, then
// tenant-aware admission with typed 429 backpressure.
func (a *api) submit(w http.ResponseWriter, r *http.Request) {
	tenant, ok := tenantOf(r)
	if !ok {
		apiError(w, r, http.StatusBadRequest, ErrorDetail{
			Code:    CodeInvalidSpec,
			Message: fmt.Sprintf("X-Tenant header must be at most %d bytes without control characters", maxTenantLen),
		})
		return
	}
	var req JobRequest
	body := http.MaxBytesReader(w, r.Body, 64<<20)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		apiError(w, r, http.StatusBadRequest, ErrorDetail{
			Code: CodeInvalidSpec, Message: "bad json: " + err.Error(),
		})
		return
	}
	// Refuse an oversized declared vertex count before Graph allocates
	// per vertex: a 15-byte body can otherwise claim gigabytes.
	if n := max(req.N, graph.DimacsVertices(req.Dimacs)); n > a.cfg.MaxVertices {
		tooLarge(w, r, "graph declares %d vertices; this daemon accepts at most %d", n, a.cfg.MaxVertices)
		return
	}
	g, err := req.Graph()
	if err != nil {
		apiError(w, r, http.StatusBadRequest, ErrorDetail{
			Code: CodeInvalidSpec, Message: err.Error(),
		})
		return
	}
	if g.N() > a.cfg.MaxVertices || g.M() > a.cfg.MaxEdges {
		tooLarge(w, r, "graph has %d vertices / %d edges; this daemon accepts at most %d / %d",
			g.N(), g.M(), a.cfg.MaxVertices, a.cfg.MaxEdges)
		return
	}
	spec, err := req.Spec()
	var verr *service.ValidationError
	if errors.As(err, &verr) {
		a.submitError(w, r, err)
		return
	}
	if err != nil {
		apiError(w, r, http.StatusBadRequest, ErrorDetail{
			Code: CodeInvalidSpec, Message: err.Error(),
		})
		return
	}
	if k := core.EffectiveK(g, spec.K); int64(g.N()+g.M())*int64(k) > MaxFormulaSlots {
		tooLarge(w, r, "(n+m)·K = (%d+%d)·%d exceeds this daemon's formula limit %d",
			g.N(), g.M(), k, MaxFormulaSlots)
		return
	}
	// The request id doubles as the trace correlation id, so the
	// X-Request-ID a client sent (or we generated) finds the job's span
	// tree under /v1/jobs/{id}/trace.
	id, err := a.svc.SubmitTenantTraced(tenant, requestID(r), g, spec)
	if err != nil {
		a.submitError(w, r, err)
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]string{"id": id, "request_id": requestID(r)})
}

// tooLarge answers 413 graph_too_large with a formatted message.
func tooLarge(w http.ResponseWriter, r *http.Request, format string, args ...any) {
	apiError(w, r, http.StatusRequestEntityTooLarge, ErrorDetail{
		Code: CodeGraphTooLarge, Message: fmt.Sprintf(format, args...),
	})
}

// submitError maps service.SubmitTenant failures onto the envelope:
// validation → 400, backpressure → 429 + Retry-After, shutdown → 503.
func (a *api) submitError(w http.ResponseWriter, r *http.Request, err error) {
	var verr *service.ValidationError
	var adm *service.AdmissionError
	switch {
	case errors.As(err, &verr):
		apiError(w, r, http.StatusBadRequest, ErrorDetail{
			Code: CodeInvalidSpec, Message: "invalid job spec", Fields: verr.Fields,
		})
	case errors.As(err, &adm):
		if adm.Reason == service.ReasonDraining {
			// Draining is not backpressure: this instance is going away.
			// 503 + Retry-After tells a balanced client to try a peer (or
			// the restarted instance) rather than hammer this one.
			apiError(w, r, http.StatusServiceUnavailable, ErrorDetail{
				Code:         CodeDraining,
				Message:      err.Error(),
				RetryAfterMS: retryMS(adm.RetryAfter),
			})
			return
		}
		code := CodeQueueFull
		if adm.Reason == service.ReasonOverQuota {
			code = CodeTenantOverQuota
		}
		apiError(w, r, http.StatusTooManyRequests, ErrorDetail{
			Code:         code,
			Message:      err.Error(),
			RetryAfterMS: retryMS(adm.RetryAfter),
		})
	case errors.Is(err, service.ErrClosed):
		apiError(w, r, http.StatusServiceUnavailable, ErrorDetail{
			Code: CodeUnavailable, Message: "service is shutting down",
		})
	default:
		apiError(w, r, http.StatusInternalServerError, ErrorDetail{
			Code: CodeInternal, Message: err.Error(),
		})
	}
}

// trace serves GET /v1/jobs/{id}/trace: the job's completed span tree
// from the flight recorder. 404 job_not_found for unknown ids; 404
// not_found when the job exists but no completed trace is available
// (still running, evicted by -trace.keep, or tracing disabled).
func (a *api) trace(w http.ResponseWriter, r *http.Request, id string) {
	v, err := a.svc.Trace(id)
	if err != nil {
		if errors.Is(err, service.ErrNoSuchJob) {
			a.jobNotFound(w, r, id)
			return
		}
		apiError(w, r, http.StatusNotFound, ErrorDetail{
			Code:    CodeNotFound,
			Message: fmt.Sprintf("no completed trace for job %s (still running, evicted, or tracing disabled)", id),
		})
		return
	}
	writeJSON(w, http.StatusOK, v)
}

// recentTraces serves GET /v1/trace/recent?n=: the newest completed
// traces in the flight recorder, newest first (default 20).
func (a *api) recentTraces(w http.ResponseWriter, r *http.Request) {
	n := 20
	if v := r.URL.Query().Get("n"); v != "" {
		parsed, err := strconv.Atoi(v)
		if err != nil || parsed < 1 {
			apiError(w, r, http.StatusBadRequest, ErrorDetail{
				Code: CodeInvalidSpec, Message: "n must be a positive integer",
			})
			return
		}
		n = parsed
	}
	views := a.svc.RecentTraces(n)
	if views == nil {
		views = []*obs.TraceView{}
	}
	writeJSON(w, http.StatusOK, map[string]any{"traces": views})
}

// event is one NDJSON line on a /v1/jobs/{id}/events stream.
type event struct {
	// Type is "progress" (live solver counters), "heartbeat" (stream
	// keep-alive while the search is between reports), or "result" (the
	// terminal event: the job's final snapshot; the stream closes after
	// it).
	Type string `json:"type"`
	// TS is the server's wall-clock timestamp for the event, so clients
	// can show staleness without trusting their own clock skew.
	TS time.Time `json:"ts"`
	// Phase names the job's lifecycle stage at emission time ("queued",
	// "canon", "solve", "persist", "done") — the live phase indicator
	// `gcolor -progress` renders.
	Phase    string            `json:"phase,omitempty"`
	Progress *service.Progress `json:"progress,omitempty"`
	Job      *service.JobInfo  `json:"job,omitempty"`
}

// streamEvents serves the NDJSON progress stream for one job: progress
// events as the solver reports, heartbeats while idle, one terminal
// result event, then EOF. An already-finished job yields just the result
// event. A reconnecting client passes ?after=<seq> (the Seq of the last
// progress event it saw) to resume without replaying: only snapshots
// newer than that are sent. The service keeps the latest snapshot per
// job, so "resume" means "skip stale", never "replay history".
func (a *api) streamEvents(w http.ResponseWriter, r *http.Request, id string) {
	if _, err := a.svc.Job(id); err != nil {
		a.jobNotFound(w, r, id)
		return
	}
	var after int64
	if v := r.URL.Query().Get("after"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil || n < 0 {
			apiError(w, r, http.StatusBadRequest, ErrorDetail{
				Code:    CodeInvalidSpec,
				Message: "after must be a non-negative integer sequence number",
			})
			return
		}
		after = n
	}
	fl, ok := flusher(w)
	if !ok {
		apiError(w, r, http.StatusInternalServerError, ErrorDetail{
			Code: CodeInternal, Message: "streaming unsupported by this connection",
		})
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	emit := func(ev event) bool {
		ev.TS = time.Now()
		if err := enc.Encode(ev); err != nil {
			return false
		}
		fl.Flush()
		return true
	}
	seq := after
	for {
		hbCtx, cancel := context.WithTimeout(r.Context(), a.cfg.Heartbeat)
		p, more, err := a.svc.NextProgress(hbCtx, id, seq)
		cancel()
		switch {
		case err == nil && more:
			seq = p.Seq
			if !emit(event{Type: "progress", Phase: p.Phase, Progress: &p}) {
				return
			}
		case err == nil && !more:
			info, jerr := a.svc.Job(id)
			if jerr != nil {
				return // pruned between calls
			}
			emit(event{Type: "result", Phase: "done", Job: &info})
			return
		case errors.Is(err, context.DeadlineExceeded) && r.Context().Err() == nil:
			phase, _ := a.svc.JobPhase(id)
			if !emit(event{Type: "heartbeat", Phase: phase}) {
				return
			}
		default:
			return // client went away, or the job record was pruned
		}
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// --- middleware ---

type ctxKey int

const requestIDKey ctxKey = 0

// requestID returns the request's id (set by withRequestID; "" outside
// the middleware, e.g. in unit tests hitting handlers directly).
func requestID(r *http.Request) string {
	id, _ := r.Context().Value(requestIDKey).(string)
	return id
}

// Bounds on the header values a client chooses. A tenant name becomes a
// permanent /v1/stats entry and three /metrics series; a request id is
// echoed, logged and kept as the job's trace id.
const (
	maxTenantLen    = 64
	maxRequestIDLen = 128
)

// headerValue returns the trimmed value of the named header and whether
// it is acceptable: at most limit bytes, with no control characters.
func headerValue(r *http.Request, name string, limit int) (string, bool) {
	v := strings.TrimSpace(r.Header.Get(name))
	return v, len(v) <= limit && strings.IndexFunc(v, unicode.IsControl) < 0
}

// tenantOf maps the X-Tenant header to the service tenant ("" falls
// through to the service's "default"); ok is false for a name submit
// refuses.
func tenantOf(r *http.Request) (tenant string, ok bool) {
	return headerValue(r, "X-Tenant", maxTenantLen)
}

// withRequestID attaches an id to every request: the client's
// X-Request-ID when present and acceptable, a generated one otherwise.
// The id is echoed on the response header, embedded in error envelopes,
// and logged.
func withRequestID(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, ok := headerValue(r, "X-Request-ID", maxRequestIDLen)
		if id == "" || !ok {
			id = newRequestID()
		}
		w.Header().Set("X-Request-ID", id)
		next.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), requestIDKey, id)))
	})
}

func newRequestID() string {
	var buf [8]byte
	if _, err := rand.Read(buf[:]); err != nil {
		return "req-unknown"
	}
	return hex.EncodeToString(buf[:])
}

// withLogging emits one structured record per request.
func withLogging(logger *slog.Logger, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(rec, r)
		tenant, ok := tenantOf(r)
		if !ok {
			tenant = "(invalid)"
		}
		logger.Info("http request",
			"method", r.Method,
			"path", r.URL.Path,
			"status", rec.status,
			"tenant", tenant,
			"request_id", requestID(r),
			"duration_ms", time.Since(start).Milliseconds(),
		)
	})
}

// statusRecorder captures the response status for the request log while
// passing Flush through so NDJSON streaming keeps working.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (s *statusRecorder) WriteHeader(code int) {
	s.status = code
	s.ResponseWriter.WriteHeader(code)
}

// flusher unwraps the ResponseWriter to find a Flusher (the logging
// wrapper hides the concrete type).
func flusher(w http.ResponseWriter) (http.Flusher, bool) {
	for {
		switch v := w.(type) {
		case *statusRecorder:
			w = v.ResponseWriter
		case http.Flusher:
			return v, true
		default:
			return nil, false
		}
	}
}
