// Package service is the throughput layer over the paper's coloring flow:
// a batch scheduler with a bounded worker pool, per-job context
// cancellation and timeouts, and a canonical-form result cache. Jobs are
// keyed by a canonical labeling of the input graph (internal/autom's
// individualization-refinement machinery), so isomorphic submissions —
// symmetric instances of the same coloring problem, in the sense the
// paper's symmetry-breaking predicates exploit — are deduplicated: the
// first submission solves, concurrent isomorphic ones join the in-flight
// solve, and later ones hit the cache. Each submitter gets the result
// translated back into its own vertex numbering through its canonical
// permutation.
package service

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/autom"
	"repro/internal/core"
	"repro/internal/encode"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/pbsolver"
	"repro/internal/sbp"
	"repro/internal/solverutil"
)

// Errors returned by Submit and the accessors. Admission rejections
// (ErrQueueFull, ErrOverQuota) are returned as *AdmissionError values
// carrying the tenant and a RetryAfter hint; match them with errors.Is
// against these sentinels or errors.As for the detail.
var (
	ErrClosed    = errors.New("service: closed")
	ErrQueueFull = errors.New("service: queue full")
	ErrOverQuota = errors.New("service: tenant over quota")
	ErrNoSuchJob = errors.New("service: no such job")
	// ErrDraining rejects submissions while the service is draining for
	// shutdown; in-flight jobs keep running, new work belongs elsewhere.
	ErrDraining = errors.New("service: draining")
	// ErrNoTrace is returned by Trace for a job the service knows but has
	// no completed trace for: the job has not finished yet, its trace was
	// evicted from the flight recorder, or tracing is disabled.
	ErrNoTrace = errors.New("service: no trace for job")
)

// PanicError is the typed failure a job receives when its solver panicked:
// the worker recovers, the job fails with this error (StateFailed), and
// the daemon keeps serving. Stack is the recovering goroutine's stack,
// preserved for the job record and the structured log.
type PanicError struct {
	Value string `json:"value"`
	Stack string `json:"stack"`
}

// Error implements error.
func (e *PanicError) Error() string { return "service: solver panic: " + e.Value }

// JobSpec holds the solver-relevant parameters of a submission. Five
// fields are part of the cache key — K, SBP, Engine, Portfolio and
// InstanceDependent — so two jobs share a result only when their
// canonical graph forms and those fields agree. Every other field is left
// out (see cacheKey): Timeout, the admission fields (Priority, Deadline)
// and the search knobs of core.Knobs. They change how fast a definitive
// answer arrives, never which answer, so differently tuned submissions
// share results; only definitive (budget-independent) results are ever
// cached. Decoding ignores unknown keys, so journal entries that still
// hold an "sbp_variant" (1, 2 or 3) replay under the one lex-leader
// construction, and entries that hold the deleted "chrono_threshold",
// "vivify_budget" or "dynamic_lbd" knobs replay at the defaults.
type JobSpec struct {
	// K is the color bound (0 = max degree + 1, as in core.Solve).
	K int `json:"k"`
	// SBP selects the instance-independent construction.
	SBP encode.SBPKind `json:"sbp"`
	// Engine selects a single solver engine; ignored when Portfolio is set.
	Engine pbsolver.Engine `json:"engine"`
	// Portfolio races all engines and keeps the first definitive answer.
	Portfolio bool `json:"portfolio"`
	// InstanceDependent adds lex-leader SBPs for detected symmetries.
	InstanceDependent bool `json:"instance_dependent"`
	// Timeout bounds this job's solve; 0 = the service default.
	Timeout time.Duration `json:"timeout"`
	// Priority is the admission class, 0 (normal) to MaxPriority (most
	// urgent). Higher classes dequeue first; within a class the order is
	// FIFO, and waiting jobs age upward so no class starves (see
	// Config.AgingStep). Excluded from the cache key.
	Priority int `json:"priority,omitempty"`
	// Deadline bounds the job end to end from submission, *including*
	// time spent queued: a job still waiting past its deadline expires
	// without ever occupying a worker, and a running job's solve context
	// is cut at the deadline even when Timeout allows more. 0 = no
	// deadline. Excluded from the cache key.
	Deadline time.Duration `json:"deadline,omitempty"`
	// The six search knobs of core.Knobs, flattened into the JSON.
	core.Knobs
}

// State is a job's lifecycle phase.
type State int32

// Job states.
const (
	StateQueued State = iota
	StateRunning
	StateDone
	StateFailed
	StateCanceled
	// StateExpired marks a job whose deadline elapsed while it was still
	// queued: it never ran a solver and never occupied a worker.
	StateExpired
)

// String returns the lowercase wire name of the state ("queued",
// "running", "done", "failed", "canceled", "expired"), the form JobInfo
// serializes.
func (s State) String() string {
	switch s {
	case StateQueued:
		return "queued"
	case StateRunning:
		return "running"
	case StateDone:
		return "done"
	case StateFailed:
		return "failed"
	case StateCanceled:
		return "canceled"
	case StateExpired:
		return "expired"
	}
	return fmt.Sprintf("state(%d)", int32(s))
}

// Result is a completed job's outcome, in the submitted graph's own vertex
// numbering (cache hits are translated through the canonical permutation).
type Result struct {
	Status pbsolver.Status `json:"status"`
	// Solved reports a definitive answer: optimum proven or χ > K proven.
	Solved bool `json:"solved"`
	// Chi is the proven chromatic number within K (0 unless optimal).
	Chi int `json:"chi"`
	// Coloring is a witness coloring when one is available.
	Coloring []int `json:"coloring,omitempty"`
	// Winner is the engine that produced the result (portfolio runs).
	Winner string `json:"winner,omitempty"`
	// SBPVariant names the symmetry-breaking construction the solve
	// emitted predicates under (always sbp.VariantName, "full"). Empty
	// when no predicate layer ran or the result came from the cache.
	SBPVariant string `json:"sbp_variant,omitempty"`
	// Runtime is the solver wall-clock time (the original solve's, for
	// cache hits).
	Runtime time.Duration `json:"runtime"`
	// Conflicts is the solver conflict count (original solve's).
	Conflicts int64 `json:"conflicts"`
	// Cube-and-conquer counters, present when the job ran with
	// Parallel > 1: workers used, cubes generated / refuted by lookahead
	// / conquered, and learnt clauses exchanged. Run-specific, so cache
	// hits do not carry them.
	ParWorkers      int   `json:"par_workers,omitempty"`
	Cubes           int64 `json:"cubes,omitempty"`
	CubesRefuted    int64 `json:"cubes_refuted,omitempty"`
	CubesClosed     int64 `json:"cubes_closed,omitempty"`
	ClausesShared   int64 `json:"clauses_shared,omitempty"`
	ClausesImported int64 `json:"clauses_imported,omitempty"`
	// CacheHit reports the result was served from the canonical cache
	// (including joins on an in-flight isomorphic solve).
	CacheHit bool `json:"cache_hit"`
	// CanonExact reports the canonical labeling search completed; when
	// false, isomorphic submissions may miss each other in the cache.
	CanonExact bool `json:"canon_exact"`
}

// SolveFunc produces the outcome for one job; tests inject counters and
// stubs here. The default is DefaultSolve. sym carries automorphisms of
// the job's graph discovered by the canonical-labeling search (possibly
// empty); implementations may forward them to the solver as an
// instance-symmetry source. progress may be nil; when non-nil,
// implementations should forward it to the solver so the job reports live
// search counters.
type SolveFunc func(ctx context.Context, g *graph.Graph, spec JobSpec, sym []autom.Perm, progress solverutil.ProgressFunc) core.Outcome

// DefaultSolve runs core.Solve with the spec's parameters and the default
// progress pacing (solverutil.DefaultProgressInterval).
func DefaultSolve(ctx context.Context, g *graph.Graph, spec JobSpec, sym []autom.Perm, progress solverutil.ProgressFunc) core.Outcome {
	return defaultSolve(0)(ctx, g, spec, sym, progress)
}

// defaultSolve builds the core.Solve-backed SolveFunc with the given
// progress interval (0 = the solverutil default). The service uses this to
// honor Config.ProgressInterval; custom SolveFuncs pace themselves.
func defaultSolve(progressInterval time.Duration) SolveFunc {
	return func(ctx context.Context, g *graph.Graph, spec JobSpec, sym []autom.Perm, progress solverutil.ProgressFunc) core.Outcome {
		return core.Solve(ctx, g, core.Config{
			K: spec.K, SBP: spec.SBP, Engine: spec.Engine, Portfolio: spec.Portfolio,
			InstanceDependent: spec.InstanceDependent, GraphGens: sym,
			Timeout: spec.Timeout, Knobs: spec.Knobs,
			Progress: progress, ProgressInterval: progressInterval,
		})
	}
}

// Config configures a Service.
type Config struct {
	// Workers is the worker-pool size (default GOMAXPROCS).
	Workers int
	// QueueDepth bounds queued-but-unstarted jobs (default 1024); Submit
	// returns ErrQueueFull beyond it.
	QueueDepth int
	// DefaultTimeout bounds jobs that do not set their own (0 = none).
	DefaultTimeout time.Duration
	// CanonMaxNodes bounds each canonical labeling search (0 = the
	// autom package default).
	CanonMaxNodes int64
	// CacheCapacity bounds the default in-memory backend's completed
	// cache entries (default 4096); the oldest entries are evicted first.
	// Ignored when Backend is set.
	CacheCapacity int
	// Backend stores definitive results under their canonical cache key.
	// nil selects an in-memory backend bounded by CacheCapacity; use
	// NewDiskBackend / OpenDiskBackend for a cache that survives
	// restarts. The service assumes ownership and closes the backend in
	// Close.
	Backend Backend
	// ProgressInterval is the minimum spacing of a job's progress
	// snapshots per reporting engine (0 selects
	// solverutil.DefaultProgressInterval, 200ms). It applies to the
	// built-in solver; a custom Solve paces its own reports.
	ProgressInterval time.Duration
	// TraceKeep bounds the flight recorder: completed jobs keep their span
	// trace, served by Trace/RecentTraces, and the newest TraceKeep traces
	// are retained (0 selects the default of 256). Negative disables
	// tracing entirely — no per-job trace, no recorder, no phase
	// histograms — which is the `-trace.keep=0` benchmark baseline.
	TraceKeep int
	// MaxJobs bounds retained job records (default 16384). When exceeded,
	// the oldest *finished* jobs are forgotten — their ids then return
	// ErrNoSuchJob — so a long-running daemon does not grow without bound.
	MaxJobs int
	// AgingStep is the queue seniority one priority class is worth
	// (default 30s): a priority-P job is scheduled as if submitted
	// P·AgingStep earlier, so higher classes overtake bounded amounts of
	// lower-class backlog and every waiting job eventually outranks all
	// newer arrivals — no class starves.
	AgingStep time.Duration
	// TenantRate caps each tenant's long-run accepted submissions per
	// second with a token bucket of TenantBurst capacity (0 = no rate
	// limit). TenantBurst defaults to max(1, ceil(TenantRate)).
	TenantRate  float64
	TenantBurst int
	// TenantMaxInFlight bounds one tenant's queued + running jobs
	// (0 = unlimited). Beyond it, Submit rejects with ErrOverQuota so a
	// single tenant saturating the service cannot starve the others.
	TenantMaxInFlight int
	// Logger receives structured job-lifecycle records (accepts,
	// rejects, and one line per finished job with tenant, cache hit/miss,
	// queue wait, solve time, and outcome). nil disables logging.
	Logger *slog.Logger
	// Solve overrides the solver (tests); nil selects DefaultSolve.
	Solve SolveFunc
	// Journal, when set, makes accepted jobs durable: each submission is
	// recorded before Submit returns and marked done at its terminal
	// state, and New replays the entries a crash left pending — queued and
	// running jobs resume after a restart instead of vanishing. The
	// service assumes ownership and closes the journal in Close.
	Journal Journal
}

// job is one submission. The service's table holds it until it is pruned
// as one of the oldest finished jobs past MaxJobs. Once finish has closed
// done and recorded the trace, the table holds only finishedCopy: the
// job's record over finishedRun.
type job struct {
	mu sync.Mutex
	jobRecord
	*jobRun
}

// jobRecord is everything a job reports: JobInfo, Progress and JobPhase
// answer from it. id, tenant, name and spec never change; the rest is
// guarded by the job's mu. name is the instance name, kept when finish
// drops the graph.
type jobRecord struct {
	id        string
	tenant    string
	name      string
	spec      JobSpec
	state     State
	submitted time.Time
	started   time.Time
	finished  time.Time
	queueWait time.Duration
	err       error
	// result is the job's outcome. A finished copy keeps its coloring in
	// coloring instead, at 4 bytes per vertex (colors are below K ≤ MaxK
	// = 2^20).
	result   *Result
	coloring []int32
	// prog is the latest progress snapshot, nil until the solver reports.
	prog *Progress
}

// jobRun is a job's running state. g, ctx, the queue key and the trace
// are set before the job is enqueued and read without mu after that; the
// other fields are guarded by the job's mu, as are finish's drops of g,
// ctx, cancel, the trace and progWake.
type jobRun struct {
	// g is the graph. Only the worker running the job reads it.
	g *graph.Graph
	// ctx carries Cancel and CancelAll to the running job; Cancel reads
	// cancel under mu, and only the worker reads ctx.
	ctx    context.Context
	cancel context.CancelFunc

	// Admission-queue key: seq is the global submission order, vtime the
	// aging-adjusted virtual submission time (see pqueue), deadlineAt the
	// absolute end-to-end deadline (zero when the spec sets none).
	seq        int64
	vtime      time.Time
	deadlineAt time.Time

	// Tracing state: the per-job trace, its root "job" span, and the
	// "queue" span opened at admission and closed when a worker picks the
	// job up. All nil when tracing is disabled — every obs operation is a
	// nil-receiver no-op. Immutable after the job is enqueued, until
	// finish hands a copy to the flight recorder and drops them.
	trace     *obs.Trace
	rootSpan  *obs.Span
	queueSpan *obs.Span

	canceled bool // explicit Cancel call (vs timeout)
	expired  bool // deadline elapsed while still queued
	// phase names the lifecycle stage the job is in right now ("queued",
	// "canon", "solve", "persist", "done") for progress/heartbeat events.
	phase string

	// progWake is closed on every progress update so streamers can block
	// without polling. It is made only when a streamer waits on a job that
	// is not terminal, and finish drops it.
	progWake chan struct{}

	// done is closed when the job turns terminal (Wait returns), recorded
	// just after, once the flight recorder holds the job's trace.
	done     chan struct{}
	recorded chan struct{}
}

// finishedRun is the running state of every finished job in the table:
// no graph, context or trace, phase "done", and done and recorded closed,
// so every accessor answers a finished job as it answers one that has just
// finished. It is shared, so nothing may write to it: Cancel leaves a job
// without a cancel func alone, and NextProgress makes no wake channel once
// done is closed.
var finishedRun = func() *jobRun {
	r := &jobRun{phase: "done", done: make(chan struct{}), recorded: make(chan struct{})}
	close(r.done)
	close(r.recorded)
	return r
}()

// finishedCopy returns what the table keeps of j once finish is through
// with it: the record over finishedRun, with the coloring packed. The
// Result is copied, not changed, as info has handed it out.
func (j *job) finishedCopy() *job {
	j.mu.Lock()
	defer j.mu.Unlock()
	fin := &job{jobRecord: j.jobRecord, jobRun: finishedRun}
	if res := j.result; res != nil && res.Coloring != nil {
		packed := *res
		packed.Coloring = nil
		fin.result = &packed
		fin.coloring = make([]int32, len(res.Coloring))
		for v, c := range res.Coloring {
			fin.coloring[v] = int32(c)
		}
	}
	return fin
}

// Progress is a live view of a running job's search, assembled from the
// solver's rate-limited progress callbacks. Seq increases with every
// snapshot; a Seq of 0 means the job has not reported yet.
type Progress struct {
	// Seq orders snapshots within one job.
	Seq int64 `json:"seq"`
	// K is the effective color bound the job is solving under (the
	// submitted K, or max degree + 1 when the submission left it 0).
	K int `json:"k"`
	// Elapsed is the time since the job started running.
	Elapsed time.Duration `json:"elapsed"`
	// Phase names the lifecycle stage the job was in when the snapshot was
	// taken ("queued", "canon", "solve", "persist", "done").
	Phase string `json:"phase,omitempty"`
	solverutil.Progress
}

// recordProgress stores a new snapshot and wakes all watchers. Called from
// solver goroutines — under a portfolio, several concurrently.
func (j *job) recordProgress(effK int, p solverutil.Progress) {
	j.mu.Lock()
	j.prog = &Progress{
		Seq:      j.progressLocked().Seq + 1,
		K:        effK,
		Elapsed:  time.Since(j.started),
		Phase:    j.phase,
		Progress: p,
	}
	if j.progWake != nil {
		close(j.progWake)
		j.progWake = nil
	}
	j.mu.Unlock()
}

// progressLocked returns the latest snapshot, Seq 0 when there is none.
// Caller holds j.mu.
func (j *job) progressLocked() Progress {
	if j.prog == nil {
		return Progress{}
	}
	return *j.prog
}

// setPhase records the lifecycle stage the job just entered.
func (j *job) setPhase(p string) {
	j.mu.Lock()
	j.phase = p
	j.mu.Unlock()
}

// JobInfo is a point-in-time snapshot of a job.
type JobInfo struct {
	ID        string    `json:"id"`
	Tenant    string    `json:"tenant,omitempty"`
	Instance  string    `json:"instance"`
	Spec      JobSpec   `json:"spec"`
	State     string    `json:"state"`
	Submitted time.Time `json:"submitted"`
	Started   time.Time `json:"started,omitempty"`
	Finished  time.Time `json:"finished,omitempty"`
	// QueueWait is the time the job spent in the admission queue before
	// a worker picked it up (0 while still queued).
	QueueWait time.Duration `json:"queue_wait,omitempty"`
	Err       string        `json:"error,omitempty"`
	// Stack is the captured goroutine stack when the job failed because
	// its solver panicked (see PanicError); empty otherwise.
	Stack  string  `json:"stack,omitempty"`
	Result *Result `json:"result,omitempty"`
}

// Service is the concurrent coloring scheduler.
type Service struct {
	cfg     Config
	solve   SolveFunc
	backend Backend
	journal Journal
	pq      *pqueue
	logger  *slog.Logger
	// recorder is the bounded flight recorder completed job traces land
	// in; nil when Config.TraceKeep is negative (tracing disabled).
	recorder *obs.Recorder
	wg       sync.WaitGroup
	// stopCtx is cancelled when Close begins, aborting canonical labeling
	// searches promptly on shutdown. It deliberately carries no deadline:
	// cache keys must not depend on how much solve time a job has left.
	stopCtx    context.Context
	stopCancel context.CancelFunc

	mu       sync.Mutex
	jobs     map[string]*job
	finished []string // finished job ids, oldest first, for pruning
	// inflight maps cache keys to singleflight entries (guarded by mu;
	// waiting on an entry's done channel happens outside the lock). Its
	// size is bounded by the worker count — leaders remove their entry
	// the moment they publish.
	inflight map[string]*entry
	// tenants holds per-tenant admission state (token bucket, in-flight
	// count, counters), created on first submission and dropped once idle
	// when the table is full (see maxTenants).
	tenants map[string]*tenantState
	closed  bool
	// draining stops admission (typed ReasonDraining rejections) while
	// in-flight jobs run to completion; see BeginDrain/Drain.
	draining bool

	// reg renders /metrics and /v1/stats; m holds the counters declared
	// in it (metrics.go).
	reg     *obs.Registry
	m       metrics
	nextID  atomic.Int64
	running atomic.Int64
}

// New starts a service with the given configuration.
func New(cfg Config) *Service {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 1024
	}
	if cfg.CacheCapacity <= 0 {
		cfg.CacheCapacity = 4096
	}
	if cfg.MaxJobs <= 0 {
		cfg.MaxJobs = 16384
	}
	if cfg.AgingStep <= 0 {
		cfg.AgingStep = 30 * time.Second
	}
	if cfg.TenantRate > 0 && cfg.TenantBurst <= 0 {
		cfg.TenantBurst = int(math.Ceil(cfg.TenantRate))
		if cfg.TenantBurst < 1 {
			cfg.TenantBurst = 1
		}
	}
	s := &Service{
		cfg:      cfg,
		solve:    cfg.Solve,
		backend:  cfg.Backend,
		pq:       newPQueue(),
		logger:   cfg.Logger,
		jobs:     make(map[string]*job),
		inflight: make(map[string]*entry),
		tenants:  make(map[string]*tenantState),
	}
	s.stopCtx, s.stopCancel = context.WithCancel(context.Background())
	if s.logger == nil {
		s.logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	if s.solve == nil {
		s.solve = defaultSolve(cfg.ProgressInterval)
	}
	if s.backend == nil {
		s.backend = NewMemoryBackend(cfg.CacheCapacity)
	}
	s.declareMetrics()
	// Replay the journal before any worker starts: jobs a crash left
	// queued or running re-enter the queue with their original ids,
	// submission times, and deadlines, so nothing accepted is ever
	// silently lost.
	if s.journal = cfg.Journal; s.journal != nil {
		entries, err := s.journal.Replay()
		if err != nil {
			s.logger.Error("journal replay failed; pending jobs lost", "err", err)
		}
		for _, e := range entries {
			s.replayJob(e)
		}
		if n := len(entries); n > 0 {
			s.logger.Info("journal replay complete", "jobs", n)
		}
	}
	s.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s
}

// replayJob re-admits one journaled submission after a restart. The job
// keeps its original id, tenant, submission time (so its queue seniority
// carries over) and absolute deadline; an entry already past its deadline
// finishes as StateExpired without touching a worker. Admission control is
// deliberately not re-applied — the job was admitted once, in its previous
// life.
func (s *Service) replayJob(e JournalEntry) {
	g, err := e.Graph()
	if err != nil {
		// Replaying it would fail at every restart: retire it instead.
		s.logger.Warn("journal entry unreadable; retired", "job", e.ID, "err", err)
		if err := s.journal.Done(e.ID); err != nil {
			s.m.storeErrs.Inc()
		}
		return
	}
	tenant := e.Tenant
	if tenant == "" {
		tenant = "default"
	}
	// Keep the id sequence ahead of every replayed id so new submissions
	// never collide with resurrected ones.
	seq := s.nextID.Add(1)
	if n, err := strconv.ParseInt(strings.TrimPrefix(e.ID, "job-"), 10, 64); err == nil && n > 0 {
		seq = n
		for {
			cur := s.nextID.Load()
			if n <= cur || s.nextID.CompareAndSwap(cur, n) {
				break
			}
		}
	}
	j := s.newJob(e.ID, tenant, g, e.Spec, e.Submitted, seq)
	j.deadlineAt = e.Deadline
	s.mu.Lock()
	if _, dup := s.jobs[j.id]; dup {
		s.mu.Unlock()
		j.cancel()
		return
	}
	s.tenant(tenant).inFlight++
	s.jobs[j.id] = j
	s.mu.Unlock()
	s.m.replayed.Inc()
	if !j.deadlineAt.IsZero() && !time.Now().Before(j.deadlineAt) {
		j.mu.Lock()
		j.expired = true
		j.mu.Unlock()
		s.finish(j, nil, nil)
		return
	}
	s.attachTrace(j, "", time.Now())
	s.pq.push(j)
	s.logger.Info("job replayed from journal", "job", j.id, "tenant", tenant,
		"instance", j.name)
}

// newJob builds a queued job for g, keyed in the admission queue by seq
// and its priority-aged submission time.
func (s *Service) newJob(id, tenant string, g *graph.Graph, spec JobSpec, submitted time.Time, seq int64) *job {
	ctx, cancel := context.WithCancel(context.Background())
	return &job{
		jobRecord: jobRecord{
			id: id, tenant: tenant, name: g.Name(), spec: spec,
			state: StateQueued, submitted: submitted,
		},
		jobRun: &jobRun{
			g: g, ctx: ctx, cancel: cancel,
			seq:   seq,
			vtime: submitted.Add(-time.Duration(spec.Priority) * s.cfg.AgingStep),
			phase: "queued",
			done:  make(chan struct{}), recorded: make(chan struct{}),
		},
	}
}

// Submit enqueues one coloring job for the anonymous default tenant. The
// graph must not be mutated by the caller afterwards. Returns the job id.
func (s *Service) Submit(g *graph.Graph, spec JobSpec) (string, error) {
	return s.SubmitTenantTraced("", "", g, spec)
}

// SubmitTenant enqueues one coloring job on behalf of the named tenant
// ("" = "default"). The spec is validated (*ValidationError on bad
// fields) and the submission passes admission control: the tenant's token
// bucket and in-flight quota, then the bounded queue. Rejections are
// *AdmissionError values carrying a RetryAfter hint and matching
// ErrOverQuota / ErrQueueFull via errors.Is — the service never blocks
// the caller and rejected jobs never occupy a worker.
func (s *Service) SubmitTenant(tenant string, g *graph.Graph, spec JobSpec) (string, error) {
	return s.SubmitTenantTraced(tenant, "", g, spec)
}

// SubmitTenantTraced is SubmitTenant with an explicit trace correlation
// id, normally the request id the HTTP layer echoes as X-Request-ID, so a
// log line's request id finds the job's trace and vice versa. Empty falls
// back to the job id.
func (s *Service) SubmitTenantTraced(tenant, traceID string, g *graph.Graph, spec JobSpec) (string, error) {
	if tenant == "" {
		tenant = "default"
	}
	admitStart := time.Now()
	if err := spec.Validate(); err != nil {
		s.m.rejects[ReasonInvalidSpec].Inc()
		s.logger.Warn("job rejected", "tenant", tenant, "reason", ReasonInvalidSpec, "err", err)
		return "", err
	}
	now := time.Now()
	seq := s.nextID.Add(1)
	j := s.newJob(fmt.Sprintf("job-%d", seq), tenant, g, spec, now, seq)
	if spec.Deadline > 0 {
		j.deadlineAt = now.Add(spec.Deadline)
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		j.cancel()
		return "", ErrClosed
	}
	if s.draining {
		ts := s.tenant(tenant)
		ts.rejects++
		s.mu.Unlock()
		j.cancel()
		return "", s.reject(&AdmissionError{
			Reason: ReasonDraining, Tenant: tenant, RetryAfter: retryAfterHint,
		})
	}
	ts := s.tenant(tenant)
	if q := s.cfg.TenantMaxInFlight; q > 0 && ts.inFlight >= q {
		ts.rejects++
		s.mu.Unlock()
		j.cancel()
		return "", s.reject(&AdmissionError{
			Reason: ReasonOverQuota, Tenant: tenant, RetryAfter: retryAfterHint,
		})
	}
	if s.pq.len() >= s.cfg.QueueDepth {
		ts.rejects++
		s.mu.Unlock()
		j.cancel()
		return "", s.reject(&AdmissionError{
			Reason: ReasonQueueFull, Tenant: tenant, RetryAfter: retryAfterHint,
		})
	}
	// Last so a rejection for any other reason never burns a token.
	if ok, wait := s.takeToken(ts, now); !ok {
		ts.rejects++
		s.mu.Unlock()
		j.cancel()
		return "", s.reject(&AdmissionError{
			Reason: ReasonOverQuota, Tenant: tenant, RetryAfter: wait,
		})
	}
	ts.inFlight++
	ts.accepts++
	s.jobs[j.id] = j
	// Journal before the job becomes runnable, so every submission the
	// caller sees accepted is durable (a degraded journal diverts to
	// memory rather than erroring; see DiskJournal).
	if s.journal != nil {
		if jerr := s.journal.Record(journalEntryFor(j)); jerr != nil {
			s.m.storeErrs.Inc()
		}
	}
	// Trace must be attached before the job is runnable: a worker may pop
	// it the instant push returns.
	s.attachTrace(j, traceID, admitStart)
	s.pq.push(j)
	s.mu.Unlock()
	s.m.submitted.Inc()
	s.logger.Debug("job accepted", "tenant", tenant, "job", j.id,
		"priority", spec.Priority, "queue_depth", s.pq.len())
	return j.id, nil
}

// attachTrace opens the job's trace: the root "job" span, an "admission"
// span backdated to the submission's entry into admission control, and
// the "queue" span left open until a worker picks the job up. No-op when
// tracing is disabled (the job's trace fields stay nil and every span
// operation downstream is a nil no-op).
func (s *Service) attachTrace(j *job, traceID string, admitStart time.Time) {
	if s.recorder == nil {
		return
	}
	if traceID == "" {
		traceID = j.id
	}
	j.trace = obs.NewTrace(traceID, j.id)
	j.rootSpan = j.trace.StartSpanAt(nil, "job", admitStart,
		obs.String("tenant", j.tenant), obs.String("instance", j.name))
	adm := j.trace.StartSpanAt(j.rootSpan, "admission", admitStart)
	adm.End()
	j.queueSpan = j.trace.StartSpan(j.rootSpan, "queue")
}

// reject counts and logs one admission rejection.
func (s *Service) reject(e *AdmissionError) error {
	s.m.rejects[e.Reason].Inc()
	s.logger.Warn("job rejected", "tenant", e.Tenant, "reason", e.Reason,
		"retry_after", e.RetryAfter)
	return e
}

// lookup returns the job the table holds under id.
func (s *Service) lookup(id string) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// snapshot copies the job table, so callers can visit every job without
// holding s.mu, which every submit and finish takes.
func (s *Service) snapshot() []*job {
	s.mu.Lock()
	defer s.mu.Unlock()
	jobs := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	return jobs
}

// Cancel cancels a job; queued jobs are dropped when dequeued, running jobs
// have their solve context cancelled.
func (s *Service) Cancel(id string) error {
	j, ok := s.lookup(id)
	if !ok {
		return ErrNoSuchJob
	}
	j.requestCancel()
	return nil
}

// requestCancel marks the job canceled and cancels its context. A job
// that has finished has no cancel func and is left as it is.
func (j *job) requestCancel() {
	j.mu.Lock()
	cancel := j.cancel
	if cancel != nil {
		j.canceled = true
	}
	j.mu.Unlock()
	if cancel != nil {
		cancel()
	}
}

// Job returns a snapshot of the job's current state.
func (s *Service) Job(id string) (JobInfo, error) {
	j, ok := s.lookup(id)
	if !ok {
		return JobInfo{}, ErrNoSuchJob
	}
	return j.info(), nil
}

// Wait blocks until the job finishes (done, failed, or canceled) or ctx is
// cancelled, and returns the final snapshot.
func (s *Service) Wait(ctx context.Context, id string) (JobInfo, error) {
	j, ok := s.lookup(id)
	if !ok {
		return JobInfo{}, ErrNoSuchJob
	}
	select {
	case <-j.done:
		return j.info(), nil
	case <-ctx.Done():
		return JobInfo{}, ctx.Err()
	}
}

// Jobs lists snapshots of all known jobs (unordered).
func (s *Service) Jobs() []JobInfo {
	jobs := s.snapshot()
	out := make([]JobInfo, len(jobs))
	for i, j := range jobs {
		out[i] = j.info()
	}
	return out
}

// Close stops accepting submissions, waits for queued and running jobs to
// finish, closes the cache backend, and returns. Use CancelAll first for a
// fast shutdown.
func (s *Service) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	s.mu.Unlock()
	// Stop canonical searches promptly: jobs still draining solve under
	// their own contexts, but shutdown does not wait out a labeling
	// budget. Their keys turn inexact, which is sound (and, per the
	// inexact-skip rule, never persisted).
	s.stopCancel()
	s.pq.close()
	s.wg.Wait()
	if err := s.backend.Close(); err != nil {
		s.m.storeErrs.Inc()
	}
	if s.journal != nil {
		if err := s.journal.Close(); err != nil {
			s.m.storeErrs.Inc()
		}
	}
}

// BeginDrain stops admission without stopping work: subsequent Submits are
// rejected with a typed ReasonDraining AdmissionError (ErrDraining via
// errors.Is) while queued and running jobs continue to completion.
// Idempotent.
func (s *Service) BeginDrain() {
	s.mu.Lock()
	already := s.draining
	s.draining = true
	s.mu.Unlock()
	if !already {
		s.logger.Info("drain started",
			"queue_depth", s.pq.len(), "running", s.running.Load())
	}
}

// Draining reports whether admission is currently refusing new work.
func (s *Service) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Drain begins draining (see BeginDrain) and blocks until every in-flight
// job — queued or running — reaches a terminal state, or ctx is done. It
// returns nil when the service is idle; the caller then typically calls
// Close, which at that point has nothing left to wait for.
func (s *Service) Drain(ctx context.Context) error {
	s.BeginDrain()
	for {
		var pending []*job
		for _, j := range s.snapshot() {
			select {
			case <-j.done:
			default:
				pending = append(pending, j)
			}
		}
		if len(pending) == 0 {
			return nil
		}
		for _, j := range pending {
			select {
			case <-j.done:
			case <-ctx.Done():
				return ctx.Err()
			}
		}
	}
}

// CancelAll cancels every job that has not finished yet.
func (s *Service) CancelAll() {
	for _, j := range s.snapshot() {
		j.requestCancel()
	}
}

func (s *Service) worker() {
	defer s.wg.Done()
	for {
		j, ok := s.pq.pop()
		if !ok {
			return
		}
		s.run(j)
	}
}

// run executes one job: canonicalize, join an in-flight isomorphic solve
// when one exists, otherwise consult the durable backend, and only when
// both miss run a solver and publish the result to waiters and backend.
// Canceled and deadline-expired jobs are finished here without a solver
// call — dequeuing them is the only work a worker spends on them.
func (s *Service) run(j *job) {
	wait := time.Since(j.submitted)
	j.mu.Lock()
	j.queueWait = wait
	j.mu.Unlock()
	j.queueSpan.End()
	s.m.queueWait.Observe(wait)
	if j.ctx.Err() != nil {
		s.finish(j, nil, nil)
		return
	}
	if !j.deadlineAt.IsZero() && !time.Now().Before(j.deadlineAt) {
		j.mu.Lock()
		j.expired = true
		j.mu.Unlock()
		s.finish(j, nil, nil)
		return
	}
	j.mu.Lock()
	j.state = StateRunning
	j.started = time.Now()
	j.mu.Unlock()
	s.running.Add(1) // finish takes it off again, before waking waiters
	defer j.cancel() // release the job context's resources

	ctx := j.ctx
	timeout := j.spec.Timeout
	if timeout <= 0 {
		timeout = s.cfg.DefaultTimeout
	}
	var deadline time.Time
	if timeout > 0 {
		deadline = time.Now().Add(timeout)
	}
	// The end-to-end deadline keeps counting while the job runs: cut the
	// solve context at whichever bound lands first.
	if !j.deadlineAt.IsZero() && (deadline.IsZero() || j.deadlineAt.Before(deadline)) {
		deadline = j.deadlineAt
	}
	if !deadline.IsZero() {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, deadline)
		defer cancel()
	}

	// Canonicalize under the node budget and cancellation only — never the
	// deadline-derived solve context. A near-deadline job would otherwise
	// get a timing-dependent (truncated, hence inexact) key, and isomorphic
	// resubmissions would miss both the singleflight table and the backend.
	// j.ctx carries explicit Cancel/CancelAll but no deadline; stopCtx
	// aborts labeling when the service shuts down.
	j.setPhase("canon")
	canonSpan := j.trace.StartSpan(j.rootSpan, "canon")
	canonCtx, canonDone := context.WithCancel(j.ctx)
	stopWatch := context.AfterFunc(s.stopCtx, canonDone)
	var canon *autom.Canonical
	pprof.Do(canonCtx, pprof.Labels("tenant", j.tenant, "job", j.id, "phase", "canon"),
		func(ctx context.Context) {
			canon = canonicalize(ctx, j.g, s.cfg.CanonMaxNodes)
		})
	stopWatch()
	canonDone()
	canonSpan.End(
		obs.Int("nodes", canon.Nodes),
		obs.Int("generators", int64(len(canon.Generators))),
		obs.Int("orbit_prunes", canon.OrbitPrunes),
		obs.Int("prefix_prunes", canon.PrefixPrunes),
		obs.Bool("exact", canon.Exact),
	)
	if !canon.Exact {
		s.m.inexact.Inc()
	}
	s.m.canonGens.Add(int64(len(canon.Generators)))
	s.m.canonOrbit.Add(canon.OrbitPrunes)
	s.m.canonPrefix.Add(canon.PrefixPrunes)
	key := cacheKey(j.spec, canon)

	s.mu.Lock()
	e, joined := s.inflight[key]
	if !joined {
		e = newEntry()
		s.inflight[key] = e
	}
	s.mu.Unlock()

	if joined {
		// Another worker is solving this equivalence class right now:
		// wait for its answer instead of duplicating the work.
		select {
		case <-e.done:
		case <-ctx.Done(): // job cancelled, or its own timeout expired
			s.finish(j, nil, nil)
			return
		}
		if res := e.materialize(j.g, canon); res != nil {
			s.m.dedupJoins.Inc()
			s.finish(j, res, nil)
			return
		}
		// The leader's solve was not definitive (or the defensive
		// coloring check tripped): solve directly, without becoming a
		// leader ourselves — re-registering here could livelock with
		// other disappointed waiters. A definitive answer still goes to
		// the backend so the equivalence class is not lost to the cache.
		s.runSolver(ctx, j, canon, key)
		return
	}

	// Leader for this key. A durable backend may already hold the answer
	// from an earlier run of this process — or, with a disk backend, an
	// earlier life of this service.
	if rec, ok := s.backend.Get(key); ok {
		if res := materializeRecord(rec, j.g, canon); res != nil {
			e.publishRecord(rec)
			s.unregister(key)
			s.m.cacheHits.Inc()
			s.finish(j, res, nil)
			return
		}
		// Unusable record (e.g. foreign or stale disk state): fall
		// through and re-solve; the fresh result overwrites it.
	}

	out, serr := s.runSolverOutcome(ctx, j, canon.Generators)
	if serr != nil {
		// The solver panicked. Release the singleflight group first —
		// waiters re-solve for themselves rather than inheriting a failure
		// that may be specific to this run.
		e.publishNone()
		s.unregister(key)
		s.finish(j, nil, serr)
		return
	}
	res := resultFromOutcome(out, j.spec, canon.Exact)
	if res.Solved {
		rec := recordFromResult(res, canon)
		// Waiters always get the record: an equal key in-process means
		// isomorphic graphs even when inexact.
		e.publishRecord(rec)
		s.persist(j, key, canon, rec)
	} else {
		// Do not let a budget-exhausted result poison future submissions
		// that may carry a larger budget.
		e.publishNone()
	}
	s.unregister(key)
	s.finish(j, res, nil)
}

// persist stores a definitive record under key, best-effort: on a store
// error the result still stands. An inexact key is budget- and
// order-dependent, never produced again, so persisting it is skipped.
func (s *Service) persist(j *job, key string, canon *autom.Canonical, rec CacheRecord) {
	if !canon.Exact {
		s.m.inexactSkip.Inc()
		return
	}
	j.setPhase("persist")
	span := j.trace.StartSpan(j.rootSpan, "persist")
	err := s.backend.Put(key, rec)
	span.End(obs.Bool("cache_write", err == nil))
	if err != nil {
		s.m.storeErrs.Inc()
	}
}

// unregister removes a published singleflight entry from the in-flight
// table.
func (s *Service) unregister(key string) {
	s.mu.Lock()
	delete(s.inflight, key)
	s.mu.Unlock()
}

// runSolver solves the job directly (the non-leader path) and finishes
// it, persisting a definitive outcome under key so later isomorphic
// submissions still hit the cache.
func (s *Service) runSolver(ctx context.Context, j *job, canon *autom.Canonical, key string) {
	out, serr := s.runSolverOutcome(ctx, j, canon.Generators)
	if serr != nil {
		s.finish(j, nil, serr)
		return
	}
	res := resultFromOutcome(out, j.spec, canon.Exact)
	if res.Solved {
		s.persist(j, key, canon, recordFromResult(res, canon))
	}
	s.finish(j, res, nil)
}

// runSolverOutcome invokes the solver with this job's progress sink. A
// panicking solver is isolated here: the worker recovers, the panic value
// and stack become a *PanicError for this job alone, and the pool keeps
// serving every other job.
func (s *Service) runSolverOutcome(ctx context.Context, j *job, sym []autom.Perm) (out core.Outcome, err error) {
	j.setPhase("solve")
	solveSpan := j.trace.StartSpan(j.rootSpan, "solve")
	defer func() {
		if r := recover(); r != nil {
			stack := string(debug.Stack())
			s.m.panics.Inc()
			s.logger.Error("solver panic isolated", "job", j.id, "tenant", j.tenant,
				"instance", j.g.Name(), "panic", fmt.Sprint(r), "stack", stack)
			err = &PanicError{Value: fmt.Sprint(r), Stack: stack}
			solveSpan.End(obs.String("panic", fmt.Sprint(r)))
			return
		}
		solveSpan.End(
			obs.String("status", out.Result.Status.String()),
			obs.Int("conflicts", out.Result.Stats.Conflicts),
			obs.Int("restarts", out.Result.Stats.Restarts),
		)
	}()
	effK := core.EffectiveK(j.g, j.spec.K)
	progress := func(p solverutil.Progress) { j.recordProgress(effK, p) }
	// Thread the solve span through the context so core.Solve's phases
	// (encode, sbp) and the per-engine / per-worker spans in pbsolver and
	// par nest under it; label the goroutine so CPU profiles attribute
	// solver samples to (tenant, job, phase).
	sctx := obs.ContextWithSpan(ctx, solveSpan)
	pprof.Do(sctx, pprof.Labels("tenant", j.tenant, "job", j.id, "phase", "solve"),
		func(ctx context.Context) {
			out = s.solve(ctx, j.g, j.spec, sym, progress)
		})
	s.m.solverRuns.Inc()
	s.noteSBP(out)
	return out, nil
}

// Progress returns the job's latest progress snapshot. A Seq of 0 means
// the job has not reported yet (still queued, done before the first
// report, or served from the cache without running a solver).
func (s *Service) Progress(id string) (Progress, error) {
	j, ok := s.lookup(id)
	if !ok {
		return Progress{}, ErrNoSuchJob
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.progressLocked(), nil
}

// NextProgress blocks until the job publishes a progress snapshot with
// Seq > afterSeq, the job reaches a terminal state, or ctx is done. It
// returns (snapshot, true, nil) for a new snapshot and (last, false, nil)
// once the job is terminal — the streaming consumer then reads the final
// JobInfo. Pass the returned Seq back in to iterate.
func (s *Service) NextProgress(ctx context.Context, id string, afterSeq int64) (Progress, bool, error) {
	j, ok := s.lookup(id)
	if !ok {
		return Progress{}, false, ErrNoSuchJob
	}
	for {
		j.mu.Lock()
		p := j.progressLocked()
		if p.Seq > afterSeq {
			j.mu.Unlock()
			return p, true, nil
		}
		select {
		case <-j.done:
			// Terminal: a job that reports no more needs no wake channel.
			j.mu.Unlock()
			return p, false, nil
		default:
		}
		if j.progWake == nil {
			j.progWake = make(chan struct{})
		}
		wake := j.progWake
		j.mu.Unlock()
		select {
		case <-wake:
			continue
		case <-j.done:
			// Terminal; report a snapshot that raced the finish, if any.
			j.mu.Lock()
			p := j.progressLocked()
			j.mu.Unlock()
			if p.Seq > afterSeq {
				return p, true, nil
			}
			return p, false, nil
		case <-ctx.Done():
			return Progress{}, false, ctx.Err()
		}
	}
}

// JobPhase reports the lifecycle stage the job is in right now ("queued",
// "canon", "solve", "persist", "done").
func (s *Service) JobPhase(id string) (string, error) {
	j, ok := s.lookup(id)
	if !ok {
		return "", ErrNoSuchJob
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.phase, nil
}

// TracingEnabled reports whether per-job tracing is on (Config.TraceKeep
// was not negative).
func (s *Service) TracingEnabled() bool { return s.recorder != nil }

// Trace returns the completed span tree for one job. ErrNoSuchJob when the
// id is unknown; ErrNoTrace when the job exists but no completed trace is
// available (still running, evicted from the recorder, or tracing off).
// For a terminal job it first waits until finish has recorded the trace,
// so a Trace call made after Wait returns always finds it.
func (s *Service) Trace(id string) (*obs.TraceView, error) {
	j, known := s.lookup(id)
	if known {
		j.mu.Lock()
		terminal := !j.finished.IsZero()
		j.mu.Unlock()
		if terminal {
			<-j.recorded
		}
	}
	if v, ok := s.recorder.Trace(id); ok {
		return v, nil
	}
	if !known {
		return nil, ErrNoSuchJob
	}
	return nil, ErrNoTrace
}

// RecentTraces returns up to n completed traces, newest first (n <= 0 =
// everything the flight recorder holds).
func (s *Service) RecentTraces(n int) []*obs.TraceView {
	return s.recorder.Recent(n)
}

// finish moves a job to its terminal state. A nil result means the job
// was cancelled (or, with j.expired set, its deadline elapsed in queue).
func (s *Service) finish(j *job, res *Result, err error) {
	j.mu.Lock()
	switch {
	case err != nil:
		j.state = StateFailed
		j.err = err
		s.m.failed.Inc()
	case res == nil && j.expired && !j.canceled:
		j.state = StateExpired
		j.err = context.DeadlineExceeded
		s.m.expired.Inc()
	case res == nil || j.canceled:
		j.state = StateCanceled
		if res != nil {
			j.result = res
		}
		s.m.canceled.Inc()
	default:
		j.state = StateDone
		j.result = res
		s.m.completed.Inc()
	}
	state := j.state
	queueWait := j.queueWait
	var solveTime time.Duration
	ran := !j.started.IsZero()
	if ran {
		solveTime = time.Since(j.started)
	}
	j.finished = time.Now()
	j.phase = "done"
	j.g = nil
	j.ctx, j.cancel = nil, nil
	j.mu.Unlock()

	// Release the tenant's in-flight slot and the running gauge, and bound
	// the job history, before waking waiters: a client that resubmits or
	// reads /v1/stats the moment Wait returns must find its slot free and
	// the job no longer running (forget the oldest finished jobs beyond
	// MaxJobs; queued/running jobs are never pruned).
	if ran {
		s.running.Add(-1)
	}
	s.mu.Lock()
	if ts, ok := s.tenants[j.tenant]; ok {
		ts.inFlight--
	}
	s.finished = append(s.finished, j.id)
	for len(s.jobs) > s.cfg.MaxJobs && len(s.finished) > 0 {
		old := s.finished[0]
		s.finished = s.finished[1:]
		delete(s.jobs, old)
	}
	s.mu.Unlock()
	close(j.done)
	// Drop the progress wake channel once done is closed: a streamer
	// still waiting on it also waits on done, and one that looks after
	// this sees done closed and makes no channel.
	j.mu.Lock()
	j.progWake = nil
	j.mu.Unlock()

	// The job is terminal: retire its journal entry so a restart does not
	// resurrect it. Failures flip the journal degraded rather than
	// surfacing here (see DiskJournal); worst case a replay re-finishes an
	// already-answered job through the result cache.
	if s.journal != nil {
		persist := j.trace.StartSpan(j.rootSpan, "persist")
		err := s.journal.Done(j.id)
		persist.End(obs.Bool("journal_retire", err == nil))
		if err != nil {
			s.m.storeErrs.Inc()
		}
	}

	// Finalize the trace: a queue span still open here means the job never
	// reached a worker (expired or cancelled in queue); End is idempotent
	// for the normal path. The completed trace lands in the flight
	// recorder, feeding /v1/jobs/{id}/trace and the phase histograms.
	j.queueSpan.End()
	j.rootSpan.End(obs.String("outcome", state.String()))
	s.recorder.Record(j.trace)
	close(j.recorded)

	// One structured record per finished job: who, what, how long it
	// waited and ran, and how it ended. With tracing on, the per-phase
	// durations and the trace id correlate this line with the job's span
	// tree (the trace id is the request id when the client sent one).
	attrs := []any{
		"tenant", j.tenant, "job", j.id, "instance", j.name,
		"outcome", state.String(),
		"queue_wait_ms", queueWait.Milliseconds(),
	}
	if j.trace != nil {
		attrs = append(attrs,
			"solve_ms", j.trace.PhaseDuration("solve").Milliseconds(),
			"canon_ms", j.trace.PhaseDuration("canon").Milliseconds(),
			"persist_ms", j.trace.PhaseDuration("persist").Milliseconds(),
			"trace", j.trace.ID(),
		)
	} else {
		attrs = append(attrs, "solve_ms", solveTime.Milliseconds())
	}
	if res != nil {
		cache := "miss"
		if res.CacheHit {
			cache = "hit"
		}
		attrs = append(attrs, "cache", cache, "status", res.Status.String(), "chi", res.Chi)
	}
	s.logger.Info("job finished", attrs...)

	// The flight recorder holds its own copy of the trace.
	j.mu.Lock()
	j.trace, j.rootSpan, j.queueSpan = nil, nil, nil
	j.mu.Unlock()

	// From here on the table keeps only what the job reports; this struct,
	// its channels included, lives only as long as a caller holds it. An
	// entry already pruned stays pruned.
	fin := j.finishedCopy()
	s.mu.Lock()
	if s.jobs[j.id] == j {
		s.jobs[j.id] = fin
	}
	s.mu.Unlock()
}

func (j *job) info() JobInfo {
	j.mu.Lock()
	defer j.mu.Unlock()
	info := JobInfo{
		ID:        j.id,
		Tenant:    j.tenant,
		Instance:  j.name,
		Spec:      j.spec,
		State:     j.state.String(),
		Submitted: j.submitted,
		Started:   j.started,
		Finished:  j.finished,
		QueueWait: j.queueWait,
		Result:    j.result,
	}
	if j.coloring != nil {
		res := *j.result
		res.Coloring = make([]int, len(j.coloring))
		for v, c := range j.coloring {
			res.Coloring[v] = int(c)
		}
		info.Result = &res
	}
	if j.err != nil {
		info.Err = j.err.Error()
		var pe *PanicError
		if errors.As(j.err, &pe) {
			info.Stack = pe.Stack
		}
	}
	return info
}

// resultFromOutcome converts a core outcome (already in the submitted
// graph's numbering) to a service result.
func resultFromOutcome(out core.Outcome, spec JobSpec, canonExact bool) *Result {
	res := &Result{
		Status:     out.Result.Status,
		Solved:     out.Solved(),
		Chi:        out.Chi,
		Coloring:   out.Coloring,
		Runtime:    out.Result.Runtime,
		Conflicts:  out.Result.Stats.Conflicts,
		CanonExact: canonExact,
	}
	if out.Sym != nil {
		res.SBPVariant = sbp.VariantName
	}
	if out.Par != nil {
		res.ParWorkers = out.Par.Workers
		res.Cubes = out.Par.CubesGenerated
		res.CubesRefuted = out.Par.CubesRefuted
		res.CubesClosed = out.Par.CubesClosed
		res.ClausesShared = out.Par.ClausesExported
		res.ClausesImported = out.Par.ClausesImported
	}
	switch {
	case spec.Parallel > 1:
		res.Winner = out.Winner.String() // the engine par conquered with
	case spec.Portfolio:
		if res.Solved || res.Status == pbsolver.StatusSat {
			res.Winner = out.Winner.String()
		}
	default:
		res.Winner = spec.Engine.String()
	}
	return res
}

// canonicalize computes the canonical form of a plain (uncolored) graph,
// searching over the graph's own sorted lists.
func canonicalize(ctx context.Context, g *graph.Graph, maxNodes int64) *autom.Canonical {
	a := autom.FromAdjacency(g.Adjacency())
	return autom.CanonicalForm(a, autom.CanonicalOptions{MaxNodes: maxNodes, Context: ctx})
}
