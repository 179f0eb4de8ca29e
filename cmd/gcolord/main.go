// Command gcolord serves the concurrent coloring service over an HTTP JSON
// API. Submitted graphs are scheduled on a priority worker pool behind a
// multi-tenant admission controller; results are cached under a canonical
// form of the graph, so isomorphic submissions — from any client — are
// solved once and served many times.
//
// Usage:
//
//	gcolord -addr :8080 -workers 8 -timeout 60s
//	gcolord -store.dir /var/lib/gcolord       # restart-safe cache + job journal
//	gcolord -tenant.rate 10 -tenant.burst 20  # per-tenant token bucket
//	gcolord -tenant.maxinflight 64            # per-tenant in-flight quota
//	gcolord -drain 30s                        # SIGTERM grace for in-flight jobs
//	gcolord -log.json                         # structured logs as JSON
//	gcolord -pprof                            # additionally expose /debug/pprof
//
// With -store.dir, gcolord is crash-safe: accepted jobs are journaled
// before the submission is acknowledged (the journal lives in the
// journal/ subdirectory of the store), and a restarted daemon replays
// whatever a crash left pending — queued and running jobs resume, expired
// ones finish as "expired". Disk failures never take the daemon down:
// the cache backend and the journal each degrade to memory-only and
// reattach in the background (watch store_degraded in /v1/stats).
//
// On SIGTERM/SIGINT the daemon drains: admission answers 503 "draining"
// (and /readyz goes 503 so balancers stop routing here), in-flight jobs
// get up to -drain to finish, then the listener shuts down. A second
// signal skips the grace period.
//
// The HTTP surface lives in internal/httpapi (full reference in
// docs/API.md):
//
//	POST   /v1/jobs              submit a job; returns {"id": ...}
//	GET    /v1/jobs              list all jobs
//	GET    /v1/jobs/{id}         job status snapshot
//	GET    /v1/jobs/{id}/result  result (202 while pending)
//	GET    /v1/jobs/{id}/events  NDJSON stream: progress, heartbeats, result
//	GET    /v1/jobs/{id}/trace   completed job's span tree (see -trace.keep)
//	GET    /v1/trace/recent      newest completed traces, newest first
//	DELETE /v1/jobs/{id}         cancel the job
//	GET    /v1/stats             service + admission counters
//	GET    /v1/store             persistent-store counters (with -store.dir)
//	GET    /metrics              Prometheus text exposition of the same counters
//	GET    /healthz              liveness probe
//	GET    /readyz               readiness probe (503 while draining)
//
// Clients identify themselves with the X-Tenant header (absent = the
// "default" tenant); each tenant gets its own token-bucket rate limit and
// in-flight quota. Every non-2xx /v1 response carries the unified error
// envelope {"error": {"code", "message", "retry_after_ms"}}, and rejected
// submissions answer 429 with a Retry-After hint instead of blocking.
//
// The -chaos.solvedelay flag holds every solve for a fixed time, so crash
// drills and the crashtest suite can catch the daemon with jobs in
// flight; it has no place in production service.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/faultinject"
	"repro/internal/httpapi"
	"repro/internal/service"
	"repro/internal/store"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	addrFile := flag.String("addr.file", "", "write the actually-bound listen address to this file (for :0 listeners in tests)")
	workers := flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
	queueDepth := flag.Int("queue", 1024, "max queued jobs before submissions are rejected")
	timeout := flag.Duration("timeout", time.Minute, "default per-job solve budget")
	cacheCap := flag.Int("cache", 4096, "canonical result cache capacity (memory backend)")
	canonMaxNodes := flag.Int64("canon.maxnodes", 0, "node budget per canonical labeling search (0 = package default); exhausted searches yield inexact, non-persisted cache keys")
	storeDir := flag.String("store.dir", "", "persist the result cache and job journal in this directory (snapshot+WAL); empty = memory only")
	storeMaxAge := flag.Duration("store.maxage", 0, "drop persisted records older than this at compaction (0 = keep forever)")
	storeMaxBytes := flag.Int64("store.maxbytes", 0, "target on-disk size of the persistent cache; oldest records dropped at compaction (0 = unbounded)")
	storeSync := flag.Bool("store.sync", false, "fsync every journal append (durable against power loss, not just process crashes)")
	heartbeat := flag.Duration("heartbeat", 10*time.Second, "idle heartbeat interval on /v1/jobs/{id}/events streams")
	reqTimeout := flag.Duration("req.timeout", 30*time.Second, "per-request timeout on non-streaming /v1 endpoints (<0 disables)")
	drain := flag.Duration("drain", 30*time.Second, "SIGTERM grace: how long in-flight jobs may finish before they are canceled")
	enablePprof := flag.Bool("pprof", false, "expose /debug/pprof (profiling) on the same listener")
	traceKeep := flag.Int("trace.keep", 256, "completed job traces kept by the flight recorder (/v1/jobs/{id}/trace); 0 disables tracing")
	tenantRate := flag.Float64("tenant.rate", 0, "per-tenant submissions per second (token bucket; 0 = unlimited)")
	tenantBurst := flag.Int("tenant.burst", 0, "per-tenant token-bucket burst (0 = derived from -tenant.rate)")
	tenantInFlight := flag.Int("tenant.maxinflight", 0, "per-tenant queued+running job quota (0 = unlimited)")
	aging := flag.Duration("aging", 30*time.Second, "queue aging step: backlog a priority class overtakes per level")
	maxVertices := flag.Int("max.vertices", 0, "reject graphs with more vertices (413 graph_too_large; 0 = 100000)")
	maxEdges := flag.Int("max.edges", 0, "reject graphs with more edges (413 graph_too_large; 0 = 10000000)")
	logJSON := flag.Bool("log.json", false, "emit structured logs as JSON instead of text")
	chaosDelay := flag.Duration("chaos.solvedelay", 0, "fault injection: hold every solve this long before running it")
	flag.Parse()

	var h slog.Handler = slog.NewTextHandler(os.Stderr, nil)
	if *logJSON {
		h = slog.NewJSONHandler(os.Stderr, nil)
	}
	logger := slog.New(h)

	// With a store directory, both disk components self-heal: the cache
	// backend is wrapped so write failures flip it memory-only with
	// background reopens, and the job journal (journal/ subdirectory)
	// behaves the same internally.
	var backend service.Backend
	var journal service.Journal
	var diskStats service.StoreStatser
	if *storeDir != "" {
		storeOpts := store.Options{
			MaxAge:   *storeMaxAge,
			MaxBytes: *storeMaxBytes,
		}
		disk, err := service.OpenDiskBackendOptions(*storeDir, storeOpts)
		if err != nil {
			log.Fatalf("gcolord: open store: %v", err)
		}
		resilient := service.NewResilientBackend(disk, func() (service.Backend, error) {
			return service.OpenDiskBackendOptions(*storeDir, storeOpts)
		}, logger)
		backend = resilient
		diskStats = resilient
		logger.Info("persistent cache opened", "dir", *storeDir, "records", disk.Len())

		journalDir := filepath.Join(*storeDir, "journal")
		journal, err = service.OpenDiskJournal(journalDir, store.Options{SyncWrites: *storeSync}, logger)
		if err != nil {
			log.Fatalf("gcolord: open job journal: %v", err)
		}
		logger.Info("job journal opened", "dir", journalDir, "pending", journal.Pending())
	}

	var solve service.SolveFunc
	if *chaosDelay > 0 {
		solve = faultinject.Delay(service.DefaultSolve, *chaosDelay)
	}

	svc := service.New(service.Config{
		Workers:           *workers,
		QueueDepth:        *queueDepth,
		DefaultTimeout:    *timeout,
		CanonMaxNodes:     *canonMaxNodes,
		CacheCapacity:     *cacheCap,
		Backend:           backend,
		Journal:           journal,
		AgingStep:         *aging,
		TenantRate:        *tenantRate,
		TenantBurst:       *tenantBurst,
		TenantMaxInFlight: *tenantInFlight,
		TraceKeep:         traceKeepConfig(*traceKeep),
		Logger:            logger,
		Solve:             solve,
	})
	handler := httpapi.New(httpapi.Config{
		Service:        svc,
		Disk:           diskStats,
		Heartbeat:      *heartbeat,
		RequestTimeout: *reqTimeout,
		EnablePprof:    *enablePprof,
		Logger:         logger,
		MaxVertices:    *maxVertices,
		MaxEdges:       *maxEdges,
	})
	srv := &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
		// Idle keep-alive connections are reaped so a crowd of silent
		// clients cannot pin file descriptors forever.
		IdleTimeout: 2 * time.Minute,
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("gcolord: listen: %v", err)
	}
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(ln.Addr().String()), 0o644); err != nil {
			log.Fatalf("gcolord: write -addr.file: %v", err)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		stop() // a second signal kills the process the default way
		logger.Info("shutdown signal received; draining", "grace", *drain)
		dctx, cancel := context.WithTimeout(context.Background(), *drain)
		if err := svc.Drain(dctx); err != nil {
			logger.Warn("drain grace elapsed; canceling in-flight jobs", "err", err)
			svc.CancelAll()
		}
		cancel()
		shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(shutCtx)
	}()

	logger.Info("gcolord listening",
		"addr", ln.Addr().String(), "workers", *workers, "queue", *queueDepth,
		"timeout", *timeout, "drain", *drain,
		"tenant_rate", *tenantRate, "tenant_maxinflight", *tenantInFlight)
	if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatalf("gcolord: %v", err)
	}
	svc.Close()
	logger.Info("gcolord stopped")
}

// traceKeepConfig maps the -trace.keep flag onto service.Config.TraceKeep:
// the flag's 0 ("don't keep traces") selects the config's negative value
// ("tracing disabled"), and positive values pass through as the flight
// recorder's ring size.
func traceKeepConfig(n int) int {
	if n <= 0 {
		return -1
	}
	return n
}
