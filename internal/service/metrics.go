package service

import (
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sbp"
)

// queueWaitBounds are the bucket bounds of the queue-wait histogram, 1 ms
// to 10 s (an implicit +Inf bucket follows).
var queueWaitBounds = []time.Duration{1e6, 5e6, 1e7, 2.5e7, 5e7, 1e8, 2.5e8, 5e8, 1e9, 2.5e9, 5e9, 1e10}

// metrics are the counters the service updates. Each is declared once in
// the service's registry, which renders /metrics and /v1/stats.
type metrics struct {
	submitted, completed, failed, canceled, expired *obs.Counter
	solverRuns, cacheHits, dedupJoins, storeErrs    *obs.Counter
	inexact, inexactSkip                            *obs.Counter
	canonGens, canonOrbit, canonPrefix              *obs.Counter
	panics, replayed                                *obs.Counter
	rejects                                         map[string]*obs.Counter // by admission reason
	queueWait                                       *obs.Histogram
	sbpRuns, sbpPerms, sbpClauses                   obs.Counter // the rows of sbp_variants
}

// declareMetrics declares every family and /v1/stats key of the service,
// in the order /metrics lists them, and makes the flight recorder, whose
// families come between the queue-wait histogram and the gauges, unless
// tracing is off.
func (s *Service) declareMetrics() {
	reg := obs.NewRegistry("gcolord_")
	s.reg = reg
	m := &s.m
	m.submitted = reg.Counter("jobs_submitted_total", "submitted", "Jobs accepted by POST /v1/jobs.")
	m.completed = reg.Counter("jobs_completed_total", "completed", "Jobs finished with a result.")
	m.failed = reg.Counter("jobs_failed_total", "failed", "Jobs that failed.")
	m.canceled = reg.Counter("jobs_canceled_total", "canceled", "Jobs canceled or timed out before a result.")
	m.expired = reg.Counter("jobs_expired_total", "expired", "Jobs whose deadline elapsed while still queued.")
	m.solverRuns = reg.Counter("solver_runs_total", "solver_runs", "Actual solver invocations (cache misses).")
	m.cacheHits = reg.Counter("cache_hits_total", "cache_hits", "Results served from the cache backend.")
	m.dedupJoins = reg.Counter("dedup_joins_total", "dedup_joins", "Submissions that joined an identical in-flight solve.")
	m.storeErrs = reg.Counter("store_errors_total", "store_errors", "Failed cache-backend writes.")
	m.inexact = reg.Counter("canon_inexact_total", "canon_inexact", "Canonical searches truncated by their node budget.")
	m.inexactSkip = reg.Counter("inexact_skips_total", "inexact_skips", "Solved results not persisted because their canonical key was inexact.")
	m.canonGens = reg.Counter("canon_generators_total", "canon_generators", "Automorphism generators discovered by canonical labeling searches.")
	m.canonOrbit = reg.Counter("canon_orbit_prunes_total", "canon_orbit_prunes", "Canonical search subtrees skipped via discovered-automorphism orbits.")
	m.canonPrefix = reg.Counter("canon_prefix_prunes_total", "canon_prefix_prunes", "Canonical search subtrees cut by incumbent prefix comparison.")
	reg.Table("sbp_variants,omitempty", "variant", []obs.Column{
		{Name: "sbp_runs_total", Field: "runs", Help: "Solver runs that emitted symmetry-breaking predicates, per SBP variant."},
		{Name: "sbp_perms_total", Field: "perms", Help: "Lex-leader permutations emitted, per SBP variant."},
		{Name: "sbp_clauses_total", Field: "clauses", Help: "CNF clauses added by symmetry-breaking predicates, per SBP variant."},
	}, func() []obs.Row {
		if s.m.sbpRuns.Load() == 0 {
			return nil
		}
		return []obs.Row{{Label: sbp.VariantName, Values: []int64{s.m.sbpRuns.Load(), s.m.sbpPerms.Load(), s.m.sbpClauses.Load()}}}
	})
	m.panics = reg.Counter("solver_panics_total", "panics", "Solver panics isolated into per-job failures.")
	m.replayed = reg.Counter("jobs_replayed_total", "replayed", "Jobs resurrected from the job journal at startup.")
	m.rejects = reg.Counters("rejects_total", "Submissions refused at admission, by reason.", "reason",
		obs.Series{Label: ReasonQueueFull, Key: "rejects_queue_full"},
		obs.Series{Label: ReasonOverQuota, Key: "rejects_over_quota"},
		obs.Series{Label: ReasonInvalidSpec, Key: "rejects_invalid_spec"},
		obs.Series{Label: ReasonDraining, Key: "rejects_draining"})
	reg.Table("tenants,omitempty", "tenant", []obs.Column{
		{Name: "tenant_accepts_total", Field: "accepts", Help: "Admitted submissions per tenant."},
		{Name: "tenant_rejects_total", Field: "rejects", Help: "Rate-limit and quota rejections per tenant."},
		{Name: "tenant_in_flight", Field: "in_flight", Help: "Queued plus running jobs per tenant.", Gauge: true},
	}, func() []obs.Row {
		s.mu.Lock()
		defer s.mu.Unlock()
		rows := make([]obs.Row, 0, len(s.tenants))
		for name, ts := range s.tenants {
			rows = append(rows, obs.Row{Label: name, Values: []int64{ts.accepts, ts.rejects, int64(ts.inFlight)}})
		}
		return rows
	})
	m.queueWait = reg.Histogram("queue_wait_seconds", "queue_wait", "Time jobs spend queued before a worker picks them up.", queueWaitBounds)
	if keep := s.cfg.TraceKeep; keep >= 0 {
		if keep == 0 {
			keep = 256
		}
		s.recorder = obs.NewRecorder(keep, reg)
	}
	reg.Gauge("cache_entries", "cache_entries", "Definitive records in the cache backend.", func() int64 { return int64(s.backend.Len()) })
	reg.Gauge("in_flight", "in_flight", "Solves currently leading a singleflight group.", func() int64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return int64(len(s.inflight))
	})
	reg.Gauge("queue_depth", "queue_depth", "Jobs queued but not yet started.", func() int64 { return int64(s.pq.len()) })
	reg.Gauge("running", "running", "Jobs currently solving.", s.running.Load)
	reg.Flag("draining", "draining", "1 while admission is refusing new work for shutdown.", s.Draining)
	reg.Flag("store_degraded", "store_degraded", "1 while a disk-backed component runs memory-only.", func() bool {
		for _, h := range s.healths() {
			if h.Degraded {
				return true
			}
		}
		return false
	})
	reg.Gauge("journal_pending", "journal_pending,omitempty", "Journaled jobs not yet terminal.", func() int64 {
		if s.journal == nil {
			return 0
		}
		return int64(s.journal.Pending())
	})
	reg.Table("", "component", []obs.Column{
		{Name: "component_degraded", Help: "Whether this disk-backed component is running memory-only.", Gauge: true},
		{Name: "component_degraded_flips_total", Help: "Healthy-to-degraded transitions per component."},
		{Name: "component_reopen_attempts_total", Help: "Background attempts to reattach the component's disk."},
		{Name: "component_write_errors_total", Help: "Writes that failed or were diverted to memory, per component."},
	}, func() (rows []obs.Row) {
		for name, h := range s.healths() {
			var degraded int64
			if h.Degraded {
				degraded = 1
			}
			rows = append(rows, obs.Row{Label: name, Values: []int64{degraded, h.Flips, h.ReopenAttempts, h.Errors}})
		}
		return rows
	})
	reg.Value("store_health,omitempty", func() any { return s.health("cache") })
	reg.Value("journal_health,omitempty", func() any { return s.health("journal") })
}

// Metrics returns the registry that /metrics and /v1/stats render. Read
// a value by its /v1/stats key through Metrics().Snapshot().
func (s *Service) Metrics() *obs.Registry { return s.reg }

// noteSBP folds one outcome's symmetry-breaking work into the
// sbp_variants row. Outcomes whose predicate layer never ran (Sym nil)
// contribute nothing.
func (s *Service) noteSBP(out core.Outcome) {
	if out.Sym != nil {
		s.m.sbpRuns.Inc()
		s.m.sbpPerms.Add(int64(out.Sym.PredicatePerms))
		s.m.sbpClauses.Add(int64(out.Sym.AddedCNF))
	}
}

// healths returns, by component, the Health of each disk-backed
// component that can degrade: the cache backend when it reports one, and
// the journal.
func (s *Service) healths() map[string]Health {
	h := make(map[string]Health, 2)
	if hr, ok := s.backend.(HealthReporter); ok {
		h["cache"] = hr.Health()
	}
	if s.journal != nil {
		h["journal"] = s.journal.Health()
	}
	return h
}

// health returns one component's Health, or nil when it has none.
func (s *Service) health(component string) any {
	if h, ok := s.healths()[component]; ok {
		return h
	}
	return nil
}
