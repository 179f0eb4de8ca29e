package main

import (
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

// summary condenses a measured phase.
type summary struct {
	attempted, solved, answered int
	wrong                       []string
	latencies                   []float64 // ms, one per job that reached its result event
	jobsPerS, cpuMSPerJob       float64
}

func summarize(p phase) summary {
	s := summary{attempted: len(p.answers)}
	for _, a := range p.answers {
		if a.id != "" && a.latency > 0 {
			s.answered++
			s.latencies = append(s.latencies, ms(a.latency))
		}
		if a.solved {
			s.solved++
		}
		if a.wrong != "" {
			s.wrong = append(s.wrong, a.wrong)
		}
	}
	s.jobsPerS = float64(s.answered) / p.wall.Seconds()
	if s.answered > 0 {
		s.cpuMSPerJob = ms(p.cpu) / float64(s.answered)
	}
	return s
}

// endToEnd is what a user of the service sees from the measured phase.
func endToEnd(s summary, rssMB, setupS float64) metrics {
	m := metrics{}
	m.set("jobs_per_s", "1/s", s.jobsPerS)
	m.set("latency_p50_ms", "ms", quantile(s.latencies, 0.5))
	m.set("latency_p90_ms", "ms", quantile(s.latencies, 0.9))
	m.set("solved_frac", "ratio", float64(s.solved)/float64(max(s.attempted, 1)))
	m.set("cpu_ms_per_job", "ms", s.cpuMSPerJob)
	m.set("peak_rss_mb", "MB", rssMB)
	m.set("setup_s", "s", setupS)
	return m
}

// perLayer derives the per-layer metrics from the traced phase, its spans
// and the replay, plus the tracing overhead against the untraced phase.
func perLayer(p phase, untraced summary, spans []span, reps []replayed) metrics {
	traced := summarize(p)
	m := metrics{}
	byName := make(map[string][]span)
	for _, s := range spans {
		byName[s.Name] = append(byName[s.Name], s)
	}
	p50 := func(name string) float64 { return quantile(durMS(byName[name]), 0.5) }

	// Service side, from the traced traffic.
	m.set("httpapi.submit_p50_ms", "ms", p50("httpapi.submit"))
	var submitSelf []float64
	self := selfTimes(spans)
	for i, s := range spans {
		if s.Name == "httpapi.submit" {
			submitSelf = append(submitSelf, ms(self[i]))
		}
	}
	m.set("httpapi.submit_self_p50_ms", "ms", quantile(submitSelf, 0.5))
	var waits []float64
	hits := 0
	for _, a := range p.answers {
		if a.solved {
			waits = append(waits, ms(a.queueWait))
			if a.cacheHit {
				hits++
			}
		}
	}
	m.set("service.queue_wait_p90_ms", "ms", quantile(waits, 0.9))
	m.set("service.cache_hit_frac", "ratio", float64(hits)/float64(max(len(waits), 1)))
	m.set("service.solve_p50_ms", "ms", p50("service.solve"))
	m.set("store.get_p50_ms", "ms", p50("store.get"))
	m.set("store.put_p50_ms", "ms", p50("store.put"))
	journal := make(map[string]time.Duration)
	recorded := make(map[string]bool)
	for _, s := range byName["store.journal.record"] {
		journal[s.Job] += s.dur()
		recorded[s.Job] = true
	}
	var journalMS []float64
	for _, s := range byName["store.journal.done"] {
		if recorded[s.Job] {
			journalMS = append(journalMS, ms(journal[s.Job]+s.dur()))
		}
	}
	m.set("store.journal_p50_ms", "ms", quantile(journalMS, 0.5))

	// Pipeline layers, from the replay.
	m.set("autom.canon_p50_ms", "ms", p50("autom.canon"))
	m.set("encode.build_p50_ms", "ms", p50("encode.build"))
	m.set("symgraph.detect_p50_ms", "ms", p50("symgraph.detect"))
	m.set("sbp.add_p50_ms", "ms", p50("sbp.add"))
	search := durMS(byName["pbsolver.search"])
	m.set("pbsolver.search_p50_ms", "ms", quantile(search, 0.5))
	m.set("pbsolver.search_p90_ms", "ms", quantile(search, 0.9))
	m.set("par.search_p50_ms", "ms", p50("par.search"))

	var c struct {
		all, solver, detected, pbs, par                int64
		nodes, clauses, gens, sbpClauses, confl, props int64
		cubes, refuted, imported                       int64
	}
	solveByJob := make(map[string]time.Duration)
	for _, s := range byName["service.solve"] {
		solveByJob[s.Job] = s.dur()
	}
	var gaps []float64
	var symTime, symSolve time.Duration
	for _, r := range reps {
		c.all++
		c.nodes += r.canonNodes
		if !r.solver {
			continue
		}
		c.solver++
		c.clauses += r.clauses
		if r.detected {
			c.detected++
			c.gens += r.generators
			c.sbpClauses += r.sbpClauses
		}
		if r.racer == "par" {
			c.par++
			c.cubes += r.par.CubesGenerated
			c.refuted += r.par.CubesRefuted
			c.imported += r.par.ClausesImported
		} else {
			c.pbs++
			c.confl += r.stats.Conflicts
			c.props += r.stats.Propagations
		}
		if d, ok := solveByJob[r.id]; ok {
			gaps = append(gaps, ms(d-r.inSolve))
			if r.detected {
				symSolve += d
			}
		}
	}
	for _, name := range []string{"symgraph.detect", "sbp.add"} {
		for _, s := range byName[name] {
			symTime += s.dur()
		}
	}
	per := func(x, n int64) float64 { return float64(x) / float64(max(n, 1)) }
	m.set("autom.canon_nodes_per_job", "count", per(c.nodes, c.all))
	m.set("encode.clauses_per_job", "count", per(c.clauses, c.solver))
	m.set("symgraph.generators_per_job", "count", per(c.gens, c.detected))
	m.set("sbp.clauses_per_job", "count", per(c.sbpClauses, c.detected))
	m.set("pbsolver.conflicts_per_job", "count", per(c.confl, c.pbs))
	m.set("pbsolver.propagations_per_job", "count", per(c.props, c.pbs))
	m.set("par.cubes_per_job", "count", per(c.cubes, c.par))
	m.set("par.cubes_refuted_frac", "ratio", per(c.refuted, c.cubes+c.refuted))
	m.set("par.imported_per_job", "count", per(c.imported, c.par))

	// What the replay does not account for, and what tracing costs.
	m.set("trace.unattributed_p50_ms", "ms", quantile(gaps, 0.5))
	symFrac := 0.0
	if symSolve > 0 {
		symFrac = float64(symTime) / float64(symSolve)
	}
	m.set("trace.symmetry_frac", "ratio", symFrac)
	m.set("trace.overhead_p50_ms", "ms", quantile(traced.latencies, 0.5)-quantile(untraced.latencies, 0.5))
	m.set("trace.overhead_frac", "ratio", 1-traced.jobsPerS/untraced.jobsPerS)
	return m
}

func durMS(spans []span) []float64 {
	out := make([]float64, len(spans))
	for i, s := range spans {
		out[i] = ms(s.dur())
	}
	return out
}
