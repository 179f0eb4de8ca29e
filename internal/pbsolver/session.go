package pbsolver

import (
	"context"

	"repro/internal/cnf"
	"repro/internal/pb"
)

// Session is an incremental handle on one CDCL engine: the formula is
// loaded once, and repeated assumption-based decision probes reuse all
// learning (clauses, activities, saved phases) across calls. It is the
// engine-side primitive of internal/par's cube-and-conquer scheduler: each
// conquer worker owns one Session, solves cube after cube through
// DecideAssuming, and tightens the shared objective bound with
// AddObjectiveBound as global incumbents improve.
//
// A Session is not safe for concurrent use; parallelism comes from running
// one Session per goroutine (they may share Export/Import hooks — see
// Options). EngineBnB has no incremental core; NewSession falls back to
// EnginePBS for it.
type Session struct {
	e         *cdclEngine
	f         *pb.Formula
	bgt       *budget
	rootUnsat bool
	stats     Stats
}

// NewSession loads the formula into a fresh CDCL engine. The ctx and
// opts.Timeout/opts.MaxConflicts budgets are pinned at creation and span
// every probe of the session (Timeout is relative to the NewSession call).
// A root-unsatisfiable formula yields a usable session whose probes all
// return StatusUnsat with RootUnsat() true.
func NewSession(ctx context.Context, f *pb.Formula, opts Options) *Session {
	if opts.Engine == EngineBnB {
		opts.Engine = EnginePBS
	}
	s := &Session{f: f, bgt: opts.newBudget(ctx)}
	s.e = buildCDCL(f, opts)
	if s.e == nil {
		s.rootUnsat = true
	}
	return s
}

// DecideAssuming runs one decision probe with the assumptions enforced as
// the first decisions. StatusUnsat means "no model under the assumptions";
// when RootUnsat() additionally reports true, the database itself is
// contradictory and every future probe is StatusUnsat too.
func (s *Session) DecideAssuming(assumptions []cnf.Lit) Status {
	if s.rootUnsat {
		return StatusUnsat
	}
	st := s.e.solveDecisionAssuming(s.bgt, assumptions)
	s.stats.SolverCalls++
	if s.e.unsatNow {
		s.rootUnsat = true
	}
	return st
}

// OnConflicts arranges for fn to run once, when the session's conflicts,
// counted across all its probes as MaxConflicts counts them, reach n. It
// runs on the goroutine probing the session, in the middle of a probe that
// goes on searching after fn returns, so fn must not use the session.
// internal/par uses it to start cube conquest only once worker 0 has
// searched for a while. A root-unsatisfiable session never calls fn.
func (s *Session) OnConflicts(n int64, fn func()) {
	s.bgt.markAt, s.bgt.onMark = n, fn
}

// AddObjectiveBound adds Σ objective ≤ bound to the live engine. Returns
// false when the bound is infeasible at the root — given that every clause
// in the engine is implied by the formula plus previously justified
// bounds, that refutes "objective ≤ bound" globally, not just in the
// current cube. The engine remains usable either way.
func (s *Session) AddObjectiveBound(bound int) bool {
	if s.rootUnsat {
		return false
	}
	if !addObjectiveBound(s.e, s.f.Objective, bound) {
		s.rootUnsat = s.e.unsatNow
		return false
	}
	return true
}

// RootUnsat reports whether the engine derived a contradiction at decision
// level 0 (as opposed to under some probe's assumptions).
func (s *Session) RootUnsat() bool { return s.rootUnsat }

// Model returns the satisfying assignment after a StatusSat probe.
func (s *Session) Model() cnf.Assignment { return s.e.model() }

// ObjectiveValue evaluates the formula's objective under a model.
func (s *Session) ObjectiveValue(m cnf.Assignment) int { return s.f.ObjectiveValue(m) }

// SetIncumbent records the optimization loop's best objective so far for
// progress snapshots (milestone-reported immediately, like the sequential
// loop's noteIncumbent).
func (s *Session) SetIncumbent(z int) {
	if s.e != nil {
		s.e.noteIncumbent(z)
	}
}

// Stats returns the engine's accumulated search counters plus the
// session's own probe count.
func (s *Session) Stats() Stats {
	if s.e == nil {
		return s.stats
	}
	st := s.e.stats
	st.SolverCalls = s.stats.SolverCalls
	return st
}
