package pbsolver

import (
	"context"
	"sync"

	"repro/internal/obs"
	"repro/internal/pb"
)

// PortfolioOptions configure a portfolio run.
type PortfolioOptions struct {
	// Base is the options template; the Engine field is managed per worker
	// and Base.Timeout is pinned once for the whole portfolio.
	Base Options
	// Engines lists the configurations to race (default: all four).
	Engines []Engine
}

// PortfolioResult is the merged outcome of a portfolio run: the winning
// engine's result, except that Stats sums the counters of every engine.
type PortfolioResult struct {
	Result
	// Winner is the engine that produced the returned result (meaningful
	// when Status is not StatusUnknown).
	Winner Engine
	// PerEngine reports each engine's own outcome, in Engines order.
	PerEngine []Result
}

// PortfolioSolve runs several engine configurations on the same formula
// concurrently and returns the first definitive answer (Optimal or Unsat),
// cancelling the laggards through a context derived from ctx. The paper's
// methodology — treating solvers as interchangeable black boxes over one
// problem reduction (§1, §2.3) — makes this composition natural: different
// engines win on different instances, and the portfolio takes the
// per-instance minimum at the cost of parallel hardware.
//
// Cancelling ctx aborts every engine promptly; an already-cancelled ctx
// returns StatusUnknown without starting any engine. The formula is shared
// read-only across workers (engines keep all mutable state internal). When
// no engine finishes definitively within the budget, the best feasible
// incumbent (lowest objective) is returned.
func PortfolioSolve(ctx context.Context, f *pb.Formula, opts PortfolioOptions) PortfolioResult {
	engines := opts.Engines
	if len(engines) == 0 {
		engines = append([]Engine(nil), Engines...)
	}
	out := PortfolioResult{PerEngine: make([]Result, len(engines))}
	out.Status = StatusUnknown
	if ctx.Err() != nil {
		return out
	}
	// Pin the shared wall-clock budget once so a worker scheduled late does
	// not restart the clock; the derived context is the single cancellation
	// path for deadline, caller cancellation and laggard stopping alike.
	base := opts.Base
	var pctx context.Context
	var cancel context.CancelFunc
	if base.Timeout > 0 {
		pctx, cancel = context.WithTimeout(ctx, base.Timeout)
		base.Timeout = 0
	} else {
		pctx, cancel = context.WithCancel(ctx)
	}
	defer cancel()
	var once sync.Once
	type tagged struct {
		idx int
		res Result
	}
	results := make(chan tagged, len(engines))
	for i, eng := range engines {
		go func(i int, eng Engine) {
			ectx, espan := obs.StartSpan(pctx, "solve.engine",
				obs.String("engine", eng.String()))
			o := base
			o.Engine = eng
			res := Optimize(ectx, f, o)
			espan.End(
				obs.String("status", res.Status.String()),
				obs.Int("conflicts", res.Stats.Conflicts),
				obs.Int("restarts", res.Stats.Restarts),
			)
			if res.Status == StatusOptimal || res.Status == StatusUnsat {
				once.Do(cancel)
			}
			results <- tagged{i, res}
		}(i, eng)
	}
	// Summed apart from out: adopting a better result overwrites out.Stats.
	var total Stats
	winner := -1
	for range engines {
		t := <-results
		out.PerEngine[t.idx] = t.res
		better := false
		switch t.res.Status {
		case StatusOptimal, StatusUnsat:
			// The first definitive answer wins (later ones were cancelled
			// or tied).
			better = out.Status != StatusOptimal && out.Status != StatusUnsat
		case StatusSat:
			better = out.Status == StatusUnknown ||
				(out.Status == StatusSat && t.res.Objective < out.Objective)
		}
		if better {
			out.Result = t.res
			winner = t.idx
		}
		total.add(t.res.Stats)
		total.SolverCalls += t.res.Stats.SolverCalls
	}
	out.Stats = total
	if winner >= 0 {
		out.Winner = engines[winner]
	}
	return out
}
