package par

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cnf"
	"repro/internal/obs"
	"repro/internal/pb"
	"repro/internal/pbsolver"
	"repro/internal/solverutil"
)

// Optimize solves a 0-1 ILP formula with parallel cube-and-conquer: the
// instance is split into cubes (CubesPB), and a bounded pool of
// incremental pbsolver sessions conquers them, each cube installed as
// assumptions. Workers share one global incumbent — every improving model
// found in any cube tightens every worker's objective bound — and, unless
// disabled, exchange glue-grade learnt clauses at restarts.
//
// Termination is first-finisher-wins through a context derived from ctx:
// a worker that proves the instance as a whole (root-level contradiction,
// an infeasible objective bound, a feasible objective of 0, or — in
// decision mode — any satisfying model) cancels the rest of the pool.
// Otherwise the run ends when every cube is conquered (StatusOptimal or
// StatusUnsat, by the covering property of the cube tree) or the budget
// expires (StatusSat with the best incumbent, or StatusUnknown).
//
// With an empty objective this degenerates to a parallel decision solve —
// the mode pure CNF formulas run in (see pb.FromCNF): SAT (reported as
// StatusOptimal) the moment any cube is satisfiable, UNSAT when all cubes
// are closed.
func Optimize(ctx context.Context, f *pb.Formula, opts Options) Result {
	start := time.Now()
	workers := opts.workers()
	res := Result{}
	res.Status = pbsolver.StatusUnknown
	res.Par.Workers = workers
	if ctx.Err() != nil {
		res.Runtime = time.Since(start)
		return res
	}

	// Pin the shared wall-clock budget once (a worker scheduled late must
	// not restart the clock); the derived context is the single
	// cancellation path for deadline, caller cancellation, and
	// first-finisher-wins alike.
	base := opts.Solver
	if base.Engine == pbsolver.EngineBnB {
		base.Engine = pbsolver.EnginePBS // no incremental assumption core in BnB
	}
	var pctx context.Context
	var cancel context.CancelFunc
	if base.Timeout > 0 {
		pctx, cancel = context.WithTimeout(ctx, base.Timeout)
		base.Timeout = 0
	} else {
		pctx, cancel = context.WithCancel(ctx)
	}
	defer cancel()

	cs := CubesPB(f, CubeOptions{Depth: opts.cubeDepth(), Seed: opts.Seed})
	res.Par.CubesGenerated = int64(len(cs.Cubes))
	res.Par.CubesRefuted = cs.Refuted
	if cs.RootUnsat {
		res.Status = pbsolver.StatusUnsat
		res.Runtime = time.Since(start)
		return res
	}

	var exch *Exchange
	if opts.sharing() && workers > 1 {
		exch = NewExchange(exchangeCapacity)
	}
	decision := len(f.Objective) == 0

	// Shared conquest state.
	var (
		mu        sync.Mutex
		bestZ     = -1 // best feasible objective (global incumbent)
		bestModel cnf.Assignment
		satModel  cnf.Assignment // decision mode: first satisfying model
	)
	var (
		closed atomic.Int64 // cubes conquered definitively
		proven atomic.Bool  // whole-instance proof found early
	)
	merge := newMerger(base.Progress, base.ProgressInterval, workers, &res.Par, exch, &closed)
	merge.cubesTotal = int64(len(cs.Cubes))
	merge.best = func() int { mu.Lock(); defer mu.Unlock(); return bestZ }

	cubeCh := make(chan []cnf.Lit)
	go func() {
		defer close(cubeCh)
		for _, c := range cs.Cubes {
			select {
			case cubeCh <- c:
			case <-pctx.Done():
				return
			}
		}
	}()

	perWorker := make([]pbsolver.Stats, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(wid int) {
			defer wg.Done()
			_, wspan := obs.StartSpan(pctx, "solve.worker", obs.Int("worker", int64(wid)))
			o := base
			o.Progress = merge.hook(wid)
			if exch != nil {
				o.Export = exch.Exporter(wid)
				o.ExportLBD = opts.shareLBD()
				o.Import = exch.Importer(wid)
			}
			sess := pbsolver.NewSession(pctx, f, o)
			defer func() {
				st := sess.Stats()
				perWorker[wid] = st
				wspan.End(
					obs.Int("conflicts", st.Conflicts),
					obs.Int("restarts", st.Restarts),
					obs.Int("solver_calls", st.SolverCalls),
				)
			}()
			appliedBound := int(^uint(0) >> 1) // no bound yet
			for cube := range cubeCh {
				for {
					if pctx.Err() != nil {
						return
					}
					// Tighten to the global incumbent before (re)probing.
					mu.Lock()
					gb := bestZ
					mu.Unlock()
					if !decision && gb >= 0 && gb-1 < appliedBound {
						if gb == 0 || !sess.AddObjectiveBound(gb-1) {
							// Objective 0 cannot improve; an infeasible
							// bound refutes "objective < incumbent"
							// globally. Either way the optimum is proven.
							proven.Store(true)
							cancel()
							return
						}
						appliedBound = gb - 1
						sess.SetIncumbent(gb)
					}
					switch sess.DecideAssuming(cube) {
					case pbsolver.StatusSat:
						m := sess.Model()
						if decision {
							mu.Lock()
							if satModel == nil {
								satModel = m
							}
							mu.Unlock()
							proven.Store(true)
							cancel() // first finisher wins
							return
						}
						z := sess.ObjectiveValue(m)
						mu.Lock()
						if bestZ < 0 || z < bestZ {
							bestZ, bestModel = z, m
						}
						mu.Unlock()
						sess.SetIncumbent(z)
						// Loop: tighten the bound and re-probe this cube.
					case pbsolver.StatusUnsat:
						if sess.RootUnsat() {
							// Contradiction at level 0: the formula (plus
							// globally justified bounds) is refuted — not
							// just this cube.
							proven.Store(true)
							cancel()
							return
						}
						closed.Add(1)
						goto nextCube
					default: // budget exhausted
						return
					}
				}
			nextCube:
			}
		}(w)
	}
	wg.Wait()

	for _, st := range perWorker {
		res.Stats.Add(st)
		res.Stats.SolverCalls += st.SolverCalls
	}
	if exch != nil {
		res.Par.ClausesExported = exch.Exported()
		res.Par.ClausesImported = exch.Imported()
	}
	res.Par.CubesClosed = closed.Load()
	res.Runtime = time.Since(start)

	mu.Lock()
	defer mu.Unlock()
	switch {
	case decision && satModel != nil:
		res.Status = pbsolver.StatusOptimal // decision answered definitively
		res.Model = satModel
	case proven.Load():
		// Whole-instance proof: optimal when an incumbent exists (no
		// model beats it anywhere), UNSAT otherwise (no bound was ever
		// installed before the refutation, so the formula itself is out).
		if bestZ >= 0 {
			res.Status = pbsolver.StatusOptimal
			res.Model, res.Objective = bestModel, bestZ
		} else {
			res.Status = pbsolver.StatusUnsat
		}
	case closed.Load() == int64(len(cs.Cubes)):
		// Every generated cube was conquered definitively (counted one by
		// one — cancellation mid-feed leaves this short, so a truncated
		// run can never masquerade as a covering proof); the cube tree
		// covers the model space.
		if bestZ >= 0 {
			res.Status = pbsolver.StatusOptimal
			res.Model, res.Objective = bestModel, bestZ
		} else {
			res.Status = pbsolver.StatusUnsat
		}
	case bestZ >= 0:
		res.Status = pbsolver.StatusSat // feasible, optimality unproven
		res.Model, res.Objective = bestModel, bestZ
	}
	return res
}

// merger fans per-worker progress snapshots into one merged stream:
// counters are summed over every worker's latest snapshot, the cube and
// sharing gauges are attached, and emission is rate-limited once for the
// whole pool (the per-engine emitters already limited each worker).
type merger struct {
	mu      sync.Mutex
	emit    solverutil.ProgressEmitter
	per     []solverutil.Progress
	workers int

	cubesTotal int64
	stats      *Stats
	exch       *Exchange
	closed     *atomic.Int64
	best       func() int
}

func newMerger(fn solverutil.ProgressFunc, interval time.Duration, workers int, stats *Stats, exch *Exchange, closed *atomic.Int64) *merger {
	return &merger{
		emit:    solverutil.NewProgressEmitter(fn, interval),
		per:     make([]solverutil.Progress, workers),
		workers: workers,
		stats:   stats,
		exch:    exch,
		closed:  closed,
	}
}

// hook returns the pbsolver progress callback for one worker.
func (m *merger) hook(wid int) solverutil.ProgressFunc {
	if !m.emit.Enabled() {
		return nil
	}
	return func(p solverutil.Progress) { m.record(wid, p) }
}

func (m *merger) record(wid int, p solverutil.Progress) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.per[wid] = p
	if !m.emit.Ready() {
		return
	}
	merged := solverutil.Progress{
		Engine:    "par:" + p.Engine,
		Incumbent: m.best(),
	}
	if p.Engine == "" {
		merged.Engine = "par"
	}
	for i := range m.per {
		q := &m.per[i]
		merged.Conflicts += q.Conflicts
		merged.Decisions += q.Decisions
		merged.Propagations += q.Propagations
		merged.Restarts += q.Restarts
		merged.Learnts += q.Learnts
		merged.Reduces += q.Reduces
		merged.Removed += q.Removed
		merged.ChronoBacktracks += q.ChronoBacktracks
		merged.VivifiedLits += q.VivifiedLits
		merged.LBDUpdates += q.LBDUpdates
	}
	merged.Workers = m.workers
	merged.CubesTotal = m.cubesTotal
	merged.CubesClosed = m.closed.Load()
	merged.CubesRefuted = m.stats.CubesRefuted
	if m.exch != nil {
		merged.SharedExported = m.exch.Exported()
		merged.SharedImported = m.exch.Imported()
	}
	m.emit.Emit(merged)
}
