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

// Optimize solves a 0-1 ILP formula with parallel cube-and-conquer.
// Worker 0 starts at once on the whole formula: it runs the sequential
// linear-search loop on an assumption-free session. Beside it the instance
// is split into cubes (CubesPB), and workers 1..Workers−1 conquer them on
// incremental pbsolver sessions, each cube installed as assumptions. All
// workers share one global incumbent — every improving model found
// anywhere tightens every worker's objective bound — and, unless disabled,
// exchange glue-grade learnt clauses at restarts.
//
// Termination is first-finisher-wins through a context derived from ctx:
// a worker that proves the instance as a whole (worker 0 refuting the
// formula under its bound, a root-level contradiction in any worker, an
// infeasible objective bound, a feasible objective of 0, or — in decision
// mode — any satisfying model) cancels the rest of the pool, and so does
// the cube worker that closes the last open cube (StatusOptimal or
// StatusUnsat, by the covering property of the cube tree). Otherwise the
// run ends when the budget expires (StatusSat with the best incumbent, or
// StatusUnknown). Cube generation always runs to completion before
// Optimize returns, so the cube counters depend on the seed alone.
//
// With an empty objective this degenerates to a parallel decision solve —
// the mode pure CNF formulas run in (see pb.FromCNF): SAT (reported as
// StatusOptimal) the moment any worker finds a model, UNSAT when worker 0
// refutes the formula or all cubes are closed.
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

	var exch *Exchange
	if opts.sharing() && workers > 1 {
		exch = NewExchange(exchangeCapacity)
	}
	p := &pool{ctx: pctx, cancel: cancel, decision: len(f.Objective) == 0, bestZ: -1}
	merge := newMerger(base.Progress, base.ProgressInterval, workers, exch, p)

	// The generator runs beside worker 0 and feeds the cube workers once
	// the whole tree is built (the cube count must be known before the
	// first cube can close the cover).
	cubeCh := make(chan []cnf.Lit)
	var cs CubeSet
	generated := make(chan struct{})
	go func() {
		defer close(generated)
		defer close(cubeCh)
		cs = CubesPB(f, CubeOptions{Depth: opts.cubeDepth(), Seed: opts.Seed})
		p.refuted.Store(cs.Refuted)
		p.total.Store(int64(len(cs.Cubes)))
		if cs.RootUnsat || len(cs.Cubes) == 0 {
			// Propagation refuted the root, or every branch: the formula
			// has no model at all.
			p.prove()
			return
		}
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
	for wid := 0; wid < workers; wid++ {
		wg.Add(1)
		go func(wid int) {
			defer wg.Done()
			role := "cubes"
			if wid == 0 {
				role = "whole"
			}
			_, wspan := obs.StartSpan(pctx, "solve.worker", obs.Int("worker", int64(wid)))
			o := base
			o.Progress = merge.hook(wid)
			if exch != nil {
				o.Export = exch.Exporter(wid)
				o.ExportLBD = opts.shareLBD()
				o.Import = exch.Importer(wid)
			}
			w := &worker{pool: p, sess: pbsolver.NewSession(pctx, f, o), bound: int(^uint(0) >> 1)}
			defer func() {
				st := w.sess.Stats()
				perWorker[wid] = st
				wspan.End(
					obs.String("role", role),
					obs.Int("cubes_closed", w.closed),
					obs.Bool("proved", w.proved),
					obs.Int("conflicts", st.Conflicts),
					obs.Int("restarts", st.Restarts),
					obs.Int("solver_calls", st.SolverCalls),
				)
			}()
			if wid == 0 {
				w.conquer(nil)
				return
			}
			for cube := range cubeCh {
				if !w.conquer(cube) {
					return
				}
			}
		}(wid)
	}
	wg.Wait()
	cancel() // release a feeder no cube worker is left to drain
	<-generated

	for _, st := range perWorker {
		res.Stats.Add(st)
		res.Stats.SolverCalls += st.SolverCalls
	}
	if exch != nil {
		res.Par.ClausesExported = exch.Exported()
		res.Par.ClausesImported = exch.Imported()
	}
	res.Par.CubesGenerated = int64(len(cs.Cubes))
	res.Par.CubesRefuted = cs.Refuted
	res.Par.CubesClosed = p.closed.Load()
	res.Runtime = time.Since(start)

	p.mu.Lock()
	defer p.mu.Unlock()
	switch {
	case p.decision && p.satModel != nil:
		res.Status = pbsolver.StatusOptimal // decision answered definitively
		res.Model = p.satModel
	case p.proven.Load():
		// A whole-instance proof: optimal when an incumbent exists (no
		// model beats it anywhere), UNSAT otherwise (no bound was ever
		// installed before the refutation, so the formula itself is out).
		if p.bestZ >= 0 {
			res.Status = pbsolver.StatusOptimal
			res.Model, res.Objective = p.bestModel, p.bestZ
		} else {
			res.Status = pbsolver.StatusUnsat
		}
	case p.bestZ >= 0:
		res.Status = pbsolver.StatusSat // feasible, optimality unproven
		res.Model, res.Objective = p.bestModel, p.bestZ
	}
	return res
}

// pool is the state one parallel solve's workers share.
type pool struct {
	ctx      context.Context
	cancel   context.CancelFunc
	decision bool // no objective: the first model answers the instance

	mu        sync.Mutex
	bestZ     int // best feasible objective (global incumbent), −1 for none
	bestModel cnf.Assignment
	satModel  cnf.Assignment // decision mode: first satisfying model

	total   atomic.Int64 // cubes generated, stored before the first is fed
	refuted atomic.Int64 // branches the generator refuted
	closed  atomic.Int64 // cubes conquered definitively
	proven  atomic.Bool  // whole-instance proof found (or all cubes closed)
}

func (p *pool) best() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.bestZ
}

// prove records a whole-instance proof and stops the pool. It reports
// whether this was the first proof, the one that ended the run.
func (p *pool) prove() bool {
	first := p.proven.CompareAndSwap(false, true)
	p.cancel()
	return first
}

// worker is one conquer goroutine's engine and its own counters.
type worker struct {
	pool   *pool
	sess   *pbsolver.Session
	bound  int   // objective bound installed in sess so far
	closed int64 // cubes this worker closed
	proved bool  // this worker's proof ended the run
}

// conquer solves one cube to a definitive answer — the whole formula when
// cube is empty, as worker 0 does — re-probing it after every improving
// model until it is refuted under the tightened bound. It reports whether
// the cube closed and the worker should take another.
func (w *worker) conquer(cube []cnf.Lit) bool {
	p := w.pool
	for {
		if p.ctx.Err() != nil {
			return false
		}
		// Tighten to the global incumbent before (re)probing.
		if gb := p.best(); !p.decision && gb >= 0 && gb-1 < w.bound {
			if gb == 0 || !w.sess.AddObjectiveBound(gb-1) {
				// Objective 0 cannot improve; an infeasible bound refutes
				// "objective < incumbent" globally. Either way the optimum
				// is proven.
				w.proved = p.prove()
				return false
			}
			w.bound = gb - 1
			w.sess.SetIncumbent(gb)
		}
		switch w.sess.DecideAssuming(cube) {
		case pbsolver.StatusSat:
			m := w.sess.Model()
			p.mu.Lock()
			if p.decision {
				if p.satModel == nil {
					p.satModel = m
				}
				p.mu.Unlock()
				w.proved = p.prove() // first finisher wins
				return false
			}
			z := w.sess.ObjectiveValue(m)
			if p.bestZ < 0 || z < p.bestZ {
				p.bestZ, p.bestModel = z, m
			}
			p.mu.Unlock()
			w.sess.SetIncumbent(z)
			// Loop: tighten the bound and re-probe this cube.
		case pbsolver.StatusUnsat:
			if len(cube) == 0 || w.sess.RootUnsat() {
				// No assumptions, or a contradiction at level 0: the
				// formula (plus globally justified bounds) is refuted —
				// not just this cube.
				w.proved = p.prove()
				return false
			}
			w.closed++
			if p.closed.Add(1) == p.total.Load() {
				// The last open cube: the cube tree covers the model
				// space. Cubes are counted one by one as they close, so a
				// run cancelled mid-feed never gets here.
				w.proved = p.prove()
			}
			return true
		default: // budget exhausted
			return false
		}
	}
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

	exch *Exchange
	pool *pool
}

func newMerger(fn solverutil.ProgressFunc, interval time.Duration, workers int, exch *Exchange, pool *pool) *merger {
	return &merger{
		emit:    solverutil.NewProgressEmitter(fn, interval),
		per:     make([]solverutil.Progress, workers),
		workers: workers,
		exch:    exch,
		pool:    pool,
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
		Incumbent: m.pool.best(),
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
	merged.CubesTotal = m.pool.total.Load()
	merged.CubesClosed = m.pool.closed.Load()
	merged.CubesRefuted = m.pool.refuted.Load()
	if m.exch != nil {
		merged.SharedExported = m.exch.Exported()
		merged.SharedImported = m.exch.Imported()
	}
	m.emit.Emit(merged)
}
