// Package pbsolver implements the 0-1 ILP (pseudo-Boolean optimization)
// solvers the paper evaluates (§2.3, §4): three CDCL-based configurations
// standing in for the academic solvers PBS II, Galena and Pueblo, and a
// learning-free branch-and-bound configuration standing in for the generic
// commercial ILP solver CPLEX (see DESIGN.md "Substitutions").
//
// All CDCL engines share the Davis-Logemann-Loveland backtrack-search
// framework extended with watched-literal clause propagation, counter-based
// PB propagation, first-UIP clause learning and VSIDS decisions, exactly as
// the paper notes for the real solvers ("independent implementations based
// on the same algorithmic framework"). The engines differ in learning and
// restart policy:
//
//   - EnginePBS:    clause learning from PB conflicts, Luby restarts (base
//     100), decay 0.95 — the PBS II configuration.
//   - EngineGalena: EnginePBS plus cardinality-reduction (CARD) learning of
//     conflicting PB constraints — Galena's default per the paper.
//   - EnginePueblo: clause learning with a more aggressive restart schedule
//     (base 50) and faster decay 0.90 — Pueblo's hybrid behaviour.
//   - EngineBnB:    depth-first branch-and-bound without any learning,
//     chronological backtracking, static most-constrained variable order and
//     incumbent bounding — the CPLEX stand-in.
//
// Optimization uses linear objective strengthening by default (solve, add
// Σobj ≤ z−1, repeat) or binary search (BinarySearch, used by the ablation
// benches).
package pbsolver

import (
	"context"
	"fmt"
	"time"

	"repro/internal/cnf"
	"repro/internal/pb"
	"repro/internal/solverutil"
)

// Engine selects the solver configuration.
type Engine int

// Engines (see the package comment for the mapping to the paper's solvers).
const (
	EnginePBS Engine = iota
	EngineGalena
	EnginePueblo
	EngineBnB
)

func (e Engine) String() string {
	switch e {
	case EnginePBS:
		return "pbs2"
	case EngineGalena:
		return "galena"
	case EnginePueblo:
		return "pueblo"
	case EngineBnB:
		return "bnb"
	}
	return fmt.Sprintf("engine(%d)", int(e))
}

// Engines lists all four configurations in the paper's column order
// (PBS II, CPLEX, Galena, Pueblo re-ordered here as CDCL-first).
var Engines = []Engine{EnginePBS, EngineBnB, EngineGalena, EnginePueblo}

// Strategy selects how the optimization loop tightens the objective.
type Strategy int

// Optimization strategies.
const (
	// LinearSearch adds Σobj ≤ z−1 after each improving solution on one
	// incremental solver (PBS-style; learnt clauses are reused).
	LinearSearch Strategy = iota
	// BinarySearch bisects on the objective value with a fresh solver per
	// probe (ablation comparator).
	BinarySearch
)

// Status is the outcome of an Optimize or Decide call.
type Status int

// Statuses.
const (
	StatusUnknown Status = iota // budget exhausted, no feasible solution seen
	StatusSat                   // feasible solution found, optimality unproven
	StatusOptimal               // optimum proven (or SAT in decision mode)
	StatusUnsat                 // no feasible solution exists
)

func (s Status) String() string {
	switch s {
	case StatusSat:
		return "SAT"
	case StatusOptimal:
		return "OPTIMAL"
	case StatusUnsat:
		return "UNSAT"
	}
	return "UNKNOWN"
}

// Knobs are the engine search knobs a job may set. Each steers how an
// engine searches, never which answer it reaches; the zero value selects
// every engine default. core.Knobs embeds them, so the JSON tags are the
// gcolord wire names.
type Knobs struct {
	// ChronoThreshold enables chronological backtracking (Nadel & Ryvchin
	// 2018): when the backjump level is more than this many levels below
	// the conflict level, backtrack a single level instead and assert the
	// learnt clause there. 0 disables. Ignored by EngineBnB (which is
	// chronological by construction).
	ChronoThreshold int `json:"chrono_threshold,omitempty"`
	// VivifyBudget enables clause vivification at restarts: up to this
	// many propagations are spent per restart shrinking long clauses
	// whose suffix is implied. 0 disables. Ignored by EngineBnB.
	VivifyBudget int64 `json:"vivify_budget,omitempty"`
	// DynamicLBD recomputes learnt-clause LBDs during conflict analysis,
	// re-tiering glue clauses as the search evolves. Ignored by EngineBnB.
	DynamicLBD bool `json:"dynamic_lbd,omitempty"`
	// GlueLBD is the LBD at or below which learnt clauses are never
	// deleted (Audemard & Simon 2009); 0 selects 2.
	GlueLBD int `json:"glue_lbd,omitempty"`
	// ReduceInterval is the conflict count between learnt-database
	// reductions (the interval grows by ReduceInterval/8 after each
	// reduction); 0 selects 2000.
	ReduceInterval int64 `json:"reduce_interval,omitempty"`
	// RestartBase is the Luby restart unit in conflicts; 0 selects the
	// engine default (100, or 50 for EnginePueblo).
	RestartBase int64 `json:"restart_base,omitempty"`
}

// Options configure a solve.
type Options struct {
	Engine   Engine
	Strategy Strategy
	// MaxConflicts bounds total conflicts (CDCL) or backtracks (BnB) across
	// the whole optimization loop; 0 = unlimited.
	MaxConflicts int64
	// Timeout bounds wall-clock time relative to the Optimize/Decide call;
	// 0 = unlimited. Cancellation and caller-side deadlines are carried by
	// the context.Context passed to Decide/Optimize/PortfolioSolve.
	Timeout time.Duration
	// NoPhaseSaving disables progress saving on decisions.
	NoPhaseSaving bool
	// VarDecayOverride replaces the engine's VSIDS decay when nonzero
	// (used by ablation benches).
	VarDecayOverride float64
	Knobs
	// Export, when non-nil, receives every learnt clause whose LBD is at
	// or below ExportLBD (clause sharing between cooperating engines, e.g.
	// internal/par's cube-and-conquer workers). Called on the conflict
	// path with a reusable buffer: implementations must copy and be fast.
	// Ignored by EngineBnB (no learning).
	Export solverutil.ExportFunc
	// ExportLBD is the sharing threshold: only learnt clauses with LBD ≤
	// this are exported (0 selects solverutil.DefaultShareLBD).
	ExportLBD int
	// Import, when non-nil, is drained at every restart (and at the start
	// of each decision probe): the returned foreign clauses are attached
	// as learnt clauses. Every imported clause must be implied by this
	// engine's own database — in cube-and-conquer, by the shared formula
	// plus objective bounds justified by globally feasible incumbents (see
	// solverutil.SharedClause and internal/par). Ignored by EngineBnB.
	Import solverutil.ImportFunc
	// Progress, when non-nil, receives rate-limited snapshots of the
	// search counters from the solving goroutine: the engine's conflict /
	// restart / learnt / LBD counters plus the optimization loop's best
	// objective so far (Incumbent). Under PortfolioSolve every racing
	// engine invokes the same callback concurrently, each tagging its
	// snapshots with its Engine name, so implementations must be safe for
	// concurrent use and fast (slow callbacks stall the search).
	Progress solverutil.ProgressFunc
	// ProgressInterval is the minimum time between Progress calls per
	// engine; 0 selects solverutil.DefaultProgressInterval (200ms).
	// Improved incumbents are additionally reported immediately.
	ProgressInterval time.Duration
}

func (o Options) varDecay() float64 {
	if o.VarDecayOverride != 0 {
		return o.VarDecayOverride
	}
	if o.Engine == EnginePueblo {
		return 0.90
	}
	return 0.95
}

func (o Options) restartBase() int64 {
	if o.RestartBase != 0 {
		return o.RestartBase
	}
	if o.Engine == EnginePueblo {
		return 50
	}
	return 100
}

func (o Options) phaseSaving() bool { return !o.NoPhaseSaving }

func (o Options) glueLBD() int {
	if o.GlueLBD == 0 {
		return solverutil.DefaultGlueLBD
	}
	return o.GlueLBD
}

func (o Options) reduceInterval() int64 {
	if o.ReduceInterval == 0 {
		return solverutil.DefaultReduceInterval
	}
	return o.ReduceInterval
}

func (o Options) exportLBD() int {
	if o.ExportLBD == 0 {
		return solverutil.DefaultShareLBD
	}
	return o.ExportLBD
}

func (o Options) newBudget(ctx context.Context) *budget {
	var d time.Time
	if o.Timeout > 0 {
		d = time.Now().Add(o.Timeout)
	}
	// A context deadline earlier than the local timeout is carried by
	// ctx.Done() firing, so it needs no separate bookkeeping here.
	return &budget{deadline: d, maxConflicts: o.MaxConflicts, done: ctx.Done()}
}

// Stats aggregates search counters across all solver calls of one
// Optimize/Decide invocation.
type Stats struct {
	Decisions    int64
	Propagations int64
	Conflicts    int64
	Restarts     int64
	Learnts      int64
	LearntCards  int64 // Galena CARD-learnt constraints
	Reduces      int64 // learnt-database reductions
	Removed      int64 // learnt clauses deleted by reductions
	ArenaGCs     int64 // clause-arena compactions
	// ChronoBacktracks counts conflicts resolved by a one-level
	// chronological backtrack instead of a full backjump.
	ChronoBacktracks int64
	// VivifiedLits counts literals removed from clauses by vivification.
	VivifiedLits int64
	// LBDUpdates counts learnt clauses whose LBD improved during dynamic
	// recomputation.
	LBDUpdates int64
	// Exported and Imported count learnt clauses that crossed the
	// Options.Export / Options.Import sharing hooks.
	Exported    int64
	Imported    int64
	SolverCalls int64
	Nodes       int64 // BnB decision nodes
}

// Add accumulates another engine's counters into s (the merge operation
// the portfolio and internal/par use for per-worker stats). SolverCalls is
// deliberately left to the caller — call sites count probes differently.
func (s *Stats) Add(o Stats) { s.add(o) }

func (s *Stats) add(o Stats) {
	s.Decisions += o.Decisions
	s.Propagations += o.Propagations
	s.Conflicts += o.Conflicts
	s.Restarts += o.Restarts
	s.Learnts += o.Learnts
	s.LearntCards += o.LearntCards
	s.Reduces += o.Reduces
	s.Removed += o.Removed
	s.ArenaGCs += o.ArenaGCs
	s.ChronoBacktracks += o.ChronoBacktracks
	s.VivifiedLits += o.VivifiedLits
	s.LBDUpdates += o.LBDUpdates
	s.Exported += o.Exported
	s.Imported += o.Imported
	s.Nodes += o.Nodes
}

// Result reports the outcome of Optimize or Decide.
type Result struct {
	Status    Status
	Model     cnf.Assignment // valid when Status is StatusSat or StatusOptimal
	Objective int            // objective of Model (0 in decision mode)
	Stats     Stats
	Runtime   time.Duration
}

// buildCDCL loads a formula into a fresh CDCL engine. Returns nil when the
// formula is root-unsatisfiable.
func buildCDCL(f *pb.Formula, opts Options) *cdclEngine {
	e := newCDCL(opts)
	e.growTo(f.NumVars)
	e.db.ReserveBinary(f.Clauses)
	for _, c := range f.Clauses {
		if !e.addClause(c) {
			return nil
		}
	}
	for i := range f.Constraints {
		if !e.addConstraint(f.Constraints[i]) {
			return nil
		}
	}
	return e
}

// Decide solves the satisfiability of the formula, ignoring any objective.
// The search aborts (StatusUnknown, or the best incumbent so far) when ctx
// is cancelled or its deadline passes.
func Decide(ctx context.Context, f *pb.Formula, opts Options) Result {
	start := time.Now()
	if ctx.Err() != nil {
		return Result{Status: StatusUnknown, Runtime: time.Since(start)}
	}
	bgt := opts.newBudget(ctx)
	if opts.Engine == EngineBnB {
		return bnbDecide(f, opts, bgt, start)
	}
	e := buildCDCL(f, opts)
	if e == nil {
		return Result{Status: StatusUnsat, Runtime: time.Since(start)}
	}
	st := e.solveDecision(bgt)
	res := Result{Stats: e.stats, Runtime: time.Since(start)}
	res.Stats.SolverCalls = 1
	switch st {
	case StatusSat:
		res.Status = StatusOptimal // decision answered definitively
		res.Model = e.model()
	case StatusUnsat:
		res.Status = StatusUnsat
	default:
		res.Status = StatusUnknown
	}
	return res
}

// Optimize minimizes the formula's objective. With an empty objective it
// behaves like Decide. The search aborts when ctx is cancelled or its
// deadline passes.
func Optimize(ctx context.Context, f *pb.Formula, opts Options) Result {
	if len(f.Objective) == 0 {
		return Decide(ctx, f, opts)
	}
	start := time.Now()
	if ctx.Err() != nil {
		return Result{Status: StatusUnknown, Runtime: time.Since(start)}
	}
	bgt := opts.newBudget(ctx)
	if opts.Engine == EngineBnB {
		return bnbOptimize(f, opts, bgt, start)
	}
	if opts.Strategy == BinarySearch {
		return optimizeBinary(f, opts, bgt, start)
	}
	return optimizeLinear(f, opts, bgt, start)
}

// optimizeLinear is the PBS-style loop: one incremental solver, tightening
// the bound after each improving solution so learnt clauses are reused.
func optimizeLinear(f *pb.Formula, opts Options, bgt *budget, start time.Time) Result {
	res := Result{Status: StatusUnknown}
	e := buildCDCL(f, opts)
	if e == nil {
		return Result{Status: StatusUnsat, Runtime: time.Since(start)}
	}
	for {
		st := e.solveDecision(bgt)
		res.Stats = e.stats
		res.Stats.SolverCalls++
		switch st {
		case StatusSat:
			m := e.model()
			z := f.ObjectiveValue(m)
			res.Model = m
			res.Objective = z
			res.Status = StatusSat
			e.noteIncumbent(z)
			if z == 0 {
				res.Status = StatusOptimal
				res.Runtime = time.Since(start)
				return res
			}
			if !addObjectiveBound(e, f.Objective, z-1) {
				res.Status = StatusOptimal
				res.Runtime = time.Since(start)
				return res
			}
		case StatusUnsat:
			if res.Model != nil {
				res.Status = StatusOptimal
			} else {
				res.Status = StatusUnsat
			}
			res.Runtime = time.Since(start)
			return res
		default: // budget exhausted
			res.Runtime = time.Since(start)
			return res
		}
	}
}

// optimizeBinary bisects on the objective with a fresh solver per probe.
func optimizeBinary(f *pb.Formula, opts Options, bgt *budget, start time.Time) Result {
	res := Result{Status: StatusUnknown}
	probe := func(bound int, withBound bool) (Status, cnf.Assignment) {
		e := buildCDCL(f, opts)
		if e == nil {
			return StatusUnsat, nil
		}
		if res.Status == StatusSat {
			e.incumbent = res.Objective // carry the incumbent across probes
		}
		if withBound && !addObjectiveBound(e, f.Objective, bound) {
			return StatusUnsat, nil
		}
		st := e.solveDecision(bgt)
		res.Stats.add(e.stats)
		res.Stats.SolverCalls++
		if st == StatusSat {
			return StatusSat, e.model()
		}
		return st, nil
	}
	st, m := probe(0, false)
	switch st {
	case StatusUnsat:
		return Result{Status: StatusUnsat, Stats: res.Stats, Runtime: time.Since(start)}
	case StatusUnknown:
		res.Runtime = time.Since(start)
		return res
	}
	res.Model = m
	res.Objective = f.ObjectiveValue(m)
	res.Status = StatusSat
	lo, hi := 0, res.Objective-1
	for lo <= hi {
		mid := (lo + hi) / 2
		st, m := probe(mid, true)
		switch st {
		case StatusSat:
			res.Model = m
			res.Objective = f.ObjectiveValue(m)
			hi = res.Objective - 1
		case StatusUnsat:
			lo = mid + 1
		default:
			res.Runtime = time.Since(start)
			return res // budget exhausted mid-search: feasible, not proven
		}
	}
	res.Status = StatusOptimal
	res.Runtime = time.Since(start)
	return res
}

// addObjectiveBound adds Σobj ≤ bound to a live engine. Returns false when
// the bound is immediately infeasible.
func addObjectiveBound(e *cdclEngine, obj []pb.Term, bound int) bool {
	for _, c := range pb.Normalize(obj, pb.LE, bound) {
		if c.IsClause() {
			lits := make([]cnf.Lit, len(c.Terms))
			for i, t := range c.Terms {
				lits[i] = t.Lit
			}
			if !e.addClause(lits) {
				return false
			}
			continue
		}
		if !e.addConstraint(c) {
			return false
		}
	}
	return true
}

// EnumerateOptimal finds the optimum and then enumerates up to limit
// distinct optimal solutions projected onto the given variables (used to
// regenerate Figure 1: which color assignments survive each SBP). The
// returned Result carries the optimum; the slice holds one full model per
// distinct projection.
func EnumerateOptimal(ctx context.Context, f *pb.Formula, opts Options, project []int, limit int) ([]cnf.Assignment, Result) {
	res := Optimize(ctx, f, opts)
	if res.Status != StatusOptimal || len(f.Objective) == 0 {
		return nil, res
	}
	// Fresh engine with the objective pinned to the optimum.
	e := buildCDCL(f, opts)
	if e == nil {
		return nil, res
	}
	bgt := opts.newBudget(ctx)
	for _, c := range pb.Normalize(f.Objective, pb.EQ, res.Objective) {
		if !e.addConstraint(c) {
			return nil, res
		}
	}
	var models []cnf.Assignment
	for limit <= 0 || len(models) < limit {
		st := e.solveDecision(bgt)
		if st != StatusSat {
			break
		}
		m := e.model()
		models = append(models, m)
		// Block this projection.
		block := make([]cnf.Lit, 0, len(project))
		for _, v := range project {
			if m.Lit(cnf.PosLit(v)) {
				block = append(block, cnf.NegLit(v))
			} else {
				block = append(block, cnf.PosLit(v))
			}
		}
		if len(block) == 0 || !e.addClause(block) {
			break
		}
	}
	res.Stats.add(e.stats)
	return models, res
}
