// Package par is the parallel cube-and-conquer subsystem. Worker 0 solves
// the whole formula at once, as one engine would; beside it, a
// lookahead-based generator (cube.go) splits the symmetry-reduced search
// space of the encoded instance into cubes, and the other workers of a
// bounded pool of incremental internal/pbsolver sessions conquer them,
// each seeded with its cube as assumptions (conquer.go). All workers
// exchange glue-grade learnt clauses through a lock-light ring buffer
// (exchange.go), in the style of Glucose-syrup portfolio solvers. A
// formula without an objective, such as a pure CNF decision instance, is
// conquered as a decision problem.
//
// Soundness rests on four invariants:
//
//  1. Cubes cover the space. The generated cubes are the leaves of one
//     branching tree; every pruned branch was refuted by propagation and
//     therefore contains no models. Any model of the formula satisfies at
//     least one cube, so "all cubes conquered" is a proof for the whole
//     instance, and the cubes are pairwise disjoint (sibling branches
//     differ in the branch literal's phase), so no work is duplicated.
//  2. Shared clauses are assumption-free. CDCL learnt clauses are
//     resolvents of database clauses; assumptions enter the trail as
//     decisions, never as clauses, so a clause learnt while conquering one
//     cube is implied by the shared formula (plus globally justified
//     objective bounds) and is valid in every other cube.
//  3. Objective bounds are globally justified. A worker only tightens its
//     objective bound from the shared incumbent, and incumbents are real
//     models of the unrestricted formula (a cube only restricts, never
//     extends, the model set). Pruning a model of objective ≥ the shared
//     incumbent can therefore never change the optimum.
//  4. Worker 0's answers hold for the whole formula. It probes with no
//     assumptions, under bounds that invariant 3 justifies globally, so
//     its refutation proves the instance (optimal with the incumbent,
//     UNSAT without one) and its models are real incumbents. A
//     definitive answer may therefore leave cubes unconquered.
//
// The subsystem sits between the engines and internal/core: core.Solve
// routes to par.Optimize when Config.Parallel > 1, and the knobs flow
// through service.JobSpec, the gcolord JSON API, and gcolor -parallel.
package par

import (
	"runtime"

	"repro/internal/pbsolver"
	"repro/internal/solverutil"
)

// Options configure a parallel solve.
type Options struct {
	// Workers is the conquer pool size (0 = GOMAXPROCS; requests are
	// clamped to 4× GOMAXPROCS, since Workers reaches this layer from
	// untrusted job submissions and each worker builds a full engine).
	// One CDCL engine is built per worker: worker 0 solves the whole
	// formula, the others pull cubes from a shared queue.
	Workers int
	// CubeDepth is the number of branching decisions per cube, so the
	// generator emits at most 2^CubeDepth cubes (fewer when propagation
	// refutes branches). 0 selects a depth that yields roughly eight
	// cubes per worker, the usual over-decomposition for load balance.
	CubeDepth int
	// ShareLBD is the learnt-clause exchange threshold: workers export
	// clauses with LBD at or below it and import the other workers'
	// exports at restarts. 0 selects solverutil.DefaultShareLBD (2);
	// negative disables sharing entirely.
	ShareLBD int
	// Seed steers the cube generator's tie-breaking between equal-score
	// branching variables. Generation is fully deterministic for a fixed
	// seed (the conquest order is not — workers race).
	Seed int64
	// Solver is the per-worker engine template: engine selection, search
	// knobs, Timeout and MaxConflicts (both per worker, spanning all of
	// its cubes), and the Progress callback, which receives snapshots
	// merged across the whole pool. EngineBnB has no incremental
	// assumption core; it is conquered with EnginePBS workers.
	Solver pbsolver.Options
}

func (o Options) workers() int {
	w := o.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	// Clamp requested parallelism to a small multiple of the usable CPUs:
	// Workers arrives from untrusted job submissions (the gcolord JSON
	// field), and each worker builds a full CDCL engine over the formula.
	// Beyond the CPU count extra workers only smooth load imbalance, so
	// the clamp costs nothing and keeps one request from amplifying into
	// unbounded engines.
	if limit := 4 * runtime.GOMAXPROCS(0); w > limit {
		w = limit
	}
	return w
}

func (o Options) cubeDepth() int {
	if o.CubeDepth > 0 {
		return o.CubeDepth
	}
	d := 0
	for n := o.workers() * 8; n > 1; n >>= 1 {
		d++
	}
	if d < 1 {
		d = 1
	}
	if d > maxAutoDepth {
		d = maxAutoDepth
	}
	return d
}

func (o Options) shareLBD() int {
	if o.ShareLBD == 0 {
		return solverutil.DefaultShareLBD
	}
	return o.ShareLBD
}

func (o Options) sharing() bool { return o.ShareLBD >= 0 }

// maxAutoDepth caps the automatically chosen cube depth (2^12 cubes).
const maxAutoDepth = 12

// Stats aggregate the parallel run's lifecycle counters across the cube
// generator, the conquer pool, and the clause exchange.
type Stats struct {
	// Workers is the conquer pool size actually used.
	Workers int `json:"workers"`
	// CubesGenerated counts emitted cubes; CubesRefuted counts branches
	// the lookahead pruned by propagation (closed before any engine ran);
	// CubesClosed counts cubes conquered definitively by a cube worker,
	// which may stay below CubesGenerated when worker 0 answers first.
	CubesGenerated int64 `json:"cubes_generated"`
	CubesRefuted   int64 `json:"cubes_refuted"`
	CubesClosed    int64 `json:"cubes_closed"`
	// ClausesExported and ClausesImported count learnt clauses through
	// the exchange, summed over workers (one export is typically imported
	// by Workers−1 peers).
	ClausesExported int64 `json:"clauses_exported"`
	ClausesImported int64 `json:"clauses_imported"`
}

// Result is the merged outcome of a parallel solve: the usual engine
// result plus the subsystem's own counters.
type Result struct {
	pbsolver.Result
	Par Stats
}
