package solverutil

import "time"

// Progress is a point-in-time snapshot of a running CDCL (or BnB) search,
// the payload of the rate-limited progress callbacks the engines offer.
// The counter fields mirror the engines' Stats; the remaining fields are
// filled in by the layers above the engine (optimization loop, portfolio).
type Progress struct {
	// Engine names the configuration emitting the snapshot ("pbs2",
	// "galena", "pueblo", "bnb"; empty for the plain SAT solver).
	Engine string `json:"engine,omitempty"`
	// Incumbent is the best objective value found so far by the
	// optimization loop driving the engine — for the coloring flow, the
	// color count of the best coloring seen. -1 until the first feasible
	// solution (and always -1 in pure decision solves).
	Incumbent int `json:"incumbent"`

	Conflicts    int64 `json:"conflicts"`
	Decisions    int64 `json:"decisions"`
	Propagations int64 `json:"propagations"`
	Restarts     int64 `json:"restarts"`
	Learnts      int64 `json:"learnts"`
	// Reduces and Removed report learnt-database reductions and the
	// clauses they deleted; together with Learnts they describe the LBD
	// tiering's churn.
	Reduces int64 `json:"reduces"`
	Removed int64 `json:"removed"`
	// ChronoBacktracks, VivifiedLits and LBDUpdates report the search
	// knobs' activity (see pbsolver.Options).
	ChronoBacktracks int64 `json:"chrono_backtracks"`
	VivifiedLits     int64 `json:"vivified_lits"`
	LBDUpdates       int64 `json:"lbd_updates"`

	// Cube-and-conquer fields, filled by internal/par's merged snapshots
	// (zero on single-engine and portfolio runs). Workers is the conquer
	// pool size; the cube counters track the split's lifecycle and
	// SharedExported/SharedImported count learnt clauses through the
	// exchange.
	Workers        int   `json:"workers,omitempty"`
	CubesTotal     int64 `json:"cubes_total,omitempty"`
	CubesClosed    int64 `json:"cubes_closed,omitempty"`
	CubesRefuted   int64 `json:"cubes_refuted,omitempty"`
	SharedExported int64 `json:"shared_exported,omitempty"`
	SharedImported int64 `json:"shared_imported,omitempty"`
}

// ProgressFunc receives progress snapshots. It is called from the solving
// goroutine — several concurrently under a portfolio — so implementations
// must be fast and safe for concurrent use.
type ProgressFunc func(Progress)

// DefaultProgressInterval is the minimum spacing between progress
// callbacks when the caller does not choose one.
const DefaultProgressInterval = 200 * time.Millisecond

// ProgressEmitter rate-limits progress callbacks inside a solver's search
// loop. The zero value is a disabled emitter; engines can therefore embed
// one unconditionally and keep the hot loop branch to a nil check plus a
// time comparison on the same amortized schedule as their budget checks.
type ProgressEmitter struct {
	fn       ProgressFunc
	interval time.Duration
	next     time.Time
}

// NewProgressEmitter builds an emitter for fn (nil fn = disabled emitter);
// interval ≤ 0 selects DefaultProgressInterval. The limiter starts armed:
// the first snapshot comes one interval into the search, so solves faster
// than the interval report nothing (their terminal result is all there is
// to say).
func NewProgressEmitter(fn ProgressFunc, interval time.Duration) ProgressEmitter {
	if interval <= 0 {
		interval = DefaultProgressInterval
	}
	return ProgressEmitter{fn: fn, interval: interval, next: time.Now().Add(interval)}
}

// Enabled reports whether the emitter has a callback at all; use it to
// skip snapshot assembly entirely when no one is listening.
func (e *ProgressEmitter) Enabled() bool { return e.fn != nil }

// Ready reports whether enough time has passed since the last emission.
// Call it on an amortized schedule (every few hundred loop iterations),
// not per propagation.
func (e *ProgressEmitter) Ready() bool {
	return e.fn != nil && time.Now().After(e.next)
}

// Emit delivers one snapshot and arms the rate limiter. Callers gate on
// Ready (or Enabled, for unconditional milestone events such as an
// improved incumbent).
func (e *ProgressEmitter) Emit(p Progress) {
	if e.fn == nil {
		return
	}
	e.next = time.Now().Add(e.interval)
	e.fn(p)
}
