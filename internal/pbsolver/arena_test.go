package pbsolver

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/cnf"
	"repro/internal/pb"
	"repro/internal/solverutil"
)

// TestDecideWithAggressiveReduction cross-checks every CDCL engine against
// brute force while forcing learnt-DB reductions (and arena compactions)
// every handful of conflicts, so reasons and watches are exercised across
// many reduce+GC cycles mid-search.
func TestDecideWithAggressiveReduction(t *testing.T) {
	for _, eng := range []Engine{EnginePBS, EngineGalena, EnginePueblo} {
		eng := eng
		t.Run(eng.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(29))
			for iter := 0; iter < 120; iter++ {
				f := randomPBFormula(rng, 4+rng.Intn(5))
				wantSat, _ := bruteOptimum(f)
				res := Decide(context.Background(), f, Options{Engine: eng, ReduceInterval: 8, GlueLBD: 1})
				if res.Status == StatusUnknown {
					t.Fatalf("iter %d: unexpected UNKNOWN", iter)
				}
				gotSat := res.Status == StatusOptimal
				if gotSat != wantSat {
					t.Fatalf("iter %d: got %v, want sat=%v\n%s", iter, res.Status, wantSat, f.OPB())
				}
				if gotSat && !f.Satisfies(res.Model) {
					t.Fatalf("iter %d: invalid model", iter)
				}
			}
		})
	}
}

// TestReductionStatsPlumbing confirms the new reduction counters surface
// through the public Result on a run forced into reductions.
func TestReductionStatsPlumbing(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var saw Stats
	for iter := 0; iter < 200 && saw.Reduces == 0; iter++ {
		f := randomPBFormula(rng, 8)
		withObjective(rng, f)
		res := Optimize(context.Background(), f, Options{Engine: EnginePBS, ReduceInterval: 4})
		saw.add(res.Stats)
	}
	if saw.Reduces == 0 {
		t.Skip("no run produced enough conflicts to trigger a reduction")
	}
	if saw.Removed == 0 && saw.Reduces > 2 {
		t.Fatalf("reductions ran but removed nothing: %+v", saw)
	}
}

// TestEnginesShareNoSolverState runs many engine instances concurrently on
// the same formula value. The shared solverutil structures (arena, heap,
// watchers) must be per-instance: any accidental sharing shows up under
// -race, and cross-instance corruption would flip a verdict.
func TestEnginesShareNoSolverState(t *testing.T) {
	f := pb.NewFormula(0)
	{
		rng := rand.New(rand.NewSource(41))
		f = randomPBFormula(rng, 8)
		withObjective(rng, f)
	}
	wantSat, wantZ := bruteOptimum(f)
	var wg sync.WaitGroup
	for round := 0; round < 4; round++ {
		for _, eng := range allEngines {
			wg.Add(1)
			go func(eng Engine) {
				defer wg.Done()
				res := Optimize(context.Background(), f, Options{Engine: eng, ReduceInterval: 16})
				switch {
				case wantSat && (res.Status != StatusOptimal || res.Objective != wantZ):
					t.Errorf("%v: got %v obj=%d, want OPTIMAL %d", eng, res.Status, res.Objective, wantZ)
				case !wantSat && res.Status != StatusUnsat:
					t.Errorf("%v: got %v, want UNSAT", eng, res.Status)
				}
			}(eng)
		}
	}
	wg.Wait()
}

// checkWellFormed validates the engine's arena-backed invariants: no freed
// clause is referenced, every long clause is watched on exactly its first
// two literals, every watcher's blocker belongs to its clause, and every
// assigned variable's clause reason has the implied literal in slot 0.
func checkWellFormed(t *testing.T, e *cdclEngine) {
	t.Helper()
	watchCount := map[solverutil.CRef]int{}
	for wl := range e.db.Watches {
		for _, w := range e.db.Watches[wl] {
			if e.db.Arena.Freed(w.CRef) {
				t.Fatalf("watch list %d references freed clause %d", wl, w.CRef)
			}
			lits := e.db.Arena.Lits(w.CRef)
			// This list holds clauses watching the complement of wl.
			if lits[0]^1 != uint32(wl) && lits[1]^1 != uint32(wl) {
				t.Fatalf("clause %d watched on literal not in its first two slots", w.CRef)
			}
			blockerFound := false
			for _, u := range lits {
				if u == w.Blocker {
					blockerFound = true
					break
				}
			}
			if !blockerFound {
				t.Fatalf("clause %d blocker %d not in clause", w.CRef, w.Blocker)
			}
			watchCount[w.CRef]++
		}
	}
	for _, c := range append(append([]solverutil.CRef(nil), e.db.Clauses...), e.db.Learnts...) {
		if e.db.Arena.Freed(c) {
			t.Fatalf("clause list references freed clause %d", c)
		}
		if watchCount[c] != 2 {
			t.Fatalf("clause %d watched %d times, want 2", c, watchCount[c])
		}
	}
	for _, c := range e.db.Learnts {
		if !e.db.Arena.Learnt(c) {
			t.Fatalf("learnt list holds non-learnt clause %d", c)
		}
	}
	for v := 1; v <= e.nVars; v++ {
		rc := e.reasonCl[v]
		if rc == solverutil.CRefUndef {
			continue
		}
		if e.assign[v] == lUndef {
			t.Fatalf("unassigned var %d has a reason clause", v)
		}
		if e.db.Arena.Freed(rc) {
			t.Fatalf("var %d reason is a freed clause", v)
		}
		if int(e.db.Arena.Lits(rc)[0]>>1) != v {
			t.Fatalf("var %d reason clause does not imply it first", v)
		}
	}
}

// solveEngine runs one decision search on a live engine without limits.
func solveEngine(e *cdclEngine) Status {
	return e.solveDecision(e.opts.newBudget(context.Background()))
}

// TestReduceGCCycleKeepsInvariants forces frequent LBD reductions (and with
// them arena compactions) during a hard UNSAT proof and checks that the
// proof still lands, i.e. reasons and watch lists stayed valid across every
// reduce+GC cycle mid-search. A broken remap would flip the verdict or trip
// the reason-invariant panics in analyze.
func TestReduceGCCycleKeepsInvariants(t *testing.T) {
	e := buildCDCL(clausePigeonhole(8, 7), Options{ReduceInterval: 30})
	if st := solveEngine(e); st != StatusUnsat {
		t.Fatalf("status = %v, want UNSAT", st)
	}
	if e.stats.Reduces == 0 || e.stats.Removed == 0 || e.stats.ArenaGCs == 0 {
		t.Fatalf("expected reductions that removed clauses and compacted the arena, got %+v", e.stats)
	}
	checkWellFormed(t, e)
}

// TestGCDirectRemap drives garbageCollect by hand against a live clause
// database and checks every reference survives the remap.
func TestGCDirectRemap(t *testing.T) {
	f := clausePigeonhole(7, 6)
	e := buildCDCL(f, Options{})
	if st := e.solveDecision(&budget{maxConflicts: 40}); st != StatusUnknown {
		t.Fatalf("40 conflicts settled PHP(7,6): %v", st)
	}
	if len(e.db.Learnts) == 0 {
		t.Fatal("no long learnt clauses to compact")
	}
	before := len(e.db.Clauses)
	// Free nothing: GC with zero waste must still remap consistently.
	e.garbageCollect()
	checkWellFormed(t, e)
	if len(e.db.Clauses) != before {
		t.Fatalf("GC changed clause count %d -> %d", before, len(e.db.Clauses))
	}
	// Now delete half the learnts via reduceDB and compact again.
	e.reduceDB()
	e.garbageCollect()
	checkWellFormed(t, e)
	// The engine must still answer correctly after both compactions.
	want := Decide(context.Background(), f, Options{}).Status == StatusOptimal
	if got := solveEngine(e) == StatusSat; got != want {
		t.Fatalf("after GC: sat=%t, fresh engine: sat=%t", got, want)
	}
}

// TestComputeLBD pins the literal-blocks-distance definition: the number of
// distinct nonzero decision levels among the clause's literals.
func TestComputeLBD(t *testing.T) {
	e := newCDCL(Options{})
	e.growTo(6)
	copy(e.level, []int{0, 1, 1, 2, 3, 3, 0})
	all := []cnf.Lit{lit(1), nlit(2), lit(3), lit(4), nlit(5), lit(6)}
	if got := e.computeLBD(all); got != 3 {
		t.Fatalf("LBD = %d, want 3 (levels {1,2,3})", got)
	}
	if got := e.computeLBD([]cnf.Lit{lit(6)}); got != 1 {
		t.Fatalf("LBD of all-level-0 clause = %d, want floor 1", got)
	}
	// Consecutive calls must not leak stamps across generations.
	if got := e.computeLBD([]cnf.Lit{lit(1), nlit(2)}); got != 1 {
		t.Fatalf("LBD = %d, want 1 (both at level 1)", got)
	}
	if got := e.computeLBD([]cnf.Lit{lit(1), lit(3)}); got != 2 {
		t.Fatalf("LBD = %d, want 2", got)
	}
}

// TestLBDStoredOnLearnts checks that long learnt clauses carry an LBD in
// the arena header after a solve.
func TestLBDStoredOnLearnts(t *testing.T) {
	e := buildCDCL(clausePigeonhole(7, 6), Options{})
	if st := solveEngine(e); st != StatusUnsat {
		t.Fatalf("status = %v", st)
	}
	if len(e.db.Learnts) == 0 {
		t.Skip("no long learnt clauses retained")
	}
	for _, c := range e.db.Learnts {
		if e.db.Arena.LBD(c) == 0 {
			t.Fatalf("learnt clause %d has LBD 0", c)
		}
	}
}

// TestIncrementalAddClause adds clauses to a live engine between searches,
// the path objective bounds and EnumerateOptimal's blocking clauses take.
func TestIncrementalAddClause(t *testing.T) {
	f := pb.NewFormula(3)
	f.AddClause(lit(1), lit(2), lit(3))
	e := buildCDCL(f, Options{})
	if solveEngine(e) != StatusSat {
		t.Fatal("initial solve should be SAT")
	}
	e.addClause([]cnf.Lit{nlit(1)})
	e.addClause([]cnf.Lit{nlit(2)})
	if solveEngine(e) != StatusSat {
		t.Fatal("still SAT with x3")
	}
	if m := e.model(); !m[3] || m[1] || m[2] {
		t.Fatalf("model should be 001, got %v", m[1:])
	}
	if e.addClause([]cnf.Lit{nlit(3)}) {
		t.Fatal("the root conflict should be detected eagerly")
	}
	if solveEngine(e) != StatusUnsat {
		t.Fatal("should be UNSAT after forcing all false")
	}
}

func TestAddClauseAfterUnsatStaysUnsat(t *testing.T) {
	e := newCDCL(Options{})
	e.growTo(1)
	e.addClause([]cnf.Lit{lit(1)})
	e.addClause([]cnf.Lit{nlit(1)})
	if solveEngine(e) != StatusUnsat {
		t.Fatal("want UNSAT")
	}
	e.addClause([]cnf.Lit{lit(1)})
	if solveEngine(e) != StatusUnsat {
		t.Fatal("UNSAT must be sticky")
	}
}

func TestGrowToNewVariables(t *testing.T) {
	e := newCDCL(Options{})
	e.addClause([]cnf.Lit{lit(5)})
	if e.nVars != 5 {
		t.Fatalf("nVars = %d, want 5", e.nVars)
	}
	if solveEngine(e) != StatusSat || !e.model()[5] {
		t.Fatal("want SAT with x5 true")
	}
}
