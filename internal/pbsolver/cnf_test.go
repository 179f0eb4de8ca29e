package pbsolver

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/cnf"
	"repro/internal/pb"
	"repro/internal/testutil"
)

// Pure CNF is decided by the same CDCL core as 0-1 ILP: a formula with no
// PB constraints and no objective (pb.FromCNF). These tests pin that mode.

// decideCNF decides f with the given options, checks any model against
// the clauses, and reports satisfiability.
func decideCNF(t *testing.T, f *cnf.Formula, opts Options) (bool, Result) {
	t.Helper()
	res := Decide(context.Background(), pb.FromCNF(f), opts)
	switch res.Status {
	case StatusOptimal:
		if err := testutil.CheckModel(f, res.Model); err != nil {
			t.Fatalf("SAT with a bad model: %v", err)
		}
		return true, res
	case StatusUnsat:
		return false, res
	}
	t.Fatalf("status %v without a budget", res.Status)
	return false, res
}

func TestTrivialSat(t *testing.T) {
	f := cnf.NewFormula(2)
	f.AddClause(lit(1), lit(2))
	if sat, _ := decideCNF(t, f, Options{}); !sat {
		t.Fatal("want SAT")
	}
}

func TestTrivialUnsat(t *testing.T) {
	f := cnf.NewFormula(1)
	f.AddClause(lit(1))
	f.AddClause(nlit(1))
	if sat, _ := decideCNF(t, f, Options{}); sat {
		t.Fatal("want UNSAT")
	}
}

func TestEmptyFormulaIsSat(t *testing.T) {
	if sat, _ := decideCNF(t, cnf.NewFormula(3), Options{}); !sat {
		t.Fatal("want SAT")
	}
}

func TestTautologyIgnored(t *testing.T) {
	f := cnf.NewFormula(2)
	f.AddClause(lit(1), nlit(1))
	f.AddClause(lit(2))
	sat, res := decideCNF(t, f, Options{})
	if !sat || !res.Model[2] {
		t.Fatalf("want SAT with x2 true, got %v", res.Status)
	}
}

func TestUnitPropagationChain(t *testing.T) {
	f := cnf.NewFormula(5)
	f.AddClause(lit(1))
	for v := 1; v < 5; v++ {
		f.AddImplication(lit(v), lit(v+1))
	}
	sat, res := decideCNF(t, f, Options{})
	if !sat {
		t.Fatal("want SAT")
	}
	for v := 1; v <= 5; v++ {
		if !res.Model[v] {
			t.Fatalf("var %d should be true", v)
		}
	}
	if res.Stats.Decisions != 0 {
		t.Fatalf("a root-level chain took %d decisions", res.Stats.Decisions)
	}
}

func TestContradictoryChain(t *testing.T) {
	f := cnf.NewFormula(3)
	f.AddClause(lit(1))
	f.AddImplication(lit(1), lit(2))
	f.AddImplication(lit(2), lit(3))
	f.AddImplication(lit(3), nlit(1))
	if sat, _ := decideCNF(t, f, Options{}); sat {
		t.Fatal("want UNSAT")
	}
}

// TestBinaryClausePropagation pins the inline binary-clause path: a chain
// of binary implications propagates end to end, and closing the chain
// into a contradiction with x1 is refuted.
func TestBinaryClausePropagation(t *testing.T) {
	f := cnf.NewFormula(5)
	for v := 1; v < 5; v++ {
		f.AddClause(nlit(v), lit(v+1))
	}
	f.AddClause(lit(1))
	sat, res := decideCNF(t, f, Options{})
	if !sat {
		t.Fatal("want SAT")
	}
	for v := 1; v <= 5; v++ {
		if !res.Model[v] {
			t.Fatalf("x%d should be forced true by the binary chain", v)
		}
	}
	f.AddClause(nlit(5), nlit(1))
	if sat, _ := decideCNF(t, f, Options{}); sat {
		t.Fatal("x1 ⇒ … ⇒ x5 ⇒ ¬x1 with x1 asserted must be UNSAT")
	}
}

func TestPigeonholeUnsat(t *testing.T) {
	for n := 2; n <= 6; n++ {
		res := Decide(context.Background(), clausePigeonhole(n+1, n), Options{})
		if res.Status != StatusUnsat {
			t.Fatalf("PHP(%d,%d) = %v, want UNSAT", n+1, n, res.Status)
		}
	}
}

func TestPigeonholeSatWhenEnoughHoles(t *testing.T) {
	f := clausePigeonhole(4, 4)
	res := Decide(context.Background(), f, Options{})
	if res.Status != StatusOptimal || !f.Satisfies(res.Model) {
		t.Fatalf("PHP(4,4) = %v, want SAT with a valid model", res.Status)
	}
}

// TestGraphColoringAsCNFSmoke decides the pairwise coloring CNF of an odd
// cycle C5 (χ=3): SAT with 3 colors, UNSAT with 2.
func TestGraphColoringAsCNFSmoke(t *testing.T) {
	build := func(k int) *cnf.Formula {
		n := 5
		f := cnf.NewFormula(n * k)
		v := func(i, c int) cnf.Lit { return cnf.PosLit(i*k + c + 1) }
		for i := 0; i < n; i++ {
			cl := make([]cnf.Lit, k)
			for c := 0; c < k; c++ {
				cl[c] = v(i, c)
			}
			f.AddClause(cl...)
			for c := 0; c < k; c++ {
				f.AddClause(v(i, c).Neg(), v((i+1)%n, c).Neg())
			}
		}
		return f
	}
	if sat, _ := decideCNF(t, build(3), Options{}); !sat {
		t.Fatal("C5 is 3-colorable")
	}
	if sat, _ := decideCNF(t, build(2), Options{}); sat {
		t.Fatal("C5 is not 2-colorable")
	}
}

// TestRandomAgainstBruteForce cross-checks the CDCL answer on pure CNF
// against exhaustive enumeration on hundreds of small random 4-CNFs,
// covering both phases of the SAT/UNSAT transition: clause counts run up
// to twice the 4-SAT threshold of about 9.9 clauses per variable.
func TestRandomAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var sat, unsat int
	for iter := 0; iter < 400; iter++ {
		nVars := 3 + rng.Intn(8)
		f := testutil.RandomCNF(rng, nVars, 2+rng.Intn(20*nVars), 4)
		want, _ := testutil.BruteForceSAT(f)
		got, _ := decideCNF(t, f, Options{})
		if got != want {
			t.Fatalf("iter %d: engine sat=%t, brute force sat=%t\n%s", iter, got, want, f.Dimacs())
		}
		if got {
			sat++
		} else {
			unsat++
		}
	}
	requireBothPhases(t, sat, unsat)
}

// TestRandomWithPhaseSaving repeats the cross-check on 3-CNFs, with clause
// counts up to about twice the 3-SAT threshold of 4.26 per variable and a
// faster restart cadence, once with phase saving and once without.
func TestRandomWithPhaseSaving(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var sat, unsat int
	for _, opts := range []Options{
		{Knobs: Knobs{RestartBase: 10}},
		{NoPhaseSaving: true, Knobs: Knobs{RestartBase: 10}},
	} {
		for iter := 0; iter < 200; iter++ {
			nVars := 4 + rng.Intn(7)
			f := testutil.RandomCNF(rng, nVars, 3+rng.Intn(8*nVars), 3)
			want, _ := testutil.BruteForceSAT(f)
			got, _ := decideCNF(t, f, opts)
			if got != want {
				t.Fatalf("iter %d opts %+v: engine sat=%t, want %t", iter, opts, got, want)
			}
			if got {
				sat++
			} else {
				unsat++
			}
		}
	}
	requireBothPhases(t, sat, unsat)
}

// requireBothPhases fails a random cross-check unless each answer came up
// on at least a fifth of its formulas, so that neither side of the
// SAT/UNSAT transition goes untested.
func requireBothPhases(t *testing.T, sat, unsat int) {
	t.Helper()
	if n := sat + unsat; 5*sat < n || 5*unsat < n {
		t.Fatalf("%d SAT and %d UNSAT formulas: one side of the transition is barely tested", sat, unsat)
	}
}

// TestRandom3SATNearThreshold runs instances near the SAT/UNSAT phase
// transition (ratio ~4.2), large enough to exercise restarts and
// clause-database reduction, and validates every SAT model.
func TestRandom3SATNearThreshold(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	sat, unsat := 0, 0
	for iter := 0; iter < 12; iter++ {
		f := testutil.RandomCNF(rng, 50, 210, 3)
		ok, res := decideCNF(t, f, Options{Knobs: Knobs{RestartBase: 16}})
		if ok {
			sat++
		} else {
			unsat++
		}
		if res.Stats.Restarts == 0 && res.Stats.Conflicts > 100 {
			t.Fatalf("iter %d: restarts never fired with base 16", iter)
		}
	}
	if sat == 0 || unsat == 0 {
		t.Logf("phase split: %d SAT / %d UNSAT (both sides ideally exercised)", sat, unsat)
	}
}

// TestReduceDBPreservesCorrectness forces heavy learning and database
// reduction, then re-checks a known answer.
func TestReduceDBPreservesCorrectness(t *testing.T) {
	res := Decide(context.Background(), clausePigeonhole(8, 7), Options{Knobs: Knobs{RestartBase: 8}})
	if res.Status != StatusUnsat {
		t.Fatalf("PHP(8,7) = %v, want UNSAT", res.Status)
	}
	if res.Stats.Learnts == 0 {
		t.Fatal("expected learnt clauses")
	}
}

// TestConflictBudget: MaxConflicts stops a clause-form refutation with
// UNKNOWN once the budget is spent.
func TestConflictBudget(t *testing.T) {
	res := Decide(context.Background(), clausePigeonhole(9, 8), Options{MaxConflicts: 5})
	if res.Status != StatusUnknown {
		t.Fatalf("status = %v, want UNKNOWN under 5-conflict budget", res.Status)
	}
	if res.Stats.Conflicts < 5 {
		t.Fatalf("conflicts = %d, want >= 5", res.Stats.Conflicts)
	}
}

// TestKnobsAgreeWithBruteForce cross-checks every knob combination against
// exhaustive enumeration on random small 3-CNFs near the threshold: the
// knobs steer the search, never the answer.
func TestKnobsAgreeWithBruteForce(t *testing.T) {
	knobSets := []Options{
		{Knobs: Knobs{GlueLBD: 1, ReduceInterval: 1}},
		{Knobs: Knobs{GlueLBD: 6, ReduceInterval: 2}},
		{Knobs: Knobs{ReduceInterval: 4, RestartBase: 1}},
		{Knobs: Knobs{RestartBase: 1}},
		{Knobs: Knobs{GlueLBD: 1, ReduceInterval: 2, RestartBase: 1}},
	}
	rng := rand.New(rand.NewSource(20260726))
	var acted Stats
	for iter := 0; iter < 60; iter++ {
		n := 10 + rng.Intn(5)
		f := testutil.RandomCNF(rng, n, 4*n+rng.Intn(n), 3)
		want, _ := testutil.BruteForceSAT(f)
		for ki, opts := range knobSets {
			got, res := decideCNF(t, f, opts)
			if got != want {
				t.Fatalf("iter %d knobs %d: engine sat=%t, brute force sat=%t", iter, ki, got, want)
			}
			acted.Add(res.Stats)
		}
	}
	for _, opts := range knobSets {
		acted.Add(checkPigeonholes(t, opts, clausePigeonhole))
	}
	requireKnobsActed(t, acted)
}

func TestStatsAccumulate(t *testing.T) {
	st := Decide(context.Background(), clausePigeonhole(5, 4), Options{}).Stats
	if st.Conflicts == 0 || st.Decisions == 0 || st.Propagations == 0 || st.SolverCalls != 1 {
		t.Fatalf("expected nonzero stats and one solver call, got %+v", st)
	}
}

// TestDeadline: a context deadline stops a CDCL refutation of a hard CNF.
func TestDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	res := Decide(ctx, clausePigeonhole(11, 10), Options{})
	if res.Status == StatusOptimal {
		t.Fatal("PHP(11,10) cannot be SAT")
	}
	if res.Runtime > 5*time.Second {
		t.Fatalf("deadline ignored: ran %v", res.Runtime)
	}
}

func ExampleDecide() {
	f := cnf.NewFormula(2)
	f.AddClause(cnf.PosLit(1), cnf.PosLit(2))
	f.AddClause(cnf.NegLit(1))
	res := Decide(context.Background(), pb.FromCNF(f), Options{})
	fmt.Println(res.Status, res.Model[1], res.Model[2])
	// Output: OPTIMAL false true
}
