package pbsolver

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/cnf"
	"repro/internal/pb"
	"repro/internal/testutil"
)

// cnfSession opens a Session on a pure CNF formula.
func cnfSession(f *cnf.Formula, opts Options) *Session {
	return NewSession(context.Background(), pb.FromCNF(f), opts)
}

// withUnits returns f plus one unit clause per assumption: the formula
// whose satisfiability DecideAssuming(assumptions) must match.
func withUnits(f *cnf.Formula, assumptions []cnf.Lit) *cnf.Formula {
	out := cnf.NewFormula(f.NumVars)
	for _, c := range f.Clauses {
		out.AddClause(c...)
	}
	for _, a := range assumptions {
		out.AddClause(a)
	}
	return out
}

func TestDecideAssumingBasic(t *testing.T) {
	f := cnf.NewFormula(2)
	f.AddClause(lit(1), lit(2))
	s := cnfSession(f, Options{})
	if st := s.DecideAssuming([]cnf.Lit{nlit(1)}); st != StatusSat {
		t.Fatalf("¬x1: %v", st)
	}
	if m := s.Model(); m[1] || !m[2] {
		t.Fatalf("model %v under ¬x1", m[1:])
	}
	if st := s.DecideAssuming([]cnf.Lit{nlit(1), nlit(2)}); st != StatusUnsat {
		t.Fatal("¬x1∧¬x2 should be UNSAT under assumptions")
	}
	// The session must remain usable: without assumptions it is SAT again.
	if st := s.DecideAssuming(nil); st != StatusSat || s.RootUnsat() {
		t.Fatalf("session damaged by assumption UNSAT: %v rootUnsat=%t", st, s.RootUnsat())
	}
}

func TestDecideAssumingContradictoryAssumptions(t *testing.T) {
	f := cnf.NewFormula(2)
	f.AddClause(lit(1), lit(2))
	s := cnfSession(f, Options{})
	if st := s.DecideAssuming([]cnf.Lit{lit(1), nlit(1)}); st != StatusUnsat {
		t.Fatal("x1∧¬x1 assumptions must be UNSAT")
	}
	if s.RootUnsat() {
		t.Fatal("contradictory assumptions must not refute the formula")
	}
	if st := s.DecideAssuming(nil); st != StatusSat {
		t.Fatal("session damaged")
	}
}

func TestDecideAssumingImpliedAssumption(t *testing.T) {
	// Assumptions already implied at level 0: empty decision levels.
	f := cnf.NewFormula(2)
	f.AddClause(lit(1))
	f.AddClause(nlit(1), lit(2))
	s := cnfSession(f, Options{})
	if st := s.DecideAssuming([]cnf.Lit{lit(1), lit(2)}); st != StatusSat {
		t.Fatal("implied assumptions should be SAT")
	}
}

// TestDecideAssumingRepeatedAssumptions pins a regression: assumptions
// that repeat an already-true literal create empty decision levels, so the
// decision-level count can exceed the variable count. Conflict analysis at
// such levels must still compute LBDs without running off the per-level
// stamp array.
func TestDecideAssumingRepeatedAssumptions(t *testing.T) {
	// UNSAT over {x2, x3}; x1 is free and only consumed by assumptions.
	f := cnf.NewFormula(3)
	f.AddClause(lit(2), lit(3))
	f.AddClause(lit(2), nlit(3))
	f.AddClause(nlit(2), lit(3))
	f.AddClause(nlit(2), nlit(3))
	s := cnfSession(f, Options{})
	// x1 assigns at level 1; the repeats create five empty levels, so the
	// first decision — and the conflict analysis it triggers — happens at a
	// decision level greater than NumVars.
	a := []cnf.Lit{lit(1), lit(1), lit(1), lit(1), lit(1), lit(1)}
	if st := s.DecideAssuming(a); st != StatusUnsat {
		t.Fatalf("{x2,x3} clauses are contradictory: %v", st)
	}
	if st := s.DecideAssuming(nil); st != StatusUnsat {
		t.Fatal("formula is UNSAT regardless of assumptions")
	}
}

// TestDecideAssumingAgainstBruteForce cross-checks assumption probes on
// random formulas: DecideAssuming(A) must equal satisfiability of F ∧ A,
// with several probes sharing one session.
func TestDecideAssumingAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for iter := 0; iter < 200; iter++ {
		nVars := 3 + rng.Intn(6)
		f := testutil.RandomCNF(rng, nVars, 2+rng.Intn(4*nVars), 3)
		s := cnfSession(f, Options{})
		for probe := 0; probe < 4; probe++ {
			var assumps []cnf.Lit
			seen := map[int]bool{}
			for len(assumps) < 1+rng.Intn(3) {
				v := 1 + rng.Intn(nVars)
				if seen[v] {
					continue
				}
				seen[v] = true
				l := cnf.PosLit(v)
				if rng.Intn(2) == 0 {
					l = l.Neg()
				}
				assumps = append(assumps, l)
			}
			fa := withUnits(f, assumps)
			want, _ := testutil.BruteForceSAT(fa)
			got := s.DecideAssuming(assumps)
			if (got == StatusSat) != want || got == StatusUnknown {
				t.Fatalf("iter %d probe %d: got %v want sat=%v assumps=%v\n%s",
					iter, probe, got, want, assumps, f.Dimacs())
			}
			if got == StatusSat {
				if err := testutil.CheckModel(fa, s.Model()); err != nil {
					t.Fatalf("iter %d probe %d: %v", iter, probe, err)
				}
			}
		}
	}
}

// TestIncrementalReuseAcrossAssumptionProbes: learnt clauses persist across
// probes (the counters keep growing on one session while answers stay
// correct).
func TestIncrementalReuseAcrossAssumptionProbes(t *testing.T) {
	s := NewSession(context.Background(), clausePigeonhole(6, 5), Options{})
	// UNSAT globally; also UNSAT under any assumptions.
	if st := s.DecideAssuming([]cnf.Lit{lit(1)}); st != StatusUnsat {
		t.Fatalf("got %v", st)
	}
	after := s.Stats()
	if after.Learnts == 0 {
		t.Fatal("PHP(6,5) refuted without learning")
	}
	if st := s.DecideAssuming(nil); st != StatusUnsat {
		t.Fatal("globally UNSAT")
	}
	st := s.Stats()
	if st.Conflicts < after.Conflicts || st.Learnts < after.Learnts {
		t.Fatalf("counters went backwards: %+v then %+v", after, st)
	}
	if st.SolverCalls != 2 {
		t.Fatalf("SolverCalls = %d, want 2", st.SolverCalls)
	}
}

// TestKnobsWithAssumptions exercises chrono + vivify + dynamic LBD under
// the incremental assumption interface (the chromatic-probe path).
func TestKnobsWithAssumptions(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	opts := Options{ChronoThreshold: 1, VivifyBudget: 200, DynamicLBD: true, RestartBaseOverride: 1}
	for iter := 0; iter < 25; iter++ {
		f := testutil.RandomCNF(rng, 10, 35, 3)
		s := cnfSession(f, opts)
		a := []cnf.Lit{cnf.PosLit(1 + rng.Intn(10))}
		got := s.DecideAssuming(a)
		fa := withUnits(f, a)
		want, _ := testutil.BruteForceSAT(fa)
		if (got == StatusSat) != want || got == StatusUnknown {
			t.Fatalf("iter %d: DecideAssuming(%v) = %v, brute force says sat=%t", iter, a, got, want)
		}
		if got == StatusSat {
			if err := testutil.CheckModel(fa, s.Model()); err != nil {
				t.Fatalf("iter %d: %v", iter, err)
			}
		}
	}
}
