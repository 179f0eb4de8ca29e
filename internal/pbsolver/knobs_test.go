package pbsolver

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/cnf"
	"repro/internal/pb"
)

// clausePigeonhole is PHP(pigeons, holes) in pure clause form (long
// at-least-one rows plus pairwise at-most-one binaries), so conflicts and
// vivification exercise the clause arena rather than the PB rows.
func clausePigeonhole(pigeons, holes int) *pb.Formula {
	f := pb.NewFormula(pigeons * holes)
	x := func(p, h int) cnf.Lit { return cnf.PosLit(p*holes + h + 1) }
	for p := 0; p < pigeons; p++ {
		row := make([]cnf.Lit, holes)
		for h := 0; h < holes; h++ {
			row[h] = x(p, h)
		}
		f.AddClause(row...)
	}
	for h := 0; h < holes; h++ {
		for a := 0; a < pigeons; a++ {
			for b := a + 1; b < pigeons; b++ {
				f.AddClause(x(a, h).Neg(), x(b, h).Neg())
			}
		}
	}
	return f
}

func TestChronoBacktracksCountedPB(t *testing.T) {
	for _, eng := range []Engine{EnginePBS, EngineGalena, EnginePueblo} {
		f := pigeonPB(6, 5)
		res := Decide(context.Background(), f, Options{Engine: eng, Knobs: Knobs{ChronoThreshold: 1}})
		if res.Status != StatusUnsat {
			t.Fatalf("%v: PHP-PB(6,5) = %v, want UNSAT", eng, res.Status)
		}
		if res.Stats.ChronoBacktracks == 0 {
			t.Errorf("%v: ChronoThreshold=1 never backtracked chronologically", eng)
		}
	}
}

func TestVivificationShrinksClausesPB(t *testing.T) {
	f := clausePigeonhole(5, 4)
	// Gadget: (a ∨ b) makes the suffix of (a ∨ b ∨ c ∨ d) redundant.
	a, b, c, d := f.NewVar(), f.NewVar(), f.NewVar(), f.NewVar()
	f.AddClause(cnf.PosLit(a), cnf.PosLit(b))
	f.AddClause(cnf.PosLit(a), cnf.PosLit(b), cnf.PosLit(c), cnf.PosLit(d))
	res := Decide(context.Background(), f, Options{
		Engine: EnginePBS, Knobs: Knobs{RestartBase: 1, VivifyBudget: 10000},
	})
	if res.Status != StatusUnsat {
		t.Fatalf("PHP(5,4)+gadget = %v, want UNSAT", res.Status)
	}
	if res.Stats.VivifiedLits < 2 {
		t.Fatalf("VivifiedLits = %d, want >= 2", res.Stats.VivifiedLits)
	}
}

func TestDynamicLBDRetiersClausesPB(t *testing.T) {
	f := clausePigeonhole(7, 6)
	res := Decide(context.Background(), f, Options{Engine: EnginePBS, Knobs: Knobs{DynamicLBD: true}})
	if res.Status != StatusUnsat {
		t.Fatalf("PHP(7,6) = %v, want UNSAT", res.Status)
	}
	if res.Stats.LBDUpdates == 0 {
		t.Fatal("DynamicLBD never improved a stored LBD")
	}
}

// TestKnobsAgreeWithBruteForcePB checks that the new search knobs never
// change Optimize answers on random mixed clause/PB instances.
func TestKnobsAgreeWithBruteForcePB(t *testing.T) {
	knobSets := []Options{
		{Knobs: Knobs{ChronoThreshold: 1}},
		{Knobs: Knobs{VivifyBudget: 300, RestartBase: 1}},
		{Knobs: Knobs{DynamicLBD: true}},
		{Knobs: Knobs{ChronoThreshold: 2, VivifyBudget: 300, DynamicLBD: true, RestartBase: 1}},
	}
	rng := rand.New(rand.NewSource(777))
	for iter := 0; iter < 25; iter++ {
		f := randomPBFormula(rng, 6+rng.Intn(4))
		withObjective(rng, f)
		feasible, optimum := bruteOptimum(f)
		for ki, base := range knobSets {
			for _, eng := range []Engine{EnginePBS, EngineGalena, EnginePueblo} {
				opts := base
				opts.Engine = eng
				res := Optimize(context.Background(), f, opts)
				if feasible {
					if res.Status != StatusOptimal {
						t.Fatalf("iter %d knobs %d %v: status %v, want OPTIMAL", iter, ki, eng, res.Status)
					}
					if res.Objective != optimum {
						t.Fatalf("iter %d knobs %d %v: objective %d, want %d", iter, ki, eng, res.Objective, optimum)
					}
					if !f.Satisfies(res.Model) {
						t.Fatalf("iter %d knobs %d %v: model infeasible", iter, ki, eng)
					}
				} else if res.Status != StatusUnsat {
					t.Fatalf("iter %d knobs %d %v: status %v, want UNSAT", iter, ki, eng, res.Status)
				}
			}
		}
	}
}
