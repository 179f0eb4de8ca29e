package pbsolver

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/cnf"
	"repro/internal/pb"
	"repro/internal/testutil"
)

// clausePigeonhole is PHP(pigeons, holes) in pure clause form (long
// at-least-one rows plus pairwise at-most-one binaries), so conflicts
// exercise the clause arena rather than the PB rows.
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

// checkPigeonholes decides PHP(6,5) (UNSAT) and PHP(5,5) (SAT), built by
// php, under opts and returns their counters. Formulas small enough to
// enumerate never fill the learnt database; these do, so the reduction
// knobs act on them.
func checkPigeonholes(t *testing.T, opts Options, php func(pigeons, holes int) *pb.Formula) Stats {
	t.Helper()
	var st Stats
	for _, c := range []struct {
		pigeons int
		sat     bool
	}{{6, false}, {5, true}} {
		f := php(c.pigeons, 5)
		res := Decide(context.Background(), f, opts)
		switch {
		case res.Status == StatusUnknown || (res.Status == StatusOptimal) != c.sat:
			t.Fatalf("PHP(%d,5) %v knobs %+v: %v, want sat=%t", c.pigeons, opts.Engine, opts.Knobs, res.Status, c.sat)
		case c.sat && !f.Satisfies(res.Model):
			t.Fatalf("PHP(%d,5) %v knobs %+v: model infeasible", c.pigeons, opts.Engine, opts.Knobs)
		}
		st.Add(res.Stats)
	}
	return st
}

// requireKnobsActed fails unless the searches reduced the learnt database
// and restarted: on formulas that need no search every knob passes.
func requireKnobsActed(t *testing.T, acted Stats) {
	t.Helper()
	if acted.Reduces == 0 || acted.Restarts == 0 {
		t.Fatalf("the knobs never acted (%d reductions, %d restarts)", acted.Reduces, acted.Restarts)
	}
}

// TestKnobsAgreeWithBruteForcePB checks that the search knobs never
// change Optimize answers on random 3-CNFs with an objective, whose
// bounds the linear search adds as PB rows.
func TestKnobsAgreeWithBruteForcePB(t *testing.T) {
	knobSets := []Options{
		{Knobs: Knobs{GlueLBD: 1, ReduceInterval: 1}},
		{Knobs: Knobs{ReduceInterval: 4, RestartBase: 1}},
		{Knobs: Knobs{RestartBase: 1}},
		{Knobs: Knobs{GlueLBD: 1, ReduceInterval: 2, RestartBase: 1}},
	}
	rng := rand.New(rand.NewSource(777))
	var acted Stats
	for iter := 0; iter < 25; iter++ {
		n := 9 + rng.Intn(4)
		f := pb.FromCNF(testutil.RandomCNF(rng, n, 3*n+rng.Intn(n), 3))
		withObjective(rng, f)
		feasible, optimum := bruteOptimum(f)
		for ki, base := range knobSets {
			for _, eng := range []Engine{EnginePBS, EngineGalena, EnginePueblo} {
				opts := base
				opts.Engine = eng
				res := Optimize(context.Background(), f, opts)
				acted.Add(res.Stats)
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
	for _, base := range knobSets {
		for _, eng := range []Engine{EnginePBS, EngineGalena, EnginePueblo} {
			opts := base
			opts.Engine = eng
			acted.Add(checkPigeonholes(t, opts, pigeonPB))
		}
	}
	requireKnobsActed(t, acted)
}
