package testutil_test

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/cnf"
	"repro/internal/core"
	"repro/internal/pb"
	"repro/internal/pbsolver"
	"repro/internal/testutil"
)

// pbKnobMatrix is every solver configuration the properties must hold
// under: the zero value plus each search knob alone and all together.
var pbKnobMatrix = []pbsolver.Options{
	{},
	{Knobs: pbsolver.Knobs{GlueLBD: 1}},
	{Knobs: pbsolver.Knobs{ReduceInterval: 4}},
	{Knobs: pbsolver.Knobs{RestartBase: 1}},
	{Knobs: pbsolver.Knobs{GlueLBD: 1, ReduceInterval: 4, RestartBase: 1}},
}

// TestSATAgainstReference: on deterministic random small CNFs, the
// one-shot CNF decision the sequential chromatic search makes (Decide
// without phase saving) agrees with exhaustive enumeration under every
// knob combination, and every SAT model satisfies every clause.
func TestSATAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 80; iter++ {
		f := testutil.RandomCNF(rng, 5+rng.Intn(8), 15+rng.Intn(35), 3)
		want, _ := testutil.BruteForceSAT(f)
		pf := pb.FromCNF(f)
		for ki, base := range pbKnobMatrix {
			opts := base
			opts.NoPhaseSaving = true
			res := pbsolver.Decide(context.Background(), pf, opts)
			switch {
			case res.Status == pbsolver.StatusUnknown:
				t.Fatalf("iter %d knobs %d: Unknown without a budget", iter, ki)
			case want != (res.Status == pbsolver.StatusOptimal):
				t.Fatalf("iter %d knobs %d: status %v, reference says sat=%t", iter, ki, res.Status, want)
			case want:
				if err := testutil.CheckModel(f, res.Model); err != nil {
					t.Fatalf("iter %d knobs %d: %v", iter, ki, err)
				}
			}
		}
	}
}

// TestPBSolverAgainstReference: every CDCL engine, fed the same kind of
// clause sets, agrees with the reference under every knob combination.
func TestPBSolverAgainstReference(t *testing.T) {
	engines := []pbsolver.Engine{pbsolver.EnginePBS, pbsolver.EngineGalena, pbsolver.EnginePueblo}
	rng := rand.New(rand.NewSource(2))
	for iter := 0; iter < 30; iter++ {
		f := testutil.RandomCNF(rng, 5+rng.Intn(6), 15+rng.Intn(25), 3)
		want, _ := testutil.BruteForceSAT(f)
		pf := pb.FromCNF(f)
		for ki, base := range pbKnobMatrix {
			for _, eng := range engines {
				opts := base
				opts.Engine = eng
				res := pbsolver.Decide(context.Background(), pf, opts)
				switch {
				case want && res.Status != pbsolver.StatusOptimal:
					t.Fatalf("iter %d knobs %d %v: status %v, reference says SAT", iter, ki, eng, res.Status)
				case !want && res.Status != pbsolver.StatusUnsat:
					t.Fatalf("iter %d knobs %d %v: status %v, reference says UNSAT", iter, ki, eng, res.Status)
				}
				if want {
					if err := testutil.CheckModel(f, res.Model); err != nil {
						t.Fatalf("iter %d knobs %d %v: %v", iter, ki, eng, err)
					}
				}
			}
		}
	}
}

// TestColoringFlowAgainstReference: the full coloring flow returns the true
// chromatic number and a proper coloring on random tiny graphs, with and
// without the search knobs.
func TestColoringFlowAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cfgs := []core.Config{
		{},
		{Knobs: core.Knobs{Knobs: pbsolver.Knobs{GlueLBD: 1, ReduceInterval: 4, RestartBase: 1}}},
	}
	for iter := 0; iter < 12; iter++ {
		n := 4 + rng.Intn(4)
		g := testutil.RandomGraph(rng, "prop", n, 0.5)
		chi := testutil.BruteForceChromatic(g)
		for ci, base := range cfgs {
			cfg := base
			cfg.K = n
			out := core.Solve(context.Background(), g, cfg)
			if !out.Solved() || out.Chi != chi {
				t.Fatalf("iter %d cfg %d: chi=%d solved=%t, reference chromatic=%d",
					iter, ci, out.Chi, out.Solved(), chi)
			}
			// The witness picks χ distinct colors out of [0, K), not
			// necessarily the first χ.
			if err := testutil.CheckColoring(g, out.Coloring, cfg.K); err != nil {
				t.Fatalf("iter %d cfg %d: %v", iter, ci, err)
			}
			used := map[int]bool{}
			for _, c := range out.Coloring {
				used[c] = true
			}
			if len(used) != chi {
				t.Fatalf("iter %d cfg %d: witness uses %d colors, chromatic number is %d",
					iter, ci, len(used), chi)
			}
		}
	}
}

// TestBruteForceOracleSelfCheck pins the oracle on formulas with known
// answers, so the property tests cannot silently test against a broken
// reference.
func TestBruteForceOracleSelfCheck(t *testing.T) {
	f := cnf.NewFormula(2)
	f.AddClause(cnf.PosLit(1), cnf.PosLit(2))
	f.AddClause(cnf.NegLit(1))
	ok, m := testutil.BruteForceSAT(f)
	if !ok || m.Lit(cnf.PosLit(1)) || !m.Lit(cnf.PosLit(2)) {
		t.Fatalf("oracle: got ok=%t model=%v, want x1=false x2=true", ok, m)
	}
	f.AddClause(cnf.NegLit(2))
	if ok, _ := testutil.BruteForceSAT(f); ok {
		t.Fatal("oracle: contradictory formula reported SAT")
	}
}
