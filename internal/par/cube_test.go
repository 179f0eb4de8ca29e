package par

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/cnf"
	"repro/internal/pb"
	"repro/internal/testutil"
)

// TestCubeDeterminism pins the generator's contract: a fixed seed yields
// byte-identical cube sets on repeated runs, and the branching pool is
// ranked identically too.
func TestCubeDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	f := testutil.RandomCNF(rng, 18, 60, 4)
	for _, seed := range []int64{0, 1, 42} {
		a := CubesPB(pb.FromCNF(f), CubeOptions{Depth: 4, Seed: seed})
		b := CubesPB(pb.FromCNF(f), CubeOptions{Depth: 4, Seed: seed})
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: generation not deterministic:\n%v\nvs\n%v", seed, a, b)
		}
		if len(a.Cubes) == 0 && !a.RootUnsat {
			t.Fatalf("seed %d: no cubes and no root refutation", seed)
		}
	}
}

// TestCubesCoverModels is the soundness half of the split: every model of
// the formula must satisfy at least one emitted cube (refuted branches
// may only ever exclude non-models).
func TestCubesCoverModels(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var ex exercised
	split := 0
	for round := 0; round < 30; round++ {
		f := testutil.RandomCNF(rng, 6+rng.Intn(8), 10+rng.Intn(25), 3)
		cs := CubesPB(pb.FromCNF(f), CubeOptions{Depth: 3, Seed: int64(round)})
		sat, _ := testutil.BruteForceSAT(f)
		ex.note(f, sat)
		if cs.RootUnsat {
			if sat {
				t.Fatalf("round %d: generator refuted a satisfiable formula", round)
			}
			continue
		}
		if len(cs.Cubes) > 1 {
			split++
		}
		// Enumerate all assignments; every model must hit some cube.
		n := f.NumVars
		for mask := uint64(0); mask < 1<<n; mask++ {
			m := make(cnf.Assignment, n+1)
			for v := 1; v <= n; v++ {
				m[v] = mask&(1<<(v-1)) != 0
			}
			if !f.Satisfies(m) {
				continue
			}
			covered := false
			for _, cube := range cs.Cubes {
				all := true
				for _, l := range cube {
					if !m.Lit(l) {
						all = false
						break
					}
				}
				if all {
					covered = true
					break
				}
			}
			if !covered {
				t.Fatalf("round %d: model %v not covered by any of %d cubes", round, m, len(cs.Cubes))
			}
		}
	}
	ex.require(t)
	if 2*split <= ex.rounds {
		t.Fatalf("only %d of %d rounds split into more than one cube", split, ex.rounds)
	}
}

// TestCubesDisjoint: sibling branches differ in the branch literal's
// phase, so no assignment satisfies two distinct cubes.
func TestCubesDisjoint(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := testutil.RandomCNF(rng, 12, 30, 3)
	cs := CubesPB(pb.FromCNF(f), CubeOptions{Depth: 4, Seed: 5})
	if len(cs.Cubes) < 2 {
		t.Fatalf("%d cubes: nothing to compare pairwise", len(cs.Cubes))
	}
	for i := range cs.Cubes {
		for j := i + 1; j < len(cs.Cubes); j++ {
			if !conflicting(cs.Cubes[i], cs.Cubes[j]) {
				t.Fatalf("cubes %v and %v are not mutually exclusive", cs.Cubes[i], cs.Cubes[j])
			}
		}
	}
}

func conflicting(a, b []cnf.Lit) bool {
	for _, la := range a {
		for _, lb := range b {
			if la == lb.Neg() {
				return true
			}
		}
	}
	return false
}

// TestCubesPBPruning: PB slack propagation refutes branches CNF clauses
// alone cannot, and the root refutation fires on infeasible constraints.
func TestCubesPBPruning(t *testing.T) {
	// x1 + x2 + x3 >= 2: once one variable goes false the slack forces the
	// other two true, so no surviving cube sets two variables false.
	f := pb.NewFormula(3)
	f.AddPB([]pb.Term{{Coef: 1, Lit: cnf.PosLit(1)}, {Coef: 1, Lit: cnf.PosLit(2)}, {Coef: 1, Lit: cnf.PosLit(3)}}, pb.GE, 2)
	cs := CubesPB(f, CubeOptions{Depth: 3, Seed: 0})
	if cs.RootUnsat {
		t.Fatal("feasible formula reported root-unsat")
	}
	for _, cube := range cs.Cubes {
		neg := 0
		for _, l := range cube {
			if !l.Sign() {
				neg++
			}
		}
		if neg >= 2 {
			t.Fatalf("cube %v sets two variables false but survived the >=2 constraint", cube)
		}
	}

	// An infeasible constraint refutes the root.
	g := pb.NewFormula(2)
	g.AddPB([]pb.Term{{Coef: 1, Lit: cnf.PosLit(1)}, {Coef: 1, Lit: cnf.PosLit(2)}}, pb.GE, 3)
	if cs := CubesPB(g, CubeOptions{Depth: 2}); !cs.RootUnsat {
		t.Fatal("infeasible constraint not refuted at the root")
	}
}

// TestCubesDepthZero emits exactly one empty cube (sequential conquest).
func TestCubesDepthZero(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	f := testutil.RandomCNF(rng, 10, 20, 3)
	cs := CubesPB(pb.FromCNF(f), CubeOptions{Depth: 0, Seed: 0})
	if cs.RootUnsat {
		t.Skip("random formula happened to be root-unsat")
	}
	if len(cs.Cubes) != 1 || len(cs.Cubes[0]) != 0 {
		t.Fatalf("depth 0: want one empty cube, got %v", cs.Cubes)
	}
}
