package par

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"repro/internal/cnf"
	"repro/internal/encode"
	"repro/internal/graph"
	"repro/internal/pb"
	"repro/internal/pbsolver"
	"repro/internal/testutil"
)

// TestSolveCNFMatchesOracle is the exchange-soundness property test: many
// small random CNFs decided by a sharing cube-and-conquer pool must agree
// with the brute-force oracle, and every SAT model must check out. The
// high ShareLBD forces heavy clause traffic between workers.
func TestSolveCNFMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for round := 0; round < 60; round++ {
		f := testutil.RandomCNF(rng, 8+rng.Intn(9), 20+rng.Intn(50), 3)
		want, _ := testutil.BruteForceSAT(f)
		res := Optimize(context.Background(), pb.FromCNF(f), Options{
			Workers:   4,
			CubeDepth: 3,
			ShareLBD:  30, // export essentially every learnt clause
			Seed:      int64(round),
		})
		switch res.Status {
		case pbsolver.StatusOptimal: // decision mode: satisfiable
			if !want {
				t.Fatalf("round %d: par found SAT, oracle says UNSAT (par %+v)", round, res.Par)
			}
			if err := testutil.CheckModel(f, res.Model); err != nil {
				t.Fatalf("round %d: bad model: %v", round, err)
			}
		case pbsolver.StatusUnsat:
			if want {
				t.Fatalf("round %d: par found UNSAT, oracle says SAT (par %+v)", round, res.Par)
			}
		default:
			t.Fatalf("round %d: unexpected %v without a budget", round, res.Status)
		}
	}
}

// TestOptimizeMatchesBruteForceChromatic cross-checks the full parallel
// optimization loop (incumbent sharing, bound tightening, clause
// exchange) against the brute-force chromatic number on small graphs.
func TestOptimizeMatchesBruteForceChromatic(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for round := 0; round < 10; round++ {
		g := testutil.RandomGraph(rng, "par-rand", 7+rng.Intn(2), 0.5)
		want := testutil.BruteForceChromatic(g)
		enc := encode.Build(g, want+2, encode.SBPNU)
		res := Optimize(context.Background(), enc.F, Options{
			Workers:   3,
			CubeDepth: 3,
			ShareLBD:  10,
			Seed:      int64(round),
		})
		if res.Status != pbsolver.StatusOptimal {
			t.Fatalf("round %d: status %v, want OPTIMAL (par %+v)", round, res.Status, res.Par)
		}
		if res.Objective != want {
			t.Fatalf("round %d: chi %d, want %d", round, res.Objective, want)
		}
		if res.Par.CubesGenerated == 0 {
			t.Fatalf("round %d: no cubes generated", round)
		}
	}
}

// TestOptimizeAgreesWithSequential compares the parallel and sequential
// paths on a benchmark instance, sharing enabled and disabled.
func TestOptimizeAgreesWithSequential(t *testing.T) {
	g, err := graph.Benchmark("queen5_5")
	if err != nil {
		t.Fatal(err)
	}
	enc := encode.Build(g, 7, encode.SBPNU)
	seq := pbsolver.Optimize(context.Background(), enc.F, pbsolver.Options{Engine: pbsolver.EnginePBS})
	if seq.Status != pbsolver.StatusOptimal {
		t.Fatalf("sequential: %v", seq.Status)
	}
	for _, share := range []int{0, -1} {
		res := Optimize(context.Background(), enc.F, Options{Workers: 4, ShareLBD: share})
		if res.Status != pbsolver.StatusOptimal || res.Objective != seq.Objective {
			t.Fatalf("share=%d: got (%v, %d), want (OPTIMAL, %d); par %+v",
				share, res.Status, res.Objective, seq.Objective, res.Par)
		}
		if share < 0 && (res.Par.ClausesExported != 0 || res.Par.ClausesImported != 0) {
			t.Fatalf("share=%d: sharing disabled but clauses moved: %+v", share, res.Par)
		}
	}
}

// TestOptimizeUnsat: a color bound below the clique number must prove
// UNSAT through the parallel path too.
func TestOptimizeUnsat(t *testing.T) {
	g := graph.Complete(5)
	enc := encode.Build(g, 4, encode.SBPNU)
	res := Optimize(context.Background(), enc.F, Options{Workers: 3, CubeDepth: 2})
	if res.Status != pbsolver.StatusUnsat {
		t.Fatalf("K4-bound on K5: got %v, want UNSAT (par %+v)", res.Status, res.Par)
	}
}

// TestOptimizeDecisionMode exercises the no-objective path: first
// satisfying cube wins; all-cubes-unsat proves UNSAT.
func TestOptimizeDecisionMode(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for round := 0; round < 30; round++ {
		cf := testutil.RandomCNF(rng, 8+rng.Intn(6), 15+rng.Intn(40), 3)
		want, _ := testutil.BruteForceSAT(cf)
		res := Optimize(context.Background(), pb.FromCNF(cf), Options{Workers: 4, CubeDepth: 3, Seed: int64(round)})
		if want && res.Status != pbsolver.StatusOptimal {
			t.Fatalf("round %d: got %v, want OPTIMAL(SAT)", round, res.Status)
		}
		if !want && res.Status != pbsolver.StatusUnsat {
			t.Fatalf("round %d: got %v, want UNSAT", round, res.Status)
		}
		if want {
			if err := testutil.CheckModel(cf, res.Model); err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
		}
	}
}

// TestOptimizeCancellation: a pre-cancelled and a promptly-cancelled
// context both abort without a definitive claim.
func TestOptimizeCancellation(t *testing.T) {
	g, err := graph.Benchmark("queen6_6")
	if err != nil {
		t.Fatal(err)
	}
	enc := encode.Build(g, 9, encode.SBPNone)

	done, cancel := context.WithCancel(context.Background())
	cancel()
	res := Optimize(done, enc.F, Options{Workers: 2})
	if res.Status != pbsolver.StatusUnknown {
		t.Fatalf("pre-cancelled: got %v, want UNKNOWN", res.Status)
	}

	// Many cubes and few workers, cancelled mid-conquest: cubes still
	// sitting in the feeder must not be forgotten — a truncated run may
	// never claim a definitive (covering-proof) answer.
	ctx, cancel2 := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel2()
	start := time.Now()
	res = Optimize(ctx, enc.F, Options{Workers: 2, CubeDepth: 8})
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation not prompt: took %v", elapsed)
	}
	if res.Status == pbsolver.StatusUnsat || res.Status == pbsolver.StatusOptimal {
		t.Fatalf("timed-out run claimed a definitive answer: %v (closed %d of %d cubes)",
			res.Status, res.Par.CubesClosed, res.Par.CubesGenerated)
	}
}

// TestOptimizeSharesAcrossWorkers asserts the exchange actually carries
// clauses on a real instance (the soundness tests above would pass
// vacuously if sharing never fired).
func TestOptimizeSharesAcrossWorkers(t *testing.T) {
	g, err := graph.Benchmark("queen6_6")
	if err != nil {
		t.Fatal(err)
	}
	enc := encode.Build(g, 8, encode.SBPNU)
	res := Optimize(context.Background(), enc.F, Options{Workers: 4, ShareLBD: 6})
	if res.Status != pbsolver.StatusOptimal || res.Objective != 7 {
		t.Fatalf("queen6_6: got (%v, %d), want (OPTIMAL, 7)", res.Status, res.Objective)
	}
	if res.Par.ClausesExported == 0 {
		t.Fatalf("no clauses exported on a nontrivial instance: %+v", res.Par)
	}
	if res.Stats.Imported == 0 {
		t.Fatalf("engines never attached an imported clause: %+v", res.Par)
	}
}

// TestSolveCNFColoringDecision runs the parallel decision mode on a real
// pure CNF coloring encoding in both phases (colorable and not).
func TestSolveCNFColoringDecision(t *testing.T) {
	g := graph.Petersen() // chi = 3
	for _, tc := range []struct {
		k    int
		want pbsolver.Status
	}{{3, pbsolver.StatusOptimal}, {2, pbsolver.StatusUnsat}} {
		f := decisionCNF(g, tc.k)
		res := Optimize(context.Background(), pb.FromCNF(f), Options{Workers: 3, CubeDepth: 4})
		if res.Status != tc.want {
			t.Fatalf("k=%d: got %v, want %v", tc.k, res.Status, tc.want)
		}
		if res.Status == pbsolver.StatusOptimal {
			if err := testutil.CheckModel(f, res.Model); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// decisionCNF mirrors core.DecisionCNF (not imported to keep par's test
// dependencies on the formula layers only).
func decisionCNF(g *graph.Graph, K int) *cnf.Formula {
	n := g.N()
	f := cnf.NewFormula(n * K)
	x := func(i, j int) cnf.Lit { return cnf.PosLit(i*K + j + 1) }
	for i := 0; i < n; i++ {
		cl := make([]cnf.Lit, K)
		for j := 0; j < K; j++ {
			cl[j] = x(i, j)
		}
		f.AddClause(cl...)
		for a := 0; a < K; a++ {
			for b := a + 1; b < K; b++ {
				f.AddClause(x(i, a).Neg(), x(i, b).Neg())
			}
		}
	}
	for _, e := range g.Edges() {
		for j := 0; j < K; j++ {
			f.AddClause(x(e[0], j).Neg(), x(e[1], j).Neg())
		}
	}
	return f
}
