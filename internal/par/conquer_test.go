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

// exercised counts what a property test's rounds covered, so the test can
// fail when its random formulas stop reaching the code under test.
type exercised struct {
	rounds, searched, conflicted, sat, unsat int
}

// note records one round's formula: whether the sequential engine needs a
// decision, and a conflict, to settle it, and which way the oracle
// answered.
func (e *exercised) note(f *cnf.Formula, sat bool) {
	e.rounds++
	st := pbsolver.Decide(context.Background(), pb.FromCNF(f), pbsolver.Options{}).Stats
	if st.Decisions > 0 {
		e.searched++
	}
	if st.Conflicts > 0 {
		e.conflicted++
	}
	if sat {
		e.sat++
	} else {
		e.unsat++
	}
}

// require fails unless most formulas needed a search and both answers
// occurred: otherwise root propagation settles the rounds and the
// property holds vacuously.
func (e *exercised) require(t *testing.T) {
	t.Helper()
	if 2*e.searched <= e.rounds || e.sat == 0 || e.unsat == 0 {
		t.Fatalf("rounds stopped exercising the search: %d of %d formulas need a decision, %d SAT, %d UNSAT",
			e.searched, e.rounds, e.sat, e.unsat)
	}
}

// requireMarked fails unless most of the formulas the sequential engine
// reaches a conflict on split, under a one-conflict solo allowance, from
// worker 0's conflict mark (and so generated cubes): a formula settled
// without a conflict never reaches the mark.
func (e *exercised) requireMarked(t *testing.T, marked int) {
	t.Helper()
	if marked == 0 || 2*marked <= e.conflicted {
		t.Fatalf("%d of the %d formulas that reach a conflict split from worker 0's conflict mark",
			marked, e.conflicted)
	}
}

// TestSolveCNFMatchesOracle is the exchange-soundness property test: many
// small random CNFs decided by a sharing cube-and-conquer pool must agree
// with the brute-force oracle, and every SAT model must check out. The
// high ShareLBD forces heavy clause traffic between workers, and a restart
// unit of one conflict drains the exchange at almost every conflict. Each
// formula runs twice: split before worker 0 starts (a zero solo
// allowance), and split from worker 0's conflict mark in the middle of its
// first probe (an allowance of one conflict), the path Optimize takes.
// Clauses cross only in rounds where the cube workers probe before worker
// 0 answers, so the formulas are 4-CNFs near their threshold (about 9.9
// clauses per variable), slower to decide than 3-CNFs of the same size.
func TestSolveCNFMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	var ex exercised
	imported := int64(0)
	marked := 0 // rounds that split from worker 0's conflict mark
	for round := 0; round < 60; round++ {
		f := testutil.RandomCNF(rng, 12+rng.Intn(5), 110+rng.Intn(40), 4)
		want, _ := testutil.BruteForceSAT(f)
		ex.note(f, want)
		for _, solo := range []int64{0, 1} {
			res := optimize(context.Background(), pb.FromCNF(f), Options{
				Workers:   4,
				CubeDepth: 3,
				ShareLBD:  30, // export essentially every learnt clause
				Seed:      int64(round),
				Solver:    pbsolver.Options{Knobs: pbsolver.Knobs{RestartBase: 1}},
			}, solo)
			imported += res.Par.ClausesImported
			if solo > 0 && res.Par.CubesGenerated > 0 {
				marked++
			}
			switch res.Status {
			case pbsolver.StatusOptimal: // decision mode: satisfiable
				if !want {
					t.Fatalf("round %d solo %d: par found SAT, oracle says UNSAT (par %+v)", round, solo, res.Par)
				}
				if err := testutil.CheckModel(f, res.Model); err != nil {
					t.Fatalf("round %d solo %d: bad model: %v", round, solo, err)
				}
			case pbsolver.StatusUnsat:
				if want {
					t.Fatalf("round %d solo %d: par found UNSAT, oracle says SAT (par %+v)", round, solo, res.Par)
				}
			default:
				t.Fatalf("round %d solo %d: unexpected %v without a budget", round, solo, res.Status)
			}
		}
	}
	ex.require(t)
	ex.requireMarked(t, marked)
	if imported == 0 {
		t.Fatal("no round imported a shared clause: the exchange went unexercised")
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
		res := optimize(context.Background(), enc.F, Options{
			Workers:   3,
			CubeDepth: 3,
			ShareLBD:  10,
			Seed:      int64(round),
		}, 0)
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
		res := optimize(context.Background(), enc.F, Options{Workers: 4, ShareLBD: share}, 0)
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
	res := optimize(context.Background(), enc.F, Options{Workers: 3, CubeDepth: 2}, 0)
	if res.Status != pbsolver.StatusUnsat {
		t.Fatalf("K4-bound on K5: got %v, want UNSAT (par %+v)", res.Status, res.Par)
	}
}

// TestOptimizeDecisionMode exercises the no-objective path: first
// satisfying cube wins; all-cubes-unsat proves UNSAT. As in
// TestSolveCNFMatchesOracle, each formula runs with the split before
// worker 0 starts and from its conflict mark after one conflict.
func TestOptimizeDecisionMode(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	var ex exercised
	marked := 0
	for round := 0; round < 30; round++ {
		cf := testutil.RandomCNF(rng, 8+rng.Intn(6), 15+rng.Intn(40), 3)
		want, _ := testutil.BruteForceSAT(cf)
		ex.note(cf, want)
		for _, solo := range []int64{0, 1} {
			res := optimize(context.Background(), pb.FromCNF(cf), Options{Workers: 4, CubeDepth: 3, Seed: int64(round)}, solo)
			if solo > 0 && res.Par.CubesGenerated > 0 {
				marked++
			}
			if want && res.Status != pbsolver.StatusOptimal {
				t.Fatalf("round %d solo %d: got %v, want OPTIMAL(SAT)", round, solo, res.Status)
			}
			if !want && res.Status != pbsolver.StatusUnsat {
				t.Fatalf("round %d solo %d: got %v, want UNSAT", round, solo, res.Status)
			}
			if want {
				if err := testutil.CheckModel(cf, res.Model); err != nil {
					t.Fatalf("round %d solo %d: %v", round, solo, err)
				}
			}
		}
	}
	ex.require(t)
	ex.requireMarked(t, marked)
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
	res := optimize(done, enc.F, Options{Workers: 2}, 0)
	if res.Status != pbsolver.StatusUnknown {
		t.Fatalf("pre-cancelled: got %v, want UNKNOWN", res.Status)
	}

	// Many cubes and few workers, cancelled mid-conquest: cubes still
	// sitting in the feeder must not be forgotten — a truncated run may
	// never claim a definitive (covering-proof) answer.
	ctx, cancel2 := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel2()
	start := time.Now()
	res = optimize(ctx, enc.F, Options{Workers: 2, CubeDepth: 8}, 0)
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
	res := optimize(context.Background(), enc.F, Options{Workers: 4, ShareLBD: 6}, 0)
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
		res := optimize(context.Background(), pb.FromCNF(f), Options{Workers: 3, CubeDepth: 4}, 0)
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
