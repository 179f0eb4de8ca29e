package core

import (
	"context"
	"testing"
	"time"

	"repro/internal/encode"
	"repro/internal/graph"
	"repro/internal/pbsolver"
)

// TestParallelMatchesSequentialDSJC is the subsystem's acceptance check: a
// DSJC-style random instance solved with 4 cube-and-conquer workers must
// report the same chromatic number as the sequential engine. The sequential
// engine decides it in a few dozen conflicts, inside worker 0's solo
// allowance, so the parallel solve is that same search with no cube; the
// myciel3 case (K=12, no SBP: over 13,000 conflicts) splits into cubes.
func TestParallelMatchesSequentialDSJC(t *testing.T) {
	myciel3, err := graph.Benchmark("myciel3")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		g     *graph.Graph
		base  Config
		split bool
	}{
		// A planted DSJC-style random graph, scaled so the test stays fast.
		{graph.PartitePlanted("DSJC-style-45", 45, 280, 5, 11), Config{K: 8, SBP: encode.SBPNU}, false},
		{myciel3, Config{K: 12, SBP: encode.SBPNone}, true},
	} {
		g, base := tc.g, tc.base
		base.Engine, base.Timeout = pbsolver.EnginePBS, 2*time.Minute

		seq := Solve(context.Background(), g, base)
		if !seq.Solved() {
			t.Fatalf("%s: sequential did not finish: %v", g.Name(), seq.Result.Status)
		}

		par4 := base
		par4.Parallel = 4
		par := Solve(context.Background(), g, par4)
		if !par.Solved() {
			t.Fatalf("%s: parallel did not finish: %v", g.Name(), par.Result.Status)
		}
		if par.Chi != seq.Chi || par.Result.Status != seq.Result.Status {
			t.Fatalf("%s: parallel (chi=%d, %v) disagrees with sequential (chi=%d, %v)",
				g.Name(), par.Chi, par.Result.Status, seq.Chi, seq.Result.Status)
		}
		if par.Par == nil {
			t.Fatalf("%s: parallel outcome is missing cube-and-conquer stats", g.Name())
		}
		if par.Par.Workers != 4 || (par.Par.CubesGenerated > 0) != tc.split {
			t.Fatalf("%s: unexpected par stats (split %v): %+v", g.Name(), tc.split, par.Par)
		}
		if !tc.split && (par.Result.Stats.Conflicts != seq.Result.Stats.Conflicts ||
			par.Result.Stats.Decisions != seq.Result.Stats.Decisions) {
			t.Fatalf("%s: solo search (%d conflicts, %d decisions) is not the sequential one (%d, %d)",
				g.Name(), par.Result.Stats.Conflicts, par.Result.Stats.Decisions,
				seq.Result.Stats.Conflicts, seq.Result.Stats.Decisions)
		}
		if par.Coloring != nil && !g.IsProperColoring(par.Coloring) {
			t.Fatalf("%s: parallel witness coloring is improper", g.Name())
		}
	}
}

// TestParallelBnBFallsBackToCDCL: EngineBnB has no assumption core, so a
// parallel solve conquers with PBS workers and says so in Winner.
func TestParallelBnBFallsBackToCDCL(t *testing.T) {
	g, err := graph.Benchmark("myciel3")
	if err != nil {
		t.Fatal(err)
	}
	out := Solve(context.Background(), g, Config{
		K: 6, SBP: encode.SBPNU, Engine: pbsolver.EngineBnB, Knobs: Knobs{Parallel: 2},
	})
	if out.Chi != 4 {
		t.Fatalf("chi=%d, want 4", out.Chi)
	}
	if out.Winner != pbsolver.EnginePBS {
		t.Fatalf("winner %v, want pbs2 fallback", out.Winner)
	}
}

// TestParallelKnobsAnswerInvariant: cube depth and sharing settings
// may change the search shape, never the answer.
func TestParallelKnobsAnswerInvariant(t *testing.T) {
	g, err := graph.Benchmark("queen5_5")
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []Config{
		{K: 7, SBP: encode.SBPNU, Knobs: Knobs{Parallel: 2, CubeDepth: 1}},
		{K: 7, SBP: encode.SBPNU, Knobs: Knobs{Parallel: 3, CubeDepth: 6}},
		{K: 7, SBP: encode.SBPNU, Knobs: Knobs{Parallel: 4, ShareLBD: -1}},
		{K: 7, SBP: encode.SBPNU, Knobs: Knobs{Parallel: 4, ShareLBD: 8}},
	} {
		out := Solve(context.Background(), g, cfg)
		if out.Chi != 5 {
			t.Fatalf("cfg %+v: chi=%d, want 5", cfg, out.Chi)
		}
	}
}

// TestParallelNoStallAboveChi: a color bound far above χ must not stall
// cube-and-conquer. Under NU the generator's first cubes branch on the
// color-usage variables y_j, so with K above the vertex count a cube can
// force more colors into use than there are vertices, and refuting that
// is a pigeonhole proof no worker finishes in time. One engine answers
// every cell here in under 0.1 s, so every cell must come back OPTIMAL
// well inside the 1 s budget. Under the race detector one engine needs
// 0.9–1.15 s on queen5_5, K=30, SC, so a race build allows 10 s a cell.
func TestParallelNoStallAboveChi(t *testing.T) {
	budget := time.Second
	if raceEnabled {
		budget = 10 * time.Second
	}
	for _, inst := range []struct {
		name string
		chi  int
	}{{"myciel3", 4}, {"queen5_5", 5}} {
		g, err := graph.Benchmark(inst.name)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{12, 20, 30} {
			for _, kind := range []encode.SBPKind{encode.SBPNU, encode.SBPNUSC, encode.SBPSC, encode.SBPCA, encode.SBPLI} {
				for _, workers := range []int{2, 3} {
					out := Solve(context.Background(), g, Config{
						K: k, SBP: kind, Timeout: budget, Knobs: Knobs{Parallel: workers},
					})
					if out.Result.Status != pbsolver.StatusOptimal || out.Chi != inst.chi {
						t.Errorf("%s K=%d %v parallel=%d: %v chi=%d after %v, want OPTIMAL chi=%d",
							inst.name, k, kind, workers, out.Result.Status, out.Chi,
							out.Result.Runtime.Round(time.Millisecond), inst.chi)
					}
				}
			}
		}
	}
}
