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
// report the same chromatic number as the sequential engine.
func TestParallelMatchesSequentialDSJC(t *testing.T) {
	// A planted DSJC-style random graph, scaled so the test stays fast.
	g := graph.PartitePlanted("DSJC-style-45", 45, 280, 5, 11)
	base := Config{K: 8, SBP: encode.SBPNU, Engine: pbsolver.EnginePBS, Timeout: 2 * time.Minute}

	seq := Solve(context.Background(), g, base)
	if !seq.Solved() {
		t.Fatalf("sequential did not finish: %v", seq.Result.Status)
	}

	par4 := base
	par4.Parallel = 4
	par := Solve(context.Background(), g, par4)
	if !par.Solved() {
		t.Fatalf("parallel did not finish: %v", par.Result.Status)
	}
	if par.Chi != seq.Chi || par.Result.Status != seq.Result.Status {
		t.Fatalf("parallel (chi=%d, %v) disagrees with sequential (chi=%d, %v)",
			par.Chi, par.Result.Status, seq.Chi, seq.Result.Status)
	}
	if par.Par == nil {
		t.Fatal("parallel outcome is missing cube-and-conquer stats")
	}
	if par.Par.Workers != 4 || par.Par.CubesGenerated == 0 {
		t.Fatalf("unexpected par stats: %+v", par.Par)
	}
	if par.Coloring != nil && !g.IsProperColoring(par.Coloring) {
		t.Fatal("parallel witness coloring is improper")
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
// well inside the 1 s budget.
func TestParallelNoStallAboveChi(t *testing.T) {
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
						K: k, SBP: kind, Timeout: time.Second, Knobs: Knobs{Parallel: workers},
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
