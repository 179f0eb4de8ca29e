package pbsolver

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"repro/internal/encode"
	"repro/internal/graph"
)

func TestPortfolioMatchesSingleEngine(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for iter := 0; iter < 40; iter++ {
		f := randomPBFormula(rng, 3+rng.Intn(5))
		withObjective(rng, f)
		wantSat, wantZ := bruteOptimum(f)
		res := PortfolioSolve(context.Background(), f, PortfolioOptions{})
		if !wantSat {
			if res.Status != StatusUnsat {
				t.Fatalf("iter %d: %v, want UNSAT", iter, res.Status)
			}
			continue
		}
		if res.Status != StatusOptimal || res.Objective != wantZ {
			t.Fatalf("iter %d: %v obj=%d, want OPTIMAL %d", iter, res.Status, res.Objective, wantZ)
		}
		if !f.Satisfies(res.Model) {
			t.Fatalf("iter %d: invalid model", iter)
		}
		if len(res.PerEngine) != 4 {
			t.Fatalf("iter %d: PerEngine %d", iter, len(res.PerEngine))
		}
	}
}

func TestPortfolioSubsetEngines(t *testing.T) {
	f := pigeonPB(5, 4) // UNSAT
	res := PortfolioSolve(context.Background(), f, PortfolioOptions{
		Engines: []Engine{EnginePBS, EngineBnB},
	})
	if res.Status != StatusUnsat {
		t.Fatalf("%v", res.Status)
	}
	if res.Winner != EnginePBS && res.Winner != EngineBnB {
		t.Fatalf("winner %v not in subset", res.Winner)
	}
}

func TestPortfolioCancelsLaggards(t *testing.T) {
	// A formula trivial for CDCL (immediate UNSAT at root) but with a huge
	// search space for a cancelled laggard: the portfolio must return
	// quickly even though one engine alone would run much longer.
	f := pigeonPB(9, 8) // hard UNSAT for the learning-free BnB
	start := time.Now()
	res := PortfolioSolve(context.Background(), f, PortfolioOptions{
		Base:    Options{Timeout: 30 * time.Second},
		Engines: []Engine{EngineBnB, EnginePBS, EngineGalena},
	})
	elapsed := time.Since(start)
	if res.Status != StatusUnsat {
		t.Fatalf("%v", res.Status)
	}
	// CDCL proves PHP(9,8) in well under a second; BnB alone would churn
	// far longer but must get cancelled.
	if elapsed > 20*time.Second {
		t.Fatalf("laggards not cancelled: took %v", elapsed)
	}
}

func TestPortfolioTimeoutKeepsIncumbent(t *testing.T) {
	// With an infeasible budget the portfolio still reports the best
	// feasible incumbent across engines.
	rng := rand.New(rand.NewSource(60))
	for iter := 0; iter < 20; iter++ {
		f := randomPBFormula(rng, 8)
		withObjective(rng, f)
		wantSat, wantZ := bruteOptimum(f)
		res := PortfolioSolve(context.Background(), f, PortfolioOptions{Base: Options{MaxConflicts: 2}})
		switch res.Status {
		case StatusOptimal:
			if !wantSat || res.Objective != wantZ {
				t.Fatalf("iter %d: false optimal", iter)
			}
		case StatusSat:
			if !wantSat || res.Objective < wantZ {
				t.Fatalf("iter %d: impossible incumbent", iter)
			}
		case StatusUnsat:
			if wantSat {
				t.Fatalf("iter %d: false UNSAT", iter)
			}
		}
	}
}

func TestPortfolioRespectsCancelledContext(t *testing.T) {
	// An already-cancelled context must return immediately without
	// starting any engine.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	f := pigeonPB(9, 8)
	start := time.Now()
	res := PortfolioSolve(ctx, f, PortfolioOptions{})
	if res.Status != StatusUnknown {
		t.Fatalf("got %v, want UNKNOWN from cancelled context", res.Status)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("cancelled context still ran for %v", elapsed)
	}
	if res.Stats.Decisions != 0 || res.Stats.Nodes != 0 {
		t.Fatalf("engines did work under a cancelled context: %+v", res.Stats)
	}
}

func TestPortfolioExternalCancelStopsEngines(t *testing.T) {
	// PHP(11,10) keeps every engine busy for much longer than the cancel
	// delay; cancelling the caller's context must stop all of them
	// promptly even though no engine has answered.
	f := pigeonPB(11, 10)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	res := PortfolioSolve(ctx, f, PortfolioOptions{})
	elapsed := time.Since(start)
	if elapsed > 10*time.Second {
		t.Fatalf("external cancel not honored: portfolio ran %v", elapsed)
	}
	// A definitive answer in under 50ms is implausible for PHP(11,10) on
	// every engine; whatever came back, all laggards must have stopped.
	_ = res
}

func TestPortfolioHungEngineCancelledOnDefinitiveAnswer(t *testing.T) {
	// PHP(10,9) is a sub-second proof for the bounding-based BnB but takes
	// the CDCL engines far longer (clause learning alone fights the
	// pigeonhole symmetry); once BnB returns UNSAT the portfolio must
	// cancel the hung CDCL laggard promptly and report it as Unknown.
	f := pigeonPB(10, 9)
	start := time.Now()
	res := PortfolioSolve(context.Background(), f, PortfolioOptions{
		Engines: []Engine{EnginePBS, EngineBnB},
	})
	if res.Status != StatusUnsat {
		t.Fatalf("got %v, want UNSAT", res.Status)
	}
	if res.Winner != EngineBnB {
		t.Fatalf("winner %v, want bnb", res.Winner)
	}
	if res.PerEngine[0].Status != StatusUnknown {
		t.Fatalf("hung CDCL engine reported %v, want UNKNOWN after cancellation", res.PerEngine[0].Status)
	}
	if elapsed := time.Since(start); elapsed > 20*time.Second {
		t.Fatalf("hung engine not cancelled: took %v", elapsed)
	}
}

// TestPortfolioStatsSumEngines: the merged Stats count every engine's
// search exactly once — the winner included — so they equal the sum of
// PerEngine on the coloring encodings the service solves.
func TestPortfolioStatsSumEngines(t *testing.T) {
	for _, tc := range []struct {
		name string
		k    int
		kind encode.SBPKind
	}{
		{"myciel3", 6, encode.SBPNUSC},
		{"myciel4", 8, encode.SBPNUSC},
		{"queen5_5", 8, encode.SBPNU},
	} {
		g, err := graph.Benchmark(tc.name)
		if err != nil {
			t.Fatal(err)
		}
		res := PortfolioSolve(context.Background(), encode.Build(g, tc.k, tc.kind).F, PortfolioOptions{})
		if res.Status != StatusOptimal {
			t.Fatalf("%s: status %v, want OPTIMAL", tc.name, res.Status)
		}
		var want Stats
		for _, r := range res.PerEngine {
			want.add(r.Stats)
			want.SolverCalls += r.Stats.SolverCalls
		}
		if res.Stats != want {
			t.Errorf("%s: portfolio Stats %+v, sum over engines %+v", tc.name, res.Stats, want)
		}
	}
}
