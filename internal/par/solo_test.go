package par

import (
	"context"
	"testing"
	"time"

	"repro/internal/encode"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/pb"
	"repro/internal/pbsolver"
	"repro/internal/solverutil"
	"repro/internal/testutil"
)

// tracedOptimize runs Optimize under a "solve" span and returns the
// solve.worker spans it opened.
func tracedOptimize(ctx context.Context, f *pb.Formula, opts Options) (Result, []*obs.SpanView) {
	tr := obs.NewTrace("par-test", "job")
	solve := tr.StartSpan(nil, "solve")
	res := Optimize(obs.ContextWithSpan(ctx, solve), f, opts)
	solve.End()
	var workers []*obs.SpanView
	for _, c := range tr.View().Find("solve").Children {
		if c.Name == "solve.worker" {
			workers = append(workers, c)
		}
	}
	return res, workers
}

func spanAttrs(s *obs.SpanView) map[string]any {
	m := map[string]any{}
	for _, a := range s.Attrs {
		m[a.Key] = a.Value()
	}
	return m
}

// TestOptimizeSoloMatchesSequential: a job the sequential engine decides
// within the solo allowance runs exactly that engine's search on worker 0
// alone. On the racers and planted graphs (K=20, NU+SC, 13 to 203
// conflicts) a two-worker Optimize reports pbsolver.Optimize's status,
// objective, conflicts and decisions, generates no cube, shares no clause,
// and opens one solve.worker span, worker 0's, which proved the answer.
func TestOptimizeSoloMatchesSequential(t *testing.T) {
	for _, g := range append(testutil.RacerGraphs(), testutil.PlantedGraphs()...) {
		f := encode.Build(g, 20, encode.SBPNUSC).F
		seq := pbsolver.Optimize(context.Background(), f, pbsolver.Options{})
		if seq.Stats.Conflicts >= soloConflicts {
			t.Fatalf("%s: %d sequential conflicts, not a solo job", g.Name(), seq.Stats.Conflicts)
		}
		res, workers := tracedOptimize(context.Background(), f, Options{Workers: 2})
		if res.Status != seq.Status || res.Objective != seq.Objective ||
			res.Stats.Conflicts != seq.Stats.Conflicts || res.Stats.Decisions != seq.Stats.Decisions {
			t.Errorf("%s: par (%v, z=%d, %d conflicts, %d decisions), sequential (%v, z=%d, %d, %d)",
				g.Name(), res.Status, res.Objective, res.Stats.Conflicts, res.Stats.Decisions,
				seq.Status, seq.Objective, seq.Stats.Conflicts, seq.Stats.Decisions)
		}
		if p := res.Par; p.Workers != 2 || p.CubesGenerated != 0 || p.CubesRefuted != 0 || p.CubesClosed != 0 ||
			p.ClausesExported != 0 || p.ClausesImported != 0 {
			t.Errorf("%s: solo job reports par stats %+v", g.Name(), p)
		}
		if len(workers) != 1 {
			t.Fatalf("%s: %d solve.worker spans, want worker 0's alone", g.Name(), len(workers))
		}
		if a := spanAttrs(workers[0]); a["role"] != "whole" || a["proved"] != true {
			t.Errorf("%s: worker span attrs %v, want role=whole proved=true", g.Name(), a)
		}
	}
}

// TestOptimizeSplitsPastSoloAllowance: a job still undecided after the
// allowance splits (cubes generated, a span per worker, clauses exchanged,
// the right χ), while a one-worker pool never splits and stays the
// sequential search.
func TestOptimizeSplitsPastSoloAllowance(t *testing.T) {
	g, err := graph.Benchmark("myciel3")
	if err != nil {
		t.Fatal(err)
	}
	f := encode.Build(g, 10, encode.SBPNone).F // one engine: ~6,000 conflicts
	seq := pbsolver.Optimize(context.Background(), f, pbsolver.Options{})
	if seq.Status != pbsolver.StatusOptimal || seq.Stats.Conflicts < 2*soloConflicts {
		t.Fatalf("sequential: %v after %d conflicts, want OPTIMAL past twice the allowance", seq.Status, seq.Stats.Conflicts)
	}

	res, workers := tracedOptimize(context.Background(), f, Options{Workers: 3})
	if res.Status != pbsolver.StatusOptimal || res.Objective != 4 {
		t.Fatalf("Workers 3: (%v, %d), want (OPTIMAL, 4)", res.Status, res.Objective)
	}
	if res.Par.CubesGenerated == 0 {
		t.Fatalf("Workers 3: no cubes past the allowance: %+v", res.Par)
	}
	if res.Par.ClausesImported == 0 {
		t.Fatalf("Workers 3: no clause crossed the exchange after the split: %+v", res.Par)
	}
	if len(workers) != 3 {
		t.Fatalf("Workers 3: %d solve.worker spans, want 3", len(workers))
	}
	for _, w := range workers {
		a := spanAttrs(w)
		if a["role"] == "whole" && a["conflicts"].(int64) < soloConflicts {
			t.Fatalf("worker 0 split after %v conflicts, want at least %d", a["conflicts"], soloConflicts)
		}
	}

	one := Optimize(context.Background(), f, Options{Workers: 1})
	if one.Status != seq.Status || one.Objective != seq.Objective ||
		one.Stats.Conflicts != seq.Stats.Conflicts || one.Stats.Decisions != seq.Stats.Decisions {
		t.Fatalf("Workers 1: (%v, z=%d, %d conflicts, %d decisions), sequential (%v, z=%d, %d, %d)",
			one.Status, one.Objective, one.Stats.Conflicts, one.Stats.Decisions,
			seq.Status, seq.Objective, seq.Stats.Conflicts, seq.Stats.Decisions)
	}
	if one.Par.CubesGenerated != 0 {
		t.Fatalf("Workers 1 generated %d cubes", one.Par.CubesGenerated)
	}
}

// TestOptimizeCancelDuringSolo: a cancellation that lands while worker 0
// searches alone ends the run promptly without a definitive claim, and
// starts neither the generator nor a cube worker. The first progress
// snapshot, due within worker 0's first 256 search steps, cancels the job.
func TestOptimizeCancelDuringSolo(t *testing.T) {
	g, err := graph.Benchmark("queen6_6")
	if err != nil {
		t.Fatal(err)
	}
	f := encode.Build(g, 9, encode.SBPNone).F
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	start := time.Now()
	res, workers := tracedOptimize(ctx, f, Options{Workers: 2, Solver: pbsolver.Options{
		Progress:         func(solverutil.Progress) { cancel() },
		ProgressInterval: time.Nanosecond,
	}})
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation not prompt: took %v", elapsed)
	}
	if res.Status == pbsolver.StatusOptimal || res.Status == pbsolver.StatusUnsat {
		t.Fatalf("cancelled run claimed %v", res.Status)
	}
	if res.Stats.Conflicts >= soloConflicts {
		t.Fatalf("cancel landed after %d conflicts, not in the solo phase", res.Stats.Conflicts)
	}
	if res.Par.CubesGenerated != 0 || res.Par.CubesRefuted != 0 || len(workers) != 1 {
		t.Fatalf("cancelled solo run started the split: %+v, %d worker spans", res.Par, len(workers))
	}
}
