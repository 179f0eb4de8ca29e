// Package repro's root benchmark suite regenerates each of the paper's
// tables and figures at bench scale (one bench per artifact) plus the
// design-choice ablations called out in DESIGN.md. The full-budget runs are
// produced by cmd/experiments; these benches exercise the identical code
// paths on reduced instance subsets so `go test -bench=.` stays tractable.
package repro

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"repro/internal/autom"
	"repro/internal/cnf"
	"repro/internal/core"
	"repro/internal/encode"
	"repro/internal/experiments"
	"repro/internal/graph"
	"repro/internal/heuristic"
	"repro/internal/pbsolver"
	"repro/internal/sbp"
	"repro/internal/service"
	"repro/internal/symgraph"
)

// BenchmarkTable1 regenerates the benchmark-statistics table (generation +
// certification, no exact verification).
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table1(0)
		if err != nil || len(rows) != 20 {
			b.Fatalf("rows=%d err=%v", len(rows), err)
		}
	}
}

// BenchmarkTable2 measures encoding + symmetry detection per SBP type on a
// representative subset (full 20-instance run: cmd/experiments -table 2).
func BenchmarkTable2(b *testing.B) {
	cfg := experiments.Config{
		K:           8,
		Instances:   []string{"myciel3", "myciel4", "queen5_5"},
		SymMaxNodes: 100000,
	}
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table2(cfg)
		if err != nil || len(rows) != 6 {
			b.Fatalf("rows=%d err=%v", len(rows), err)
		}
	}
}

// BenchmarkTable3 runs the K=20-style solver matrix on a small subset.
func BenchmarkTable3(b *testing.B) {
	b.ReportAllocs()
	cfg := experiments.Config{
		K:           8,
		Timeout:     2 * time.Second,
		Instances:   []string{"myciel3", "queen5_5"},
		Engines:     []pbsolver.Engine{pbsolver.EnginePBS, pbsolver.EngineBnB},
		SBPs:        []encode.SBPKind{encode.SBPNone, encode.SBPNU, encode.SBPSC},
		SymMaxNodes: 50000,
	}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Matrix(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable4 is the K=30 variant (scaled to K=12 here; the real bound
// is exercised by cmd/experiments -table 4).
func BenchmarkTable4(b *testing.B) {
	b.ReportAllocs()
	cfg := experiments.Config{
		K:           12,
		Timeout:     2 * time.Second,
		Instances:   []string{"myciel3", "queen5_5"},
		Engines:     []pbsolver.Engine{pbsolver.EnginePBS},
		SBPs:        []encode.SBPKind{encode.SBPNone, encode.SBPNUSC},
		SymMaxNodes: 50000,
	}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Matrix(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable5 runs the queens-appendix detail on queen5_5.
func BenchmarkTable5(b *testing.B) {
	b.ReportAllocs()
	cfg := experiments.Config{
		K:           7,
		Timeout:     5 * time.Second,
		Instances:   []string{"queen5_5"},
		Engines:     []pbsolver.Engine{pbsolver.EnginePBS, pbsolver.EnginePueblo},
		SBPs:        []encode.SBPKind{encode.SBPNone, encode.SBPNU, encode.SBPSC},
		SymMaxNodes: 50000,
	}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table5(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure1 enumerates the worked example's optimal assignments
// under every construction and checks the paper's counts.
func BenchmarkFigure1(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure1()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Survivors != r.PaperExpect {
				b.Fatalf("%v: %d != %d", r.Kind, r.Survivors, r.PaperExpect)
			}
		}
	}
}

// --- Ablations (DESIGN.md "Design choices called out for ablation") ---

// BenchmarkAblationSearchStrategy compares the linear objective-tightening
// loop against binary search with fresh solvers.
func BenchmarkAblationSearchStrategy(b *testing.B) {
	g, _ := graph.Benchmark("queen5_5")
	for _, strat := range []struct {
		name string
		s    pbsolver.Strategy
	}{{"linear", pbsolver.LinearSearch}, {"binary", pbsolver.BinarySearch}} {
		b.Run(strat.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				e := encode.Build(g, 7, encode.SBPNU)
				res := pbsolver.Optimize(context.Background(), e.F, pbsolver.Options{
					Engine: pbsolver.EnginePBS, Strategy: strat.s,
				})
				if res.Status != pbsolver.StatusOptimal || res.Objective != 5 {
					b.Fatalf("%v obj=%d", res.Status, res.Objective)
				}
			}
		})
	}
}

// BenchmarkAblationLIEncoding compares the linear prefix-chain LI encoding
// against the paper-literal quadratic variant.
func BenchmarkAblationLIEncoding(b *testing.B) {
	g, _ := graph.Benchmark("myciel4")
	for _, variant := range []struct {
		name string
		kind encode.SBPKind
	}{{"prefix-linear", encode.SBPLI}, {"paper-quadratic", encode.SBPLIQuad}} {
		b.Run(variant.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				e := encode.Build(g, 7, variant.kind)
				res := pbsolver.Optimize(context.Background(), e.F, pbsolver.Options{Engine: pbsolver.EnginePBS})
				if res.Status != pbsolver.StatusOptimal || res.Objective != 5 {
					b.Fatalf("%v obj=%d", res.Status, res.Objective)
				}
				b.ReportMetric(float64(len(e.F.Clauses)), "clauses")
			}
		})
	}
}

// BenchmarkAblationGeneratorPowers compares breaking only group generators
// against additionally breaking their low powers.
func BenchmarkAblationGeneratorPowers(b *testing.B) {
	g, _ := graph.Benchmark("queen5_5")
	for _, variant := range []struct {
		name     string
		maxPower int
	}{{"generators-only", 1}, {"with-powers-3", 3}} {
		b.Run(variant.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				e := encode.Build(g, 7, encode.SBPNone)
				perms, _ := symgraph.Detect(e.F, autom.Options{})
				if variant.maxPower > 1 {
					perms = sbp.ExpandPowers(perms, variant.maxPower)
				}
				sbp.AddSBPs(e.F, perms, sbp.Options{})
				res := pbsolver.Optimize(context.Background(), e.F, pbsolver.Options{Engine: pbsolver.EnginePBS})
				if res.Status != pbsolver.StatusOptimal || res.Objective != 5 {
					b.Fatalf("%v obj=%d", res.Status, res.Objective)
				}
			}
		})
	}
}

// BenchmarkAblationExactlyOneEncoding compares the PB exactly-one rows of
// the paper's encoding against pure-CNF pairwise at-most-one (the
// CNF-vs-PB tradeoff of §2.3).
func BenchmarkAblationExactlyOneEncoding(b *testing.B) {
	g, _ := graph.Benchmark("queen5_5")
	for _, variant := range []struct {
		name     string
		pairwise bool
	}{{"pb-row", false}, {"cnf-pairwise", true}} {
		b.Run(variant.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				e := encode.BuildWithOptions(g, 7, encode.SBPNU,
					encode.Options{PairwiseExactlyOne: variant.pairwise})
				res := pbsolver.Optimize(context.Background(), e.F, pbsolver.Options{Engine: pbsolver.EnginePBS})
				if res.Status != pbsolver.StatusOptimal || res.Objective != 5 {
					b.Fatalf("%v obj=%d", res.Status, res.Objective)
				}
			}
		})
	}
}

// BenchmarkAblationSeqSATvsILP compares repeated decision-SAT calls
// (one-shot and incremental with assumptions) against direct 0-1 ILP
// optimization (§2.3's motivation for the PB route).
func BenchmarkAblationSeqSATvsILP(b *testing.B) {
	g, _ := graph.Benchmark("queen5_5")
	b.Run("sequential-sat", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ub := heuristic.DsaturCount(g)
			chi, proven := core.SequentialChromatic(context.Background(), g, ub)
			if !proven || chi != 5 {
				b.Fatalf("chi=%d proven=%v", chi, proven)
			}
		}
	})
	b.Run("incremental-sat", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ub := heuristic.DsaturCount(g)
			chi, proven := core.SequentialChromaticIncremental(context.Background(), g, ub)
			if !proven || chi != 5 {
				b.Fatalf("chi=%d proven=%v", chi, proven)
			}
		}
	})
	b.Run("pb-optimize", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			out := core.Solve(context.Background(), g, core.Config{K: 7, SBP: encode.SBPNU, Engine: pbsolver.EnginePBS})
			if out.Chi != 5 {
				b.Fatalf("chi=%d", out.Chi)
			}
		}
	})
}

// BenchmarkAblationSCvsClique compares the paper's SC predicate against the
// clique-pinning extension its §3.4 sketches (SBPClique).
func BenchmarkAblationSCvsClique(b *testing.B) {
	g, _ := graph.Benchmark("queen6_6")
	for _, variant := range []struct {
		name string
		kind encode.SBPKind
	}{{"sc-two-pins", encode.SBPSC}, {"clique-pins", encode.SBPClique}} {
		b.Run(variant.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				e := encode.Build(g, 9, variant.kind)
				res := pbsolver.Optimize(context.Background(), e.F, pbsolver.Options{Engine: pbsolver.EnginePBS})
				if res.Status != pbsolver.StatusOptimal || res.Objective != 7 {
					b.Fatalf("%v obj=%d", res.Status, res.Objective)
				}
			}
		})
	}
}

// BenchmarkSolverEngines times one representative optimal solve per engine.
func BenchmarkSolverEngines(b *testing.B) {
	b.ReportAllocs()
	g, _ := graph.Benchmark("myciel4")
	for _, eng := range pbsolver.Engines {
		b.Run(eng.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out := core.Solve(context.Background(), g, core.Config{K: 8, SBP: encode.SBPNUSC, Engine: eng,
					Timeout: 30 * time.Second})
				if out.Chi != 5 {
					b.Fatalf("chi=%d status=%v", out.Chi, out.Result.Status)
				}
			}
		})
	}
}

// BenchmarkSolverSearchKnobs runs the same instance with the PR's search
// improvements enabled (chronological backtracking, restart-time clause
// vivification, dynamic LBD) so the knob-guarded paths stay on the perf
// radar next to the default-configuration engines above.
func BenchmarkSolverSearchKnobs(b *testing.B) {
	b.ReportAllocs()
	g, _ := graph.Benchmark("myciel4")
	cfgs := []struct {
		name string
		cfg  core.Config
	}{
		{"chrono", core.Config{Knobs: core.Knobs{Knobs: pbsolver.Knobs{ChronoThreshold: 1}}}},
		{"vivify", core.Config{Knobs: core.Knobs{Knobs: pbsolver.Knobs{VivifyBudget: 2000}}}},
		{"dynlbd", core.Config{Knobs: core.Knobs{Knobs: pbsolver.Knobs{DynamicLBD: true}}}},
		{"all", core.Config{Knobs: core.Knobs{Knobs: pbsolver.Knobs{ChronoThreshold: 1, VivifyBudget: 2000, DynamicLBD: true}}}},
	}
	for _, c := range cfgs {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			cfg := c.cfg
			cfg.K, cfg.SBP, cfg.Timeout = 8, encode.SBPNUSC, 30*time.Second
			for i := 0; i < b.N; i++ {
				out := core.Solve(context.Background(), g, cfg)
				if out.Chi != 5 {
					b.Fatalf("chi=%d status=%v", out.Chi, out.Result.Status)
				}
			}
		})
	}
}

// BenchmarkSBPVariants solves one symmetric instance with the lex-leader
// layer, in a sub-benchmark named after its one construction, full. The
// deterministic sbp-clauses/op and sbp-perms/op metrics track how much CNF
// the construction emits.
func BenchmarkSBPVariants(b *testing.B) {
	g, _ := graph.Benchmark("myciel4")
	b.Run(sbp.VariantName, func(b *testing.B) {
		b.ReportAllocs()
		var clauses, perms int
		for i := 0; i < b.N; i++ {
			// SBPNone leaves all symmetry to the lex-leader layer, so its
			// predicate volume is visible (under NU/CA/LI the verification
			// gate drops the color perms those constructions already
			// break — by design).
			out := core.Solve(context.Background(), g, core.Config{
				K: 8, SBP: encode.SBPNone, Engine: pbsolver.EnginePBS,
				InstanceDependent: true,
				SymMaxNodes:       100000, Timeout: 30 * time.Second,
			})
			if out.Chi != 5 {
				b.Fatalf("chi=%d status=%v", out.Chi, out.Result.Status)
			}
			if out.Sym != nil {
				clauses, perms = out.Sym.AddedCNF, out.Sym.PredicatePerms
			}
		}
		b.ReportMetric(float64(clauses), "sbp-clauses/op")
		b.ReportMetric(float64(perms), "sbp-perms/op")
	})
}

// BenchmarkParallelSolve compares the sequential engine against the
// cube-and-conquer subsystem on a DSJC-style random instance (dense
// enough that the optimality proof dominates). The sub-benchmarks share
// one instance, so `make bench-compare` records sequential-vs-parallel
// wall clock side by side; on a multi-core runner the parallel variant
// shows the speedup (on a single core it only measures the subsystem's
// overhead).
func BenchmarkParallelSolve(b *testing.B) {
	g := graph.Random("DSJC-style-34", 34, 280, 7)
	run := func(b *testing.B, parallel int) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			out := core.Solve(context.Background(), g, core.Config{
				K: 11, SBP: encode.SBPNU, Engine: pbsolver.EnginePBS,
				Knobs: core.Knobs{Parallel: parallel}, Timeout: 2 * time.Minute,
			})
			if out.Chi != 8 {
				b.Fatalf("chi=%d status=%v", out.Chi, out.Result.Status)
			}
		}
	}
	b.Run("sequential", func(b *testing.B) { run(b, 0) })
	b.Run("parallel-4", func(b *testing.B) { run(b, 4) })
}

// BenchmarkCanonicalForm times canonical labeling on the transitive
// families where the orbit-pruned search pays off, pruned vs unpruned
// (DisablePruning replays the pre-McKay exhaustive baseline). Each run
// reports nodes/op so bench-compare tracks the search-tree size alongside
// wall clock; on C_100 and K_12,12 the pruned tree is over an order of
// magnitude smaller (on queen-8 refinement alone already collapses the
// tree — irregular degrees — so the two variants sit close together).
func BenchmarkCanonicalForm(b *testing.B) {
	toAutom := func(g *graph.Graph) *autom.Graph {
		a := autom.NewGraph(g.N())
		for _, e := range g.Edges() {
			a.AddEdge(e[0], e[1])
		}
		return a
	}
	cases := []struct {
		name string
		g    *autom.Graph
	}{
		{"C100", toAutom(graph.Cycle(100))},
		{"queen8_8", toAutom(graph.Queens(8, 8))},
		{"K12_12", func() *autom.Graph {
			a := autom.NewGraph(24)
			for u := 0; u < 12; u++ {
				for v := 12; v < 24; v++ {
					a.AddEdge(u, v)
				}
			}
			return a
		}()},
	}
	for _, tc := range cases {
		for _, variant := range []struct {
			name    string
			disable bool
		}{{"pruned", false}, {"unpruned", true}} {
			b.Run(tc.name+"/"+variant.name, func(b *testing.B) {
				b.ReportAllocs()
				var nodes int64
				for i := 0; i < b.N; i++ {
					c := autom.CanonicalForm(tc.g, autom.CanonicalOptions{DisablePruning: variant.disable})
					nodes = c.Nodes
					if len(c.Bytes) == 0 {
						b.Fatal("empty canonical encoding")
					}
				}
				b.ReportMetric(float64(nodes), "nodes/op")
			})
		}
	}
}

// BenchmarkSymmetryDetection times the Saucy-analogue on a full-size
// encoding (anna, K=20).
func BenchmarkSymmetryDetection(b *testing.B) {
	g, _ := graph.Benchmark("anna")
	for i := 0; i < b.N; i++ {
		sym, _ := core.DetectSymmetries(g, 20, encode.SBPNone, 0, 0)
		if sym.Generators == 0 {
			b.Fatal("no generators found")
		}
	}
}

// BenchmarkVerifyLitPerm times one symmetry check of a formula, the way
// core lifts the canonical search's graph automorphisms: each op verifies
// the next lifted generator x(v,j) -> x(π(v),j) against the K=20
// encoding under SBP none, where every lift is a symmetry. VerifyLitPerm
// indexes the formula afresh on every call, so an op also pays the
// index build that Detect and core pay once per formula.
func BenchmarkVerifyLitPerm(b *testing.B) {
	for _, name := range []string{"queen5_5", "jean", "anna"} {
		b.Run(name, func(b *testing.B) {
			g, _ := graph.Benchmark(name)
			enc := encode.Build(g, 20, encode.SBPNone)
			a := autom.NewGraph(g.N())
			for _, e := range g.Edges() {
				a.AddEdge(e[0], e[1])
			}
			var lifts []symgraph.LitPerm
			for _, gp := range autom.CanonicalForm(a, autom.CanonicalOptions{}).Generators {
				lp := symgraph.NewIdentityPerm(enc.F.NumVars)
				for v := 0; v < g.N(); v++ {
					for j := 0; j < enc.K; j++ {
						lp.Img[enc.X(v, j)] = cnf.PosLit(enc.X(gp[v], j))
					}
				}
				lifts = append(lifts, lp)
			}
			if len(lifts) == 0 {
				b.Fatal("no canonical-search generators")
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !symgraph.VerifyLitPerm(enc.F, lifts[i%len(lifts)]) {
					b.Fatal("lifted automorphism rejected")
				}
			}
		})
	}
}

// BenchmarkServiceIsomorphicBatch pushes a batch of relabelled copies of
// one instance through the coloring service: one real solve, the rest
// canonical-cache hits. This times the throughput subsystem end to end
// (canonicalization + scheduling + result translation).
func BenchmarkServiceIsomorphicBatch(b *testing.B) {
	b.ReportAllocs()
	base, _ := graph.Benchmark("myciel4")
	rng := rand.New(rand.NewSource(17))
	copies := make([]*graph.Graph, 16)
	for i := range copies {
		perm := make([]int, base.N())
		for j := range perm {
			perm[j] = j
		}
		rng.Shuffle(len(perm), func(a, c int) { perm[a], perm[c] = perm[c], perm[a] })
		g := graph.New("copy", base.N())
		for _, e := range base.Edges() {
			g.AddEdge(perm[e[0]], perm[e[1]])
		}
		copies[i] = g
	}
	for i := 0; i < b.N; i++ {
		svc := service.New(service.Config{DefaultTimeout: time.Minute})
		ids := make([]string, len(copies))
		for j, g := range copies {
			id, err := svc.Submit(g, service.JobSpec{K: 8, SBP: encode.SBPNU})
			if err != nil {
				b.Fatal(err)
			}
			ids[j] = id
		}
		for _, id := range ids {
			info, err := svc.Wait(context.Background(), id)
			if err != nil || info.Result == nil || info.Result.Chi != 5 {
				b.Fatalf("info=%+v err=%v", info, err)
			}
		}
		st := svc.Stats()
		if st.SolverRuns != 1 {
			b.Fatalf("expected 1 solver run, got %d", st.SolverRuns)
		}
		svc.Close()
	}
}

// BenchmarkTraceOverhead pins the cost of per-job phase tracing: the same
// real solve (myciel4 at K=8, ~tens of ms of search) through the service
// with the flight recorder on (the default) and off. The sub-benchmark
// ratio is the overhead budget — tracing must stay within 2% of the
// untraced path, since it is on by default in production. The absolute
// cost is a few dozen spans' worth of bookkeeping per job (~tens of µs),
// so on realistic solves it vanishes into the solver's noise floor.
func BenchmarkTraceOverhead(b *testing.B) {
	base, _ := graph.Benchmark("myciel4")
	runJob := func(b *testing.B, traceKeep int) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			svc := service.New(service.Config{DefaultTimeout: time.Minute, TraceKeep: traceKeep})
			id, err := svc.Submit(base, service.JobSpec{K: 8, SBP: encode.SBPNU})
			if err != nil {
				b.Fatal(err)
			}
			info, err := svc.Wait(context.Background(), id)
			if err != nil || info.Result == nil || info.Result.Chi != 5 {
				b.Fatalf("info=%+v err=%v", info, err)
			}
			if (traceKeep >= 0) != svc.TracingEnabled() {
				b.Fatalf("TracingEnabled()=%v with TraceKeep=%d", svc.TracingEnabled(), traceKeep)
			}
			svc.Close()
		}
	}
	b.Run("traced", func(b *testing.B) { runJob(b, 0) })
	b.Run("untraced", func(b *testing.B) { runJob(b, -1) })
}
