// Package repro's root benchmark suite regenerates each of the paper's
// tables and figures at bench scale (one bench per artifact) plus the
// design-choice ablations called out in DESIGN.md. The full-budget runs are
// produced by cmd/experiments; these benches exercise the identical code
// paths on reduced instance subsets so `go test -bench=.` stays tractable.
package repro

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/autom"
	"repro/internal/cnf"
	"repro/internal/core"
	"repro/internal/encode"
	"repro/internal/experiments"
	"repro/internal/graph"
	"repro/internal/heuristic"
	"repro/internal/httpapi"
	"repro/internal/par"
	"repro/internal/pb"
	"repro/internal/pbsolver"
	"repro/internal/sbp"
	"repro/internal/service"
	"repro/internal/symgraph"
	"repro/internal/testutil"
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
// cube-and-conquer subsystem. The dense pair shares one DSJC-style random
// instance (dense enough that the optimality proof dominates, and far past
// worker 0's 500 solo conflicts, so the cubes run); on a multi-core
// runner the parallel variant shows the speedup (on a single core it only
// measures the subsystem's overhead). The racers pair solves the four
// graphs of e2ebench's racers workload per op, as that workload submits
// them (K=20, NU+SC, parallel: 2), so `make bench-compare` tracks what
// `parallel: 2` costs against one engine on its own workload without an
// end-to-end run; worker 0 decides all four alone.
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

	racers := testutil.RacerGraphs()
	runRacers := func(b *testing.B, parallel int) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, g := range racers {
				out := core.Solve(context.Background(), g, core.Config{
					K: 20, SBP: encode.SBPNUSC, Engine: pbsolver.EnginePBS,
					Knobs: core.Knobs{Parallel: parallel}, Timeout: 2 * time.Minute,
				})
				if out.Chi != g.Chi {
					b.Fatalf("%s: chi=%d status=%v, want %d", g.Name(), out.Chi, out.Result.Status, g.Chi)
				}
			}
		}
	}
	b.Run("racers/sequential", func(b *testing.B) { runRacers(b, 0) })
	b.Run("racers/parallel-2", func(b *testing.B) { runRacers(b, 2) })
}

// BenchmarkCubeGeneration times internal/par's cube generator on the four
// racers-size formulas (K=20, NU+SC) at depth 4, the depth par picks for
// two workers. On a job still undecided after worker 0's 500 solo
// conflicts the generator runs beside it, so its allocations are reported
// with the time; cubes/op is the emitted cube count, which must not move
// unless the generator's output does.
func BenchmarkCubeGeneration(b *testing.B) {
	var formulas []*pb.Formula
	for _, g := range testutil.RacerGraphs() {
		formulas = append(formulas, encode.Build(g, 20, encode.SBPNUSC).F)
	}
	b.ReportAllocs()
	b.ResetTimer()
	cubes := 0
	for i := 0; i < b.N; i++ {
		cubes = 0
		for _, f := range formulas {
			cubes += len(par.CubesPB(f, par.CubeOptions{Depth: 4}).Cubes)
		}
	}
	b.ReportMetric(float64(cubes), "cubes/op")
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

// hitsPool are the nine Table-1 graphs e2ebench's hits workload submits
// relabelled.
var hitsPool = []string{
	"DSJC125.1", "games120", "jean", "miles250", "myciel3", "myciel4",
	"queen5_5", "queen6_6", "queen7_7",
}

// hitsRequests returns one job request per hits pool graph, relabelled as
// e2ebench relabels them (a random vertex permutation, each edge in a
// random orientation, the list shuffled) under e2ebench's spec.
func hitsRequests(b *testing.B) []httpapi.JobRequest {
	rng := rand.New(rand.NewSource(20040324))
	out := make([]httpapi.JobRequest, 0, len(hitsPool))
	for _, name := range hitsPool {
		g, err := graph.Benchmark(name)
		if err != nil {
			b.Fatal(err)
		}
		perm := rng.Perm(g.N())
		edges := make(graph.EdgeList, 0, g.M())
		for _, e := range g.Edges() {
			a, c := perm[e[0]], perm[e[1]]
			if rng.Intn(2) == 0 {
				a, c = c, a
			}
			edges = append(edges, [2]int{a, c})
		}
		rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
		out = append(out, httpapi.JobRequest{
			Name: name, N: g.N(), Edges: edges,
			K: 20, SBP: "NU+SC", Engine: "pbs2", Timeout: "60s",
		})
	}
	return out
}

// BenchmarkCanon times a hits job's canon phase: the canonical labeling
// of each relabelled hits graph, searched over the graph's own sorted
// lists as the service searches it (one op labels all nine). nodes/op is
// the search-tree size, a deterministic counter.
func BenchmarkCanon(b *testing.B) {
	var graphs []*graph.Graph
	for _, req := range hitsRequests(b) {
		g, err := req.Graph()
		if err != nil {
			b.Fatal(err)
		}
		graphs = append(graphs, g)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var nodes int64
	for i := 0; i < b.N; i++ {
		nodes = 0
		for _, g := range graphs {
			c := autom.CanonicalForm(autom.FromAdjacency(g.Adjacency()), autom.CanonicalOptions{})
			if !c.Exact {
				b.Fatalf("%s: inexact canonical labeling", g.Name())
			}
			nodes += c.Nodes
		}
	}
	b.ReportMetric(float64(nodes), "nodes/op")
}

// BenchmarkSubmit times a hits job's submit phase through the HTTP
// handler: POST decode, graph build, the size limits and the spec, for
// each relabelled hits body (one op posts all nine). The service behind
// the handler is draining, so admission refuses every job with 503: no
// job is queued, journaled or labeled, and an op is the handler's own
// work.
func BenchmarkSubmit(b *testing.B) {
	var bodies [][]byte
	for _, req := range hitsRequests(b) {
		body, err := json.Marshal(req)
		if err != nil {
			b.Fatal(err)
		}
		bodies = append(bodies, body)
	}
	svc := service.New(service.Config{Workers: 1})
	defer svc.Close()
	svc.BeginDrain()
	h := httpapi.New(httpapi.Config{Service: svc})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, body := range bodies {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body)))
			if rec.Code != http.StatusServiceUnavailable {
				b.Fatalf("status %d, want 503 from the draining service: %s", rec.Code, rec.Body)
			}
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

// BenchmarkSBP times a shatter job's sbp phase, core.InstanceSymmetries:
// symmetry detection on the formula, the lift of canon's generators and
// the lex-leader predicates, on fresh K=20 NU+SC encodings of the four
// planted graphs e2ebench's shatter workload draws from (one op handles
// all four; encoding runs outside the timer). nodes/op (the automorphism
// search's tree), generators/op and sbp-clauses/op are deterministic
// counters.
func BenchmarkSBP(b *testing.B) {
	graphs := testutil.PlantedGraphs()
	gens := make([][]autom.Perm, len(graphs))
	for i, g := range graphs {
		gens[i] = autom.CanonicalForm(autom.FromAdjacency(g.Adjacency()), autom.CanonicalOptions{}).Generators
	}
	b.ReportAllocs()
	b.ResetTimer()
	var nodes int64
	var generators, clauses int
	for i := 0; i < b.N; i++ {
		nodes, generators, clauses = 0, 0, 0
		for j, g := range graphs {
			b.StopTimer()
			enc := encode.Build(g, 20, encode.SBPNUSC)
			b.StartTimer()
			st := core.InstanceSymmetries(context.Background(), enc, core.Config{GraphGens: gens[j]})
			nodes += st.Nodes
			generators += st.Generators
			clauses += st.AddedCNF
		}
	}
	b.ReportMetric(float64(nodes), "nodes/op")
	b.ReportMetric(float64(generators), "generators/op")
	b.ReportMetric(float64(clauses), "sbp-clauses/op")
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

// BenchmarkFormulaLoad times the three phases that build and load a
// formula before any search step, on the four planted graphs e2ebench's
// solve workload draws from (K=20, NU+SC; one op handles all four):
// encode builds the formulas, engine loads them into a PBS session, and
// symgraph builds their colored symmetry graphs. On instances this small
// these phases cost about as much as the search, so allocs/op is reported
// beside the time.
func BenchmarkFormulaLoad(b *testing.B) {
	graphs := testutil.PlantedGraphs()
	formulas := make([]*pb.Formula, len(graphs))
	for i, g := range graphs {
		formulas[i] = encode.Build(g, 20, encode.SBPNUSC).F
	}
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, g := range graphs {
				if encode.Build(g, 20, encode.SBPNUSC).F.NumVars == 0 {
					b.Fatal("empty formula")
				}
			}
		}
	})
	b.Run("engine", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, f := range formulas {
				if pbsolver.NewSession(context.Background(), f, pbsolver.Options{}).RootUnsat() {
					b.Fatal("formula refuted at load")
				}
			}
		}
	})
	b.Run("symgraph", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, f := range formulas {
				if symgraph.Build(f).G.N() == 0 {
					b.Fatal("empty symmetry graph")
				}
			}
		}
	})
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
		if runs := svc.Metrics().Snapshot().Int("solver_runs"); runs != 1 {
			b.Fatalf("expected 1 solver run, got %d", runs)
		}
		svc.Close()
	}
}

// BenchmarkTraceOverhead pins the cost of per-job phase tracing: the same
// jobs through a service with the flight recorder on (traced, the
// default) and off (untraced). Tracing is on in production, so each
// shape's traced/untraced ratio must stay within 2%. Each arm builds its
// service and its inputs before the timer, and an op is one job from
// submit to result, in two shapes:
//   - hit: a relabelled copy of a hits pool graph the service has
//     already solved, the hits workload's job (canon and a cache read);
//   - solve: a planted graph the service has not seen, under the same
//     spec (canon, encode, search and persist), a new graph each op.
func BenchmarkTraceOverhead(b *testing.B) {
	reqs := hitsRequests(b)
	spec, err := reqs[0].Spec()
	if err != nil {
		b.Fatal(err)
	}
	arms := []struct {
		name string
		keep int
	}{{"traced", 0}, {"untraced", -1}}
	runJob := func(b *testing.B, svc *service.Service, g *graph.Graph, hit bool) {
		id, err := svc.Submit(g, spec)
		if err != nil {
			b.Fatal(err)
		}
		info, err := svc.Wait(context.Background(), id)
		if err != nil || info.Result == nil || !info.Result.Solved || info.Result.CacheHit != hit {
			b.Fatalf("%s: info=%+v err=%v, want a solved job with cache_hit %t", g.Name(), info, err, hit)
		}
	}
	newService := func(b *testing.B, keep int) *service.Service {
		svc := service.New(service.Config{DefaultTimeout: time.Minute, TraceKeep: keep})
		b.Cleanup(svc.Close)
		if (keep >= 0) != svc.TracingEnabled() {
			b.Fatalf("TracingEnabled()=%v with TraceKeep=%d", svc.TracingEnabled(), keep)
		}
		return svc
	}
	for _, arm := range arms {
		b.Run("hit/"+arm.name, func(b *testing.B) {
			svc := newService(b, arm.keep)
			copies := make([]*graph.Graph, len(reqs))
			for i, req := range reqs {
				g, err := graph.Benchmark(req.Name)
				if err != nil {
					b.Fatal(err)
				}
				runJob(b, svc, g, false)
				if copies[i], err = req.Graph(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				runJob(b, svc, copies[i%len(copies)], true)
			}
		})
	}
	for _, arm := range arms {
		b.Run("solve/"+arm.name, func(b *testing.B) {
			svc := newService(b, arm.keep)
			graphs := make([]*graph.Graph, b.N)
			for i := range graphs {
				graphs[i] = graph.PartitePlanted("planted", 50, 160, 6, int64(i+1))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for _, g := range graphs {
				runJob(b, svc, g, false)
			}
		})
	}
}
