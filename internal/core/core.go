// Package core wires the paper's full flow together: reduce a graph
// coloring instance to 0-1 ILP with an instance-independent SBP
// construction (§2.5, §3), optionally detect and break instance-dependent
// symmetries via colored-graph automorphism and lex-leader predicates
// (§2.4, the Shatter flow), and solve with one of the 0-1 ILP engines
// (§2.3). This is the public API a downstream user of the library calls.
package core

import (
	"context"
	"fmt"
	"math/big"
	"slices"
	"time"

	"repro/internal/autom"
	"repro/internal/cnf"
	"repro/internal/encode"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/pb"
	"repro/internal/pbsolver"
	"repro/internal/sbp"
	"repro/internal/solverutil"
	"repro/internal/symgraph"
)

// Knobs are the six search knobs a job may set: the engine knobs plus
// the cube-and-conquer fan-out. None changes which answer a solve reaches,
// so the service's result cache leaves all six out of its key. Config,
// service.JobSpec and the gcolord JSON body embed Knobs by value.
type Knobs struct {
	pbsolver.Knobs
	// Parallel enables the cube-and-conquer subsystem (internal/par) when
	// > 1: the encoded instance is split into cubes and conquered by this
	// many workers sharing incumbents and glue-grade learnt clauses. 0 or
	// 1 solves sequentially. EngineBnB has no incremental assumption
	// core, so parallel runs conquer with EnginePBS workers.
	Parallel int `json:"parallel,omitempty"`
	// CubeDepth is the branching depth of the cube generator (at most
	// 2^CubeDepth cubes; 0 = auto, about eight cubes per worker).
	CubeDepth int `json:"cube_depth,omitempty"`
	// ShareLBD is the learnt-clause exchange threshold between parallel
	// workers (0 = default 2; negative disables sharing).
	ShareLBD int `json:"share_lbd,omitempty"`
}

// Config selects one cell of the paper's experimental matrix.
type Config struct {
	// K is the color bound (the paper uses 20 and 30). Zero selects
	// max degree + 1, the greedy upper bound.
	K int
	// SBP is the instance-independent construction added during encoding.
	SBP encode.SBPKind
	// InstanceDependent adds lex-leader SBPs for detected symmetries of the
	// generated 0-1 ILP instance before solving (the "w/ i.-d. SBPs"
	// columns of Tables 3-5).
	InstanceDependent bool
	// GraphGens are automorphisms of the instance graph known to the
	// caller (the service layer forwards generators its canonical-labeling
	// search discovered). When InstanceDependent is set they are lifted to
	// formula symmetries — x(v,j) -> x(π(v),j) — verified against the
	// formula, deduplicated against symgraph's own detections, and fed to
	// the same lex-leader construction. Generators the instance-independent
	// SBP already broke fail verification and are dropped, so the lift is
	// always sound.
	GraphGens []autom.Perm
	// Engine selects the solver configuration (PBS II / Galena / Pueblo /
	// BnB-as-CPLEX). Ignored when Portfolio is set.
	Engine pbsolver.Engine
	// Portfolio races all engines on the instance and keeps the first
	// definitive answer (the service layer's default solve mode). Ignored
	// when Knobs.Parallel > 1 (cube-and-conquer takes precedence).
	Portfolio bool
	// Timeout bounds the solve; zero means no limit. The paper used 1000 s;
	// the experiment harness scales this down.
	Timeout time.Duration
	// Knobs steer the search without changing its answer.
	Knobs
	// SymMaxNodes and SymTimeout bound symmetry detection.
	SymMaxNodes int64
	SymTimeout  time.Duration
	// Progress, when non-nil, receives rate-limited snapshots of the
	// solver's search counters while Solve runs: conflicts, restarts,
	// learnt-clause and LBD statistics, and the best color count found so
	// far (Progress.Incumbent). With Portfolio set, every racing engine
	// reports through the same callback (tagged by Progress.Engine), so
	// the callback must be safe for concurrent use.
	Progress solverutil.ProgressFunc
	// ProgressInterval is the minimum time between Progress calls per
	// engine; 0 selects solverutil.DefaultProgressInterval (200ms).
	ProgressInterval time.Duration
}

// SymmetryStats reports the symmetry detection and breaking step
// (Table 2's columns).
type SymmetryStats struct {
	Order      *big.Int // |Aut| of the instance graph (lower bound if !Exact)
	Generators int      // generators found
	Exact      bool
	DetectTime time.Duration
	Nodes      int64 // individualization steps of the automorphism search
	AddedVars  int   // variables added by lex-leader SBPs
	AddedCNF   int   // clauses added by lex-leader SBPs
	// FromGraph counts generators contributed by Config.GraphGens (the
	// canonical search's discoveries) that survived verification and were
	// not already found by formula-level detection.
	FromGraph int
	// PredicatePerms counts the permutations whose lex-leader predicates
	// were actually emitted (after verification and empty-support drops)
	// — the counter /v1/stats and /metrics aggregate.
	PredicatePerms int
}

// Outcome is the result of solving one instance under one configuration.
type Outcome struct {
	Instance string
	K        int
	SBP      encode.SBPKind
	// EncodeStats are the formula sizes before instance-dependent SBPs.
	EncodeStats pb.Stats
	// Sym is nil unless instance-dependent symmetry breaking ran.
	Sym *SymmetryStats
	// Result is the raw solver outcome; Result.Objective is the color count
	// when Status is StatusOptimal.
	Result pbsolver.Result
	// Winner is the engine that produced Result when Portfolio ran.
	Winner pbsolver.Engine
	// Par carries the cube-and-conquer counters when Parallel > 1 ran
	// (nil otherwise).
	Par *par.Stats
	// Chi is the proven chromatic number within the K bound (0 unless
	// optimal). An UNSAT outcome means χ > K.
	Chi int
	// Coloring is a witness optimal coloring (0-based), when available.
	Coloring []int
}

// Solved reports whether the configuration answered the instance
// definitively within budget (optimum proven or χ > K proven), the "#S"
// counting rule of Tables 3-5.
func (o Outcome) Solved() bool {
	return o.Result.Status == pbsolver.StatusOptimal ||
		o.Result.Status == pbsolver.StatusUnsat
}

// Solve runs the full flow on one instance. Cancelling ctx aborts the
// solve (and symmetry detection) promptly; the outcome then reports the
// best result reached.
func Solve(ctx context.Context, g *graph.Graph, cfg Config) Outcome {
	cfg.K = EffectiveK(g, cfg.K)
	_, encSpan := obs.StartSpan(ctx, "encode")
	enc := encode.Build(g, cfg.K, cfg.SBP)
	out := Outcome{
		Instance:    g.Name(),
		K:           cfg.K,
		SBP:         cfg.SBP,
		EncodeStats: enc.F.Stats(),
	}
	encSpan.End(
		obs.Int("vars", int64(out.EncodeStats.Vars)),
		obs.Int("cnf", int64(out.EncodeStats.CNF)),
		obs.Int("pb", int64(out.EncodeStats.PB)),
	)
	// The sbp span is emitted even when the predicate layer is skipped so
	// every trace has the same phase skeleton.
	sbpCtx, sbpSpan := obs.StartSpan(ctx, "sbp", obs.String("variant", sbp.VariantName))
	if cfg.InstanceDependent {
		out.Sym = InstanceSymmetries(sbpCtx, enc, cfg)
	}
	if out.Sym != nil {
		sbpSpan.End(
			obs.Int("perms", int64(out.Sym.PredicatePerms)),
			obs.Int("clauses", int64(out.Sym.AddedCNF)),
		)
	} else {
		sbpSpan.End(obs.Bool("skipped", true))
	}
	sOpts := pbsolver.Options{
		Engine:           cfg.Engine,
		Timeout:          cfg.Timeout,
		Knobs:            cfg.Knobs.Knobs,
		Progress:         cfg.Progress,
		ProgressInterval: cfg.ProgressInterval,
	}
	switch {
	case cfg.Parallel > 1:
		pres := par.Optimize(ctx, enc.F, par.Options{
			Workers:   cfg.Parallel,
			CubeDepth: cfg.CubeDepth,
			ShareLBD:  cfg.ShareLBD,
			Solver:    sOpts,
		})
		out.Result = pres.Result
		out.Par = &pres.Par
		out.Winner = cfg.Engine
		if cfg.Engine == pbsolver.EngineBnB {
			out.Winner = pbsolver.EnginePBS // par conquers with CDCL workers
		}
	case cfg.Portfolio:
		pres := pbsolver.PortfolioSolve(ctx, enc.F, pbsolver.PortfolioOptions{Base: sOpts})
		out.Result = pres.Result
		out.Winner = pres.Winner
	default:
		out.Result = pbsolver.Optimize(ctx, enc.F, sOpts)
	}
	if out.Result.Status == pbsolver.StatusOptimal || out.Result.Status == pbsolver.StatusSat {
		out.Coloring = enc.ColoringFromModel(out.Result.Model)
		if !g.IsProperColoring(out.Coloring) {
			panic(fmt.Sprintf("core: solver returned improper coloring for %s", g.Name()))
		}
		if out.Result.Status == pbsolver.StatusOptimal {
			out.Chi = out.Result.Objective
		}
	}
	return out
}

// EffectiveK resolves the color bound Solve actually uses: k itself when
// positive, max degree + 1 (the greedy upper bound) when k is 0.
func EffectiveK(g *graph.Graph, k int) int {
	if k != 0 {
		return k
	}
	maxDeg := 0
	for v := 0; v < g.N(); v++ {
		if d := g.Degree(v); d > maxDeg {
			maxDeg = d
		}
	}
	return maxDeg + 1
}

// InstanceSymmetries is the sbp phase Solve runs when cfg.InstanceDependent
// is set: it detects the symmetries of enc's formula, merges the verified
// lifts of cfg.GraphGens, appends their lex-leader predicates to enc.F and
// returns the statistics. Of cfg it reads SymMaxNodes, SymTimeout and
// GraphGens.
func InstanceSymmetries(ctx context.Context, enc *encode.Encoding, cfg Config) *SymmetryStats {
	aOpts := autom.Options{MaxNodes: cfg.SymMaxNodes, Context: ctx}
	if cfg.SymTimeout > 0 {
		aOpts.Deadline = time.Now().Add(cfg.SymTimeout)
	}
	// One index of the formula serves detection and the lift below.
	ver := symgraph.NewVerifier(enc.F)
	perms, res := ver.Detect(aOpts)
	fromGraph := 0
	for _, gp := range cfg.GraphGens {
		lp, ok := graphAutToLitPerm(enc, gp)
		if !ok || lp.IsIdentity() || !ver.Verify(lp) {
			// Verification rejects exactly the generators the
			// instance-independent SBP already broke (and any bogus
			// input); keeping only verified lifts is what makes this
			// source safe to combine with every SBPKind.
			continue
		}
		if !slices.ContainsFunc(perms, func(p symgraph.LitPerm) bool { return slices.Equal(p.Img, lp.Img) }) {
			perms = append(perms, lp)
			fromGraph++
		}
	}
	st := sbp.AddSBPs(enc.F, perms, sbp.Options{})
	return &SymmetryStats{
		Order:          res.Order,
		Generators:     len(perms),
		Exact:          res.Exact,
		DetectTime:     res.Time,
		Nodes:          res.Nodes,
		FromGraph:      fromGraph,
		PredicatePerms: st.Generators,
		AddedVars:      st.AddedVars,
		AddedCNF:       st.Clauses,
	}
}

// graphAutToLitPerm lifts a vertex automorphism of the instance graph to a
// literal permutation of its encoding: x(v,j) -> x(perm(v),j) for every
// color j, with the color-usage and auxiliary variables fixed. Adjacency
// preservation makes the lift map conflict constraints onto conflict
// constraints, so for symmetric encodings it is a formula symmetry; the
// caller still verifies before use.
func graphAutToLitPerm(enc *encode.Encoding, perm autom.Perm) (symgraph.LitPerm, bool) {
	n := enc.G.N()
	if len(perm) != n {
		return symgraph.LitPerm{}, false
	}
	lp := symgraph.NewIdentityPerm(enc.F.NumVars)
	for v := 0; v < n; v++ {
		for j := 0; j < enc.K; j++ {
			lp.Img[enc.X(v, j)] = cnf.PosLit(enc.X(perm[v], j))
		}
	}
	return lp, true
}

// DetectSymmetries runs only the symmetry-detection half of the flow on the
// encoding of an instance (Table 2's measurement: symmetries remaining
// after each instance-independent construction).
func DetectSymmetries(g *graph.Graph, K int, kind encode.SBPKind, maxNodes int64, timeout time.Duration) (*SymmetryStats, pb.Stats) {
	enc := encode.Build(g, K, kind)
	aOpts := autom.Options{MaxNodes: maxNodes}
	if timeout > 0 {
		aOpts.Deadline = time.Now().Add(timeout)
	}
	perms, res := symgraph.Detect(enc.F, aOpts)
	return &SymmetryStats{
		Order:      res.Order,
		Generators: len(perms),
		Exact:      res.Exact,
		DetectTime: res.Time,
		Nodes:      res.Nodes,
	}, enc.F.Stats()
}

// SequentialChromatic determines the chromatic number with repeated
// one-shot decision calls on the pure CNF K-coloring formula, the
// black-box SAT route the paper contrasts with direct 0-1 ILP optimization
// (§2.3). Each K gets a fresh CDCL engine without phase saving, so no
// learning carries between probes. It performs a downward linear search
// from the DSATUR upper bound (the paper's per-instance bound procedure).
// Returns (χ, proven) — proven is false on budget exhaustion (ctx
// cancelled or deadline passed).
func SequentialChromatic(ctx context.Context, g *graph.Graph, startUB int) (int, bool) {
	best := startUB
	opts := pbsolver.Options{NoPhaseSaving: true}
	for k := startUB; k >= 1; k-- {
		switch pbsolver.Decide(ctx, pb.FromCNF(DecisionCNF(g, k)), opts).Status {
		case pbsolver.StatusOptimal: // decision mode: satisfiable
			best = k
		case pbsolver.StatusUnsat:
			return best, true
		default:
			return best, false
		}
	}
	return best, true
}

// SequentialChromaticIncremental determines the chromatic number with a
// single incremental CDCL session: the K-coloring CNF is extended with
// color usage variables u[j], and each probe "is the graph j-colorable?"
// is a DecideAssuming call with assumptions ¬u[j], ..., ¬u[K−1]. Learnt
// clauses carry over between probes, the advantage a black-box one-shot
// SAT solver cannot offer (ablation against SequentialChromatic and PB
// optimization).
func SequentialChromaticIncremental(ctx context.Context, g *graph.Graph, startUB int) (int, bool) {
	K := startUB
	n := g.N()
	f := DecisionCNF(g, K)
	// Usage variables u[j] = n*K + j + 1 with x[i][j] ⇒ u[j].
	u := func(j int) cnf.Lit { return cnf.PosLit(n*K + j + 1) }
	x := func(i, j int) cnf.Lit { return cnf.PosLit(i*K + j + 1) }
	for i := 0; i < n; i++ {
		for j := 0; j < K; j++ {
			f.AddImplication(x(i, j), u(j))
		}
	}
	s := pbsolver.NewSession(ctx, pb.FromCNF(f), pbsolver.Options{})
	best := K
	for k := K; k >= 1; k-- {
		assumps := make([]cnf.Lit, 0, K-k+1)
		for j := k; j < K; j++ {
			assumps = append(assumps, u(j).Neg())
		}
		switch s.DecideAssuming(assumps) {
		case pbsolver.StatusSat:
			best = k
		case pbsolver.StatusUnsat:
			return best, true
		default:
			return best, false
		}
	}
	return best, true
}

// DecisionCNF encodes the K-colorability decision problem as pure CNF
// (at-least-one + conflict clauses + pairwise at-most-one), the reduction
// used with black-box SAT solvers; pb.FromCNF hands it to the PB engines.
func DecisionCNF(g *graph.Graph, K int) *cnf.Formula {
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
