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
	// SBPVariant selects the lex-leader construction the predicate layer
	// emits: the full detected-generator break (default), the involution
	// restriction, the precomputed canonizing set of color permutations, or
	// a race of all three. VariantFull and VariantInvolution only act when
	// InstanceDependent is set (they consume detected generators);
	// VariantCanonSet needs no detection and acts whenever selected. Every
	// variant is a sound partial break, so the knob never changes the
	// answer — only how fast the solver reaches it.
	SBPVariant sbp.Variant
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
	// when Parallel > 1 (cube-and-conquer takes precedence).
	Portfolio bool
	// Parallel enables the cube-and-conquer subsystem (internal/par) when
	// > 1: the encoded instance is split into cubes and conquered by this
	// many workers sharing incumbents and glue-grade learnt clauses. 0 or
	// 1 solves sequentially. EngineBnB has no incremental assumption
	// core, so parallel runs conquer with EnginePBS workers.
	Parallel int
	// CubeDepth is the branching depth of the cube generator (at most
	// 2^CubeDepth cubes; 0 = auto, about eight cubes per worker).
	CubeDepth int
	// ShareLBD is the learnt-clause exchange threshold between parallel
	// workers (0 = default 2; negative disables sharing).
	ShareLBD int
	// CubeSeed steers the cube generator's deterministic tie-breaking.
	CubeSeed int64
	// Strategy selects the optimization loop (linear by default).
	Strategy pbsolver.Strategy
	// Timeout bounds the solve; zero means no limit. The paper used 1000 s;
	// the experiment harness scales this down.
	Timeout time.Duration
	// MaxConflicts optionally bounds total conflicts instead of (or in
	// addition to) wall-clock time.
	MaxConflicts int64
	// GlueLBD is the literal-blocks-distance at or below which learnt
	// clauses are never deleted (0 = engine default 2).
	GlueLBD int
	// ReduceInterval is the conflict count between learnt-database
	// reductions (0 = engine default 2000).
	ReduceInterval int64
	// RestartBase overrides the Luby restart unit in conflicts (0 = engine
	// default: 100, or 50 for Pueblo).
	RestartBase int64
	// ChronoThreshold enables chronological backtracking: backjumps that
	// would undo more than this many levels retreat a single level
	// instead (0 = disabled, always backjump).
	ChronoThreshold int
	// VivifyBudget enables clause vivification at restarts, spending up
	// to this many propagations per restart shrinking long clauses whose
	// suffix is implied (0 = disabled).
	VivifyBudget int64
	// DynamicLBD recomputes learnt-clause LBDs during conflict analysis,
	// re-tiering glue clauses as the search evolves.
	DynamicLBD bool
	// SymMaxNodes and SymTimeout bound symmetry detection.
	SymMaxNodes int64
	SymTimeout  time.Duration
	// SBPMaxSupport truncates each lex-leader chain (0 = full).
	SBPMaxSupport int
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
	AddedVars  int // variables added by lex-leader SBPs
	AddedCNF   int // clauses added by lex-leader SBPs
	// FromGraph counts generators contributed by Config.GraphGens (the
	// canonical search's discoveries) that survived verification and were
	// not already found by formula-level detection.
	FromGraph int
	// Variant is the SBP construction that produced the predicates.
	Variant sbp.Variant
	// PredicatePerms counts the permutations whose lex-leader predicates
	// were actually emitted (after variant filtering, verification, and
	// empty-support drops) — the per-variant counter /v1/stats and /metrics
	// aggregate.
	PredicatePerms int
	// Involutions counts the involutions derived from the generator set
	// (VariantInvolution only).
	Involutions int
	// CanonSetSize is the size of the precomputed canonizing set consulted
	// for the color bound (VariantCanonSet only; emitted perms can be fewer
	// when the instance-independent SBP already broke some).
	CanonSetSize int
}

// Outcome is the result of solving one instance under one configuration.
type Outcome struct {
	Instance string
	K        int
	SBP      encode.SBPKind
	// SBPVariant is the predicate construction this outcome was solved
	// under; after a VariantRace it is the concrete variant that won.
	SBPVariant sbp.Variant
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
	if cfg.SBPVariant == sbp.VariantRace {
		return solveVariantRace(ctx, g, cfg)
	}
	cfg.K = EffectiveK(g, cfg.K)
	_, encSpan := obs.StartSpan(ctx, "encode")
	enc := encode.Build(g, cfg.K, cfg.SBP)
	out := Outcome{
		Instance:    g.Name(),
		K:           cfg.K,
		SBP:         cfg.SBP,
		SBPVariant:  cfg.SBPVariant,
		EncodeStats: enc.F.Stats(),
	}
	encSpan.End(
		obs.Int("vars", int64(out.EncodeStats.Vars)),
		obs.Int("cnf", int64(out.EncodeStats.CNF)),
		obs.Int("pb", int64(out.EncodeStats.PB)),
	)
	// The sbp span is emitted even when the predicate layer is skipped so
	// every trace has the same phase skeleton.
	sbpCtx, sbpSpan := obs.StartSpan(ctx, "sbp",
		obs.String("variant", cfg.SBPVariant.String()))
	if cfg.InstanceDependent || cfg.SBPVariant == sbp.VariantCanonSet {
		out.Sym = breakSymmetries(sbpCtx, enc, cfg)
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
		Engine:              cfg.Engine,
		Strategy:            cfg.Strategy,
		Timeout:             cfg.Timeout,
		MaxConflicts:        cfg.MaxConflicts,
		GlueLBD:             cfg.GlueLBD,
		ReduceInterval:      cfg.ReduceInterval,
		RestartBaseOverride: cfg.RestartBase,
		ChronoThreshold:     cfg.ChronoThreshold,
		VivifyBudget:        cfg.VivifyBudget,
		DynamicLBD:          cfg.DynamicLBD,
		Progress:            cfg.Progress,
		ProgressInterval:    cfg.ProgressInterval,
	}
	switch {
	case cfg.Parallel > 1:
		pres := par.Optimize(ctx, enc.F, par.Options{
			Workers:   cfg.Parallel,
			CubeDepth: cfg.CubeDepth,
			ShareLBD:  cfg.ShareLBD,
			Seed:      cfg.CubeSeed,
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

// breakSymmetries appends the lex-leader predicates the configured SBP
// variant selects and returns the statistics. VariantFull and
// VariantInvolution consume detected symmetries of the formula (merged
// with any caller-supplied graph automorphisms that survive verification);
// VariantCanonSet skips detection entirely and lifts the precomputed
// canonizing set of color permutations instead. Returns nil when the
// variant has no generator source (full/involution without
// InstanceDependent).
func breakSymmetries(ctx context.Context, enc *encode.Encoding, cfg Config) *SymmetryStats {
	opts := sbp.Options{MaxSupport: cfg.SBPMaxSupport}
	if cfg.SBPVariant == sbp.VariantCanonSet {
		// The canonizing set is precomputed per color bound: no detection
		// run, no group order to report (Order stays nil). Lifts broken by
		// the instance-independent SBP fail verification and drop out.
		set := sbp.CanonSet(enc.K)
		perms := canonSetLitPerms(enc, set)
		st := sbp.AddSBPs(enc.F, perms, opts)
		return &SymmetryStats{
			Generators:     len(perms),
			Variant:        cfg.SBPVariant,
			PredicatePerms: st.Generators,
			CanonSetSize:   len(set),
			AddedVars:      st.AddedVars,
			AddedCNF:       st.Clauses,
		}
	}
	if !cfg.InstanceDependent {
		return nil
	}
	aOpts := autom.Options{MaxNodes: cfg.SymMaxNodes, Context: ctx}
	if cfg.SymTimeout > 0 {
		aOpts.Deadline = time.Now().Add(cfg.SymTimeout)
	}
	perms, res := symgraph.Detect(enc.F, aOpts)
	fromGraph := 0
	if len(cfg.GraphGens) > 0 {
		seen := make(map[string]bool, len(perms))
		for _, p := range perms {
			seen[litPermKey(p)] = true
		}
		for _, gp := range cfg.GraphGens {
			lp, ok := graphAutToLitPerm(enc, gp)
			if !ok || lp.IsIdentity() || !symgraph.VerifyLitPerm(enc.F, lp) {
				// Verification rejects exactly the generators the
				// instance-independent SBP already broke (and any bogus
				// input); keeping only verified lifts is what makes this
				// source safe to combine with every SBPKind.
				continue
			}
			if k := litPermKey(lp); !seen[k] {
				seen[k] = true
				perms = append(perms, lp)
				fromGraph++
			}
		}
	}
	sym := &SymmetryStats{
		Order:      res.Order,
		Generators: len(perms),
		Exact:      res.Exact,
		DetectTime: res.Time,
		FromGraph:  fromGraph,
		Variant:    cfg.SBPVariant,
	}
	emit := perms
	if cfg.SBPVariant == sbp.VariantInvolution {
		// Restrict the break to involutions derived from the generators
		// (order-2 generators, involutive powers, involutive products) —
		// weaker in general, far more compact on high-order generators.
		emit = sbp.Involutions(perms, 0, 0)
		sym.Involutions = len(emit)
	}
	st := sbp.AddSBPs(enc.F, emit, opts)
	sym.PredicatePerms = st.Generators
	sym.AddedVars = st.AddedVars
	sym.AddedCNF = st.Clauses
	return sym
}

// canonSetLitPerms lifts the canonizing set's color permutations to
// literal permutations of the encoding — σ acts on color values:
// x(v,j) → x(v,σ(j)) for every vertex, y(j) → y(σ(j)) — keeping only
// lifts verified to be symmetries of the formula. Instance-independent
// constructions that order colors (NU, CA, LI) break some or all color
// permutations; those fail verification and contribute nothing, which is
// what keeps the variant sound under every SBPKind.
func canonSetLitPerms(enc *encode.Encoding, set [][]int) []symgraph.LitPerm {
	var out []symgraph.LitPerm
	for _, cp := range set {
		if len(cp) != enc.K {
			continue
		}
		lp := symgraph.NewIdentityPerm(enc.F.NumVars)
		for v := 0; v < enc.G.N(); v++ {
			for j := 0; j < enc.K; j++ {
				lp.Img[enc.X(v, j)] = cnf.PosLit(enc.X(v, cp[j]))
			}
		}
		for j := 0; j < enc.K; j++ {
			lp.Img[enc.Y(j)] = cnf.PosLit(enc.Y(cp[j]))
		}
		if lp.IsIdentity() || !symgraph.VerifyLitPerm(enc.F, lp) {
			continue
		}
		out = append(out, lp)
	}
	return out
}

// solveVariantRace races the three concrete SBP variants on independent
// encodings of the instance and keeps the first definitive answer,
// cancelling the rest — the same first-past-the-post rule as the engine
// portfolio, one level up. If nobody solves within budget, the best
// partial outcome (a satisfiable incumbent beats none; lower objective
// beats higher) is returned.
func solveVariantRace(ctx context.Context, g *graph.Graph, cfg Config) Outcome {
	rctx, cancel := context.WithCancel(ctx)
	defer cancel()
	// Buffered to the racer count: losers finishing after the return have
	// a slot to exit through, so no goroutine leaks.
	ch := make(chan Outcome, len(sbp.Variants))
	for _, v := range sbp.Variants {
		vcfg := cfg
		vcfg.SBPVariant = v
		go func() { ch <- Solve(rctx, g, vcfg) }()
	}
	var best Outcome
	for i := 0; i < len(sbp.Variants); i++ {
		out := <-ch
		if out.Solved() {
			return out
		}
		if i == 0 || betterPartial(out, best) {
			best = out
		}
	}
	return best
}

// betterPartial orders unsolved outcomes for the race fallback.
func betterPartial(a, b Outcome) bool {
	aSat := a.Result.Status == pbsolver.StatusSat
	bSat := b.Result.Status == pbsolver.StatusSat
	if aSat != bSat {
		return aSat
	}
	return aSat && a.Result.Objective < b.Result.Objective
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

// litPermKey is a map key identifying a literal permutation by image.
func litPermKey(p symgraph.LitPerm) string {
	return fmt.Sprint(p.Img)
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
