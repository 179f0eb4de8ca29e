package autom

import (
	"context"
	"math/big"
	"time"
)

// Options bound the automorphism search.
type Options struct {
	// MaxNodes caps individualization steps across the whole search;
	// 0 selects the default of 500000. When exceeded the result is still
	// sound (every reported generator is an automorphism) but possibly
	// incomplete, and Exact is false.
	MaxNodes int64
	// Deadline stops the search when passed (zero = none).
	Deadline time.Time
	// Context, when non-nil, aborts the search (sound but inexact result)
	// once cancelled; checked on the same amortized schedule as Deadline.
	Context context.Context
}

// Result reports the discovered automorphism group.
type Result struct {
	// Generators generate (a subgroup of) the automorphism group. Identity
	// is never included.
	Generators []Perm
	// Order is the group order computed from orbit-stabilizer products
	// along the search base. Exact when Exact is true, otherwise a lower
	// bound.
	Order *big.Int
	// Exact reports whether the search ran to completion.
	Exact bool
	// Nodes is the number of individualization steps performed.
	Nodes int64
	// BaseLen is the length of the stabilizer base (search depth).
	BaseLen int
	// Time is the wall-clock search duration.
	Time time.Duration
}

type level struct {
	snapshot *partition // partition before individualization at this level
	target   int        // target cell start (position-aligned on all branches)
	base     int        // vertex individualized on the canonical path
	tr       *trace     // refinement transcript after individualization
}

type searcher struct {
	g        *Graph
	opts     Options
	levels   []level
	leafLeft []int
	uf       *unionFind
	gens     []Perm
	nodes    int64
	maxNodes int64
	tick     int64
	aborted  bool
	rf       *refiner // shared refinement buffers
	mark     []bool   // scratch for isAutomorphism
	deadline time.Time
	ctx      context.Context
}

// FindAutomorphisms searches for generators of the color-preserving
// automorphism group of g (Saucy-style individualization-refinement with
// orbit pruning) and computes the group order from the stabilizer chain.
func FindAutomorphisms(g *Graph, opts Options) *Result {
	start := time.Now()
	g.freeze()
	n := g.n
	res := &Result{Order: big.NewInt(1), Exact: true}
	if n == 0 {
		res.Time = time.Since(start)
		return res
	}
	s := &searcher{
		g:        g,
		opts:     opts,
		uf:       newUnionFind(n),
		maxNodes: opts.MaxNodes,
		rf:       newRefiner(n),
		mark:     make([]bool, n),
		deadline: opts.Deadline,
		ctx:      opts.Context,
	}
	if s.maxNodes == 0 {
		s.maxNodes = 500000
	}

	// Canonical (left) path: repeatedly individualize the first vertex of
	// the first non-singleton cell and refine, recording transcripts.
	p := newPartition(g.colors)
	refineRoot(g, p, s.rf, s.pollCancel)
	for {
		t := p.firstNonSingleton()
		if t < 0 || s.budgetExceeded() {
			break
		}
		snap := p.copy()
		b := p.elems[t]
		s.nodes++
		tr := &trace{}
		refineIndividualized(g, p, b, s.rf, tr, s.pollCancel)
		s.levels = append(s.levels, level{snapshot: snap, target: t, base: b, tr: tr})
	}
	s.leafLeft = append([]int(nil), p.elems...)
	res.BaseLen = len(s.levels)

	// Bottom-up candidate exploration: generators found at level L fix all
	// base points above L, so one union-find accumulates valid stabilizer
	// orbits for every level processed afterwards.
	orbitSizes := make([]int, len(s.levels))
	for L := len(s.levels) - 1; L >= 0; L-- {
		lvl := s.levels[L]
		t := lvl.target
		cands := lvl.snapshot.elems[t : t+lvl.snapshot.clen[t]]
		for _, u := range cands {
			if u == lvl.base || s.uf.same(u, lvl.base) {
				continue
			}
			if s.budgetExceeded() {
				break
			}
			cp := lvl.snapshot.copy()
			cp.individualize(u)
			s.nodes++
			if refineReplay(g, cp, lvl.tr, s.rf, s.pollCancel) {
				s.dfs(cp, L+1)
			}
		}
		// Orbit of the base vertex within its cell (base included).
		sz := 0
		for _, u := range cands {
			if s.uf.same(u, lvl.base) {
				sz++
			}
		}
		orbitSizes[L] = sz
	}

	res.Generators = s.gens
	res.Order = GroupOrderFromChain(orbitSizes)
	res.Exact = !s.aborted
	res.Nodes = s.nodes
	res.Time = time.Since(start)
	return res
}

func (s *searcher) budgetExceeded() bool {
	if s.aborted {
		return true
	}
	if s.nodes >= s.maxNodes {
		s.aborted = true
		return true
	}
	return s.pollCancel()
}

// pollCancel samples the context and deadline on an amortized schedule
// (every 16 polls) that is independent of node progress — the old
// nodes%64 gate could starve for the whole of a refinement-heavy stretch.
// It doubles as the stop hook threaded into refineRecord/refineReplay, so
// cancellation latency is bounded even inside a single refinement.
// Aborting mid-search is sound: every generator is verified by
// isAutomorphism before being reported.
func (s *searcher) pollCancel() bool {
	if s.aborted {
		return true
	}
	if s.ctx == nil && s.deadline.IsZero() {
		return false
	}
	s.tick++
	if s.tick&15 != 0 {
		return false
	}
	if s.ctx != nil && s.ctx.Err() != nil {
		s.aborted = true
		return true
	}
	if !s.deadline.IsZero() && time.Now().After(s.deadline) {
		s.aborted = true
		return true
	}
	return false
}

// dfs searches for one automorphism extending the current deviation branch.
// Returns true when a generator was recorded.
func (s *searcher) dfs(cp *partition, lvl int) bool {
	if lvl == len(s.levels) {
		// Discrete leaf: candidate maps the left leaf onto this leaf.
		perm := make(Perm, s.g.n)
		for i, v := range s.leafLeft {
			perm[v] = cp.elems[i]
		}
		if perm.IsIdentity() || !s.g.isAutomorphism(perm, s.mark) {
			return false
		}
		s.gens = append(s.gens, perm)
		s.uf.addPerm(perm)
		return true
	}
	t := s.levels[lvl].target
	b := s.levels[lvl].base
	cl := cp.clen[t]
	cands := make([]int, cl)
	copy(cands, cp.elems[t:t+cl])
	// Prefer continuing along the left base vertex: it usually completes
	// the mapping immediately.
	for i, u := range cands {
		if u == b && i != 0 {
			cands[0], cands[i] = cands[i], cands[0]
			break
		}
	}
	for _, u := range cands {
		if s.budgetExceeded() {
			return false
		}
		cp2 := cp.copy()
		cp2.individualize(u)
		s.nodes++
		if !refineReplay(s.g, cp2, s.levels[lvl].tr, s.rf, s.pollCancel) {
			continue
		}
		if s.dfs(cp2, lvl+1) {
			return true
		}
	}
	return false
}
