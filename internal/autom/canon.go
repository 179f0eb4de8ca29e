package autom

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"math/bits"
	"slices"
)

// CanonicalOptions bound the canonical labeling search.
type CanonicalOptions struct {
	// MaxNodes caps individualization steps; 0 selects the default of
	// 200000. When exceeded the result is still a valid relabelling of the
	// input (equal encodings still imply isomorphic graphs) but is no
	// longer guaranteed to agree across isomorphic inputs, and Exact is
	// false.
	MaxNodes int64
	// Context, when non-nil, aborts the search early (Exact=false) once
	// cancelled. Cancellation is observed on an amortized schedule that is
	// independent of node progress, so it is honored during
	// refinement-heavy stretches and on the first descent.
	Context context.Context
	// DisablePruning turns off automorphism discovery, orbit pruning and
	// incumbent prefix pruning, exploring every child of every
	// non-singleton cell. The canonical encoding is identical either way —
	// pruning provably preserves the minimum leaf — so the switch exists
	// only as the baseline for soundness tests and benchmarks.
	DisablePruning bool
}

// Canonical is a canonical form of a colored graph: a relabelling chosen
// invariantly under isomorphism, so two isomorphic graphs (with matching
// color multisets) produce byte-identical encodings. This is the key the
// service-layer result cache dedups on — isomorphic submissions are
// symmetric instances of the same coloring problem (cf. Walsh 2008;
// Itzhakov & Codish 2015), so one solve serves them all.
type Canonical struct {
	// Perm maps each input vertex to its position in the canonical
	// labeling: vertex v becomes canonical vertex Perm[v].
	Perm Perm
	// Bytes encodes the relabelled graph: vertex count, per-position
	// colors, and the column-major upper-triangle adjacency bitmap. Two
	// graphs with equal Bytes are isomorphic (the encoding reconstructs
	// the graph); when Exact is true the converse also holds for
	// isomorphic inputs.
	Bytes []byte
	// Hash is the SHA-256 of Bytes, a compact cache key.
	Hash [sha256.Size]byte
	// Exact reports whether the full canonical search completed.
	Exact bool
	// Nodes counts individualization steps performed.
	Nodes int64
	// Generators are verified automorphisms of the input graph discovered
	// as a byproduct of the search (a leaf whose encoding ties the
	// incumbent exhibits one). They generate a subgroup of the full
	// automorphism group — enough to feed symmetry-breaking predicates,
	// not guaranteed to be a complete generating set.
	Generators []Perm
	// OrbitPrunes counts sibling candidates skipped because a discovered
	// automorphism maps them onto an already-explored sibling.
	OrbitPrunes int64
	// PrefixPrunes counts subtrees cut because their determined encoding
	// prefix already exceeded the incumbent leaf.
	PrefixPrunes int64
}

type canonizer struct {
	g        *Graph
	rf       *refiner
	maxNodes int64
	nodes    int64
	tick     int64
	aborted  bool
	disable  bool
	ctx      context.Context

	// The incumbent (minimal) leaf. best holds its adjacency bitmap one
	// column per word run: column j, the bits (i,j) for i < j, starts at
	// word colOff[j], so a column compares word by word.
	best    []uint64
	colOff  []int
	bestLab []int    // elems of the best leaf: position -> vertex
	bestVer int64    // bumped whenever best is replaced
	col     []uint64 // scratch: one column of the current labeling, zero between uses

	levels []*canonLevel // per-depth buffers, reused by every node at that depth
	perm   Perm          // scratch: the map between two equal leaves
	mark   []bool        // scratch for isAutomorphism

	gens         []Perm     // verified automorphisms from equal-leaf collisions
	uf           *unionFind // global orbits under gens (root-level stabilizer)
	gensVer      int64
	orbitPrunes  int64
	prefixPrunes int64
}

// canonLevel holds what one node of the search needs while its children
// are explored: the child partition, the candidates of its target cell,
// the siblings explored so far and the stabilizer orbits.
type canonLevel struct {
	child    partition
	cands    []int
	explored []int
	uf       *unionFind
}

// level returns the buffers of the nodes at depth d.
func (c *canonizer) level(d int) *canonLevel {
	for len(c.levels) <= d {
		c.levels = append(c.levels, &canonLevel{})
	}
	return c.levels[d]
}

// CanonicalForm computes a canonical labeling of g by
// individualization-refinement: descend the refinement tree, branching on
// the first non-singleton cell, and keep the leaf whose relabelled
// adjacency bitmap is lexicographically minimal (bit order: pair (i,j),
// i<j, at index j(j-1)/2+i). Cell order under equitable refinement is
// label-invariant, so the set of leaf encodings — and hence their minimum —
// depends only on the isomorphism class of g.
//
// The search prunes nauty/Traces-style without changing that minimum:
// a leaf whose encoding ties the incumbent exhibits an automorphism
// (verified, recorded in a union-find), siblings in the same orbit under
// the node's discovered stabilizer are skipped, and subtrees whose
// determined encoding prefix already exceeds the incumbent are cut.
//
// The search is exponential in the worst case; MaxNodes bounds it. On
// budget exhaustion the best leaf found so far is returned with
// Exact=false: still a sound cache key (equal encodings remain
// isomorphic), merely no longer guaranteed to collide for isomorphic
// inputs.
func CanonicalForm(g *Graph, opts CanonicalOptions) *Canonical {
	g.freeze()
	n := g.n
	out := &Canonical{Perm: Identity(n), Exact: true}
	if n == 0 {
		out.Bytes = encodeCanonical(g, nil, nil)
		out.Hash = sha256.Sum256(out.Bytes)
		return out
	}
	c := &canonizer{
		g:        g,
		rf:       newRefiner(n),
		maxNodes: opts.MaxNodes,
		ctx:      opts.Context,
		disable:  opts.DisablePruning,
		uf:       newUnionFind(n),
		colOff:   make([]int, n+1),
		col:      make([]uint64, (n+63)/64),
		perm:     make(Perm, n),
		mark:     make([]bool, n),
	}
	for j := 0; j < n; j++ {
		c.colOff[j+1] = c.colOff[j] + (j+63)/64
	}
	if c.maxNodes == 0 {
		c.maxNodes = 200000
	}
	p := newPartition(g.colors)
	refineRoot(g, p, c.rf, c.pollCancel)
	c.explore(p, 0, 0, 0)
	if c.bestLab == nil {
		// The context died before the first leaf completed: fall back to
		// the root-refined ordering. Still a valid relabelling (sound key,
		// equal encodings imply isomorphic graphs), just inexact.
		c.aborted = true
		c.setBest(p)
	}
	out.Perm = make(Perm, n)
	for pos, v := range c.bestLab {
		out.Perm[v] = pos
	}
	out.Bytes = encodeCanonical(g, c.bestLab, c.writeBest)
	out.Hash = sha256.Sum256(out.Bytes)
	out.Exact = !c.aborted
	out.Nodes = c.nodes
	out.Generators = c.gens
	out.OrbitPrunes = c.orbitPrunes
	out.PrefixPrunes = c.prefixPrunes
	return out
}

// explore walks the individualization-refinement tree depth-first from a
// node at the given depth. fixed is the parent's determined prefix length
// (singleton positions); cmp is the comparison of the node's determined
// encoding prefix against the incumbent leaf: 0 equal so far, -1 already
// strictly smaller. A node whose prefix exceeds the incumbent never
// recurses (prefix pruning), candidates mapped onto an explored sibling by
// a discovered automorphism are skipped (orbit pruning), and a leaf that
// ties the incumbent yields a verified generator instead of a relabelling.
func (c *canonizer) explore(p *partition, depth, fixed, cmp int) {
	t := p.firstNonSingleton()
	det := t
	if t < 0 {
		det = p.n()
	}
	if !c.disable && cmp == 0 && c.bestLab != nil && det > fixed {
		switch c.compareColumns(p, fixed, det) {
		case 1:
			c.prefixPrunes++
			return
		case -1:
			cmp = -1
		}
	}
	if t < 0 {
		c.leaf(p, cmp)
		return
	}
	lv := c.level(depth)
	lv.cands = append(lv.cands[:0], p.elems[t:t+p.clen[t]]...)
	lv.explored = lv.explored[:0]
	var (
		localUF  *unionFind
		localVer int64 = -1
	)
	ver := c.bestVer
	for _, u := range lv.cands {
		if c.budgetExceeded() {
			return
		}
		if !c.disable && len(c.gens) > 0 && len(lv.explored) > 0 {
			if localVer != c.gensVer {
				localUF = c.stabilizerOrbits(p, t, lv)
				localVer = c.gensVer
			}
			skip := false
			for _, w := range lv.explored {
				if localUF.same(u, w) {
					skip = true
					break
				}
			}
			if skip {
				c.orbitPrunes++
				continue
			}
		}
		cp := &lv.child
		p.copyInto(cp)
		c.nodes++
		refineIndividualized(c.g, cp, u, c.rf, nil, c.pollCancel)
		if c.aborted {
			return
		}
		c.explore(cp, depth+1, det, cmp)
		if c.bestVer != ver {
			// A descendant installed a new incumbent. Every new best found
			// inside this loop descends from this node, so the node's
			// determined prefix is a prefix of it: cmp resets to equal.
			cmp = 0
			ver = c.bestVer
		}
		lv.explored = append(lv.explored, u)
	}
}

// leaf handles a discrete partition: install a strictly smaller leaf as
// the incumbent, or — when it ties the incumbent byte-for-byte — record
// the position-wise map between the two labelings as an automorphism.
func (c *canonizer) leaf(p *partition, cmp int) {
	if c.bestLab == nil {
		c.setBest(p)
		return
	}
	if c.disable {
		// No prefix comparisons were made on the way down; compare the
		// whole leaf here and keep only strictly smaller ones.
		if c.compareColumns(p, 0, p.n()) < 0 {
			c.setBest(p)
		}
		return
	}
	switch cmp {
	case -1:
		c.setBest(p)
	case 0:
		// Equal encodings: bestLab[i] -> elems[i] preserves adjacency and
		// (since refinement never moves vertices across the initial color
		// cells) colors. Verify defensively before trusting it.
		perm := c.perm
		for i, v := range c.bestLab {
			perm[v] = p.elems[i]
		}
		if !perm.IsIdentity() && c.g.isAutomorphism(perm, c.mark) {
			gen := slices.Clone(perm)
			c.gens = append(c.gens, gen)
			c.uf.addPerm(gen)
			c.gensVer++
		}
	}
}

// setBest installs the discrete partition p as the incumbent leaf.
func (c *canonizer) setBest(p *partition) {
	if c.best == nil {
		c.best = make([]uint64, c.colOff[p.n()])
	}
	for j := 1; j < p.n(); j++ {
		col := c.best[c.colOff[j]:c.colOff[j+1]]
		clear(col)
		c.fillColumn(col, p, j)
	}
	c.bestLab = append(c.bestLab[:0], p.elems...)
	c.bestVer++
}

// fillColumn sets, in col, bit i for each position i < j whose vertex is
// adjacent to the vertex at position j: O(deg) through the neighbour
// list and p.pos, where a pairwise test would take O(j log deg).
func (c *canonizer) fillColumn(col []uint64, p *partition, j int) {
	for _, w := range c.g.adj[p.elems[j]] {
		if i := p.pos[w]; i < j {
			col[i>>6] |= 1 << uint(i&63)
		}
	}
}

// stabilizerOrbits returns vertex orbits under the discovered generators
// that fix the node's determined prefix pointwise — exactly the group
// elements that permute the node's subtrees among themselves, which is
// what makes skipping same-orbit siblings sound. At the root (empty
// prefix) that is the whole discovered group, for which the global
// union-find is maintained incrementally; deeper nodes rebuild their
// level's union-find.
func (c *canonizer) stabilizerOrbits(p *partition, t int, lv *canonLevel) *unionFind {
	if t == 0 {
		return c.uf
	}
	if lv.uf == nil {
		lv.uf = newUnionFind(c.g.n)
	} else {
		lv.uf.reset()
	}
	for _, gen := range c.gens {
		fixesPrefix := true
		for i := 0; i < t; i++ {
			if v := p.elems[i]; gen[v] != v {
				fixesPrefix = false
				break
			}
		}
		if fixesPrefix {
			lv.uf.addPerm(gen)
		}
	}
	return lv.uf
}

// compareColumns compares adjacency columns [lo, hi) of p's labeling
// against the incumbent leaf in canonical bit order. Because bit (i,j)
// lives at index j(j-1)/2+i, the pairs internal to the first t positions
// occupy the contiguous index range [0, t(t-1)/2): once those positions
// are singletons the comparison is final for every leaf below — the
// invariant prefix pruning rests on. Each column is gathered into the
// scratch words and compared a word at a time: the lowest differing bit
// decides, and the labeling that has it clear is the smaller.
func (c *canonizer) compareColumns(p *partition, lo, hi int) int {
	lo = max(lo, 1)
	for j := lo; j < hi; j++ {
		best := c.best[c.colOff[j]:c.colOff[j+1]]
		mine := c.col[:len(best)]
		c.fillColumn(mine, p, j)
		r := 0
		for k, b := range best {
			if d := mine[k] ^ b; d != 0 {
				if b&(d&-d) != 0 {
					r = -1
				} else {
					r = 1
				}
				break
			}
		}
		clear(mine)
		if r != 0 {
			return r
		}
	}
	return 0
}

// budgetExceeded stops the search once the node budget is spent (but never
// before a first leaf exists, so the result is always usable) or the
// context is cancelled (checked even before the first leaf: a dead context
// falls back to the root-refined labeling).
func (c *canonizer) budgetExceeded() bool {
	if c.aborted {
		return true
	}
	if c.bestLab != nil && c.nodes >= c.maxNodes {
		c.aborted = true
		return true
	}
	return c.pollCancel()
}

// pollCancel samples the context on an amortized schedule independent of
// node progress; it is also the stop hook threaded into refinement
// worklist loops, bounding cancellation latency during refinement-heavy
// stretches and on the first descent.
func (c *canonizer) pollCancel() bool {
	if c.aborted {
		return true
	}
	if c.ctx == nil {
		return false
	}
	c.tick++
	if c.tick&15 != 0 {
		return false
	}
	if c.ctx.Err() != nil {
		c.aborted = true
		return true
	}
	return false
}

// writeBest writes the incumbent's bitmap in the encoding's bit order:
// bit (i,j), i<j, at index j(j-1)/2+i, least significant bit first within
// a byte. Column-major order is load-bearing: all pairs among the first t
// positions precede every pair reaching past them, so a singleton prefix
// determines a contiguous encoding prefix.
func (c *canonizer) writeBest(adj []byte) {
	for j := 1; j < len(c.bestLab); j++ {
		base := j * (j - 1) / 2
		for k, w := range c.best[c.colOff[j]:c.colOff[j+1]] {
			for ; w != 0; w &= w - 1 {
				i := base + 64*k + bits.TrailingZeros64(w)
				adj[i>>3] |= 1 << uint(i&7)
			}
		}
	}
}

// encodeCanonical serializes (n, per-position colors, adjacency bitmap);
// fill, when non-nil, sets the bitmap's bits in its zeroed bytes. The
// color sequence by canonical position is itself label-invariant
// (refinement orders cells by color), so including it keeps differently
// colored but structurally equal graphs from colliding.
func encodeCanonical(g *Graph, lab []int, fill func(adj []byte)) []byte {
	out := binary.AppendUvarint(nil, uint64(g.n))
	for _, v := range lab {
		out = binary.AppendVarint(out, int64(g.colors[v]))
	}
	n, head := len(lab), len(out)
	out = append(out, make([]byte, (n*(n-1)/2+7)/8)...)
	if fill != nil {
		fill(out[head:])
	}
	return out
}
