// Package autom detects automorphisms of vertex-colored undirected graphs,
// the engine behind instance-dependent symmetry detection (paper §2.4). It
// plays the role of Saucy (Darga et al. 2004): given a colored graph it
// returns a set of generators for the automorphism group, found by
// individualization-refinement search with orbit pruning, plus the exact
// group order obtained from the orbit-stabilizer products of the search.
package autom

import (
	"fmt"
	"math/big"
	"slices"
	"sort"
)

// Graph is an undirected graph with integer vertex colors. Only
// automorphisms that preserve colors are considered.
type Graph struct {
	n      int
	adj    [][]int32
	colors []int
	frozen bool
}

// NewGraph returns a graph with n vertices, all colored 0.
func NewGraph(n int) *Graph {
	return &Graph{n: n, adj: make([][]int32, n), colors: make([]int, n)}
}

// FromAdjacency returns an uncolored graph over adj without copying it:
// adj[v] lists v's neighbours in ascending order, without duplicates or
// self-loops, and u is in adj[v] exactly when v is in adj[u]. The lists
// are already in search order, so the graph starts frozen (AddEdge and
// SetColor panic), and the caller must not change them while it is used.
func FromAdjacency(adj [][]int32) *Graph {
	return &Graph{n: len(adj), adj: adj, colors: make([]int, len(adj)), frozen: true}
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// AddEdge inserts an undirected edge. Duplicate edges must not be added.
func (g *Graph) AddEdge(a, b int) {
	if g.frozen {
		panic("autom: AddEdge after search started")
	}
	if a == b {
		panic("autom: self loop")
	}
	g.adj[a] = append(g.adj[a], int32(b))
	g.adj[b] = append(g.adj[b], int32(a))
}

// AddEdges inserts the undirected edges in order, as AddEdge would, after
// sizing every adjacency list for them: the lists share one allocation
// instead of growing edge by edge.
func (g *Graph) AddEdges(edges [][2]int32) {
	need := make([]int, g.n)
	total := 0
	for v, l := range g.adj {
		need[v] = len(l)
		total += len(l)
	}
	for _, e := range edges {
		need[e[0]]++
		need[e[1]]++
		total += 2
	}
	slab := make([]int32, total)
	for v, l := range g.adj {
		g.adj[v] = append(slab[:0:need[v]], l...)
		slab = slab[need[v]:]
	}
	for _, e := range edges {
		g.AddEdge(int(e[0]), int(e[1]))
	}
}

// SetColor assigns a color class to vertex v.
func (g *Graph) SetColor(v, color int) {
	if g.frozen {
		panic("autom: SetColor after search started")
	}
	g.colors[v] = color
}

// Color returns the color of v.
func (g *Graph) Color(v int) int { return g.colors[v] }

// Degree returns the degree of v.
func (g *Graph) Degree(v int) int { return len(g.adj[v]) }

func (g *Graph) freeze() {
	if g.frozen {
		return
	}
	g.frozen = true
	for _, a := range g.adj {
		slices.Sort(a)
	}
}

// Perm is a vertex permutation: Perm[v] is the image of v.
type Perm []int

// Identity returns the identity permutation on n points.
func Identity(n int) Perm {
	p := make(Perm, n)
	for i := range p {
		p[i] = i
	}
	return p
}

// IsIdentity reports whether the permutation fixes every point.
func (p Perm) IsIdentity() bool {
	for i, v := range p {
		if i != v {
			return false
		}
	}
	return true
}

// Support returns the points moved by the permutation, ascending.
func (p Perm) Support() []int {
	var out []int
	for i, v := range p {
		if i != v {
			out = append(out, i)
		}
	}
	return out
}

// Compose returns q∘p: first apply p, then q.
func (p Perm) Compose(q Perm) Perm {
	out := make(Perm, len(p))
	for i := range p {
		out[i] = q[p[i]]
	}
	return out
}

// Inverse returns the inverse permutation.
func (p Perm) Inverse() Perm {
	out := make(Perm, len(p))
	for i, v := range p {
		out[v] = i
	}
	return out
}

// Cycles renders the permutation in disjoint cycle notation, e.g.
// "(0 1 2)(4 5)".
func (p Perm) Cycles() string {
	seen := make([]bool, len(p))
	out := ""
	for i := range p {
		if seen[i] || p[i] == i {
			continue
		}
		cyc := []int{}
		for j := i; !seen[j]; j = p[j] {
			seen[j] = true
			cyc = append(cyc, j)
		}
		out += "("
		for k, v := range cyc {
			if k > 0 {
				out += " "
			}
			out += fmt.Sprintf("%d", v)
		}
		out += ")"
	}
	if out == "" {
		return "()"
	}
	return out
}

// isAutomorphism verifies that p preserves colors and adjacency exactly:
// for each v, p maps v's neighbours onto p(v)'s, checked in O(deg) by
// marking p(v)'s neighbours. mark is scratch of n entries, all false, and
// is left so; nil allocates it.
func (g *Graph) isAutomorphism(p Perm, mark []bool) bool {
	if mark == nil {
		mark = make([]bool, g.n)
	}
	for v := 0; v < g.n; v++ {
		pv := p[v]
		if g.colors[pv] != g.colors[v] || len(g.adj[pv]) != len(g.adj[v]) {
			return false
		}
		for _, x := range g.adj[pv] {
			mark[x] = true
		}
		maps := true
		for _, w := range g.adj[v] {
			if !mark[p[w]] {
				maps = false
				break
			}
		}
		for _, x := range g.adj[pv] {
			mark[x] = false
		}
		if !maps {
			return false
		}
	}
	return true
}

// unionFind tracks vertex orbits under a growing set of generators.
type unionFind struct {
	parent []int
	rank   []int
}

func newUnionFind(n int) *unionFind {
	uf := &unionFind{parent: make([]int, n), rank: make([]int, n)}
	uf.reset()
	return uf
}

// reset makes every element its own singleton set again.
func (u *unionFind) reset() {
	for i := range u.parent {
		u.parent[i] = i
	}
	clear(u.rank)
}

func (u *unionFind) find(x int) int {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]]
		x = u.parent[x]
	}
	return x
}

func (u *unionFind) union(a, b int) {
	ra, rb := u.find(a), u.find(b)
	if ra == rb {
		return
	}
	if u.rank[ra] < u.rank[rb] {
		ra, rb = rb, ra
	}
	u.parent[rb] = ra
	if u.rank[ra] == u.rank[rb] {
		u.rank[ra]++
	}
}

func (u *unionFind) same(a, b int) bool { return u.find(a) == u.find(b) }

// addPerm merges the orbits moved by a permutation.
func (u *unionFind) addPerm(p Perm) {
	for i, v := range p {
		if i != v {
			u.union(i, v)
		}
	}
}

// Orbits groups 0..n-1 into orbits under the given generators; singleton
// orbits are included. Each orbit is ascending; orbits are ordered by their
// minimum element.
func Orbits(n int, gens []Perm) [][]int {
	uf := newUnionFind(n)
	for _, g := range gens {
		uf.addPerm(g)
	}
	byRoot := map[int][]int{}
	for v := 0; v < n; v++ {
		r := uf.find(v)
		byRoot[r] = append(byRoot[r], v)
	}
	roots := make([]int, 0, len(byRoot))
	for r := range byRoot {
		roots = append(roots, r)
	}
	sort.Slice(roots, func(i, j int) bool { return byRoot[roots[i]][0] < byRoot[roots[j]][0] })
	out := make([][]int, 0, len(roots))
	for _, r := range roots {
		out = append(out, byRoot[r])
	}
	return out
}

// GroupOrderFromChain multiplies orbit sizes along a stabilizer chain; used
// internally and exported for tests.
func GroupOrderFromChain(orbitSizes []int) *big.Int {
	out := big.NewInt(1)
	for _, s := range orbitSizes {
		out.Mul(out, big.NewInt(int64(s)))
	}
	return out
}
