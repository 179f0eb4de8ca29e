// Package graph provides the undirected graphs that feed the coloring
// encoder: a simple graph type, DIMACS .col input/output, and deterministic
// generators for the 20 benchmark instances used in the paper's evaluation
// (queens and Mycielski graphs exactly; structure-matched stand-ins for the
// DIMACS data files that are not shipped with this repository — see
// DESIGN.md "Substitutions").
package graph

import (
	"fmt"
	"math"
	"slices"
)

// Graph is a simple undirected graph on vertices 0..N()-1. Each vertex
// keeps its neighbours as a sorted []int32 list. A graph built in bulk
// (FromEdges, ParseDimacs) holds every list in one slab, each capped at
// its own length, so a later AddEdge reallocates only the list it grows.
type Graph struct {
	name string
	adj  [][]int32
	m    int // number of undirected edges

	// Chi is the known chromatic number when the generator guarantees one
	// (0 when unknown). For planted-partition stand-ins the guarantee is
	// structural: the k-partition is a proper k-coloring (upper bound) and
	// the planted k-clique forces k colors (lower bound).
	Chi int
	// Clique optionally records a known clique (used as the χ lower-bound
	// witness by tests).
	Clique []int
	// Parts optionally records a proper coloring witness: Parts[v] is the
	// part (color class) of v in the generating partition.
	Parts []int
}

// New returns an empty graph with n vertices.
func New(name string, n int) *Graph {
	return &Graph{name: name, adj: make([][]int32, n)}
}

// FromEdges builds the graph on n vertices with the given edges in one
// pass: every list is filled, sorted and deduplicated in place, inside one
// slab. Self-loops and repeated edges (in either orientation) are dropped,
// so M counts distinct edges. An endpoint outside [0, n) is an error
// naming the first such edge.
func FromEdges(name string, n int, edges [][2]int) (*Graph, error) {
	if n < 0 || n > math.MaxInt32 {
		return nil, fmt.Errorf("vertex count %d out of range [0,%d]", n, math.MaxInt32)
	}
	off := make([]int, n+1) // degree counts, then each list's fill cursor
	for _, e := range edges {
		a, b := e[0], e[1]
		if a < 0 || b < 0 || a >= n || b >= n {
			return nil, fmt.Errorf("edge (%d,%d) out of range [0,%d)", a, b, n)
		}
		if a != b {
			off[a+1]++
			off[b+1]++
		}
	}
	for v := 0; v < n; v++ {
		off[v+1] += off[v]
	}
	slab := make([]int32, off[n])
	for _, e := range edges {
		a, b := e[0], e[1]
		if a != b {
			slab[off[a]] = int32(b)
			off[a]++
			slab[off[b]] = int32(a)
			off[b]++
		}
	}
	// off[v] is now where v's list ends (and v+1's began); compact each
	// sorted, deduplicated list down to the write cursor w.
	g := &Graph{name: name, adj: make([][]int32, n)}
	w, lo := 0, 0
	for v := 0; v < n; v++ {
		l := slab[lo:off[v]]
		lo = off[v]
		slices.Sort(l)
		l = slices.Compact(l)
		copy(slab[w:], l)
		g.adj[v] = slab[w : w+len(l) : w+len(l)]
		w += len(l)
	}
	g.m = w / 2
	return g, nil
}

// Name returns the instance name (e.g. "queen5_5").
func (g *Graph) Name() string { return g.name }

// N returns the number of vertices.
func (g *Graph) N() int { return len(g.adj) }

// M returns the number of undirected edges.
func (g *Graph) M() int { return g.m }

// AddEdge inserts the undirected edge (a,b) into both sorted lists.
// Self-loops and duplicate edges are ignored. It reports whether a new
// edge was added. Generators build edge by edge; decoded input goes
// through FromEdges, which pays no insertion per edge.
func (g *Graph) AddEdge(a, b int) bool {
	if a == b {
		return false
	}
	if a < 0 || b < 0 || a >= g.N() || b >= g.N() {
		panic(fmt.Sprintf("graph %q: edge (%d,%d) out of range [0,%d)", g.name, a, b, g.N()))
	}
	i, dup := slices.BinarySearch(g.adj[a], int32(b))
	if dup {
		return false
	}
	g.adj[a] = slices.Insert(g.adj[a], i, int32(b))
	j, _ := slices.BinarySearch(g.adj[b], int32(a))
	g.adj[b] = slices.Insert(g.adj[b], j, int32(a))
	g.m++
	return true
}

// HasEdge reports whether (a,b) is an edge, by binary search in the
// shorter of the two lists.
func (g *Graph) HasEdge(a, b int) bool {
	if a < 0 || b < 0 || a >= g.N() || b >= g.N() {
		return false
	}
	if len(g.adj[a]) > len(g.adj[b]) {
		a, b = b, a
	}
	_, ok := slices.BinarySearch(g.adj[a], int32(b))
	return ok
}

// Degree returns the degree of v.
func (g *Graph) Degree(v int) int { return len(g.adj[v]) }

// Neighbors returns the sorted neighbour list of v. The slice is the
// graph's own: callers must not modify it.
func (g *Graph) Neighbors(v int) []int32 { return g.adj[v] }

// Adjacency returns every vertex's sorted neighbour list, indexed by
// vertex: the graph's own lists, which callers must not modify. It lets
// another layer (the canonical labeling) read the graph without a copy.
func (g *Graph) Adjacency() [][]int32 { return g.adj }

// Edges returns all undirected edges as (a,b) pairs with a < b, sorted.
func (g *Graph) Edges() [][2]int {
	out := make([][2]int, 0, g.m)
	for a, l := range g.adj {
		i, _ := slices.BinarySearch(l, int32(a))
		for _, b := range l[i:] {
			out = append(out, [2]int{a, int(b)})
		}
	}
	return out
}

// MaxDegreeVertex returns the vertex with the largest degree (lowest index
// on ties), or -1 for an empty graph. Used by the SC (selective coloring)
// predicate construction (paper §3.4).
func (g *Graph) MaxDegreeVertex() int {
	best, bestDeg := -1, -1
	for v := 0; v < g.N(); v++ {
		if d := g.Degree(v); d > bestDeg {
			best, bestDeg = v, d
		}
	}
	return best
}

// MaxDegreeNeighbor returns the neighbor of v with the largest degree
// (lowest index on ties), or -1 when v has no neighbors.
func (g *Graph) MaxDegreeNeighbor(v int) int {
	best, bestDeg := -1, -1
	for _, u := range g.adj[v] {
		if d := len(g.adj[u]); d > bestDeg {
			best, bestDeg = int(u), d
		}
	}
	return best
}

// IsProperColoring reports whether colors (one entry per vertex) assigns
// distinct colors to every adjacent pair.
func (g *Graph) IsProperColoring(colors []int) bool {
	if len(colors) != g.N() {
		return false
	}
	for a, l := range g.adj {
		for _, b := range l {
			if colors[a] == colors[b] {
				return false
			}
		}
	}
	return true
}

// IsClique reports whether the given vertices are pairwise adjacent.
func (g *Graph) IsClique(vs []int) bool {
	for i := 0; i < len(vs); i++ {
		for j := i + 1; j < len(vs); j++ {
			if !g.HasEdge(vs[i], vs[j]) {
				return false
			}
		}
	}
	return true
}

// Clone returns a deep copy with the same name and metadata, its lists
// in one slab.
func (g *Graph) Clone() *Graph {
	out := &Graph{name: g.name, adj: make([][]int32, g.N()), m: g.m}
	slab := make([]int32, 2*g.m)
	for v, l := range g.adj {
		out.adj[v] = append(slab[:0:len(l)], l...)
		slab = slab[len(l):]
	}
	out.Chi = g.Chi
	out.Clique = append([]int(nil), g.Clique...)
	out.Parts = append([]int(nil), g.Parts...)
	return out
}

func (g *Graph) String() string {
	return fmt.Sprintf("%s(|V|=%d |E|=%d)", g.name, g.N(), g.m)
}
