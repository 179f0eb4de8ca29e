// Package graph provides the undirected graphs that feed the coloring
// encoder: a simple graph type, DIMACS .col input/output, and deterministic
// generators for the 20 benchmark instances used in the paper's evaluation
// (queens and Mycielski graphs exactly; structure-matched stand-ins for the
// DIMACS data files that are not shipped with this repository — see
// DESIGN.md "Substitutions").
package graph

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
)

// Graph is a simple undirected graph on vertices 0..N()-1.
type Graph struct {
	name string
	adj  []map[int]struct{}
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
	g := &Graph{name: name, adj: make([]map[int]struct{}, n)}
	for i := range g.adj {
		g.adj[i] = make(map[int]struct{})
	}
	return g
}

// Name returns the instance name (e.g. "queen5_5").
func (g *Graph) Name() string { return g.name }

// N returns the number of vertices.
func (g *Graph) N() int { return len(g.adj) }

// M returns the number of undirected edges.
func (g *Graph) M() int { return g.m }

// AddEdge inserts the undirected edge (a,b). Self-loops and duplicate edges
// are ignored. It reports whether a new edge was added.
func (g *Graph) AddEdge(a, b int) bool {
	if a == b {
		return false
	}
	if a < 0 || b < 0 || a >= g.N() || b >= g.N() {
		panic(fmt.Sprintf("graph %q: edge (%d,%d) out of range [0,%d)", g.name, a, b, g.N()))
	}
	if _, dup := g.adj[a][b]; dup {
		return false
	}
	g.adj[a][b] = struct{}{}
	g.adj[b][a] = struct{}{}
	g.m++
	return true
}

// HasEdge reports whether (a,b) is an edge.
func (g *Graph) HasEdge(a, b int) bool {
	if a < 0 || b < 0 || a >= g.N() || b >= g.N() {
		return false
	}
	_, ok := g.adj[a][b]
	return ok
}

// Degree returns the degree of v.
func (g *Graph) Degree(v int) int { return len(g.adj[v]) }

// Neighbors returns the sorted neighbor list of v.
func (g *Graph) Neighbors(v int) []int {
	out := make([]int, 0, len(g.adj[v]))
	for u := range g.adj[v] {
		out = append(out, u)
	}
	sort.Ints(out)
	return out
}

// Edges returns all undirected edges as (a,b) pairs with a < b, sorted.
func (g *Graph) Edges() [][2]int {
	out := make([][2]int, 0, g.m)
	for a := range g.adj {
		for b := range g.adj[a] {
			if a < b {
				out = append(out, [2]int{a, b})
			}
		}
	}
	slices.SortFunc(out, func(x, y [2]int) int {
		if c := cmp.Compare(x[0], y[0]); c != 0 {
			return c
		}
		return cmp.Compare(x[1], y[1])
	})
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
	for _, u := range g.Neighbors(v) {
		if d := g.Degree(u); d > bestDeg {
			best, bestDeg = u, d
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
	for a := range g.adj {
		for b := range g.adj[a] {
			if a < b && colors[a] == colors[b] {
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

// Clone returns a deep copy with the same name and metadata.
func (g *Graph) Clone() *Graph {
	out := New(g.name, g.N())
	for a := range g.adj {
		for b := range g.adj[a] {
			if a < b {
				out.AddEdge(a, b)
			}
		}
	}
	out.Chi = g.Chi
	out.Clique = append([]int(nil), g.Clique...)
	out.Parts = append([]int(nil), g.Parts...)
	return out
}

func (g *Graph) String() string {
	return fmt.Sprintf("%s(|V|=%d |E|=%d)", g.name, g.N(), g.m)
}
