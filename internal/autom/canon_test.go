package autom

import (
	"bytes"
	"context"
	"math/rand"
	"slices"
	"testing"
)

// relabel applies perm to g: vertex v of g becomes perm[v].
func relabel(g *Graph, perm Perm) *Graph {
	out := NewGraph(g.N())
	for v := 0; v < g.N(); v++ {
		out.SetColor(perm[v], g.Color(v))
		for _, w := range g.adj[v] {
			if v < int(w) {
				out.AddEdge(perm[v], perm[int(w)])
			}
		}
	}
	return out
}

func randomGraph(rng *rand.Rand, n int, p float64) *Graph {
	g := NewGraph(n)
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			if rng.Float64() < p {
				g.AddEdge(a, b)
			}
		}
	}
	return g
}

func randomPerm(rng *rand.Rand, n int) Perm {
	p := Identity(n)
	rng.Shuffle(n, func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

func TestCanonicalFormInvariantUnderRelabeling(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 30; iter++ {
		n := 4 + rng.Intn(12)
		g := randomGraph(rng, n, 0.4)
		c1 := CanonicalForm(g, CanonicalOptions{})
		if !c1.Exact {
			t.Fatalf("iter %d: inexact on n=%d", iter, n)
		}
		for trial := 0; trial < 3; trial++ {
			h := relabel(g, randomPerm(rng, n))
			c2 := CanonicalForm(h, CanonicalOptions{})
			if !bytes.Equal(c1.Bytes, c2.Bytes) {
				t.Fatalf("iter %d trial %d: canonical forms differ for isomorphic graphs", iter, trial)
			}
			if c1.Hash != c2.Hash {
				t.Fatalf("iter %d trial %d: hashes differ", iter, trial)
			}
		}
	}
}

// TestCanonicalFormSymmetricGraphs exercises graphs with large automorphism
// groups, where many leaves tie and the branching is widest.
func TestCanonicalFormSymmetricGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	build := func(kind int, n int) *Graph {
		g := NewGraph(n)
		switch kind {
		case 0: // cycle
			for v := 0; v < n; v++ {
				g.AddEdge(v, (v+1)%n)
			}
		case 1: // complete bipartite halves
			for a := 0; a < n/2; a++ {
				for b := n / 2; b < n; b++ {
					g.AddEdge(a, b)
				}
			}
		case 2: // complete
			for a := 0; a < n; a++ {
				for b := a + 1; b < n; b++ {
					g.AddEdge(a, b)
				}
			}
		}
		return g
	}
	for kind := 0; kind < 3; kind++ {
		g := build(kind, 8)
		c1 := CanonicalForm(g, CanonicalOptions{})
		for trial := 0; trial < 5; trial++ {
			h := relabel(build(kind, 8), randomPerm(rng, 8))
			c2 := CanonicalForm(h, CanonicalOptions{})
			if !bytes.Equal(c1.Bytes, c2.Bytes) {
				t.Fatalf("kind %d: canonical forms differ", kind)
			}
		}
	}
}

func TestCanonicalFormDistinguishesNonIsomorphic(t *testing.T) {
	// Path P4 and star K1,3: same vertex and edge counts, different shape.
	path := NewGraph(4)
	path.AddEdge(0, 1)
	path.AddEdge(1, 2)
	path.AddEdge(2, 3)
	star := NewGraph(4)
	star.AddEdge(0, 1)
	star.AddEdge(0, 2)
	star.AddEdge(0, 3)
	cp := CanonicalForm(path, CanonicalOptions{})
	cs := CanonicalForm(star, CanonicalOptions{})
	if bytes.Equal(cp.Bytes, cs.Bytes) {
		t.Fatal("P4 and K1,3 got equal canonical forms")
	}
}

func TestCanonicalFormRespectsColors(t *testing.T) {
	// Same structure, different color classes: must not collide.
	a := NewGraph(3)
	a.AddEdge(0, 1)
	b := NewGraph(3)
	b.AddEdge(0, 1)
	b.SetColor(2, 1)
	ca := CanonicalForm(a, CanonicalOptions{})
	cb := CanonicalForm(b, CanonicalOptions{})
	if bytes.Equal(ca.Bytes, cb.Bytes) {
		t.Fatal("differently colored graphs got equal canonical forms")
	}
}

// TestCanonicalFormPermIsValidRelabeling checks that Perm really maps the
// input onto the graph the encoding describes: relabeling g by Perm and
// re-encoding the identity labeling must reproduce Bytes.
func TestCanonicalFormPermIsValidRelabeling(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for iter := 0; iter < 10; iter++ {
		g := randomGraph(rng, 10, 0.5)
		c := CanonicalForm(g, CanonicalOptions{})
		h := relabel(g, c.Perm)
		h.freeze()
		lab := make([]int, h.N())
		for i := range lab {
			lab[i] = i
		}
		enc := encodeCanonical(h, lab, func(adj []byte) { copy(adj, adjacencyBits(h, lab)) })
		if !bytes.Equal(enc, c.Bytes) {
			t.Fatalf("iter %d: Perm does not reproduce the canonical encoding", iter)
		}
	}
}

func TestCanonicalFormBudget(t *testing.T) {
	// A graph with a big automorphism group under a tiny node budget: the
	// result must still be a valid relabeling, just inexact.
	g := NewGraph(12)
	for a := 0; a < 6; a++ {
		for b := 6; b < 12; b++ {
			g.AddEdge(a, b)
		}
	}
	c := CanonicalForm(g, CanonicalOptions{MaxNodes: 3})
	if c.Exact {
		t.Fatal("expected inexact under MaxNodes=3")
	}
	seen := make([]bool, 12)
	for _, p := range c.Perm {
		if p < 0 || p >= 12 || seen[p] {
			t.Fatal("Perm is not a permutation")
		}
		seen[p] = true
	}
}

func TestCanonicalFormCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rng := rand.New(rand.NewSource(5))
	g := randomGraph(rng, 30, 0.5)
	c := CanonicalForm(g, CanonicalOptions{Context: ctx})
	// The leftmost leaf always completes, so the form is usable even when
	// the context is already dead.
	if len(c.Perm) != 30 || len(c.Bytes) == 0 {
		t.Fatal("no usable canonical form")
	}
}

func TestCanonicalFormEmptyAndTrivial(t *testing.T) {
	e := CanonicalForm(NewGraph(0), CanonicalOptions{})
	if !e.Exact || len(e.Perm) != 0 {
		t.Fatal("empty graph")
	}
	one := CanonicalForm(NewGraph(1), CanonicalOptions{})
	if !one.Exact || len(one.Perm) != 1 {
		t.Fatal("single vertex")
	}
}

// adjacencyBits is the reference for the canonical bitmap: it tests each
// pair of positions (i,j), i<j, and sets bit j(j-1)/2+i when lab[i] and
// lab[j] are adjacent.
func adjacencyBits(g *Graph, lab []int) []byte {
	n := len(lab)
	out := make([]byte, (n*(n-1)/2+7)/8)
	k := 0
	for j := 1; j < n; j++ {
		for i := 0; i < j; i++ {
			if g.hasEdge(lab[i], lab[j]) {
				out[k/8] |= 1 << uint(k%8)
			}
			k++
		}
	}
	return out
}

// hasEdge reports adjacency by binary search in a's sorted list.
func (g *Graph) hasEdge(a, b int) bool {
	_, ok := slices.BinarySearch(g.adj[a], int32(b))
	return ok
}
