package autom

import (
	"bytes"
	"math/rand"
	"testing"
)

// Transitive-family constructors beyond the ones autom_test.go already
// provides. These are exactly the graphs the paper targets: wide
// refinement cells, huge automorphism groups.

func completeBipartite(h int) *Graph {
	g := NewGraph(2 * h)
	for a := 0; a < h; a++ {
		for b := h; b < 2*h; b++ {
			g.AddEdge(a, b)
		}
	}
	return g
}

// circulantGraph connects v to v±d for each offset d; vertex-transitive by
// construction (rotations are automorphisms).
func circulantGraph(n int, offsets ...int) *Graph {
	g := NewGraph(n)
	seen := map[[2]int]bool{}
	for v := 0; v < n; v++ {
		for _, d := range offsets {
			a, b := v, (v+d)%n
			if a == b {
				continue
			}
			if a > b {
				a, b = b, a
			}
			if !seen[[2]int{a, b}] {
				seen[[2]int{a, b}] = true
				g.AddEdge(a, b)
			}
		}
	}
	return g
}

func queenGraph(rows, cols int) *Graph {
	n := rows * cols
	g := NewGraph(n)
	for a := 0; a < n; a++ {
		ai, aj := a/cols, a%cols
		for b := a + 1; b < n; b++ {
			bi, bj := b/cols, b%cols
			if ai == bi || aj == bj || ai-aj == bi-bj || ai+aj == bi+bj {
				g.AddEdge(a, b)
			}
		}
	}
	return g
}

// TestCanonicalFormPrunedMatchesUnpruned is the pruning soundness property:
// orbit pruning, prefix pruning and automorphism discovery must not change
// the canonical encoding — the pruned search returns byte-identical Bytes
// to the exhaustive (DisablePruning) search, never visiting more nodes.
func TestCanonicalFormPrunedMatchesUnpruned(t *testing.T) {
	check := func(name string, g *Graph, h *Graph) {
		t.Helper()
		pruned := CanonicalForm(g, CanonicalOptions{})
		unpruned := CanonicalForm(h, CanonicalOptions{DisablePruning: true})
		if !pruned.Exact || !unpruned.Exact {
			t.Fatalf("%s: inexact search (pruned=%v unpruned=%v)", name, pruned.Exact, unpruned.Exact)
		}
		if !bytes.Equal(pruned.Bytes, unpruned.Bytes) {
			t.Fatalf("%s: pruned and unpruned canonical encodings differ", name)
		}
		if pruned.Nodes > unpruned.Nodes {
			t.Fatalf("%s: pruned search visited more nodes (%d > %d)", name, pruned.Nodes, unpruned.Nodes)
		}
	}
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 40; iter++ {
		n := 4 + rng.Intn(16)
		p := []float64{0.15, 0.3, 0.5, 0.8}[iter%4]
		g := randomGraph(rng, n, p)
		if iter%3 == 0 {
			// Exercise nontrivial color classes too.
			for v := 0; v < n; v++ {
				g.SetColor(v, rng.Intn(3))
			}
		}
		check("random", g, relabel(g, Identity(n)))
	}
	transitive := map[string]func() *Graph{
		"C12":       func() *Graph { return cycleGraph(12) },
		"C13":       func() *Graph { return cycleGraph(13) },
		"K8":        func() *Graph { return completeGraph(8) },
		"K5,5":      func() *Graph { return completeBipartite(5) },
		"petersen":  petersenGraph,
		"circulant": func() *Graph { return circulantGraph(14, 1, 4) },
		"queen5":    func() *Graph { return queenGraph(5, 5) },
		"empty8":    func() *Graph { return NewGraph(8) },
	}
	for name, build := range transitive {
		check(name, build(), build())
		// The pruned form must also stay invariant under relabeling, with
		// the unpruned search run on the relabelled copy: both searches see
		// different vertex orders yet must agree byte-for-byte.
		g := build()
		check(name+"/relabeled", g, relabel(build(), randomPerm(rng, g.N())))
	}
}

// TestCanonicalFormNodeReduction pins the headline numbers: on the
// transitive graphs the paper targets, discovered-automorphism orbit
// pruning collapses the search by well over an order of magnitude while
// producing the identical encoding. queen-8 is included for coverage but
// asserted only as no-worse: queen graphs are irregular (corner/edge/center
// degrees differ), so equitable refinement alone already collapses the
// unpruned tree to single digits and a 10x ratio does not exist to claim.
func TestCanonicalFormNodeReduction(t *testing.T) {
	cases := []struct {
		name    string
		g       *Graph
		min10x  bool
		maxNode int64 // ceiling on the pruned node count, 0 = none
	}{
		{"C100", cycleGraph(100), true, 50},
		{"K12,12", completeBipartite(12), true, 0},
		{"petersen", petersenGraph(), true, 0},
		{"queen8", queenGraph(8, 8), false, 0},
	}
	for _, tc := range cases {
		pruned := CanonicalForm(tc.g, CanonicalOptions{})
		unpruned := CanonicalForm(tc.g, CanonicalOptions{DisablePruning: true})
		if !pruned.Exact {
			t.Fatalf("%s: pruned search inexact within default budget", tc.name)
		}
		if unpruned.Exact && !bytes.Equal(pruned.Bytes, unpruned.Bytes) {
			t.Fatalf("%s: pruned and unpruned encodings differ", tc.name)
		}
		if tc.min10x && pruned.Nodes*10 > unpruned.Nodes {
			t.Fatalf("%s: want >=10x node reduction, got %d pruned vs %d unpruned",
				tc.name, pruned.Nodes, unpruned.Nodes)
		}
		if !tc.min10x && pruned.Nodes > unpruned.Nodes {
			t.Fatalf("%s: pruned search visited more nodes (%d > %d)",
				tc.name, pruned.Nodes, unpruned.Nodes)
		}
		if len(pruned.Generators) == 0 {
			t.Fatalf("%s: expected discovered generators on a symmetric graph", tc.name)
		}
		if tc.maxNode > 0 && pruned.Nodes > tc.maxNode {
			t.Fatalf("%s: pruned node count regressed: %d > %d", tc.name, pruned.Nodes, tc.maxNode)
		}
	}
}

// TestCanonicalFormExactOnPreviouslyExhaustedGraphs checks the cache-key
// payoff: graphs whose unpruned search burns the whole default node budget
// (falling back to inexact, undedupable keys) now finish exactly.
func TestCanonicalFormExactOnPreviouslyExhaustedGraphs(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *Graph
	}{
		{"K12,12", completeBipartite(12)},
		{"empty40", NewGraph(40)},
	} {
		unpruned := CanonicalForm(tc.g, CanonicalOptions{DisablePruning: true})
		if unpruned.Exact {
			t.Fatalf("%s: expected the unpruned baseline to exhaust the default budget", tc.name)
		}
		pruned := CanonicalForm(tc.g, CanonicalOptions{})
		if !pruned.Exact {
			t.Fatalf("%s: pruned search still inexact (nodes=%d)", tc.name, pruned.Nodes)
		}
	}
}

// TestCanonicalFormGenerators checks every reported generator is a genuine
// non-identity automorphism and that the prune counters are consistent
// with what the search claims to have skipped.
func TestCanonicalFormGenerators(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *Graph
	}{
		{"C30", cycleGraph(30)},
		{"K4,4", completeBipartite(4)},
		{"petersen", petersenGraph()},
	} {
		g := tc.g
		c := CanonicalForm(g, CanonicalOptions{})
		if len(c.Generators) == 0 {
			t.Fatalf("%s: no generators discovered", tc.name)
		}
		for i, perm := range c.Generators {
			if perm.IsIdentity() {
				t.Fatalf("%s: generator %d is the identity", tc.name, i)
			}
			if !g.isAutomorphism(perm, nil) {
				t.Fatalf("%s: generator %d is not an automorphism: %v", tc.name, i, perm)
			}
		}
		if c.OrbitPrunes == 0 {
			t.Fatalf("%s: expected orbit prunes on a symmetric graph", tc.name)
		}
		unpruned := CanonicalForm(g, CanonicalOptions{DisablePruning: true})
		if len(unpruned.Generators) != 0 || unpruned.OrbitPrunes != 0 || unpruned.PrefixPrunes != 0 {
			t.Fatalf("%s: DisablePruning must not discover or prune", tc.name)
		}
	}
}
