package autom

import (
	"math/big"
	"math/rand"
	"slices"
	"testing"
)

// factorial returns n! as big.Int.
func factorial(n int) *big.Int {
	out := big.NewInt(1)
	for i := 2; i <= n; i++ {
		out.Mul(out, big.NewInt(int64(i)))
	}
	return out
}

func completeGraph(n int) *Graph {
	g := NewGraph(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			g.AddEdge(i, j)
		}
	}
	return g
}

func cycleGraph(n int) *Graph {
	g := NewGraph(n)
	for i := 0; i < n; i++ {
		g.AddEdge(i, (i+1)%n)
	}
	return g
}

func pathGraph(n int) *Graph {
	g := NewGraph(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1)
	}
	return g
}

func petersenGraph() *Graph {
	g := NewGraph(10)
	for i := 0; i < 5; i++ {
		g.AddEdge(i, (i+1)%5)
		g.AddEdge(5+i, 5+(i+2)%5)
		g.AddEdge(i, 5+i)
	}
	return g
}

func checkGroup(t *testing.T, g *Graph, wantOrder *big.Int, name string) *Result {
	t.Helper()
	res := FindAutomorphisms(g, Options{})
	if !res.Exact {
		t.Fatalf("%s: search did not complete", name)
	}
	if res.Order.Cmp(wantOrder) != 0 {
		t.Fatalf("%s: |Aut| = %v, want %v", name, res.Order, wantOrder)
	}
	for i, p := range res.Generators {
		if !g.isAutomorphism(p) {
			t.Fatalf("%s: generator %d is not an automorphism: %s", name, i, p.Cycles())
		}
		if p.IsIdentity() {
			t.Fatalf("%s: identity reported as generator", name)
		}
	}
	return res
}

// TestAddEdgesMatchesAddEdge: adding a batch of edges to a graph that
// already has some gives the same adjacency lists, in the same order, as
// adding them one by one.
func TestAddEdgesMatchesAddEdge(t *testing.T) {
	edges := [][2]int32{{0, 3}, {2, 1}, {4, 0}, {3, 2}, {1, 4}, {0, 2}}
	one, batch := NewGraph(6), NewGraph(6)
	one.AddEdge(5, 0)
	batch.AddEdge(5, 0)
	for _, e := range edges {
		one.AddEdge(int(e[0]), int(e[1]))
	}
	batch.AddEdges(edges)
	batch.AddEdge(5, 3) // past the sized room
	one.AddEdge(5, 3)
	for v := range one.adj {
		if !slices.Equal(one.adj[v], batch.adj[v]) {
			t.Fatalf("vertex %d: AddEdges gave %v, AddEdge %v", v, batch.adj[v], one.adj[v])
		}
	}
}

func TestCompleteGraphGroup(t *testing.T) {
	for n := 1; n <= 7; n++ {
		checkGroup(t, completeGraph(n), factorial(n), "K_n")
	}
}

func TestCycleGroupIsDihedral(t *testing.T) {
	for n := 3; n <= 9; n++ {
		checkGroup(t, cycleGraph(n), big.NewInt(int64(2*n)), "C_n")
	}
}

func TestPathGroupIsReflection(t *testing.T) {
	for n := 2; n <= 8; n++ {
		checkGroup(t, pathGraph(n), big.NewInt(2), "P_n")
	}
}

func TestPetersenGroupOrder120(t *testing.T) {
	checkGroup(t, petersenGraph(), big.NewInt(120), "petersen")
}

func TestStarGraphGroup(t *testing.T) {
	// K_{1,n}: center fixed, leaves freely permutable: n!.
	for n := 2; n <= 6; n++ {
		g := NewGraph(n + 1)
		for i := 1; i <= n; i++ {
			g.AddEdge(0, i)
		}
		checkGroup(t, g, factorial(n), "star")
	}
}

func TestCompleteBipartiteGroup(t *testing.T) {
	// K_{2,3}: 2! * 3! = 12 (sides not swappable).
	g := NewGraph(5)
	for a := 0; a < 2; a++ {
		for b := 2; b < 5; b++ {
			g.AddEdge(a, b)
		}
	}
	checkGroup(t, g, big.NewInt(12), "K_{2,3}")
	// K_{3,3}: (3!)^2 * 2 = 72 (sides swappable).
	g2 := NewGraph(6)
	for a := 0; a < 3; a++ {
		for b := 3; b < 6; b++ {
			g2.AddEdge(a, b)
		}
	}
	checkGroup(t, g2, big.NewInt(72), "K_{3,3}")
}

func TestColorsRestrictGroup(t *testing.T) {
	// C4 with two opposite vertices colored: only the reflections fixing
	// the colored pair survive: order 2*... C4 Aut = dihedral order 8;
	// coloring {0} separately leaves stabilizer of vertex 0: order 2.
	g := cycleGraph(4)
	g.SetColor(0, 1)
	checkGroup(t, g, big.NewInt(2), "C4 colored")

	// All distinct colors: trivial group.
	g2 := cycleGraph(5)
	for v := 0; v < 5; v++ {
		g2.SetColor(v, v)
	}
	checkGroup(t, g2, big.NewInt(1), "C5 rainbow")
}

func TestDisjointTrianglesSwap(t *testing.T) {
	// Two disjoint triangles: (S3 × S3) ⋊ S2 = 72.
	g := NewGraph(6)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}} {
		g.AddEdge(e[0], e[1])
	}
	checkGroup(t, g, big.NewInt(72), "2xK3")
}

func TestEmptyAndTrivialGraphs(t *testing.T) {
	// Empty graph on n vertices: S_n.
	g := NewGraph(4)
	checkGroup(t, g, factorial(4), "empty4")
	// Single vertex.
	checkGroup(t, NewGraph(1), big.NewInt(1), "single")
	// Zero vertices.
	checkGroup(t, NewGraph(0), big.NewInt(1), "null")
}

func TestAsymmetricGraphTrivialGroup(t *testing.T) {
	// The smallest asymmetric graphs have 6 vertices; build one: a triangle
	// with pendant paths of distinct lengths.
	g := NewGraph(6)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {0, 2}, {2, 3}, {1, 4}, {4, 5}} {
		g.AddEdge(e[0], e[1])
	}
	checkGroup(t, g, big.NewInt(1), "asymmetric")
}

func TestQueen5GraphGroupOrder8(t *testing.T) {
	// The queen5_5 graph inherits the board symmetries: dihedral of order 8.
	n := 5
	g := NewGraph(n * n)
	id := func(r, c int) int { return r*n + c }
	for r1 := 0; r1 < n; r1++ {
		for c1 := 0; c1 < n; c1++ {
			for r2 := 0; r2 < n; r2++ {
				for c2 := 0; c2 < n; c2++ {
					if r1*n+c1 >= r2*n+c2 {
						continue
					}
					if r1 == r2 || c1 == c2 || r1-c1 == r2-c2 || r1+c1 == r2+c2 {
						g.AddEdge(id(r1, c1), id(r2, c2))
					}
				}
			}
		}
	}
	checkGroup(t, g, big.NewInt(8), "queen5_5")
}

func TestBudgetTruncationIsSound(t *testing.T) {
	g := completeGraph(8)
	res := FindAutomorphisms(g, Options{MaxNodes: 3})
	if res.Exact {
		t.Fatal("tiny budget should not complete on K8")
	}
	for _, p := range res.Generators {
		if !g.isAutomorphism(p) {
			t.Fatal("truncated search returned a non-automorphism")
		}
	}
	if res.Order.Cmp(factorial(8)) > 0 {
		t.Fatalf("truncated order %v exceeds true order", res.Order)
	}
}

func TestOrbitsOfGenerators(t *testing.T) {
	res := FindAutomorphisms(cycleGraph(5), Options{})
	orbits := Orbits(5, res.Generators)
	if len(orbits) != 1 || len(orbits[0]) != 5 {
		t.Fatalf("C5 should be vertex-transitive, got orbits %v", orbits)
	}
	// No generators: all singleton orbits.
	o2 := Orbits(3, nil)
	if len(o2) != 3 {
		t.Fatalf("expected 3 singleton orbits, got %v", o2)
	}
}

func TestPermBasics(t *testing.T) {
	p := Perm{1, 2, 0, 3}
	if p.IsIdentity() {
		t.Fatal("not identity")
	}
	if !Identity(4).IsIdentity() {
		t.Fatal("identity is identity")
	}
	inv := p.Inverse()
	if !p.Compose(inv).IsIdentity() {
		t.Fatalf("p∘p⁻¹ != id: %v", p.Compose(inv))
	}
	sup := p.Support()
	if len(sup) != 3 || sup[0] != 0 || sup[2] != 2 {
		t.Fatalf("support = %v", sup)
	}
	if c := p.Cycles(); c != "(0 1 2)" {
		t.Fatalf("cycles = %q", c)
	}
	if c := Identity(2).Cycles(); c != "()" {
		t.Fatalf("identity cycles = %q", c)
	}
}

func TestGeneratorClosureProperty(t *testing.T) {
	// Random products of generators must remain automorphisms.
	g := petersenGraph()
	res := FindAutomorphisms(g, Options{})
	if len(res.Generators) == 0 {
		t.Fatal("petersen has nontrivial group")
	}
	rng := rand.New(rand.NewSource(9))
	cur := Identity(10)
	for i := 0; i < 50; i++ {
		gen := res.Generators[rng.Intn(len(res.Generators))]
		if rng.Intn(2) == 0 {
			gen = gen.Inverse()
		}
		cur = cur.Compose(gen)
		if !g.isAutomorphism(cur) {
			t.Fatalf("product %d of generators is not an automorphism", i)
		}
	}
}

func TestRandomGraphGroupBruteForce(t *testing.T) {
	// Cross-check group order against brute-force enumeration on small
	// random graphs (n ≤ 7: at most 5040 permutations).
	rng := rand.New(rand.NewSource(12))
	for iter := 0; iter < 60; iter++ {
		n := 2 + rng.Intn(6)
		g := NewGraph(n)
		seen := map[[2]int]bool{}
		for e := 0; e < rng.Intn(n*(n-1)/2+1); e++ {
			a, b := rng.Intn(n), rng.Intn(n)
			if a == b {
				continue
			}
			if a > b {
				a, b = b, a
			}
			if seen[[2]int{a, b}] {
				continue
			}
			seen[[2]int{a, b}] = true
			g.AddEdge(a, b)
		}
		if rng.Intn(3) == 0 {
			g.SetColor(rng.Intn(n), 1)
		}
		want := bruteGroupOrder(g)
		res := FindAutomorphisms(g, Options{})
		if !res.Exact || res.Order.Cmp(big.NewInt(int64(want))) != 0 {
			t.Fatalf("iter %d (n=%d): |Aut| = %v, brute force %d", iter, n, res.Order, want)
		}
	}
}

// bruteGroupOrder counts automorphisms by enumerating all permutations.
func bruteGroupOrder(g *Graph) int {
	g.freeze()
	n := g.N()
	perm := make(Perm, n)
	used := make([]bool, n)
	count := 0
	var rec func(i int)
	rec = func(i int) {
		if i == n {
			if g.isAutomorphism(perm) {
				count++
			}
			return
		}
		for v := 0; v < n; v++ {
			if used[v] || g.Color(v) != g.Color(i) || g.Degree(v) != g.Degree(i) {
				continue
			}
			used[v] = true
			perm[i] = v
			rec(i + 1)
			used[v] = false
		}
	}
	rec(0)
	return count
}

func TestGroupOrderFromChain(t *testing.T) {
	if got := GroupOrderFromChain([]int{3, 2, 1}); got.Cmp(big.NewInt(6)) != 0 {
		t.Fatalf("chain product = %v", got)
	}
	if got := GroupOrderFromChain(nil); got.Cmp(big.NewInt(1)) != 0 {
		t.Fatalf("empty chain = %v", got)
	}
}
