// Package testutil provides the reference oracles the solver test suites
// and fuzz targets check against: a brute-force SAT solver for small
// formulas, model and coloring validity checkers, and deterministic random
// instance generators. Everything here favors being obviously correct over
// being fast — the oracles exist so the optimized engines
// (internal/pbsolver, internal/par) have an independent ground truth.
package testutil

import (
	"fmt"
	"math/rand"

	"repro/internal/cnf"
	"repro/internal/graph"
)

// MaxBruteForceVars bounds BruteForceSAT's exhaustive enumeration.
const MaxBruteForceVars = 20

// BruteForceSAT decides a CNF formula by exhaustive enumeration and, when
// satisfiable, returns a witness assignment (index 0 unused). It panics
// when the formula has more than MaxBruteForceVars variables — the oracle
// is for small randomized instances only.
func BruteForceSAT(f *cnf.Formula) (bool, cnf.Assignment) {
	n := f.NumVars
	if n > MaxBruteForceVars {
		panic(fmt.Sprintf("testutil: BruteForceSAT on %d vars (max %d)", n, MaxBruteForceVars))
	}
	a := make(cnf.Assignment, n+1)
	for mask := uint64(0); mask < 1<<n; mask++ {
		for v := 1; v <= n; v++ {
			a[v] = mask&(1<<(v-1)) != 0
		}
		if f.Satisfies(a) {
			return true, a
		}
	}
	return false, nil
}

// CheckModel verifies that the assignment satisfies every clause of the
// formula, returning a descriptive error naming the first violated clause.
func CheckModel(f *cnf.Formula, a cnf.Assignment) error {
	for i, c := range f.Clauses {
		sat := false
		for _, l := range c {
			if a.Lit(l) {
				sat = true
				break
			}
		}
		if !sat {
			return fmt.Errorf("clause %d %v is falsified", i, c)
		}
	}
	return nil
}

// CheckColoring verifies that coloring is a proper K-coloring of g: one
// color in [0, k) per vertex, distinct across every edge. A descriptive
// error names the first violation.
func CheckColoring(g *graph.Graph, coloring []int, k int) error {
	if len(coloring) != g.N() {
		return fmt.Errorf("coloring has %d entries for %d vertices", len(coloring), g.N())
	}
	for v, c := range coloring {
		if c < 0 || c >= k {
			return fmt.Errorf("vertex %d has color %d outside [0,%d)", v, c, k)
		}
	}
	for _, e := range g.Edges() {
		if coloring[e[0]] == coloring[e[1]] {
			return fmt.Errorf("edge (%d,%d) is monochromatic (color %d)", e[0], e[1], coloring[e[0]])
		}
	}
	return nil
}

// BruteForceChromatic returns the chromatic number of g by trying K = 1, 2,
// … with exhaustive assignment search. Exponential; keep g tiny (≤ ~8
// vertices).
func BruteForceChromatic(g *graph.Graph) int {
	n := g.N()
	if n == 0 {
		return 0
	}
	for k := 1; ; k++ {
		if colorable(g, make([]int, n), 0, k) {
			return k
		}
	}
}

func colorable(g *graph.Graph, col []int, v, k int) bool {
	if v == g.N() {
		return true
	}
next:
	for c := 0; c < k; c++ {
		for _, w := range g.Neighbors(v) {
			if w < v && col[w] == c {
				continue next
			}
		}
		col[v] = c
		if colorable(g, col, v+1, k) {
			return true
		}
	}
	return false
}

// RandomCNF generates a uniform random k-CNF formula: nClauses clauses of
// width 1..maxWidth over nVars variables. Deterministic in rng.
func RandomCNF(rng *rand.Rand, nVars, nClauses, maxWidth int) *cnf.Formula {
	f := cnf.NewFormula(nVars)
	for i := 0; i < nClauses; i++ {
		w := 1 + rng.Intn(maxWidth)
		cl := make([]cnf.Lit, 0, w)
		for j := 0; j < w; j++ {
			l := cnf.PosLit(1 + rng.Intn(nVars))
			if rng.Intn(2) == 0 {
				l = l.Neg()
			}
			cl = append(cl, l)
		}
		f.AddClause(cl...)
	}
	return f
}

// RandomGraph generates a G(n, p) random graph. Deterministic in rng.
func RandomGraph(rng *rand.Rand, name string, n int, p float64) *graph.Graph {
	g := graph.New(name, n)
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			if rng.Float64() < p {
				g.AddEdge(a, b)
			}
		}
	}
	return g
}

// PlantedGraphs returns one graph of each planted-χ family at the sizes
// e2ebench's solve and shatter workloads submit (chromatic number 6), the
// inputs the formula-load benchmarks and golden pins run on.
func PlantedGraphs() []*graph.Graph {
	iv, _ := graph.IntervalInterference("interval", 40, 6, 4)
	return []*graph.Graph{
		graph.PartiteScenes("scenes", 40, 130, 6, 1),
		graph.PartiteGeometric("geometric", 50, 130, 6, 2),
		graph.PartitePlanted("planted", 50, 160, 6, 3),
		iv,
	}
}

// RacerGraphs returns one graph of each planted-χ family at the sizes
// e2ebench's racers workload submits with parallel: 2 (chromatic number 7
// or 8), the inputs the cube-and-conquer benchmarks and golden pins run on.
func RacerGraphs() []*graph.Graph {
	iv, _ := graph.IntervalInterference("interval-60", 60, 7, 4)
	return []*graph.Graph{
		graph.PartiteScenes("scenes-55", 55, 180, 7, 1),
		graph.PartiteGeometric("geometric-100", 100, 260, 8, 2),
		graph.PartitePlanted("planted-100", 100, 400, 7, 3),
		iv,
	}
}
