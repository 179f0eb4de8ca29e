// Package encode reduces minimum graph coloring to 0-1 ILP (paper §2.5) and
// implements the four instance-independent symmetry-breaking predicate
// constructions of §3: null-color elimination (NU), cardinality-based color
// ordering (CA), lowest-index color ordering (LI), and selective coloring
// (SC), plus the NU+SC combination evaluated in §4.
//
// For a graph G(V,E) with |V| = n, |E| = m and color bound K:
//
//   - indicator variables x[i][j] (vertex i gets color j) and usage
//     variables y[j] (color j used by some vertex): nK + K variables;
//   - per vertex, the PB constraint Σ_j x[i][j] = 1;
//   - per edge (a,b) and color j, the clause (¬x[a][j] ∨ ¬x[b][j]);
//   - usage linking y[j] ⇔ ∨_i x[i][j], as nK + K clauses;
//   - objective MIN Σ_j y[j].
package encode

import (
	"fmt"

	"repro/internal/clique"
	"repro/internal/cnf"
	"repro/internal/graph"
	"repro/internal/pb"
)

// SBPKind selects the instance-independent SBP construction added during
// encoding (paper §3).
type SBPKind int

// The constructions compared in the paper's Tables 2-5.
const (
	SBPNone SBPKind = iota
	SBPNU           // null-color elimination: y[k+1] ⇒ y[k]
	SBPCA           // cardinality-based ordering: |class k| ≥ |class k+1|
	SBPLI           // lowest-index color ordering (complete)
	SBPSC           // selective coloring: pin colors of two high-degree vertices
	SBPNUSC         // NU and SC combined
)

func (k SBPKind) String() string {
	switch k {
	case SBPNone:
		return "none"
	case SBPNU:
		return "NU"
	case SBPCA:
		return "CA"
	case SBPLI:
		return "LI"
	case SBPSC:
		return "SC"
	case SBPNUSC:
		return "NU+SC"
	}
	return fmt.Sprintf("sbp(%d)", int(k))
}

// SBPLIQuad is the paper-literal quadratic variant of LI (V[i][k] excludes
// every earlier vertex pairwise instead of via prefix variables); it is not
// part of the evaluated constructions and exists for the encoding-size
// ablation bench.
const SBPLIQuad SBPKind = 100

// SBPClique pre-colors a maximal clique with colors 1..|clique| (unit
// clauses). It is the "even stronger construction" §3.4 sketches and leaves
// unimplemented because "clique finding is complicated" — this repository
// has a clique finder, so the extension is provided and ablated against SC.
const SBPClique SBPKind = 101

// Kinds lists the rows of the paper's tables in order.
var Kinds = []SBPKind{SBPNone, SBPNU, SBPCA, SBPLI, SBPSC, SBPNUSC}

// Options tune encoding details for ablation studies; the zero value is the
// paper's encoding.
type Options struct {
	// PairwiseExactlyOne replaces the per-vertex PB row Σ_j x[i][j] = 1
	// with pure CNF (one at-least-one clause plus pairwise at-most-one
	// clauses), the CNF-vs-PB encoding tradeoff of §2.3.
	PairwiseExactlyOne bool
}

// Encoding is a 0-1 ILP reduction of a K-coloring instance.
type Encoding struct {
	F    *pb.Formula
	G    *graph.Graph
	K    int
	Kind SBPKind
	// x[i][j] is the variable index for "vertex i has color j"; y[j] for
	// "color j is used". Colors are 0-based here (the paper numbers them
	// 1..K).
	x [][]int
	y []int
}

// X returns the indicator variable for vertex i, color j.
func (e *Encoding) X(i, j int) int { return e.x[i][j] }

// Y returns the usage variable for color j.
func (e *Encoding) Y(j int) int { return e.y[j] }

// XVars returns all indicator variable indices (used as the enumeration
// projection for Figure 1).
func (e *Encoding) XVars() []int {
	out := make([]int, 0, e.G.N()*e.K)
	for i := 0; i < e.G.N(); i++ {
		out = append(out, e.x[i]...)
	}
	return out
}

// Build encodes the K-coloring optimization instance with the chosen
// instance-independent SBP construction.
func Build(g *graph.Graph, K int, kind SBPKind) *Encoding {
	return BuildWithOptions(g, K, kind, Options{})
}

// BuildWithOptions is Build with encoding ablation knobs.
func BuildWithOptions(g *graph.Graph, K int, kind SBPKind, opts Options) *Encoding {
	if K < 1 {
		panic("encode: K must be >= 1")
	}
	n := g.N()
	e := &Encoding{G: g, K: K, Kind: kind}
	f := pb.NewFormula(n*K + K)
	// Room for the base clauses: one per exactly-one row, K per edge and
	// n+1 per color; SBPs may add more.
	f.Clauses = make([]cnf.Clause, 0, n+K*(g.M()+n+1))
	e.F = f
	e.x = make([][]int, n)
	for i := 0; i < n; i++ {
		e.x[i] = make([]int, K)
		for j := 0; j < K; j++ {
			e.x[i][j] = i*K + j + 1
		}
	}
	e.y = make([]int, K)
	for j := 0; j < K; j++ {
		e.y[j] = n*K + j + 1
	}

	xl := func(i, j int) cnf.Lit { return cnf.PosLit(e.x[i][j]) }
	yl := func(j int) cnf.Lit { return cnf.PosLit(e.y[j]) }

	// Each vertex gets exactly one color.
	for i := 0; i < n; i++ {
		if opts.PairwiseExactlyOne {
			alo := make([]cnf.Lit, K)
			for j := 0; j < K; j++ {
				alo[j] = xl(i, j)
			}
			f.AddClause(alo...)
			for a := 0; a < K; a++ {
				for b := a + 1; b < K; b++ {
					f.AddClause(xl(i, a).Neg(), xl(i, b).Neg())
				}
			}
			continue
		}
		terms := make([]pb.Term, K)
		for j := 0; j < K; j++ {
			terms[j] = pb.Term{Coef: 1, Lit: xl(i, j)}
		}
		f.AddPB(terms, pb.EQ, 1)
	}
	// Adjacent vertices get different colors.
	for _, ed := range g.Edges() {
		for j := 0; j < K; j++ {
			f.AddClause(xl(ed[0], j).Neg(), xl(ed[1], j).Neg())
		}
	}
	// y[j] ⇔ some vertex uses color j.
	for j := 0; j < K; j++ {
		long := make([]cnf.Lit, 0, n+1)
		long = append(long, yl(j).Neg())
		for i := 0; i < n; i++ {
			f.AddImplication(xl(i, j), yl(j))
			long = append(long, xl(i, j))
		}
		f.AddClause(long...)
	}
	// Objective: minimize used colors.
	obj := make([]pb.Term, K)
	for j := 0; j < K; j++ {
		obj[j] = pb.Term{Coef: 1, Lit: yl(j)}
	}
	f.SetObjective(obj)

	switch kind {
	case SBPNone:
	case SBPNU:
		e.addNU()
	case SBPCA:
		e.addCA()
	case SBPLI:
		e.addLI()
	case SBPSC:
		e.addSC()
	case SBPNUSC:
		e.addNU()
		e.addSC()
	case SBPLIQuad:
		e.addLIQuadratic()
	case SBPClique:
		e.addClique()
	default:
		panic(fmt.Sprintf("encode: unknown SBP kind %d", int(kind)))
	}
	return e
}

// addNU adds null-color elimination (paper §3.1): null colors may only
// trail, enforced by K−1 binary clauses y[k+1] ⇒ y[k].
func (e *Encoding) addNU() {
	for j := 0; j+1 < e.K; j++ {
		e.F.AddImplication(cnf.PosLit(e.y[j+1]), cnf.PosLit(e.y[j]))
	}
}

// addCA adds cardinality-based color ordering (paper §3.2): the class of
// color k is at least as large as that of color k+1, as K−1 PB constraints
// Σ_i x[i][k] − Σ_i x[i][k+1] ≥ 0.
func (e *Encoding) addCA() {
	n := e.G.N()
	for j := 0; j+1 < e.K; j++ {
		terms := make([]pb.Term, 0, 2*n)
		for i := 0; i < n; i++ {
			terms = append(terms,
				pb.Term{Coef: 1, Lit: cnf.PosLit(e.x[i][j])},
				pb.Term{Coef: -1, Lit: cnf.PosLit(e.x[i][j+1])})
		}
		e.F.AddPB(terms, pb.GE, 0)
	}
}

// addLI adds lowest-index color ordering (paper §3.3). The paper introduces
// V[i][k] ("vertex i is the lowest-index vertex colored k") and requires the
// lowest indices to be ordered across colors; we implement the equivalent
// definitional encoding with prefix variables to keep the construction
// O(nK):
//
//	P[i][k] ⇔ (∃ j ≤ i: x[j][k])        (prefix occupancy)
//	V[i][k] ⇔ x[i][k] ∧ ¬P[i−1][k]      (unique lowest index)
//	y[k]   ⇒ ∨_i V[i][k]                 (every used color has one)
//	V[i][k] ⇒ ∨_{j>i} V[j][k−1]          (lowest indices strictly decrease
//	                                      with the color number, matching
//	                                      the paper's worked example)
//
// LI breaks all instance-independent symmetries and, as the paper stresses,
// also destroys instance-dependent vertex symmetries.
func (e *Encoding) addLI() {
	f := e.F
	n, K := e.G.N(), e.K
	P := make([][]int, n)
	V := make([][]int, n)
	for i := 0; i < n; i++ {
		P[i] = make([]int, K)
		V[i] = make([]int, K)
		for k := 0; k < K; k++ {
			P[i][k] = f.NewVar()
			V[i][k] = f.NewVar()
		}
	}
	pl := func(i, k int) cnf.Lit { return cnf.PosLit(P[i][k]) }
	vl := func(i, k int) cnf.Lit { return cnf.PosLit(V[i][k]) }
	xl := func(i, k int) cnf.Lit { return cnf.PosLit(e.x[i][k]) }
	yl := func(k int) cnf.Lit { return cnf.PosLit(e.y[k]) }

	for k := 0; k < K; k++ {
		for i := 0; i < n; i++ {
			if i == 0 {
				// P[0][k] ⇔ x[0][k]; V[0][k] ⇔ x[0][k].
				f.AddImplication(pl(0, k), xl(0, k))
				f.AddImplication(xl(0, k), pl(0, k))
				f.AddImplication(vl(0, k), xl(0, k))
				f.AddImplication(xl(0, k), vl(0, k))
				continue
			}
			// P[i][k] ⇔ P[i−1][k] ∨ x[i][k].
			f.AddImplication(pl(i-1, k), pl(i, k))
			f.AddImplication(xl(i, k), pl(i, k))
			f.AddClause(pl(i, k).Neg(), pl(i-1, k), xl(i, k))
			// V[i][k] ⇔ x[i][k] ∧ ¬P[i−1][k].
			f.AddImplication(vl(i, k), xl(i, k))
			f.AddClause(vl(i, k).Neg(), pl(i-1, k).Neg())
			f.AddClause(xl(i, k).Neg(), pl(i-1, k), vl(i, k))
		}
		// Every used color has a lowest-index vertex.
		long := make([]cnf.Lit, 0, n+1)
		long = append(long, yl(k).Neg())
		for i := 0; i < n; i++ {
			long = append(long, vl(i, k))
		}
		f.AddClause(long...)
	}
	// Ordering between adjacent color numbers: the lowest index of color k
	// is above some lowest index of color k−1 placed later in vertex order.
	for k := 1; k < K; k++ {
		for i := 0; i < n; i++ {
			cl := make([]cnf.Lit, 0, n-i)
			cl = append(cl, vl(i, k).Neg())
			for j := i + 1; j < n; j++ {
				cl = append(cl, vl(j, k-1))
			}
			f.AddClause(cl...)
		}
	}
}

// addLIQuadratic is the paper-literal LI variant for the encoding ablation:
// V[i][k] is tied to x[i][k] with pairwise exclusions over every earlier
// vertex (Θ(n²K) clauses) instead of the O(nK) prefix chain. Semantically
// equivalent to addLI.
func (e *Encoding) addLIQuadratic() {
	f := e.F
	n, K := e.G.N(), e.K
	V := make([][]int, n)
	for i := 0; i < n; i++ {
		V[i] = make([]int, K)
		for k := 0; k < K; k++ {
			V[i][k] = f.NewVar()
		}
	}
	vl := func(i, k int) cnf.Lit { return cnf.PosLit(V[i][k]) }
	xl := func(i, k int) cnf.Lit { return cnf.PosLit(e.x[i][k]) }
	yl := func(k int) cnf.Lit { return cnf.PosLit(e.y[k]) }
	for k := 0; k < K; k++ {
		for i := 0; i < n; i++ {
			// V[i][k] ⇔ x[i][k] ∧ ∧_{j<i} ¬x[j][k].
			f.AddImplication(vl(i, k), xl(i, k))
			long := make([]cnf.Lit, 0, i+2)
			long = append(long, xl(i, k).Neg())
			for j := 0; j < i; j++ {
				f.AddClause(vl(i, k).Neg(), xl(j, k).Neg())
				long = append(long, xl(j, k))
			}
			long = append(long, vl(i, k))
			f.AddClause(long...)
		}
		long := make([]cnf.Lit, 0, n+1)
		long = append(long, yl(k).Neg())
		for i := 0; i < n; i++ {
			long = append(long, vl(i, k))
		}
		f.AddClause(long...)
	}
	for k := 1; k < K; k++ {
		for i := 0; i < n; i++ {
			cl := make([]cnf.Lit, 0, n-i)
			cl = append(cl, vl(i, k).Neg())
			for j := i + 1; j < n; j++ {
				cl = append(cl, vl(j, k-1))
			}
			f.AddClause(cl...)
		}
	}
}

// addSC adds selective coloring (paper §3.4): pin color 1 on a maximum-
// degree vertex and color 2 on its maximum-degree neighbour — two unit
// clauses with near-zero overhead.
func (e *Encoding) addSC() {
	vl := e.G.MaxDegreeVertex()
	if vl < 0 {
		return
	}
	e.F.AddClause(cnf.PosLit(e.x[vl][0]))
	if e.K < 2 {
		return
	}
	vn := e.G.MaxDegreeNeighbor(vl)
	if vn < 0 {
		return
	}
	e.F.AddClause(cnf.PosLit(e.x[vn][1]))
}

// addClique pins a maximal clique (greedy, or the instance's recorded
// clique certificate when present) to colors 1..|clique|: clique vertices
// need pairwise-distinct colors in every solution, and fixing which is pure
// symmetry breaking. Correctness mirrors the SC proof (§3.4): any optimal
// solution can be color-permuted to satisfy the pins.
func (e *Encoding) addClique() {
	cl := e.G.Clique
	if len(cl) == 0 {
		cl = clique.Greedy(e.G)
	}
	if len(cl) > e.K {
		cl = cl[:e.K]
	}
	for i, v := range cl {
		e.F.AddClause(cnf.PosLit(e.x[v][i]))
	}
}

// ColoringFromModel extracts the vertex coloring (0-based colors) from a
// satisfying model. Vertices with no color set (cannot happen for models of
// the encoding) get -1.
func (e *Encoding) ColoringFromModel(m cnf.Assignment) []int {
	out := make([]int, e.G.N())
	for i := range out {
		out[i] = -1
		for j := 0; j < e.K; j++ {
			if m.Lit(cnf.PosLit(e.x[i][j])) {
				out[i] = j
				break
			}
		}
	}
	return out
}

// UsedColors counts distinct colors in a coloring.
func UsedColors(colors []int) int {
	seen := map[int]bool{}
	for _, c := range colors {
		if c >= 0 {
			seen[c] = true
		}
	}
	return len(seen)
}

// ClassSizes returns (n_1, ..., n_K): the number of vertices per color,
// the paper's color-assignment notation for Figure 1.
func (e *Encoding) ClassSizes(m cnf.Assignment) []int {
	sizes := make([]int, e.K)
	for i := 0; i < e.G.N(); i++ {
		for j := 0; j < e.K; j++ {
			if m.Lit(cnf.PosLit(e.x[i][j])) {
				sizes[j]++
			}
		}
	}
	return sizes
}
