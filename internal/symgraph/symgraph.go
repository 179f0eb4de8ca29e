// Package symgraph reduces symmetry detection in 0-1 ILP formulas to
// colored-graph automorphism (paper §2.4): a PB formula is expressed as a
// colored undirected graph whose automorphism group is isomorphic to the
// symmetry group of the formula. The construction follows Aloul, Ramani,
// Markov & Sakallah (2003, 2004):
//
//   - one vertex per literal, positive and negative literals of a variable
//     sharing one color class and joined by a Boolean-consistency edge, so
//     phase-shift symmetries remain detectable;
//   - binary clauses as direct literal–literal edges (no clause vertex);
//   - one vertex per longer (or unit) clause, colored as a clause;
//   - one vertex per PB constraint, colored by the constraint's
//     (coefficient multiset, bound) signature; terms attach directly for
//     uniform-coefficient constraints and through per-term nodes colored by
//     coefficient value otherwise;
//   - one vertex for the objective, with its own color, attached the same
//     way.
//
// Detected vertex generators are mapped back to literal permutations and
// verified against the formula (Verifier), which rules out the
// spurious symmetries the binary-clause optimization can admit in graphs
// with circular implication chains.
package symgraph

import (
	"encoding/binary"

	"repro/internal/autom"
	"repro/internal/cnf"
	"repro/internal/pb"
)

// Vertex color classes. PB signature classes are allocated from
// colorPBBase upward.
const (
	colorLiteral   = 0
	colorClause    = 1
	colorObjective = 2
	colorCoefBase  = 3 // + coefficient class index
	// PB signature colors start after coefficient classes; allocated
	// dynamically.
)

// Encoding is the colored graph of a formula plus the vertex layout needed
// to translate automorphisms back to the formula.
type Encoding struct {
	G     *autom.Graph
	nVars int
}

// posVertex/negVertex give the literal-vertex layout: variables are 1..n.
func posVertex(v int) int { return 2 * (v - 1) }
func negVertex(v int) int { return 2*(v-1) + 1 }

// vertexLit is the inverse layout map.
func vertexLit(x int) cnf.Lit {
	v := x/2 + 1
	if x%2 == 0 {
		return cnf.PosLit(v)
	}
	return cnf.NegLit(v)
}

func litVertex(l cnf.Lit) int {
	if l.Sign() {
		return posVertex(l.Var())
	}
	return negVertex(l.Var())
}

// Build constructs the colored graph for the formula.
func Build(f *pb.Formula) *Encoding {
	n := f.NumVars
	// Pre-compute vertex count: 2n literal vertices, one per clause with
	// len != 2, one per PB constraint (+ per-term nodes for mixed
	// coefficients), one for the objective if present. Count the edges at
	// most added alongside, so the edge list below is allocated once.
	extra, maxEdges := 0, n
	for _, c := range f.Clauses {
		if len(c) != 2 {
			extra++
		}
		maxEdges += len(c)
	}
	for i := range f.Constraints {
		extra++
		maxEdges += 2 * len(f.Constraints[i].Terms)
		if !uniformCoefs(f.Constraints[i].Terms) {
			extra += len(f.Constraints[i].Terms)
		}
	}
	if len(f.Objective) > 0 {
		extra++
		maxEdges += 2 * len(f.Objective)
		if !uniformCoefs(f.Objective) {
			extra += len(f.Objective)
		}
	}
	g := autom.NewGraph(2*n + extra)
	next := 2 * n
	// Edges are collected in order and added in one step at the end, so
	// every adjacency list is allocated once.
	edges := make([][2]int32, 0, maxEdges)
	addEdge := func(a, b int) { edges = append(edges, [2]int32{int32(a), int32(b)}) }

	// Boolean consistency edges; literal vertices keep color 0.
	for v := 1; v <= n; v++ {
		addEdge(posVertex(v), negVertex(v))
	}

	// Clauses, normalized one by one in a reused buffer.
	binSeen := make(map[uint64]struct{}, n+len(f.Clauses))
	for v := 1; v <= n; v++ {
		binSeen[binKey(posVertex(v), negVertex(v))] = struct{}{}
	}
	clauseSeen := map[string]struct{}{}
	var normBuf cnf.Clause
	var keyBuf []byte
	for _, c := range f.Clauses {
		normBuf = append(normBuf[:0], c...)
		norm, taut := normBuf.NormalizeInPlace()
		if taut {
			continue
		}
		if len(norm) == 2 {
			k := binKey(litVertex(norm[0]), litVertex(norm[1]))
			if _, dup := binSeen[k]; !dup {
				binSeen[k] = struct{}{}
				addEdge(litVertex(norm[0]), litVertex(norm[1]))
			}
			continue
		}
		// Dedup identical clauses: they carry no extra structure and would
		// create spurious swappable twin vertices. The key is the clause's
		// literal vertices as varints, which no two clauses share.
		keyBuf = keyBuf[:0]
		for _, l := range norm {
			keyBuf = binary.AppendUvarint(keyBuf, uint64(litVertex(l)))
		}
		if _, dup := clauseSeen[string(keyBuf)]; dup {
			continue
		}
		clauseSeen[string(keyBuf)] = struct{}{}
		cv := next
		next++
		g.SetColor(cv, colorClause)
		for _, l := range norm {
			addEdge(cv, litVertex(l))
		}
	}

	// Coefficient classes for mixed-coefficient rows.
	coefClass := map[int]int{}
	coefColor := func(coef int) int {
		if c, ok := coefClass[coef]; ok {
			return c
		}
		c := colorCoefBase + len(coefClass)
		coefClass[coef] = c
		return c
	}
	// Reserve signature colors after a fixed-size coefficient block: use a
	// disjoint numbering by hashing signatures into dense ids offset by a
	// gap that coefficient classes cannot reach (coef classes are bounded
	// by the number of distinct coefficients, below 1<<20 in any sane
	// formula).
	sigClass := map[string]int{}
	sigColor := func(sig string) int {
		if c, ok := sigClass[sig]; ok {
			return c
		}
		c := colorCoefBase + (1 << 20) + len(sigClass)
		sigClass[sig] = c
		return c
	}

	attachRow := func(rowVertex int, terms []pb.Term) {
		if uniformCoefs(terms) {
			for _, t := range terms {
				addEdge(rowVertex, litVertex(t.Lit))
			}
			return
		}
		for _, t := range terms {
			tn := next
			next++
			g.SetColor(tn, coefColor(t.Coef))
			addEdge(rowVertex, tn)
			addEdge(tn, litVertex(t.Lit))
		}
	}

	for i := range f.Constraints {
		c := &f.Constraints[i]
		cv := next
		next++
		g.SetColor(cv, sigColor(c.Signature()))
		attachRow(cv, c.Terms)
	}

	if len(f.Objective) > 0 {
		ov := next
		next++
		g.SetColor(ov, colorObjective)
		attachRow(ov, f.Objective)
	}

	g.AddEdges(edges)
	return &Encoding{G: g, nVars: n}
}

func uniformCoefs(terms []pb.Term) bool {
	for i := 1; i < len(terms); i++ {
		if terms[i].Coef != terms[0].Coef {
			return false
		}
	}
	return true
}

func binKey(a, b int) uint64 {
	if a > b {
		a, b = b, a
	}
	return uint64(a)<<32 | uint64(b)
}

// LitPerm is a symmetry of the formula: Img[v] is the image literal of
// PosLit(v) (index 0 unused). The image of NegLit(v) is Img[v].Neg().
type LitPerm struct {
	Img []cnf.Lit
}

// NewIdentityPerm returns the identity literal permutation on n variables.
func NewIdentityPerm(n int) LitPerm {
	img := make([]cnf.Lit, n+1)
	for v := 1; v <= n; v++ {
		img[v] = cnf.PosLit(v)
	}
	return LitPerm{Img: img}
}

// Image returns the image of an arbitrary literal.
func (p LitPerm) Image(l cnf.Lit) cnf.Lit {
	img := p.Img[l.Var()]
	if l.Sign() {
		return img
	}
	return img.Neg()
}

// IsIdentity reports whether the permutation fixes every literal.
func (p LitPerm) IsIdentity() bool {
	for v := 1; v < len(p.Img); v++ {
		if p.Img[v] != cnf.PosLit(v) {
			return false
		}
	}
	return true
}

// Support returns the moved variables, ascending.
func (p LitPerm) Support() []int {
	var out []int
	for v := 1; v < len(p.Img); v++ {
		if p.Img[v] != cnf.PosLit(v) {
			out = append(out, v)
		}
	}
	return out
}

// LitPerms translates vertex generators back to literal permutations,
// dropping generators that act trivially on literals or violate Boolean
// consistency (cannot happen for generators produced by autom on graphs
// built here, but checked defensively).
func (e *Encoding) LitPerms(gens []autom.Perm) []LitPerm {
	var out []LitPerm
	for _, g := range gens {
		img := make([]cnf.Lit, e.nVars+1)
		ok := true
		trivial := true
		for v := 1; v <= e.nVars && ok; v++ {
			pi := g[posVertex(v)]
			ni := g[negVertex(v)]
			if pi >= 2*e.nVars || ni >= 2*e.nVars {
				ok = false
				break
			}
			pl, nl := vertexLit(pi), vertexLit(ni)
			if pl.Neg() != nl {
				ok = false
				break
			}
			img[v] = pl
			if pl != cnf.PosLit(v) {
				trivial = false
			}
		}
		if ok && !trivial {
			out = append(out, LitPerm{Img: img})
		}
	}
	return out
}

// Detect is the convenience entry point: build the graph, search for
// automorphisms, translate and verify generators against the formula.
// It returns the verified literal permutations and the raw search result
// (whose Order field reports the full group size including any symmetries
// that act only on auxiliary vertices — in the constructions used here the
// two coincide).
func Detect(f *pb.Formula, opts autom.Options) ([]LitPerm, *autom.Result) {
	return NewVerifier(f).Detect(opts)
}

// Detect runs Detect on the verifier's formula, checking every candidate
// with this one index, so a caller that verifies further maps afterwards
// (lifted graph automorphisms, say) indexes the formula only once.
func (v *Verifier) Detect(opts autom.Options) ([]LitPerm, *autom.Result) {
	enc := Build(v.f)
	res := autom.FindAutomorphisms(enc.G, opts)
	perms := enc.LitPerms(res.Generators)
	verified := perms[:0]
	for _, p := range perms {
		if v.Verify(p) {
			verified = append(verified, p)
		}
	}
	return verified, res
}
