package symgraph

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/autom"
	"repro/internal/cnf"
	"repro/internal/encode"
	"repro/internal/graph"
	"repro/internal/pb"
)

// referenceVerify is the whole-formula check Verifier must agree with: it
// renders every clause and every row, and their images, as strings and
// compares the two multisets.
func referenceVerify(f *pb.Formula, p LitPerm) bool {
	clauseCount := map[string]int{}
	add := func(set map[string]int, key string, d int) {
		set[key] += d
		if set[key] == 0 {
			delete(set, key)
		}
	}
	for _, c := range f.Clauses {
		norm, taut := c.Normalize()
		if taut {
			continue
		}
		add(clauseCount, norm.String(), 1)
		mapped := make(cnf.Clause, len(norm))
		for i, l := range norm {
			mapped[i] = p.Image(l)
		}
		mnorm, mtaut := mapped.Normalize()
		if mtaut {
			return false
		}
		add(clauseCount, mnorm.String(), -1)
	}
	if len(clauseCount) != 0 {
		return false
	}
	consCount := map[string]int{}
	for i := range f.Constraints {
		c := &f.Constraints[i]
		add(consCount, constraintKey(c.Terms, c.Bound), 1)
		mapped := make([]pb.Term, len(c.Terms))
		for j, t := range c.Terms {
			mapped[j] = pb.Term{Coef: t.Coef, Lit: p.Image(t.Lit)}
		}
		add(consCount, constraintKey(mapped, c.Bound), -1)
	}
	if len(consCount) != 0 {
		return false
	}
	if len(f.Objective) > 0 {
		obj := map[string]int{}
		add(obj, constraintKey(f.Objective, 0), 1)
		mapped := make([]pb.Term, len(f.Objective))
		for j, t := range f.Objective {
			mapped[j] = pb.Term{Coef: t.Coef, Lit: p.Image(t.Lit)}
		}
		add(obj, constraintKey(mapped, 0), -1)
		if len(obj) != 0 {
			return false
		}
	}
	return true
}

// constraintKey canonicalizes a term list plus bound for multiset
// comparison.
func constraintKey(terms []pb.Term, bound int) string {
	type ct struct {
		coef int
		lit  cnf.Lit
	}
	cts := make([]ct, len(terms))
	for i, t := range terms {
		cts[i] = ct{t.Coef, t.Lit}
	}
	sort.Slice(cts, func(i, j int) bool {
		if cts[i].lit != cts[j].lit {
			return cts[i].lit < cts[j].lit
		}
		return cts[i].coef < cts[j].coef
	})
	b := make([]byte, 0, 8*len(cts)+4)
	b = appendInt(b, bound)
	for _, t := range cts {
		b = appendInt(b, t.coef)
		b = appendInt(b, int(t.lit))
	}
	return string(b)
}

func appendInt(b []byte, x int) []byte {
	u := uint64(x)
	return append(b, byte(u), byte(u>>8), byte(u>>16), byte(u>>24),
		byte(u>>32), byte(u>>40), byte(u>>48), byte(u>>56), ';')
}

// allKinds are the eight instance-independent SBP kinds JobSpec.Validate
// accepts.
var allKinds = append(append([]encode.SBPKind(nil), encode.Kinds...), encode.SBPLIQuad, encode.SBPClique)

// liftVertexPerm lifts a graph automorphism to x(v,j) -> x(π(v),j).
func liftVertexPerm(enc *encode.Encoding, perm autom.Perm) LitPerm {
	lp := NewIdentityPerm(enc.F.NumVars)
	for v := 0; v < enc.G.N(); v++ {
		for j := 0; j < enc.K; j++ {
			lp.Img[enc.X(v, j)] = cnf.PosLit(enc.X(perm[v], j))
		}
	}
	return lp
}

// liftColorPerm lifts a color permutation σ to x(v,j) -> x(v,σ(j)) and
// y(j) -> y(σ(j)).
func liftColorPerm(enc *encode.Encoding, cp []int) LitPerm {
	lp := NewIdentityPerm(enc.F.NumVars)
	for v := 0; v < enc.G.N(); v++ {
		for j := 0; j < enc.K; j++ {
			lp.Img[enc.X(v, j)] = cnf.PosLit(enc.X(v, cp[j]))
		}
	}
	for j := 0; j < enc.K; j++ {
		lp.Img[enc.Y(j)] = cnf.PosLit(enc.Y(cp[j]))
	}
	return lp
}

// randomMaps returns maps that are mostly not symmetries: a random
// literal for each of a few variables (so often not a bijection), sign
// flips of a few variables, one detected candidate with two images
// swapped, and the identity.
func randomMaps(rng *rand.Rand, n int, cands []LitPerm) []LitPerm {
	var out []LitPerm
	for k := 0; k < 4; k++ {
		p := NewIdentityPerm(n)
		for i := 0; i < 1+rng.Intn(4); i++ {
			v := 1 + rng.Intn(n)
			l := cnf.PosLit(1 + rng.Intn(n))
			if rng.Intn(2) == 0 {
				l = l.Neg()
			}
			p.Img[v] = l
		}
		out = append(out, p)
	}
	flip := NewIdentityPerm(n)
	for i := 0; i < 1+rng.Intn(3); i++ {
		v := 1 + rng.Intn(n)
		flip.Img[v] = flip.Img[v].Neg()
	}
	out = append(out, flip, NewIdentityPerm(n))
	if len(cands) > 0 {
		c := cands[rng.Intn(len(cands))]
		bogus := LitPerm{Img: append([]cnf.Lit(nil), c.Img...)}
		if sup := c.Support(); len(sup) > 1 {
			a, b := sup[rng.Intn(len(sup))], 1+rng.Intn(n)
			bogus.Img[a], bogus.Img[b] = bogus.Img[b], bogus.Img[a]
		}
		out = append(out, bogus)
	}
	return out
}

// TestVerifierMatchesReference checks Verifier against the whole-formula
// reference on coloring encodings under every SBP kind, for four kinds of
// candidate: Detect's unverified candidates, lifted graph automorphisms,
// color-permutation lifts and random maps. One Verifier serves every
// candidate of a formula, as in Detect and core.
func TestVerifierMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	graphs := []*graph.Graph{graph.Mycielski(3), graph.Cycle(6), graph.Petersen(), graph.Random("rand-8", 8, 12, 5)}
	accepted, total := 0, 0
	for _, g := range graphs {
		for _, kind := range allKinds {
			for _, k := range []int{3, 5} {
				enc := encode.Build(g, k, kind)
				f := enc.F
				var cands []LitPerm
				sg := Build(f)
				cands = append(cands, sg.LitPerms(autom.FindAutomorphisms(sg.G, autom.Options{}).Generators)...)
				ag := autom.NewGraph(g.N())
				for _, e := range g.Edges() {
					ag.AddEdge(e[0], e[1])
				}
				for _, gp := range autom.FindAutomorphisms(ag, autom.Options{}).Generators {
					cands = append(cands, liftVertexPerm(enc, gp))
				}
				for j := 0; j+1 < k; j++ {
					swap := make([]int, k)
					for c := range swap {
						swap[c] = c
					}
					swap[j], swap[j+1] = j+1, j
					cands = append(cands, liftColorPerm(enc, swap))
				}
				rot := make([]int, k)
				for c := range rot {
					rot[c] = (c + 1) % k
				}
				cands = append(cands, liftColorPerm(enc, rot))
				cands = append(cands, randomMaps(rng, f.NumVars, cands)...)
				ver := NewVerifier(f)
				for i, p := range cands {
					want := referenceVerify(f, p)
					if got := ver.Verify(p); got != want {
						t.Fatalf("%s/%v/K=%d candidate %d (support %v): Verify = %v, reference %v",
							g.Name(), kind, k, i, p.Support(), got, want)
					}
					if want {
						accepted++
					}
					total++
				}
			}
		}
	}
	// The suite must exercise both answers, or it checks nothing.
	if accepted == 0 || accepted == total {
		t.Fatalf("%d of %d candidates accepted; want a mix", accepted, total)
	}
}

// fuzzFormula decodes a small CNF+PB formula with an objective and a
// literal map from data. Byte 0 picks the variable count n in [1,6]; the
// last n bytes give Img[1..n] (variable 1+b%n, negated when b&0x80 is
// set); the bytes between are items, each a header byte (low two bits: 0
// or 1 clause, 2 PB row, 3 objective term; next two bits: length 1-4;
// bits 4-5: bound or coefficient 1-3) followed by its literal bytes. Rows
// and clauses are taken as given: repeated literals, tautologies and
// duplicate items all stay.
func fuzzFormula(data []byte) (*pb.Formula, LitPerm, bool) {
	if len(data) < 2 {
		return nil, LitPerm{}, false
	}
	n := 1 + int(data[0]%6)
	if len(data) < 1+n {
		return nil, LitPerm{}, false
	}
	litOf := func(b byte) cnf.Lit {
		l := cnf.PosLit(1 + int(b&0x7f)%n)
		if b&0x80 != 0 {
			l = l.Neg()
		}
		return l
	}
	body, img := data[1:len(data)-n], data[len(data)-n:]
	f := pb.NewFormula(n)
	for i := 0; i < len(body); {
		h := body[i]
		i++
		size := 1 + int(h>>2&3)
		small := 1 + int(h>>4&3)
		if i+size > len(body) {
			size = len(body) - i
		}
		lits := body[i : i+size]
		i += size
		switch h & 3 {
		case 0, 1:
			c := make(cnf.Clause, len(lits))
			for j, b := range lits {
				c[j] = litOf(b)
			}
			f.Clauses = append(f.Clauses, c)
		case 2:
			terms := make([]pb.Term, len(lits))
			for j, b := range lits {
				terms[j] = pb.Term{Coef: 1 + int(b>>5&1), Lit: litOf(b)}
			}
			f.Constraints = append(f.Constraints, pb.Constraint{Terms: terms, Bound: small})
		case 3:
			for _, b := range lits {
				f.Objective = append(f.Objective, pb.Term{Coef: small, Lit: litOf(b)})
			}
		}
	}
	p := LitPerm{Img: make([]cnf.Lit, n+1)}
	for v := 1; v <= n; v++ {
		p.Img[v] = litOf(img[v-1])
	}
	return f, p, true
}

// FuzzVerifyLitPerm checks Verifier against the whole-formula reference on
// arbitrary small formulas and maps (see fuzzFormula for the encoding).
func FuzzVerifyLitPerm(f *testing.F) {
	// n=2, (x1 ∨ x2), map x1<->x2: a symmetry.
	f.Add([]byte{1, 0x04, 0x00, 0x01, 0x01, 0x00})
	// n=3, row 1x1+2x2+1x3 >= 2 and objective 2x1, map x1<->x3: the row
	// maps onto itself, the objective does not.
	f.Add([]byte{2, 0x1a, 0x00, 0x22, 0x02, 0x13, 0x00, 0x02, 0x01, 0x00})
	// n=2, (x1 ∨ ¬x1) and (x1), map x1 -> ¬x2: the tautology is skipped,
	// the unit clause moves.
	f.Add([]byte{1, 0x04, 0x00, 0x80, 0x00, 0x00, 0x81, 0x01})
	// n=3, (x1 ∨ x2 ∨ x3), map x1,x2 -> x3 (not a bijection): duplicate
	// images collapse.
	f.Add([]byte{2, 0x08, 0x00, 0x01, 0x02, 0x02, 0x02, 0x02})
	f.Fuzz(func(t *testing.T, data []byte) {
		form, p, ok := fuzzFormula(data)
		if !ok {
			return
		}
		want := referenceVerify(form, p)
		if got := NewVerifier(form).Verify(p); got != want {
			t.Fatalf("Verify = %v, reference %v\nformula: %v %v obj %v\nmap: %v",
				got, want, form.Clauses, form.Constraints, form.Objective, p.Img)
		}
		if got := VerifyLitPerm(form, p); got != want {
			t.Fatalf("VerifyLitPerm = %v, reference %v", got, want)
		}
	})
}

// TestVerifierReuse checks that one Verifier gives each map its own answer
// whatever it verified before: accepted and rejected maps alternate.
func TestVerifierReuse(t *testing.T) {
	f := pb.NewFormula(3)
	f.AddClause(lit(1), lit(2))
	f.AddClause(lit(2), lit(3))
	swap13 := NewIdentityPerm(3)
	swap13.Img[1], swap13.Img[3] = lit(3), lit(1)
	swap12 := NewIdentityPerm(3)
	swap12.Img[1], swap12.Img[2] = lit(2), lit(1)
	ver := NewVerifier(f)
	for i := 0; i < 3; i++ {
		if !ver.Verify(swap13) {
			t.Fatalf("round %d: x1<->x3 is a symmetry", i)
		}
		if ver.Verify(swap12) {
			t.Fatalf("round %d: x1<->x2 is not a symmetry", i)
		}
	}
	if !ver.Verify(NewIdentityPerm(3)) {
		t.Fatal("identity must verify")
	}
}
