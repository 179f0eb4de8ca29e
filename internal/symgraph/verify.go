package symgraph

import (
	"cmp"
	"slices"

	"repro/internal/cnf"
	"repro/internal/pb"
)

// Verifier checks literal maps against one formula. A map is a symmetry
// when it carries the clause multiset and the PB-row multiset onto
// themselves and fixes the objective as a multiset of terms.
//
// A clause, row or objective term with no moved variable maps onto
// itself, so it appears once on each side of those multiset equations and
// cancels out. Verify therefore compares only the items that contain a
// moved variable: the touched items, normalized, against their images.
// That is exact for any map, bijective or not, and costs time in
// proportion to the map's support rather than to the formula.
//
// NewVerifier indexes, per variable, the clauses, rows and objective terms
// that contain it. The formula must not change while the Verifier is in
// use, and a Verifier is not safe for concurrent use.
type Verifier struct {
	f *pb.Formula
	// Items are numbered clauses first, then PB rows, then objective
	// terms. The items containing variable v are occ[at[v]:at[v+1]].
	at, occ []int32
	nc, nr  int
	// mark[item] == epoch when the current Verify has already taken item.
	mark  []uint32
	epoch uint32

	// Reused buffers: normalized touched clauses and rows, and their
	// images, as spans into flat literal and term arrays.
	lits            []cnf.Lit
	terms           []pb.Term
	clauses, images []span
	rows, rowImages []span
	obj, objImages  []pb.Term
}

// span is one normalized clause (lits[off:off+n]) or row (terms[off:off+n],
// with its bound).
type span struct {
	off, n int32
	bound  int
}

// NewVerifier indexes f for Verify. The build is linear in the formula's
// literals.
func NewVerifier(f *pb.Formula) *Verifier {
	nv := f.NumVars
	visit := func(each func(item int, l cnf.Lit)) {
		for i, c := range f.Clauses {
			for _, l := range c {
				each(i, l)
			}
		}
		nc := len(f.Clauses)
		for i := range f.Constraints {
			for _, t := range f.Constraints[i].Terms {
				each(nc+i, t.Lit)
			}
		}
		nc += len(f.Constraints)
		for i, t := range f.Objective {
			each(nc+i, t.Lit)
		}
	}
	visit(func(_ int, l cnf.Lit) { nv = max(nv, l.Var()) })
	v := &Verifier{
		f:  f,
		nc: len(f.Clauses),
		nr: len(f.Constraints),
		at: make([]int32, nv+2),
	}
	visit(func(_ int, l cnf.Lit) { v.at[l.Var()+1]++ })
	for x := 1; x < len(v.at); x++ {
		v.at[x] += v.at[x-1]
	}
	v.occ = make([]int32, v.at[nv+1])
	fill := append([]int32(nil), v.at[:nv+1]...)
	visit(func(item int, l cnf.Lit) {
		x := l.Var()
		v.occ[fill[x]] = int32(item)
		fill[x]++
	})
	v.mark = make([]uint32, v.nc+v.nr+len(f.Objective))
	return v
}

// Verify reports whether p is a symmetry of the formula. It decides
// exactly as comparing the full clause, row and objective multisets would,
// and allocates nothing once its buffers have grown. p.Img must cover
// every variable of the formula.
func (v *Verifier) Verify(p LitPerm) bool {
	v.epoch++
	if v.epoch == 0 {
		clear(v.mark)
		v.epoch = 1
	}
	v.lits, v.terms = v.lits[:0], v.terms[:0]
	v.clauses, v.images = v.clauses[:0], v.images[:0]
	v.rows, v.rowImages = v.rows[:0], v.rowImages[:0]
	v.obj, v.objImages = v.obj[:0], v.objImages[:0]
	for x := 1; x < len(p.Img) && x+1 < len(v.at); x++ {
		if p.Img[x] == cnf.PosLit(x) {
			continue
		}
		for _, item := range v.occ[v.at[x]:v.at[x+1]] {
			if v.mark[item] == v.epoch {
				continue
			}
			v.mark[item] = v.epoch
			switch i := int(item); {
			case i < v.nc:
				if !v.takeClause(p, v.f.Clauses[i]) {
					return false
				}
			case i < v.nc+v.nr:
				v.takeRow(p, &v.f.Constraints[i-v.nc])
			default:
				t := v.f.Objective[i-v.nc-v.nr]
				v.obj = append(v.obj, t)
				v.objImages = append(v.objImages, pb.Term{Coef: t.Coef, Lit: p.Image(t.Lit)})
			}
		}
	}
	slices.SortFunc(v.obj, cmpTerm)
	slices.SortFunc(v.objImages, cmpTerm)
	return slices.Equal(v.obj, v.objImages) &&
		v.sameSpans(v.clauses, v.images, v.cmpClause) &&
		v.sameSpans(v.rows, v.rowImages, v.cmpRow)
}

// takeClause appends the normalized clause and its normalized image. A
// tautological clause is skipped, as the formula's solvers ignore it; a
// clause whose image is tautological rules p out at once (false).
func (v *Verifier) takeClause(p LitPerm, c cnf.Clause) bool {
	off := len(v.lits)
	v.lits = append(v.lits, c...)
	s, taut := v.normClause(off)
	if taut {
		v.lits = v.lits[:off]
		return true
	}
	v.clauses = append(v.clauses, s)
	off = len(v.lits)
	for _, l := range c {
		v.lits = append(v.lits, p.Image(l))
	}
	s, taut = v.normClause(off)
	v.images = append(v.images, s)
	return !taut
}

// normClause sorts lits[off:] by variable, drops repeated literals and
// reports a tautology (a literal and its negation both present).
func (v *Verifier) normClause(off int) (span, bool) {
	c := v.lits[off:]
	slices.SortFunc(c, cmpLit)
	out := c[:0]
	for i, l := range c {
		if i > 0 && l == out[len(out)-1] {
			continue
		}
		if i > 0 && l.Var() == out[len(out)-1].Var() {
			return span{}, true
		}
		out = append(out, l)
	}
	v.lits = v.lits[:off+len(out)]
	return span{off: int32(off), n: int32(len(out))}, false
}

// takeRow appends the row and its image, each with terms sorted by
// (literal, coefficient). Repeated literals stay: a row is compared as a
// multiset of terms under its bound.
func (v *Verifier) takeRow(p LitPerm, c *pb.Constraint) {
	off := len(v.terms)
	v.terms = append(v.terms, c.Terms...)
	v.rows = append(v.rows, v.normRow(off, c.Bound))
	off = len(v.terms)
	for _, t := range c.Terms {
		v.terms = append(v.terms, pb.Term{Coef: t.Coef, Lit: p.Image(t.Lit)})
	}
	v.rowImages = append(v.rowImages, v.normRow(off, c.Bound))
}

func (v *Verifier) normRow(off, bound int) span {
	r := v.terms[off:]
	slices.SortFunc(r, cmpTerm)
	return span{off: int32(off), n: int32(len(r)), bound: bound}
}

// sameSpans reports whether a and b hold the same multiset of spans.
func (v *Verifier) sameSpans(a, b []span, compare func(x, y span) int) bool {
	if len(a) != len(b) {
		return false
	}
	slices.SortFunc(a, compare)
	slices.SortFunc(b, compare)
	for i := range a {
		if compare(a[i], b[i]) != 0 {
			return false
		}
	}
	return true
}

// cmpClause and cmpRow are total orders over the spans' contents.
func (v *Verifier) cmpClause(x, y span) int {
	return slices.Compare(v.lits[x.off:x.off+x.n], v.lits[y.off:y.off+y.n])
}

func (v *Verifier) cmpRow(x, y span) int {
	if c := cmp.Compare(x.bound, y.bound); c != 0 {
		return c
	}
	return slices.CompareFunc(v.terms[x.off:x.off+x.n], v.terms[y.off:y.off+y.n], cmpTerm)
}

func cmpLit(a, b cnf.Lit) int {
	if c := cmp.Compare(a.Var(), b.Var()); c != 0 {
		return c
	}
	return cmp.Compare(a, b)
}

func cmpTerm(a, b pb.Term) int {
	if c := cmp.Compare(a.Lit, b.Lit); c != 0 {
		return c
	}
	return cmp.Compare(a.Coef, b.Coef)
}

// VerifyLitPerm checks one literal map against f (see Verifier). Checking
// several maps against one formula is cheaper with one Verifier, which
// indexes the formula once.
func VerifyLitPerm(f *pb.Formula, p LitPerm) bool {
	return NewVerifier(f).Verify(p)
}
