package pb

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/cnf"
)

func lit(v int) cnf.Lit  { return cnf.PosLit(v) }
func nlit(v int) cnf.Lit { return cnf.NegLit(v) }

func TestNormalizeGESimple(t *testing.T) {
	cs := Normalize([]Term{{2, lit(1)}, {3, lit(2)}}, GE, 4)
	if len(cs) != 1 {
		t.Fatalf("got %d constraints", len(cs))
	}
	c := cs[0]
	if c.Bound != 4 || len(c.Terms) != 2 {
		t.Fatalf("bad constraint %v", c.String())
	}
}

func TestNormalizeLE(t *testing.T) {
	// 2x1 + 3x2 <= 4  =>  2¬x1 + 3¬x2 >= 1
	cs := Normalize([]Term{{2, lit(1)}, {3, lit(2)}}, LE, 4)
	if len(cs) != 1 {
		t.Fatalf("got %d constraints", len(cs))
	}
	c := cs[0]
	if c.Bound != 1 {
		t.Fatalf("bound = %d, want 1", c.Bound)
	}
	for _, tm := range c.Terms {
		if tm.Lit.Sign() {
			t.Fatalf("expected negated literals, got %v", c.String())
		}
	}
	// Saturation clips coefficients at the bound.
	for _, tm := range c.Terms {
		if tm.Coef > c.Bound {
			t.Fatalf("coefficient %d above bound %d not saturated", tm.Coef, c.Bound)
		}
	}
}

func TestNormalizeEQ(t *testing.T) {
	cs := Normalize([]Term{{1, lit(1)}, {1, lit(2)}, {1, lit(3)}}, EQ, 1)
	if len(cs) != 2 {
		t.Fatalf("EQ should produce 2 constraints, got %d", len(cs))
	}
}

func TestNormalizeTriviallyTrue(t *testing.T) {
	cs := Normalize([]Term{{1, lit(1)}}, GE, 0)
	if len(cs) != 0 {
		t.Fatalf("bound 0 should be trivially true, got %v", cs)
	}
	cs = Normalize([]Term{{3, lit(1)}}, LE, 5)
	if len(cs) != 0 {
		t.Fatalf("3x <= 5 should be trivially true, got %v", cs)
	}
}

func TestNormalizeNegativeCoefficients(t *testing.T) {
	// x1 - x2 >= 0  ⇔  x1 + ¬x2 >= 1
	cs := Normalize([]Term{{1, lit(1)}, {-1, lit(2)}}, GE, 0)
	if len(cs) != 1 {
		t.Fatalf("got %d constraints", len(cs))
	}
	c := cs[0]
	if c.Bound != 1 || len(c.Terms) != 2 {
		t.Fatalf("bad constraint %v", c.String())
	}
	sawNeg := false
	for _, tm := range c.Terms {
		if tm.Lit == nlit(2) {
			sawNeg = true
		}
	}
	if !sawNeg {
		t.Fatalf("expected ¬x2 in %v", c.String())
	}
}

func TestNormalizeMergesRepeatedVars(t *testing.T) {
	// x1 + ¬x1 >= 1 is trivially true (sum is always 1... bound 1 means >= 1 ✓).
	cs := Normalize([]Term{{1, lit(1)}, {1, nlit(1)}}, GE, 1)
	if len(cs) != 0 {
		t.Fatalf("x + ¬x >= 1 should be trivial, got %v", cs)
	}
	// 2x1 + 1¬x1 >= 2 ⇔ x1 + 1 >= 2 ⇔ x1 >= 1.
	cs = Normalize([]Term{{2, lit(1)}, {1, nlit(1)}}, GE, 2)
	if len(cs) != 1 || cs[0].Bound != 1 || len(cs[0].Terms) != 1 || cs[0].Terms[0].Lit != lit(1) {
		t.Fatalf("got %v", cs)
	}
}

// normalization preserves satisfaction over all assignments (exhaustive over
// up to 8 variables, randomized constraints).
func TestNormalizePreservesSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 300; iter++ {
		nv := 1 + rng.Intn(6)
		nt := 1 + rng.Intn(6)
		terms := make([]Term, nt)
		for i := range terms {
			v := 1 + rng.Intn(nv)
			l := cnf.PosLit(v)
			if rng.Intn(2) == 0 {
				l = l.Neg()
			}
			terms[i] = Term{Coef: rng.Intn(7) - 3, Lit: l}
		}
		cmp := Comparator(rng.Intn(3))
		bound := rng.Intn(9) - 2
		cs := Normalize(terms, cmp, bound)
		for mask := 0; mask < 1<<nv; mask++ {
			a := make(cnf.Assignment, nv+1)
			for v := 1; v <= nv; v++ {
				a[v] = mask&(1<<(v-1)) != 0
			}
			sum := 0
			for _, tm := range terms {
				if a.Lit(tm.Lit) {
					sum += tm.Coef
				}
			}
			var wantSat bool
			switch cmp {
			case GE:
				wantSat = sum >= bound
			case LE:
				wantSat = sum <= bound
			case EQ:
				wantSat = sum == bound
			}
			gotSat := true
			for i := range cs {
				if !cs[i].Satisfied(a) {
					gotSat = false
					break
				}
			}
			if gotSat != wantSat {
				t.Fatalf("iter %d mask %b: terms=%v %v %d: got %v want %v (normalized %v)",
					iter, mask, terms, cmp, bound, gotSat, wantSat, cs)
			}
		}
	}
}

func TestConstraintPredicates(t *testing.T) {
	c := Constraint{Terms: []Term{{1, lit(1)}, {1, lit(2)}}, Bound: 1}
	if !c.IsClause() || !c.IsCardinality() {
		t.Fatalf("1x1+1x2>=1 should be clause and cardinality")
	}
	c2 := Constraint{Terms: []Term{{1, lit(1)}, {1, lit(2)}}, Bound: 2}
	if c2.IsClause() || !c2.IsCardinality() {
		t.Fatalf("bound-2 cardinality misclassified")
	}
	c3 := Constraint{Terms: []Term{{2, lit(1)}, {1, lit(2)}}, Bound: 2}
	if c3.IsClause() || c3.IsCardinality() {
		t.Fatalf("weighted constraint misclassified")
	}
}

func TestSlack(t *testing.T) {
	c := Constraint{Terms: []Term{{2, lit(1)}, {3, lit(2)}}, Bound: 4}
	if c.Slack() != 1 {
		t.Fatalf("Slack = %d, want 1", c.Slack())
	}
}

func TestSignatureGroupsIsomorphicConstraints(t *testing.T) {
	a := Constraint{Terms: []Term{{2, lit(1)}, {3, lit(2)}}, Bound: 4}
	b := Constraint{Terms: []Term{{3, lit(9)}, {2, lit(7)}}, Bound: 4}
	c := Constraint{Terms: []Term{{2, lit(1)}, {3, lit(2)}}, Bound: 5}
	if a.Signature() != b.Signature() {
		t.Fatalf("signatures should match: %q vs %q", a.Signature(), b.Signature())
	}
	if a.Signature() == c.Signature() {
		t.Fatalf("different bounds should differ: %q", a.Signature())
	}
}

func TestFormulaAddPBStoresClausesAsClauses(t *testing.T) {
	f := NewFormula(3)
	f.AddPB([]Term{{1, lit(1)}, {1, lit(2)}}, GE, 1) // a clause
	if len(f.Clauses) != 1 || len(f.Constraints) != 0 {
		t.Fatalf("clause-shaped PB not stored as clause: %d clauses %d constraints",
			len(f.Clauses), len(f.Constraints))
	}
	f.AddPB([]Term{{1, lit(1)}, {1, lit(2)}, {1, lit(3)}}, EQ, 1)
	// EQ 1 over three unit terms = (>=1: clause) + (<=1: cardinality >= 2 over negs)
	if len(f.Clauses) != 2 || len(f.Constraints) != 1 {
		t.Fatalf("EQ split wrong: %d clauses %d constraints", len(f.Clauses), len(f.Constraints))
	}
}

func TestFormulaObjective(t *testing.T) {
	f := NewFormula(2)
	f.SetObjective([]Term{{1, lit(1)}, {2, lit(2)}})
	a := cnf.Assignment{false, true, true}
	if got := f.ObjectiveValue(a); got != 3 {
		t.Fatalf("ObjectiveValue = %d, want 3", got)
	}
	a2 := cnf.Assignment{false, true, false}
	if got := f.ObjectiveValue(a2); got != 1 {
		t.Fatalf("ObjectiveValue = %d, want 1", got)
	}
}

func TestFormulaSatisfies(t *testing.T) {
	f := NewFormula(3)
	f.AddClause(lit(1), lit(2))
	f.AddPB([]Term{{1, lit(1)}, {1, lit(2)}, {1, lit(3)}}, GE, 2)
	if !f.Satisfies(cnf.Assignment{false, true, true, false}) {
		t.Fatal("should satisfy")
	}
	if f.Satisfies(cnf.Assignment{false, true, false, false}) {
		t.Fatal("PB constraint violated; should not satisfy")
	}
}

func TestOPBOutput(t *testing.T) {
	f := NewFormula(2)
	f.SetObjective([]Term{{1, lit(1)}})
	f.AddPB([]Term{{1, lit(1)}, {1, lit(2)}}, GE, 2)
	f.AddClause(lit(1), nlit(2))
	s := f.OPB()
	if !strings.Contains(s, "min: +1 x1;") {
		t.Fatalf("missing objective: %q", s)
	}
	if !strings.Contains(s, "+1 x1 +1 x2 >= 2;") {
		t.Fatalf("missing PB row: %q", s)
	}
	if !strings.Contains(s, "+1 x1 +1 ~x2 >= 1;") {
		t.Fatalf("missing clause row: %q", s)
	}
}

// Property: Normalize output always has positive coefficients, positive
// bound, and at most one term per variable.
func TestNormalizedShapeProperty(t *testing.T) {
	f := func(coefs []int8, boundRaw int8, cmpRaw uint8) bool {
		if len(coefs) == 0 {
			return true
		}
		if len(coefs) > 8 {
			coefs = coefs[:8]
		}
		terms := make([]Term, len(coefs))
		for i, c := range coefs {
			l := cnf.PosLit(i/2 + 1) // force some repeated vars
			if i%2 == 1 {
				l = l.Neg()
			}
			terms[i] = Term{Coef: int(c), Lit: l}
		}
		cs := Normalize(terms, Comparator(int(cmpRaw)%3), int(boundRaw))
		for _, c := range cs {
			if c.Bound <= 0 {
				return false
			}
			seen := map[int]bool{}
			for _, tm := range c.Terms {
				if tm.Coef <= 0 || tm.Coef > c.Bound {
					return false
				}
				if seen[tm.Lit.Var()] {
					return false
				}
				seen[tm.Lit.Var()] = true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// referenceNormalizeGE is normalizeGE as it was before the sort-based
// rewrite: a per-row map merges the terms of each variable, and a
// first-seen list fixes the output order. The property tests below hold
// the rewrite to it.
func referenceNormalizeGE(terms []Term, bound int) *Constraint {
	coefByVar := map[int]int{}
	order := []int{}
	for _, t := range terms {
		if t.Coef == 0 {
			continue
		}
		v := t.Lit.Var()
		if _, seen := coefByVar[v]; !seen {
			order = append(order, v)
		}
		if t.Lit.Sign() {
			coefByVar[v] += t.Coef
		} else {
			coefByVar[v] -= t.Coef
			bound -= t.Coef
		}
	}
	out := Constraint{}
	for _, v := range order {
		a := coefByVar[v]
		switch {
		case a > 0:
			out.Terms = append(out.Terms, Term{Coef: a, Lit: cnf.PosLit(v)})
		case a < 0:
			out.Terms = append(out.Terms, Term{Coef: -a, Lit: cnf.NegLit(v)})
			bound -= a
		}
	}
	if bound <= 0 {
		return nil
	}
	for i := range out.Terms {
		if out.Terms[i].Coef > bound {
			out.Terms[i].Coef = bound
		}
	}
	out.Bound = bound
	return &out
}

// referenceNormalize is Normalize over referenceNormalizeGE.
func referenceNormalize(terms []Term, cmp Comparator, bound int) []Constraint {
	var out []Constraint
	switch cmp {
	case GE:
		if c := referenceNormalizeGE(terms, bound); c != nil {
			out = append(out, *c)
		}
	case LE:
		flipped := make([]Term, len(terms))
		sum := 0
		for i, t := range terms {
			flipped[i] = Term{Coef: t.Coef, Lit: t.Lit.Neg()}
			sum += t.Coef
		}
		if c := referenceNormalizeGE(flipped, sum-bound); c != nil {
			out = append(out, *c)
		}
	case EQ:
		out = append(referenceNormalize(terms, GE, bound), referenceNormalize(terms, LE, bound)...)
	}
	return out
}

func sameConstraints(a, b []Constraint) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Bound != b[i].Bound || !slices.Equal(a[i].Terms, b[i].Terms) {
			return false
		}
	}
	return true
}

// checkNormalizeMatchesReference compares Normalize with the reference on
// one row under all three comparators and checks the input is untouched.
func checkNormalizeMatchesReference(t *testing.T, terms []Term, bound int) {
	t.Helper()
	in := slices.Clone(terms)
	for _, cmp := range []Comparator{GE, LE, EQ} {
		got := Normalize(terms, cmp, bound)
		if want := referenceNormalize(in, cmp, bound); !sameConstraints(got, want) {
			t.Fatalf("Normalize(%v %v %d) = %v; reference %v", in, cmp, bound, got, want)
		}
		if !slices.Equal(terms, in) {
			t.Fatalf("Normalize(%v %v %d) modified its input to %v", in, cmp, bound, terms)
		}
	}
}

// TestNormalizeMatchesReference: on seeded random rows with zero,
// negative and repeated coefficients, repeated variables in both phases,
// and lengths past the small-sort cutoff, Normalize returns exactly the
// reference's rows: the same terms in the same order and the same bounds.
func TestNormalizeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20040324))
	checkNormalizeMatchesReference(t, nil, 0)
	checkNormalizeMatchesReference(t, nil, 1)
	for iter := 0; iter < 5000; iter++ {
		nt := rng.Intn(8)
		if iter%4 == 0 {
			nt = rng.Intn(120)
		}
		nv := 1 + rng.Intn(nt+2)
		terms := make([]Term, nt)
		for i := range terms {
			l := cnf.PosLit(1 + rng.Intn(nv))
			if rng.Intn(2) == 0 {
				l = l.Neg()
			}
			terms[i] = Term{Coef: rng.Intn(9) - 4, Lit: l}
		}
		checkNormalizeMatchesReference(t, terms, rng.Intn(2*nt+3)-nt/2-1)
	}
}

// TestNormalizeCARowsMatchReference: the cardinality-ordering rows
// encode.addCA builds, Σ x[i][j] − Σ x[i][j+1] ≥ 0 with 2n terms, in
// encoding order and shuffled, up to n = 4096.
func TestNormalizeCARowsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(19620817))
	for _, n := range []int{1, 2, 7, 40, 513, 4096} {
		const K = 20
		terms := make([]Term, 0, 2*n)
		for i := 0; i < n; i++ {
			j := rng.Intn(K - 1)
			terms = append(terms,
				Term{Coef: 1, Lit: cnf.PosLit(i*K + j + 1)},
				Term{Coef: -1, Lit: cnf.PosLit(i*K + j + 2)})
		}
		checkNormalizeMatchesReference(t, terms, 0)
		rng.Shuffle(len(terms), func(a, b int) { terms[a], terms[b] = terms[b], terms[a] })
		checkNormalizeMatchesReference(t, terms, 0)
	}
}
