package cnf

import (
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestLitBasics(t *testing.T) {
	l := PosLit(5)
	if l.Var() != 5 || !l.Sign() {
		t.Fatalf("PosLit(5) = %v (var %d, sign %v)", l, l.Var(), l.Sign())
	}
	n := l.Neg()
	if n.Var() != 5 || n.Sign() {
		t.Fatalf("Neg: got var %d sign %v", n.Var(), n.Sign())
	}
	if n.Neg() != l {
		t.Fatalf("double negation changed literal: %v", n.Neg())
	}
	if NegLit(3) != Lit(-3) {
		t.Fatalf("NegLit(3) = %v", NegLit(3))
	}
}

func TestLitNegationIsInvolution(t *testing.T) {
	f := func(v uint16) bool {
		if v == 0 {
			return true
		}
		l := PosLit(int(v))
		return l.Neg().Neg() == l && l.Neg().Var() == l.Var() && l.Neg().Sign() != l.Sign()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestClauseNormalize(t *testing.T) {
	c := Clause{3, -2, 3, 1}
	n, taut := c.Normalize()
	if taut {
		t.Fatalf("unexpected tautology for %v", c)
	}
	want := Clause{1, -2, 3}
	if len(n) != len(want) {
		t.Fatalf("Normalize(%v) = %v, want %v", c, n, want)
	}
	for i := range want {
		if n[i] != want[i] {
			t.Fatalf("Normalize(%v) = %v, want %v", c, n, want)
		}
	}
}

func TestClauseNormalizeTautology(t *testing.T) {
	c := Clause{1, -1, 2}
	if _, taut := c.Normalize(); !taut {
		t.Fatalf("expected tautology for %v", c)
	}
}

func TestClauseNormalizeEmpty(t *testing.T) {
	c := Clause{}
	n, taut := c.Normalize()
	if taut || len(n) != 0 {
		t.Fatalf("empty clause normalize: %v %v", n, taut)
	}
}

func TestFormulaAddClauseTracksVars(t *testing.T) {
	f := NewFormula(2)
	f.AddClause(PosLit(1), NegLit(7))
	if f.NumVars != 7 {
		t.Fatalf("NumVars = %d, want 7", f.NumVars)
	}
	if f.NumClauses() != 1 {
		t.Fatalf("NumClauses = %d", f.NumClauses())
	}
	if f.MaxVarIn() != 7 {
		t.Fatalf("MaxVarIn = %d", f.MaxVarIn())
	}
}

func TestFormulaNewVar(t *testing.T) {
	f := NewFormula(3)
	if v := f.NewVar(); v != 4 {
		t.Fatalf("NewVar = %d, want 4", v)
	}
	if f.NumVars != 4 {
		t.Fatalf("NumVars = %d, want 4", f.NumVars)
	}
}

func TestAssignmentLit(t *testing.T) {
	a := Assignment{false, true, false} // var1=true, var2=false
	if !a.Lit(PosLit(1)) || a.Lit(NegLit(1)) {
		t.Fatal("var 1 should be true")
	}
	if a.Lit(PosLit(2)) || !a.Lit(NegLit(2)) {
		t.Fatal("var 2 should be false")
	}
	// Out-of-range variables read as false.
	if a.Lit(PosLit(9)) || !a.Lit(NegLit(9)) {
		t.Fatal("out-of-range variable should read false")
	}
}

func TestSatisfies(t *testing.T) {
	f := NewFormula(2)
	f.AddClause(PosLit(1), PosLit(2))
	f.AddImplication(PosLit(1), PosLit(2)) // 1 => 2
	if !f.Satisfies(Assignment{false, true, true}) {
		t.Fatal("1=T,2=T should satisfy")
	}
	if f.Satisfies(Assignment{false, true, false}) {
		t.Fatal("1=T,2=F violates implication")
	}
	if f.Satisfies(Assignment{false, false, false}) {
		t.Fatal("1=F,2=F violates first clause")
	}
}

func TestDimacsOutput(t *testing.T) {
	f := NewFormula(3)
	f.AddClause(PosLit(1), NegLit(2))
	f.AddClause(PosLit(3))
	s := f.Dimacs()
	if !strings.HasPrefix(s, "p cnf 3 2\n") {
		t.Fatalf("bad header: %q", s)
	}
	if !strings.Contains(s, "1 -2 0\n") || !strings.Contains(s, "3 0\n") {
		t.Fatalf("bad body: %q", s)
	}
}

func TestClauseString(t *testing.T) {
	c := Clause{1, -2}
	if c.String() != "(1 -2)" {
		t.Fatalf("String = %q", c.String())
	}
}

// referenceNormalize is Normalize as it was before the in-place rewrite:
// copy, reflection sort by (variable, literal), then one dedup and
// tautology scan. The property tests below hold the rewrite to it.
func referenceNormalize(c Clause) (Clause, bool) {
	if len(c) == 0 {
		return c, false
	}
	sorted := make(Clause, len(c))
	copy(sorted, c)
	sort.Slice(sorted, func(i, j int) bool {
		vi, vj := sorted[i].Var(), sorted[j].Var()
		if vi != vj {
			return vi < vj
		}
		return sorted[i] < sorted[j]
	})
	out := sorted[:1]
	for _, l := range sorted[1:] {
		last := out[len(out)-1]
		if l == last {
			continue
		}
		if l.Var() == last.Var() {
			return nil, true
		}
		out = append(out, l)
	}
	return out, false
}

// randomClause draws a clause of the given width over variables 1..vars,
// so a small variable range forces repeated literals and both phases.
func randomClause(rng *rand.Rand, width, vars int) Clause {
	c := make(Clause, width)
	for i := range c {
		c[i] = PosLit(1 + rng.Intn(vars))
		if rng.Intn(2) == 0 {
			c[i] = c[i].Neg()
		}
	}
	return c
}

func sameNormalized(a Clause, aTaut bool, b Clause, bTaut bool) bool {
	return aTaut == bTaut && (a == nil) == (b == nil) && slices.Equal(a, b)
}

// TestNormalizeMatchesReference: on seeded random clauses (empty, unit,
// binary and long, with repeated literals, both phases of one variable and
// tautologies) Normalize returns exactly what the reference returns and
// leaves its input untouched.
func TestNormalizeMatchesReference(t *testing.T) {
	fixed := []Clause{nil, {}, {4}, {-4}, {2, 2}, {-2, 2}, {3, -1}, {-1, -1, -1}, {5, -5, 5}}
	rng := rand.New(rand.NewSource(20040324))
	var cases []Clause
	cases = append(cases, fixed...)
	for iter := 0; iter < 20000; iter++ {
		width := rng.Intn(6)
		if iter%4 == 0 {
			width = rng.Intn(80)
		}
		cases = append(cases, randomClause(rng, width, 1+rng.Intn(3*width+2)))
	}
	taut := 0
	for _, c := range cases {
		want, wantTaut := referenceNormalize(c)
		if wantTaut {
			taut++
		}
		in := slices.Clone(c)
		got, gotTaut := c.Normalize()
		if !sameNormalized(got, gotTaut, want, wantTaut) {
			t.Fatalf("Normalize(%v) = %v, %v; reference %v, %v", in, got, gotTaut, want, wantTaut)
		}
		if !slices.Equal(c, in) {
			t.Fatalf("Normalize(%v) modified its input to %v", in, c)
		}
	}
	if taut == 0 || taut == len(cases) {
		t.Fatalf("%d of %d cases are tautologies; the inputs exercise only one outcome", taut, len(cases))
	}
}
