package cnf

import (
	"math/rand"
	"strings"
	"testing"
)

func TestParseDimacsCNF(t *testing.T) {
	in := `c a comment
p cnf 3 2
1 -2 0
3 0
`
	f, err := ParseDimacs(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if f.NumVars != 3 || f.NumClauses() != 2 {
		t.Fatalf("vars=%d clauses=%d", f.NumVars, f.NumClauses())
	}
	if !f.Satisfies(Assignment{false, true, false, true}) {
		t.Fatal("1=T,2=F,3=T should satisfy")
	}
	if f.Satisfies(Assignment{false, false, true, true}) {
		t.Fatal("1=F,2=T violates first clause")
	}
}

func TestParseDimacsMultiLineClause(t *testing.T) {
	in := "p cnf 4 1\n1 2\n3 4 0\n"
	f, err := ParseDimacs(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if f.NumClauses() != 1 || len(f.Clauses[0]) != 4 {
		t.Fatalf("clauses=%d len=%d", f.NumClauses(), len(f.Clauses[0]))
	}
}

func TestParseDimacsErrors(t *testing.T) {
	cases := []string{
		"1 2 0\n",                // clause before header
		"p cnf 2 1\n1 3 0\n",     // variable beyond bound
		"p cnf 2 1\n1 x 0\n",     // bad literal
		"p cnf 2 1\np cnf 2 1\n", // duplicate header
		"p dnf 2 1\n",            // wrong format tag
		"",                       // empty
		"p cnf 2 1\n1 2\n",       // unterminated clause
	}
	for _, in := range cases {
		if _, err := ParseDimacs(strings.NewReader(in)); err == nil {
			t.Errorf("ParseDimacs(%q) should fail", in)
		}
	}
}

func TestDimacsRoundTrip(t *testing.T) {
	f := NewFormula(4)
	f.AddClause(PosLit(1), NegLit(2))
	f.AddClause(NegLit(3), PosLit(4))
	f.AddClause(PosLit(2))
	back, err := ParseDimacs(strings.NewReader(f.Dimacs()))
	if err != nil {
		t.Fatal(err)
	}
	if back.NumVars != f.NumVars || back.NumClauses() != f.NumClauses() {
		t.Fatalf("round trip size mismatch")
	}
	for mask := 0; mask < 1<<4; mask++ {
		a := make(Assignment, 5)
		for v := 1; v <= 4; v++ {
			a[v] = mask&(1<<(v-1)) != 0
		}
		if f.Satisfies(a) != back.Satisfies(a) {
			t.Fatalf("mask %b: satisfaction differs", mask)
		}
	}
}

// TestParserFuzzNoPanic: random byte soup must produce errors, never
// panics.
func TestParserFuzzNoPanic(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	alphabet := []byte("pc nf-0123456789 \n\tx")
	for iter := 0; iter < 500; iter++ {
		b := make([]byte, rng.Intn(120))
		for i := range b {
			b[i] = alphabet[rng.Intn(len(alphabet))]
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic on input %q: %v", b, r)
				}
			}()
			_, _ = ParseDimacs(strings.NewReader(string(b)))
		}()
	}
}
