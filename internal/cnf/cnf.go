// Package cnf provides Boolean variables, literals, clauses, and CNF
// formulas in the representation shared by the SAT and 0-1 ILP solvers.
//
// Variables are positive integers 1..n. A literal encodes a variable and a
// phase in a single int using the DIMACS-like convention: +v is the positive
// literal of variable v and -v is its negation. Literal 0 is invalid and is
// used as a sentinel.
package cnf

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
)

// Lit is a Boolean literal: +v for variable v, -v for its negation.
type Lit int

// Var returns the variable underlying the literal.
func (l Lit) Var() int {
	if l < 0 {
		return int(-l)
	}
	return int(l)
}

// Neg returns the complementary literal.
func (l Lit) Neg() Lit { return -l }

// Sign reports whether the literal is positive.
func (l Lit) Sign() bool { return l > 0 }

// String renders the literal as in DIMACS ("3", "-7").
func (l Lit) String() string { return fmt.Sprintf("%d", int(l)) }

// PosLit returns the positive literal of variable v.
func PosLit(v int) Lit { return Lit(v) }

// NegLit returns the negative literal of variable v.
func NegLit(v int) Lit { return Lit(-v) }

// Clause is a disjunction of literals.
type Clause []Lit

// String renders the clause as space-separated literals, e.g. "(1 -2 3)".
func (c Clause) String() string {
	parts := make([]string, len(c))
	for i, l := range c {
		parts[i] = l.String()
	}
	return "(" + strings.Join(parts, " ") + ")"
}

// Normalize sorts the clause, removes duplicate literals, and reports
// whether the clause is a tautology (contains both l and ¬l). Tautological
// clauses should be dropped by the caller. The receiver is left as it is:
// Normalize works on a copy, and NormalizeInPlace is the same work without
// one.
func (c Clause) Normalize() (Clause, bool) {
	if len(c) == 0 {
		return c, false
	}
	return slices.Clone(c).NormalizeInPlace()
}

// NormalizeInPlace is Normalize in c's own storage: it sorts c by
// variable, then ¬v before v, and returns the deduplicated prefix of c, or
// nil and true for a tautology. A caller that normalizes clause after
// clause copies each into one reused buffer and calls this on it.
func (c Clause) NormalizeInPlace() (Clause, bool) {
	switch {
	case len(c) == 0:
		return c, false
	case len(c) == 2:
		// Almost every clause of an encoding is binary.
		if litOrder(c[1], c[0]) < 0 {
			c[0], c[1] = c[1], c[0]
		}
	case len(c) > 2:
		slices.SortFunc(c, litOrder)
	}
	out := c[:1]
	for _, l := range c[1:] {
		last := out[len(out)-1]
		if l == last {
			continue
		}
		if l.Var() == last.Var() {
			return nil, true // l and ¬l both present
		}
		out = append(out, l)
	}
	return out, false
}

// litOrder is Normalize's order: by variable, then ¬v before v.
func litOrder(a, b Lit) int {
	if va, vb := a.Var(), b.Var(); va != vb {
		return cmp.Compare(va, vb)
	}
	return cmp.Compare(a, b)
}

// Formula is a CNF formula: a set of clauses over variables 1..NumVars.
type Formula struct {
	NumVars int
	Clauses []Clause
}

// NewFormula returns an empty formula with n variables.
func NewFormula(n int) *Formula {
	return &Formula{NumVars: n}
}

// NewVar allocates a fresh variable and returns its index.
func (f *Formula) NewVar() int {
	f.NumVars++
	return f.NumVars
}

// AddClause appends a clause. The clause is stored as given; callers that
// may produce duplicates or tautologies should Normalize first.
func (f *Formula) AddClause(lits ...Lit) {
	c := make(Clause, len(lits))
	copy(c, lits)
	f.Clauses = append(f.Clauses, c)
	for _, l := range c {
		if v := l.Var(); v > f.NumVars {
			f.NumVars = v
		}
	}
}

// AddImplication adds the clause (¬a ∨ b), i.e. a ⇒ b.
func (f *Formula) AddImplication(a, b Lit) { f.AddClause(a.Neg(), b) }

// NumClauses returns the number of clauses.
func (f *Formula) NumClauses() int { return len(f.Clauses) }

// MaxVarIn returns the highest variable index mentioned in the clauses
// (0 for an empty formula).
func (f *Formula) MaxVarIn() int {
	maxV := 0
	for _, c := range f.Clauses {
		for _, l := range c {
			if v := l.Var(); v > maxV {
				maxV = v
			}
		}
	}
	return maxV
}

// Assignment maps variables (1..n) to truth values. Index 0 is unused.
type Assignment []bool

// Lit reports the truth value of a literal under the assignment.
func (a Assignment) Lit(l Lit) bool {
	v := l.Var()
	if v >= len(a) {
		return !l.Sign() // unassigned beyond range counts as false
	}
	if l.Sign() {
		return a[v]
	}
	return !a[v]
}

// Satisfies reports whether the assignment satisfies every clause.
func (f *Formula) Satisfies(a Assignment) bool {
	for _, c := range f.Clauses {
		ok := false
		for _, l := range c {
			if a.Lit(l) {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// Dimacs renders the formula in DIMACS CNF format.
func (f *Formula) Dimacs() string {
	var b strings.Builder
	fmt.Fprintf(&b, "p cnf %d %d\n", f.NumVars, len(f.Clauses))
	for _, c := range f.Clauses {
		for _, l := range c {
			fmt.Fprintf(&b, "%d ", int(l))
		}
		b.WriteString("0\n")
	}
	return b.String()
}
