// Package pb provides pseudo-Boolean (PB) constraints and mixed CNF+PB
// formulas with an optional linear objective, the 0-1 ILP input format used
// throughout this reproduction (paper §2.3).
//
// A PB constraint is a linear inequality over literals of Boolean variables
// with integer coefficients. Internally every constraint is kept in the
// normalized form of Aloul et al. 2002:
//
//	a1*l1 + a2*l2 + ... + an*ln >= b,   ai > 0
//
// using the relations (Σ ai*li <= b) ⇔ (Σ ai*¬li >= Σai − b) and
// ¬x = (1 − x). Equality constraints normalize to a pair of >= constraints.
package pb

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"repro/internal/cnf"
)

// Comparator selects the relation of a constraint before normalization.
type Comparator int

// Comparators accepted by NewConstraint.
const (
	GE Comparator = iota // Σ terms >= bound
	LE                   // Σ terms <= bound
	EQ                   // Σ terms == bound
)

func (c Comparator) String() string {
	switch c {
	case GE:
		return ">="
	case LE:
		return "<="
	case EQ:
		return "="
	}
	return "?"
}

// Term is one addend of a PB constraint: Coef * Lit.
type Term struct {
	Coef int
	Lit  cnf.Lit
}

// Constraint is a normalized PB constraint: Σ Terms >= Bound with all
// coefficients positive and at most one term per variable.
type Constraint struct {
	Terms []Term
	Bound int
}

// Normalize converts (terms cmp bound) into zero, one, or two normalized
// >= constraints. Zero constraints are returned when the input is trivially
// satisfied; a constraint with Bound > Σ coefficients is trivially false and
// returned as-is so solvers detect the conflict.
func Normalize(terms []Term, cmp Comparator, bound int) []Constraint {
	if cmp < GE || cmp > EQ {
		panic(fmt.Sprintf("pb: unknown comparator %d", cmp))
	}
	var out []Constraint
	if cmp != LE {
		if c := normalizeGE(terms, false, bound); c != nil {
			out = append(out, *c)
		}
	}
	if cmp != GE {
		// Σ ai*li <= b  ⇔  Σ ai*¬li >= Σai − b
		sum := 0
		for _, t := range terms {
			sum += t.Coef
		}
		if c := normalizeGE(terms, true, sum-bound); c != nil {
			out = append(out, *c)
		}
	}
	return out
}

// varTerm is one non-zero term folded onto its variable's positive
// literal, with its position in the input row.
type varTerm struct {
	v, coef, pos int
}

// normalizeGE brings Σ terms >= bound, with every literal negated when neg
// is set, into normalized form: merges repeated variables, removes zero
// coefficients, and flips negative coefficients via −a*l = a*¬l − a. The
// terms keep the order in which their variables first appear. Returns nil
// when the constraint is trivially true.
func normalizeGE(terms []Term, neg bool, bound int) *Constraint {
	// Fold phases onto the positive literal: a*¬x = a − a*x.
	vts := make([]varTerm, 0, len(terms))
	for i, t := range terms {
		if t.Coef == 0 {
			continue
		}
		l := t.Lit
		if neg {
			l = l.Neg()
		}
		a := t.Coef
		if !l.Sign() {
			a = -a
			bound -= t.Coef
		}
		vts = append(vts, varTerm{v: l.Var(), coef: a, pos: i})
	}
	// Merge each variable's terms into its first one: the stable sort keeps
	// the first-seen term at the head of its variable's run. Sorting by
	// position then restores first-seen order. A row may hold 2n terms (CA
	// rows), so neither step scans the row per term.
	slices.SortStableFunc(vts, func(a, b varTerm) int { return cmp.Compare(a.v, b.v) })
	merged := vts[:0]
	for _, vt := range vts {
		if last := len(merged) - 1; last >= 0 && merged[last].v == vt.v {
			merged[last].coef += vt.coef
			continue
		}
		merged = append(merged, vt)
	}
	slices.SortFunc(merged, func(a, b varTerm) int { return cmp.Compare(a.pos, b.pos) })
	out := Constraint{Terms: make([]Term, 0, len(merged))}
	for _, vt := range merged {
		switch {
		case vt.coef > 0:
			out.Terms = append(out.Terms, Term{Coef: vt.coef, Lit: cnf.PosLit(vt.v)})
		case vt.coef < 0:
			// −a*x >= b  ⇔  −a(1−¬x) ... fold onto negative literal.
			out.Terms = append(out.Terms, Term{Coef: -vt.coef, Lit: cnf.NegLit(vt.v)})
			bound -= vt.coef // bound += |a|
		}
	}
	if bound <= 0 {
		return nil // trivially satisfied
	}
	// Coefficient saturation: a coefficient above the bound acts as bound.
	for i := range out.Terms {
		if out.Terms[i].Coef > bound {
			out.Terms[i].Coef = bound
		}
	}
	out.Bound = bound
	return &out
}

// Slack returns Σ coefficients − Bound, the amount by which the constraint
// can afford to lose terms. Negative slack means unsatisfiable.
func (c *Constraint) Slack() int {
	s := -c.Bound
	for _, t := range c.Terms {
		s += t.Coef
	}
	return s
}

// IsClause reports whether the constraint is equivalent to a CNF clause
// (all coefficients 1 and bound 1).
func (c *Constraint) IsClause() bool {
	if c.Bound != 1 {
		return false
	}
	for _, t := range c.Terms {
		if t.Coef != 1 {
			return false
		}
	}
	return true
}

// IsCardinality reports whether all coefficients are equal to 1.
func (c *Constraint) IsCardinality() bool {
	for _, t := range c.Terms {
		if t.Coef != 1 {
			return false
		}
	}
	return true
}

// Satisfied reports whether the constraint holds under a complete assignment.
func (c *Constraint) Satisfied(a cnf.Assignment) bool {
	sum := 0
	for _, t := range c.Terms {
		if a.Lit(t.Lit) {
			sum += t.Coef
		}
	}
	return sum >= c.Bound
}

// Signature returns a canonical string for the constraint shape: the sorted
// multiset of coefficients and the bound. Constraints with equal signatures
// are interchangeable under symmetry (used by the symmetry-graph coloring).
func (c *Constraint) Signature() string {
	coefs := make([]int, len(c.Terms))
	for i, t := range c.Terms {
		coefs[i] = t.Coef
	}
	slices.Sort(coefs)
	b := make([]byte, 0, 8+4*len(coefs))
	b = append(b, ">="...)
	b = strconv.AppendInt(b, int64(c.Bound), 10)
	b = append(b, ':')
	for _, a := range coefs {
		b = strconv.AppendInt(b, int64(a), 10)
		b = append(b, ',')
	}
	return string(b)
}

func (c *Constraint) String() string {
	parts := make([]string, len(c.Terms))
	for i, t := range c.Terms {
		parts[i] = fmt.Sprintf("%+d*%s", t.Coef, t.Lit)
	}
	return fmt.Sprintf("%s >= %d", strings.Join(parts, " "), c.Bound)
}

// Formula is a 0-1 ILP instance: CNF clauses, normalized PB constraints, and
// an optional linear objective to minimize.
type Formula struct {
	NumVars     int
	Clauses     []cnf.Clause
	Constraints []Constraint
	// Objective, when non-empty, is minimized. All coefficients must be
	// positive (callers fold signs onto literals).
	Objective []Term
}

// NewFormula returns an empty formula with n variables.
func NewFormula(n int) *Formula { return &Formula{NumVars: n} }

// FromCNF wraps a pure CNF formula as a 0-1 ILP instance with no PB
// constraints and no objective, the form in which the PB engines decide
// plain satisfiability. The clauses are shared with f, not copied.
func FromCNF(f *cnf.Formula) *Formula {
	return &Formula{NumVars: f.NumVars, Clauses: append([]cnf.Clause(nil), f.Clauses...)}
}

// NewVar allocates a fresh variable.
func (f *Formula) NewVar() int {
	f.NumVars++
	return f.NumVars
}

// AddClause appends a CNF clause.
func (f *Formula) AddClause(lits ...cnf.Lit) {
	c := make(cnf.Clause, len(lits))
	copy(c, lits)
	f.Clauses = append(f.Clauses, c)
	f.track(c...)
}

// AddImplication adds a ⇒ b as the clause (¬a ∨ b).
func (f *Formula) AddImplication(a, b cnf.Lit) { f.AddClause(a.Neg(), b) }

// AddPB normalizes and appends a PB constraint. Constraints that normalize
// to clauses are stored as clauses so solvers treat them uniformly.
func (f *Formula) AddPB(terms []Term, cmp Comparator, bound int) {
	for _, c := range Normalize(terms, cmp, bound) {
		if c.IsClause() {
			lits := make(cnf.Clause, len(c.Terms))
			for i, t := range c.Terms {
				lits[i] = t.Lit
			}
			f.Clauses = append(f.Clauses, lits)
			f.track(lits...)
			continue
		}
		f.Constraints = append(f.Constraints, c)
		for _, t := range c.Terms {
			f.trackVar(t.Lit.Var())
		}
	}
}

// SetObjective installs the minimization objective.
func (f *Formula) SetObjective(terms []Term) {
	f.Objective = append(f.Objective[:0], terms...)
	for _, t := range terms {
		f.trackVar(t.Lit.Var())
	}
}

// ObjectiveValue evaluates the objective under a complete assignment.
func (f *Formula) ObjectiveValue(a cnf.Assignment) int {
	v := 0
	for _, t := range f.Objective {
		if a.Lit(t.Lit) {
			v += t.Coef
		}
	}
	return v
}

// Satisfies reports whether the assignment satisfies all clauses and
// constraints.
func (f *Formula) Satisfies(a cnf.Assignment) bool {
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
	for i := range f.Constraints {
		if !f.Constraints[i].Satisfied(a) {
			return false
		}
	}
	return true
}

// Stats summarizes formula sizes as reported in the paper's Table 2.
type Stats struct {
	Vars int
	CNF  int // number of CNF clauses
	PB   int // number of PB constraints
}

// Stats returns the formula size summary.
func (f *Formula) Stats() Stats {
	return Stats{Vars: f.NumVars, CNF: len(f.Clauses), PB: len(f.Constraints)}
}

// OPB renders the formula in an OPB-like text format (objective, PB
// constraints, clauses-as-PB) for inspection and golden tests.
func (f *Formula) OPB() string {
	var b strings.Builder
	fmt.Fprintf(&b, "* #variable= %d #constraint= %d\n",
		f.NumVars, len(f.Clauses)+len(f.Constraints))
	if len(f.Objective) > 0 {
		b.WriteString("min:")
		for _, t := range f.Objective {
			fmt.Fprintf(&b, " %+d %s", t.Coef, litOPB(t.Lit))
		}
		b.WriteString(";\n")
	}
	for i := range f.Constraints {
		c := &f.Constraints[i]
		for _, t := range c.Terms {
			fmt.Fprintf(&b, "%+d %s ", t.Coef, litOPB(t.Lit))
		}
		fmt.Fprintf(&b, ">= %d;\n", c.Bound)
	}
	for _, cl := range f.Clauses {
		for _, l := range cl {
			fmt.Fprintf(&b, "+1 %s ", litOPB(l))
		}
		b.WriteString(">= 1;\n")
	}
	return b.String()
}

func litOPB(l cnf.Lit) string {
	if l.Sign() {
		return fmt.Sprintf("x%d", l.Var())
	}
	return fmt.Sprintf("~x%d", l.Var())
}

func (f *Formula) track(lits ...cnf.Lit) {
	for _, l := range lits {
		f.trackVar(l.Var())
	}
}

func (f *Formula) trackVar(v int) {
	if v > f.NumVars {
		f.NumVars = v
	}
}
