// Package sbp constructs instance-dependent symmetry-breaking predicates
// from detected symmetry generators: the efficient, tautology-free,
// linear-size lex-leader construction of Aloul, Markov & Sakallah 2003
// (the Shatter flow, extended to PB formulas in their 2004 paper, §2.4).
//
// For a generator π with support v₁ < v₂ < ... (variables moved), the
// predicate keeps exactly the assignments A with A ≤lex π(A):
//
//	∧_i [ equal-prefix(i−1) → (l_i → π(l_i)) ]
//
// using chaining variables e_i ⇐ e_{i−1} ∧ (l_i ⇔ π(l_i)). Only the ⇐
// direction of the chain definition is emitted (three clauses per support
// variable): the SBP stays satisfiable by exactly the lex-leaders, and the
// chain truncates at the first phase-shifted variable, where l_i ⇔ ¬l_i is
// unsatisfiable and everything beyond is vacuous.
package sbp

import (
	"repro/internal/cnf"
	"repro/internal/pb"
	"repro/internal/symgraph"
)

// VariantName is the name results, the /v1/stats sbp_variants row, the
// gcolord_sbp_* metric label and the sbp trace span report for this
// construction. Every SBP-variant name a request may give selects it.
const VariantName = "full"

// Stats reports the size of the added predicates.
type Stats struct {
	Generators int // generators for which SBPs were emitted
	AddedVars  int
	Clauses    int
}

// Options tune the construction.
type Options struct {
	// MaxSupport truncates each generator's chain after this many support
	// variables (0 = full support). Truncation keeps the predicate sound
	// (a prefix of the lex-leader condition is still implied by it).
	MaxSupport int
}

// AddSBPs appends lex-leader predicates for every generator to the formula
// and returns size statistics.
func AddSBPs(f *pb.Formula, gens []symgraph.LitPerm, opts Options) Stats {
	var st Stats
	for _, g := range gens {
		if addOne(f, g, opts, &st) {
			st.Generators++
		}
	}
	return st
}

// Compose returns q∘p as literal permutations: first apply p, then q.
func Compose(p, q symgraph.LitPerm) symgraph.LitPerm {
	out := symgraph.NewIdentityPerm(len(p.Img) - 1)
	for v := 1; v < len(p.Img); v++ {
		out.Img[v] = q.Image(p.Img[v])
	}
	return out
}

// ExpandPowers augments a generator set with powers g², g³, ... of each
// generator up to maxPower (or the generator's order, whichever is
// smaller). Breaking powers in addition to the generators themselves breaks
// strictly more of the group at the cost of more predicates — the
// generator-powers ablation called out in DESIGN.md.
func ExpandPowers(gens []symgraph.LitPerm, maxPower int) []symgraph.LitPerm {
	out := append([]symgraph.LitPerm(nil), gens...)
	for _, g := range gens {
		cur := g
		for p := 2; p <= maxPower; p++ {
			cur = Compose(cur, g)
			if cur.IsIdentity() {
				break
			}
			out = append(out, cur)
		}
	}
	return out
}

// addOne emits the predicate for one generator. Returns false for
// generators with empty support.
func addOne(f *pb.Formula, g symgraph.LitPerm, opts Options, st *Stats) bool {
	support := g.Support()
	if len(support) == 0 {
		return false
	}
	if opts.MaxSupport > 0 && len(support) > opts.MaxSupport {
		support = support[:opts.MaxSupport]
	}
	addClause := func(lits ...cnf.Lit) {
		f.AddClause(lits...)
		st.Clauses++
	}
	// ePrev is the literal meaning "prefix equal so far"; 0 means the
	// constant true (before the first support variable).
	var ePrev cnf.Lit
	for i, v := range support {
		l := cnf.PosLit(v)
		m := g.Image(l)
		// Enforcement: equal-prefix → (l → m).
		if ePrev == 0 {
			if m == l.Neg() {
				addClause(l.Neg()) // l → ¬l collapses to ¬l
				return true        // chain dead beyond a phase shift
			}
			addClause(l.Neg(), m)
		} else {
			if m == l.Neg() {
				addClause(ePrev.Neg(), l.Neg())
				return true
			}
			addClause(ePrev.Neg(), l.Neg(), m)
		}
		if i == len(support)-1 {
			break // no successor needs the chain variable
		}
		// Chain: e_i ⇐ e_{i−1} ∧ (l ⇔ m).
		e := cnf.PosLit(f.NewVar())
		st.AddedVars++
		if ePrev == 0 {
			addClause(e, l, m)
			addClause(e, l.Neg(), m.Neg())
		} else {
			addClause(e, ePrev.Neg(), l, m)
			addClause(e, ePrev.Neg(), l.Neg(), m.Neg())
		}
		ePrev = e
	}
	return true
}
