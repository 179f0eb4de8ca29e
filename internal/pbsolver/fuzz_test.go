package pbsolver

import (
	"context"
	"testing"

	"repro/internal/cnf"
	"repro/internal/pb"
	"repro/internal/testutil"
)

// cnfFromFuzz decodes fuzz input into a small CNF formula plus solver
// options, deterministically. Byte 0 picks the variable count, byte 1 the
// knob set; each following byte is a literal, with 0 acting as a clause
// separator. Formulas are capped small enough for the brute-force oracle.
func cnfFromFuzz(data []byte) (*cnf.Formula, Options, bool) {
	if len(data) < 3 {
		return nil, Options{}, false
	}
	nVars := 1 + int(data[0]%12)
	knobs := data[1]
	opts := Options{
		ChronoThreshold: int(knobs % 4),
		DynamicLBD:      knobs&8 != 0,
	}
	if knobs&4 != 0 {
		opts.VivifyBudget = 200
	}
	if knobs&16 != 0 {
		opts.RestartBaseOverride = 1
	}
	f := cnf.NewFormula(nVars)
	var clause []cnf.Lit
	flush := func() {
		if len(clause) > 0 {
			f.AddClause(clause...)
			clause = clause[:0]
		}
	}
	for _, b := range data[2:] {
		if f.NumClauses() >= 80 {
			break
		}
		if b == 0 || len(clause) >= 6 {
			flush()
			continue
		}
		idx := int(b) % (2 * nVars)
		l := cnf.PosLit(idx/2 + 1)
		if idx&1 == 1 {
			l = l.Neg()
		}
		clause = append(clause, l)
	}
	flush()
	return f, opts, true
}

// FuzzSATSolve feeds random CNF formulas through the CDCL engine's
// decision mode under fuzz-chosen knob combinations and cross-checks the
// answer (and any model) against the brute-force reference oracle.
func FuzzSATSolve(f *testing.F) {
	f.Add([]byte{3, 0, 1, 3, 0, 2, 4, 0, 5, 6})
	f.Add([]byte{5, 13, 1, 2, 3, 0, 4, 5, 6, 0, 7, 8, 9, 0, 2, 9})
	f.Add([]byte{11, 29, 10, 20, 30, 0, 40, 50, 60, 0, 70, 80, 90, 0, 1, 2})
	f.Add([]byte{1, 7, 4, 0, 1}) // (x1) ∧ (¬x1): UNSAT
	f.Fuzz(func(t *testing.T, data []byte) {
		formula, opts, ok := cnfFromFuzz(data)
		if !ok {
			return
		}
		want, _ := testutil.BruteForceSAT(formula)
		res := Decide(context.Background(), pb.FromCNF(formula), opts)
		if res.Status != StatusOptimal && res.Status != StatusUnsat {
			t.Fatalf("%v without a budget (opts %+v)", res.Status, opts)
		}
		if (res.Status == StatusOptimal) != want {
			t.Fatalf("engine says %v, reference says sat=%t (opts %+v, formula %d vars %d clauses)",
				res.Status, want, opts, formula.NumVars, formula.NumClauses())
		}
		if want {
			if err := testutil.CheckModel(formula, res.Model); err != nil {
				t.Fatalf("invalid model: %v (opts %+v)", err, opts)
			}
		}
	})
}
