package par

import (
	"math/rand"
	"sort"

	"repro/internal/cnf"
	"repro/internal/pb"
)

// CubeOptions configure the lookahead cube generator.
type CubeOptions struct {
	// Depth is the number of branching decisions per cube: the generator
	// emits at most 2^Depth cubes.
	Depth int
	// Seed steers tie-breaking between equal-score branching variables
	// and the polarity order of each split. Generation is fully
	// deterministic for a fixed seed.
	Seed int64
}

// maxCubes soft-caps the emitted cubes: once reached, open branches are
// emitted as shorter cubes instead of being split further, so the cap
// never breaks the covering property. It is what bounds the work of a
// cube_depth up to 32 arriving from an untrusted job submission.
const maxCubes = 16384

// CubeSet is the generator's output: the cubes (conjunctions of decision
// literals, to be installed as assumptions), the branching variables in
// the order they were ranked, and the pruning statistics. The cubes are
// the leaves of one branching tree over Vars, so together with the
// Refuted branches they cover the formula's entire model set.
type CubeSet struct {
	Cubes [][]cnf.Lit
	// Vars is the ranked branching-variable pool (highest score first).
	Vars []int
	// Refuted counts branches closed by lookahead propagation alone.
	Refuted int64
	// RootUnsat reports that unit propagation refuted the formula before
	// any branching: there is nothing to conquer.
	RootUnsat bool
}

// CubesPB generates cubes for a 0-1 ILP formula. Branching variables are
// ranked by weighted occurrence (short clauses and tight PB constraints
// weigh more — the static analogue of the VSIDS scores a running engine
// would offer), and every branch literal is propagated through both the
// clauses and the counter-based PB slacks before the branch is kept.
func CubesPB(f *pb.Formula, opt CubeOptions) CubeSet {
	p := newProp(f.NumVars, f.Clauses, f.Constraints)
	cs := CubeSet{}
	if !p.propagateRoot() {
		cs.RootUnsat = true
		return cs
	}
	cs.Vars = rankVars(p, f.NumVars, opt.Seed)

	emit := func(cube []cnf.Lit) {
		cs.Cubes = append(cs.Cubes, append([]cnf.Lit(nil), cube...))
	}
	var dfs func(pos, depth int, cube []cnf.Lit)
	dfs = func(pos, depth int, cube []cnf.Lit) {
		if depth >= opt.Depth || len(cs.Cubes) >= maxCubes {
			emit(cube)
			return
		}
		// Next unassigned ranked variable (earlier ones may have been
		// fixed by propagation along this branch).
		for pos < len(cs.Vars) && p.assigned(cs.Vars[pos]) {
			pos++
		}
		if pos == len(cs.Vars) {
			emit(cube)
			return
		}
		v := cs.Vars[pos]
		for _, l := range []cnf.Lit{cnf.PosLit(v), cnf.NegLit(v)} {
			mark := p.mark()
			if p.assume(l) {
				dfs(pos+1, depth+1, append(cube, l))
			} else {
				cs.Refuted++
			}
			p.undo(mark)
		}
	}
	dfs(0, 0, make([]cnf.Lit, 0, opt.Depth))
	return cs
}

// rankVars scores every variable by weighted occurrence and returns the
// top ones (enough to feed the DFS even when propagation fixes some), in
// deterministic order: score descending, seeded permutation ascending.
func rankVars(p *prop, numVars int, seed int64) []int {
	score := make([]float64, numVars+1)
	for _, cl := range p.clauses {
		w := clauseWeight(len(cl.lits))
		for _, l := range cl.lits {
			score[l.Var()] += w
		}
	}
	for _, c := range p.pbcs {
		// Tight constraints (low slack relative to their coefficients)
		// constrain their variables more; weigh like a short clause.
		w := clauseWeight(len(c.terms))
		for _, t := range c.terms {
			score[t.Lit.Var()] += 2 * w
		}
	}
	// Deterministic tie-break: a seeded permutation of the variable
	// indices, so equal-score variables still order reproducibly and a
	// different seed explores a different split of the tie classes.
	rng := rand.New(rand.NewSource(seed))
	tie := rng.Perm(numVars + 1)
	vars := make([]int, 0, numVars)
	for v := 1; v <= numVars; v++ {
		if score[v] > 0 && !p.assigned(v) {
			vars = append(vars, v)
		}
	}
	sort.Slice(vars, func(i, j int) bool {
		vi, vj := vars[i], vars[j]
		if score[vi] != score[vj] {
			return score[vi] > score[vj]
		}
		return tie[vi] < tie[vj]
	})
	return vars
}

// clauseWeight is the Jeroslow–Wang style occurrence weight 2^-len,
// flattened beyond length 8.
func clauseWeight(n int) float64 {
	if n > 8 {
		n = 8
	}
	return float64(int(1)<<uint(8-n)) / 256
}

// prop is the generator's throwaway propagation engine: counting BCP over
// the clauses plus counter-based slack propagation over the PB
// constraints, with an undo trail for the DFS. Deliberately simple — it
// runs once per instance at cube depth, never in the solve hot path.
type prop struct {
	assign []int8 // 0 unassigned, +1 true, −1 false, by variable

	clauses []propClause
	occPos  [][]int32 // clause indices containing +v
	occNeg  [][]int32 // clause indices containing −v

	pbcs   []propPBC
	pbcPos [][]int32 // constraint indices containing +v (by literal sign)
	pbcNeg [][]int32

	trail []cnf.Lit
	empty bool // an empty clause or infeasible constraint exists
}

type propClause struct {
	lits   []cnf.Lit
	nFalse int32
	nTrue  int32
}

type propPBC struct {
	terms []pb.Term
	slack int // Σ coef of non-false literals − bound
}

func newProp(numVars int, clauses []cnf.Clause, constraints []pb.Constraint) *prop {
	p := &prop{
		assign: make([]int8, numVars+1),
		occPos: make([][]int32, numVars+1),
		occNeg: make([][]int32, numVars+1),
		pbcPos: make([][]int32, numVars+1),
		pbcNeg: make([][]int32, numVars+1),
	}
	// Every clause is normalized in place at the tail of one slab sized to
	// the formula's literal count, so the slab never moves and each kept
	// clause is a slice of it.
	total := 0
	for _, cl := range clauses {
		total += len(cl)
	}
	slab := make(cnf.Clause, 0, total)
	for _, cl := range clauses {
		start := len(slab)
		slab = append(slab, cl...)
		norm, taut := slab[start:].NormalizeInPlace()
		slab = slab[:start+len(norm)]
		if taut {
			continue
		}
		if len(norm) == 0 {
			p.empty = true
			continue
		}
		idx := int32(len(p.clauses))
		p.clauses = append(p.clauses, propClause{lits: norm})
		for _, l := range norm {
			if l.Sign() {
				p.occPos[l.Var()] = append(p.occPos[l.Var()], idx)
			} else {
				p.occNeg[l.Var()] = append(p.occNeg[l.Var()], idx)
			}
		}
	}
	for i := range constraints {
		c := &constraints[i]
		idx := int32(len(p.pbcs))
		p.pbcs = append(p.pbcs, propPBC{terms: c.Terms, slack: c.Slack()})
		for _, t := range c.Terms {
			if t.Lit.Sign() {
				p.pbcPos[t.Lit.Var()] = append(p.pbcPos[t.Lit.Var()], idx)
			} else {
				p.pbcNeg[t.Lit.Var()] = append(p.pbcNeg[t.Lit.Var()], idx)
			}
		}
	}
	return p
}

func (p *prop) assigned(v int) bool { return p.assign[v] != 0 }

func (p *prop) valueLit(l cnf.Lit) int8 {
	a := p.assign[l.Var()]
	if !l.Sign() {
		a = -a
	}
	return a
}

func (p *prop) mark() int { return len(p.trail) }

// undo unassigns every literal past the mark, restoring all counters.
func (p *prop) undo(mark int) {
	for i := len(p.trail) - 1; i >= mark; i-- {
		l := p.trail[i]
		v := l.Var()
		sameOcc, oppOcc := p.occPos[v], p.occNeg[v]
		oppPBC := p.pbcNeg[v]
		if !l.Sign() {
			sameOcc, oppOcc = oppOcc, sameOcc
			oppPBC = p.pbcPos[v]
		}
		for _, ci := range sameOcc {
			p.clauses[ci].nTrue--
		}
		for _, ci := range oppOcc {
			p.clauses[ci].nFalse--
		}
		// Slack counts non-false literals, so only the constraints where
		// the literal had become false (those containing ¬l) moved.
		for _, pi := range oppPBC {
			for _, t := range p.pbcs[pi].terms {
				if t.Lit == l.Neg() {
					p.pbcs[pi].slack += t.Coef
					break
				}
			}
		}
		p.assign[v] = 0
	}
	p.trail = p.trail[:mark]
}

// propagateRoot checks the empty formula state and propagates all initial
// units and PB-forced literals. Returns false when the root is refuted.
func (p *prop) propagateRoot() bool {
	if p.empty {
		return false
	}
	head := 0
	// Seed with unit clauses and immediately forced PB literals.
	for ci := range p.clauses {
		if len(p.clauses[ci].lits) == 1 {
			if !p.enqueue(p.clauses[ci].lits[0]) {
				return false
			}
		}
	}
	for pi := range p.pbcs {
		c := &p.pbcs[pi]
		if c.slack < 0 {
			return false
		}
		for _, t := range c.terms {
			if t.Coef > c.slack && p.valueLit(t.Lit) == 0 {
				if !p.enqueue(t.Lit) {
					return false
				}
			}
		}
	}
	return p.propagate(head)
}

// assume enqueues a decision literal and propagates to fixpoint. Returns
// false when the branch is refuted (the caller must undo to its mark).
func (p *prop) assume(l cnf.Lit) bool {
	head := len(p.trail)
	if !p.enqueue(l) {
		return false
	}
	return p.propagate(head)
}

// enqueue assigns l true and updates the clause and PB counters. Returns
// false on an immediate conflict with the current assignment.
func (p *prop) enqueue(l cnf.Lit) bool {
	switch p.valueLit(l) {
	case 1:
		return true
	case -1:
		return false
	}
	v := l.Var()
	if l.Sign() {
		p.assign[v] = 1
	} else {
		p.assign[v] = -1
	}
	p.trail = append(p.trail, l)
	sameOcc, oppOcc := p.occPos[v], p.occNeg[v]
	oppPBC := p.pbcNeg[v]
	if !l.Sign() {
		sameOcc, oppOcc = oppOcc, sameOcc
		oppPBC = p.pbcPos[v]
	}
	for _, ci := range sameOcc {
		p.clauses[ci].nTrue++
	}
	for _, ci := range oppOcc {
		p.clauses[ci].nFalse++
	}
	for _, pi := range oppPBC {
		for _, t := range p.pbcs[pi].terms {
			if t.Lit == l.Neg() {
				p.pbcs[pi].slack -= t.Coef
				break
			}
		}
	}
	return true
}

// propagate processes the trail from head to fixpoint: unit clauses and
// PB-forced literals. Returns false on conflict.
func (p *prop) propagate(head int) bool {
	for head < len(p.trail) {
		l := p.trail[head]
		head++
		v := l.Var()
		oppOcc, oppPBC := p.occNeg[v], p.pbcNeg[v]
		if !l.Sign() {
			oppOcc, oppPBC = p.occPos[v], p.pbcPos[v]
		}
		for _, ci := range oppOcc {
			cl := &p.clauses[ci]
			if cl.nTrue > 0 {
				continue
			}
			n := int32(len(cl.lits))
			switch {
			case cl.nFalse == n:
				return false
			case cl.nFalse == n-1:
				// Exactly one non-false literal left: find and force it.
				for _, u := range cl.lits {
					if p.valueLit(u) == 0 {
						if !p.enqueue(u) {
							return false
						}
						break
					}
				}
			}
		}
		for _, pi := range oppPBC {
			c := &p.pbcs[pi]
			if c.slack < 0 {
				return false
			}
			for _, t := range c.terms {
				if t.Coef > c.slack && p.valueLit(t.Lit) == 0 {
					if !p.enqueue(t.Lit) {
						return false
					}
				}
			}
		}
	}
	return true
}
