package par

import (
	"math/rand"
	"slices"

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
		lits := p.lits(cl)
		w := clauseWeight(len(lits))
		for _, l := range lits {
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
	slices.SortFunc(vars, func(a, b int) int {
		switch {
		case score[a] > score[b]:
			return -1
		case score[a] < score[b]:
			return 1
		}
		return tie[a] - tie[b]
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
	slab    []cnf.Lit // every kept clause's literals, back to back
	pbcs    []propPBC

	// occs holds every occurrence list in one counted slab: for literal
	// l, occs[off[s]:off[s+1]] are the clauses containing l and
	// occs[off[s+1]:off[s+2]] the constraints containing l, each with
	// l's coefficient, where s = occSlot(l).
	occs []occ
	off  []int32

	trail []cnf.Lit
	empty bool // an empty clause or infeasible constraint exists
}

// propClause holds no pointer, so the collector never scans the clause
// array: its literals are prop.slab[start:end].
type propClause struct {
	start, end int32
	nFalse     int32
	nTrue      int32
}

type propPBC struct {
	terms []pb.Term
	slack int // Σ coef of non-false literals − bound
}

// occ is one occurrence of a literal: the clause or constraint index, and
// for a constraint the literal's coefficient in it.
type occ struct {
	idx  int32
	coef int
}

// occSlot is the first of l's two occurrence lists in prop.off.
func occSlot(l cnf.Lit) int {
	if l.Sign() {
		return 4 * l.Var()
	}
	return 4*l.Var() + 2
}

func (p *prop) lits(cl propClause) []cnf.Lit { return p.slab[cl.start:cl.end] }

func (p *prop) clauseOcc(l cnf.Lit) []occ {
	s := occSlot(l)
	return p.occs[p.off[s]:p.off[s+1]]
}

func (p *prop) pbOcc(l cnf.Lit) []occ {
	s := occSlot(l) + 1
	return p.occs[p.off[s]:p.off[s+1]]
}

func newProp(numVars int, clauses []cnf.Clause, constraints []pb.Constraint) *prop {
	p := &prop{
		assign:  make([]int8, numVars+1),
		clauses: make([]propClause, 0, len(clauses)),
		pbcs:    make([]propPBC, len(constraints)),
		off:     make([]int32, 4*(numVars+1)+1),
	}
	// Every clause is normalized in place at the tail of one slab sized to
	// the formula's literal count, so the slab never moves and each kept
	// clause is a range of it.
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
		p.clauses = append(p.clauses, propClause{start: int32(start), end: int32(len(slab))})
	}
	// Count every list's length at off[s+1], turn the counts into start
	// offsets, fill each list by advancing its start, and shift the
	// advanced starts (now ends) back into place.
	n := len(slab)
	for i := range constraints {
		c := &constraints[i]
		p.pbcs[i] = propPBC{terms: c.Terms, slack: c.Slack()}
		n += len(c.Terms)
	}
	p.slab = slab
	for _, cl := range p.clauses {
		for _, l := range p.lits(cl) {
			p.off[occSlot(l)+1]++
		}
	}
	for _, c := range p.pbcs {
		for _, t := range c.terms {
			p.off[occSlot(t.Lit)+2]++
		}
	}
	for s := 1; s < len(p.off); s++ {
		p.off[s] += p.off[s-1]
	}
	p.occs = make([]occ, n)
	for ci, cl := range p.clauses {
		for _, l := range p.lits(cl) {
			s := occSlot(l)
			p.occs[p.off[s]] = occ{idx: int32(ci)}
			p.off[s]++
		}
	}
	for pi, c := range p.pbcs {
		for _, t := range c.terms {
			s := occSlot(t.Lit) + 1
			p.occs[p.off[s]] = occ{idx: int32(pi), coef: t.Coef}
			p.off[s]++
		}
	}
	copy(p.off[1:], p.off[:len(p.off)-1])
	p.off[0] = 0
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
		for _, o := range p.clauseOcc(l) {
			p.clauses[o.idx].nTrue--
		}
		for _, o := range p.clauseOcc(l.Neg()) {
			p.clauses[o.idx].nFalse--
		}
		// Slack counts non-false literals, so only the constraints where
		// the literal had become false (those containing ¬l) moved.
		for _, o := range p.pbOcc(l.Neg()) {
			p.pbcs[o.idx].slack += o.coef
		}
		p.assign[l.Var()] = 0
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
		if cl := p.clauses[ci]; cl.end-cl.start == 1 {
			if !p.enqueue(p.slab[cl.start]) {
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
	for _, o := range p.clauseOcc(l) {
		p.clauses[o.idx].nTrue++
	}
	for _, o := range p.clauseOcc(l.Neg()) {
		p.clauses[o.idx].nFalse++
	}
	for _, o := range p.pbOcc(l.Neg()) {
		p.pbcs[o.idx].slack -= o.coef
	}
	return true
}

// propagate processes the trail from head to fixpoint: unit clauses and
// PB-forced literals. Returns false on conflict.
func (p *prop) propagate(head int) bool {
	for head < len(p.trail) {
		l := p.trail[head]
		head++
		for _, o := range p.clauseOcc(l.Neg()) {
			cl := &p.clauses[o.idx]
			if cl.nTrue > 0 {
				continue
			}
			n := cl.end - cl.start
			switch {
			case cl.nFalse == n:
				return false
			case cl.nFalse == n-1:
				// Exactly one non-false literal left: find and force it.
				for _, u := range p.lits(*cl) {
					if p.valueLit(u) == 0 {
						if !p.enqueue(u) {
							return false
						}
						break
					}
				}
			}
		}
		for _, o := range p.pbOcc(l.Neg()) {
			c := &p.pbcs[o.idx]
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
