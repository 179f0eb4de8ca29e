package pbsolver

import (
	"slices"
	"time"

	"repro/internal/cnf"
	"repro/internal/pb"
	"repro/internal/solverutil"
)

// cdclEngine is the CDCL-based 0-1 ILP core shared by the PBS II, Galena,
// and Pueblo configurations: watched-literal clause propagation plus
// counter-based pseudo-Boolean propagation, first-UIP clause learning with
// PB reasons expanded to clauses, VSIDS decisions, Luby restarts. The
// EngineGalena configuration additionally learns cardinality reductions of
// conflicting PB constraints (CARD learning, Chai & Kuehlmann 2003).
//
// It is the repository's single CDCL core: pure CNF runs through it too, as
// a formula with no PB constraints and no objective (see pb.FromCNF). The
// clause database uses internal/solverutil's flat-arena layout: clauses are int32 offsets into
// one []uint32 store, watch lists carry {clause, blocker} structs, binary
// clauses are propagated inline from dedicated binary watch lists, and
// learnt-clause deletion is LBD-driven with periodic arena compaction.
type cdclEngine struct {
	opts Options

	nVars int
	db    solverutil.ClauseDB
	nBin  int // binary clauses (inline watch lists only)

	pbcs []*pbc
	// occ[litIdx(l)] lists PB constraints containing literal l together
	// with its coefficient: when l becomes false their slack drops.
	occ [][]occRef

	assign    []lbool
	level     []int
	reasonCl  []solverutil.CRef
	reasonBin []cnf.Lit
	reasonPB  []*pbc
	trailPos  []int
	trail     []cnf.Lit
	trailAt   []int
	qhead     int

	activity []float64
	varInc   float64
	order    solverutil.VarHeap
	phase    []bool

	claInc   float64
	seen     []bool
	lbd      solverutil.LBDCounter
	unsatNow bool

	// Reusable conflict-analysis buffers (never retained by callers).
	learntBuf  []cnf.Lit
	scratchBuf []cnf.Lit
	cleanupBuf []int

	impBuf  []solverutil.SharedClause // reusable Import drain buffer
	normBuf cnf.Clause                // reusable clause normalization buffer

	prog solverutil.ProgressEmitter
	// incumbent mirrors the surrounding optimization loop's best objective
	// so far (-1 = none yet) for progress snapshots.
	incumbent int

	stats Stats
}

type lbool int8

const (
	lUndef lbool = iota
	lTrue
	lFalse
)

// pbc is a PB constraint with counter-based propagation state: slack is
// Σ coefficients of non-false literals − bound, maintained incrementally on
// every assignment.
type pbc struct {
	terms   []pb.Term // sorted by descending coefficient
	bound   int
	slack   int
	learnt  bool
	reduced bool // cardinality reduction already derived (Galena)
}

type occRef struct {
	c    *pbc
	coef int
}

// conflict identifies what falsified the trail: an arena clause, an inline
// binary clause (a ∨ b), or a PB constraint.
type conflict struct {
	cref solverutil.CRef
	a, b cnf.Lit
	pc   *pbc
}

var noConflict = conflict{cref: solverutil.CRefUndef}

func (c conflict) isConflict() bool {
	return c.cref != solverutil.CRefUndef || c.a != 0 || c.pc != nil
}

func litIdx(l cnf.Lit) int {
	v := l.Var()
	if l.Sign() {
		return 2 * v
	}
	return 2*v + 1
}

func newCDCL(opts Options) *cdclEngine {
	e := &cdclEngine{opts: opts, varInc: 1, claInc: 1, incumbent: -1}
	e.prog = solverutil.NewProgressEmitter(opts.Progress, opts.ProgressInterval)
	e.assign = []lbool{lUndef}
	e.level = []int{0}
	e.reasonCl = []solverutil.CRef{solverutil.CRefUndef}
	e.reasonBin = []cnf.Lit{0}
	e.reasonPB = []*pbc{nil}
	e.trailPos = []int{0}
	e.activity = []float64{0}
	e.phase = []bool{false}
	e.seen = []bool{false}
	e.db.Init()
	e.occ = [][]occRef{nil, nil}
	return e
}

// growTo extends every per-variable slice to cover variables 1..n in one
// step each.
func (e *cdclEngine) growTo(n int) {
	if d := n - e.nVars; d > 0 {
		e.nVars = n
		e.assign = append(e.assign, make([]lbool, d)...)
		e.level = append(e.level, make([]int, d)...)
		e.reasonCl = slices.Grow(e.reasonCl, d)
		for i := 0; i < d; i++ {
			e.reasonCl = append(e.reasonCl, solverutil.CRefUndef)
		}
		e.reasonBin = append(e.reasonBin, make([]cnf.Lit, d)...)
		e.reasonPB = append(e.reasonPB, make([]*pbc, d)...)
		e.trailPos = append(e.trailPos, make([]int, d)...)
		e.activity = append(e.activity, make([]float64, d)...)
		e.phase = append(e.phase, make([]bool, d)...)
		e.seen = append(e.seen, make([]bool, d)...)
		e.db.GrowVars(d)
		e.occ = append(e.occ, make([][]occRef, 2*d)...)
	}
	e.order.Ensure(e.nVars, e.activity)
}

func (e *cdclEngine) value(l cnf.Lit) lbool {
	a := e.assign[l.Var()]
	if a == lUndef {
		return lUndef
	}
	if l.Sign() == (a == lTrue) {
		return lTrue
	}
	return lFalse
}

func (e *cdclEngine) valueEnc(u uint32) lbool {
	a := e.assign[u>>1]
	if a == lUndef {
		return lUndef
	}
	if (u&1 == 0) == (a == lTrue) {
		return lTrue
	}
	return lFalse
}

func (e *cdclEngine) decisionLevel() int { return len(e.trailAt) }

// addClause installs a clause at decision level 0. The clause is
// normalized in normBuf, and the literals the root assignment falsifies are
// dropped in place.
func (e *cdclEngine) addClause(lits []cnf.Lit) bool {
	e.cancelUntil(0)
	e.normBuf = append(e.normBuf[:0], lits...)
	norm, taut := e.normBuf.NormalizeInPlace()
	if taut {
		return true
	}
	for _, l := range norm {
		if l.Var() > e.nVars {
			e.growTo(l.Var())
		}
	}
	kept := norm[:0]
	for _, l := range norm {
		switch e.value(l) {
		case lTrue:
			return true
		case lUndef:
			kept = append(kept, l)
		}
	}
	switch len(kept) {
	case 0:
		e.unsatNow = true
		return false
	case 1:
		if !e.enqueue(kept[0], noReason) || !e.propagateToFixpoint() {
			e.unsatNow = true
			return false
		}
		return true
	case 2:
		e.db.AttachBinary(kept[0], kept[1])
		e.nBin++
		return true
	}
	c := e.db.Arena.Alloc(kept, false)
	e.db.Clauses = append(e.db.Clauses, c)
	e.db.Attach(c)
	return true
}

// addConstraint installs a normalized PB constraint at decision level 0,
// initializing its slack against the current root assignment.
func (e *cdclEngine) addConstraint(c pb.Constraint) bool {
	e.cancelUntil(0)
	for _, t := range c.Terms {
		if t.Lit.Var() > e.nVars {
			e.growTo(t.Lit.Var())
		}
	}
	p := &pbc{terms: append([]pb.Term(nil), c.Terms...), bound: c.Bound}
	sortTermsDesc(p.terms)
	return e.installPBC(p)
}

// installPBC wires a PB constraint into the occurrence lists and propagates
// its immediate consequences. Must be called at decision level 0 for
// original constraints; learnt constraints may be installed at any level as
// long as they are implied by the database.
func (e *cdclEngine) installPBC(p *pbc) bool {
	p.slack = -p.bound
	for _, t := range p.terms {
		if e.value(t.Lit) != lFalse {
			p.slack += t.Coef
		}
		e.occ[litIdx(t.Lit)] = append(e.occ[litIdx(t.Lit)], occRef{p, t.Coef})
	}
	e.pbcs = append(e.pbcs, p)
	if p.slack < 0 {
		e.unsatNow = true
		return false
	}
	// Propagate forced literals (coef > slack).
	for _, t := range p.terms {
		if t.Coef <= p.slack {
			break
		}
		if e.value(t.Lit) == lUndef {
			if !e.enqueue(t.Lit, reasonRef{cl: solverutil.CRefUndef, pc: p}) {
				e.unsatNow = true
				return false
			}
		}
	}
	if e.decisionLevel() == 0 && !e.propagateToFixpoint() {
		e.unsatNow = true
		return false
	}
	return true
}

func sortTermsDesc(terms []pb.Term) {
	// Insertion sort: constraint arity is small and mostly sorted inputs.
	for i := 1; i < len(terms); i++ {
		t := terms[i]
		j := i - 1
		for j >= 0 && terms[j].Coef < t.Coef {
			terms[j+1] = terms[j]
			j--
		}
		terms[j+1] = t
	}
}

// reasonRef is the source of an implication: an arena clause, the other
// literal of a binary clause, or a PB constraint.
type reasonRef struct {
	cl  solverutil.CRef
	bin cnf.Lit
	pc  *pbc
}

var noReason = reasonRef{cl: solverutil.CRefUndef}

// enqueue assigns l true. PB slacks are updated here (and restored in
// cancelUntil) so that they reflect the assignment exactly at all times.
func (e *cdclEngine) enqueue(l cnf.Lit, from reasonRef) bool {
	switch e.value(l) {
	case lTrue:
		return true
	case lFalse:
		return false
	}
	e.uncheckedEnqueue(l, from)
	return true
}

func (e *cdclEngine) uncheckedEnqueue(l cnf.Lit, from reasonRef) {
	v := l.Var()
	if l.Sign() {
		e.assign[v] = lTrue
	} else {
		e.assign[v] = lFalse
	}
	e.phase[v] = l.Sign()
	e.level[v] = e.decisionLevel()
	e.reasonCl[v] = from.cl
	e.reasonBin[v] = from.bin
	e.reasonPB[v] = from.pc
	e.trailPos[v] = len(e.trail)
	e.trail = append(e.trail, l)
	for _, o := range e.occ[litIdx(l.Neg())] {
		o.c.slack -= o.coef
	}
}

func (e *cdclEngine) cancelUntil(level int) {
	if e.decisionLevel() <= level {
		return
	}
	bound := e.trailAt[level]
	for i := len(e.trail) - 1; i >= bound; i-- {
		l := e.trail[i]
		v := l.Var()
		e.assign[v] = lUndef
		e.reasonCl[v] = solverutil.CRefUndef
		e.reasonBin[v] = 0
		e.reasonPB[v] = nil
		for _, o := range e.occ[litIdx(l.Neg())] {
			o.c.slack += o.coef
		}
		e.order.Push(v, e.activity)
	}
	e.trail = e.trail[:bound]
	e.trailAt = e.trailAt[:level]
	e.qhead = len(e.trail)
}

// propagate processes the trail to fixpoint: inline binary clauses, then
// long clauses through blocker-carrying watchers, then counter-based PB
// propagation. Returns the conflict (noConflict if none).
func (e *cdclEngine) propagate() conflict {
	for e.qhead < len(e.trail) {
		p := e.trail[e.qhead]
		e.qhead++
		e.stats.Propagations++
		wl := solverutil.EncodeLit(p)
		falsified := p.Neg()

		// Inline binary propagation.
		for _, imp := range e.db.BinWatches[wl] {
			switch e.valueEnc(imp) {
			case lFalse:
				e.qhead = len(e.trail)
				return conflict{cref: solverutil.CRefUndef, a: falsified, b: solverutil.DecodeLit(imp)}
			case lUndef:
				e.uncheckedEnqueue(solverutil.DecodeLit(imp), reasonRef{cl: solverutil.CRefUndef, bin: falsified})
			}
		}

		// Long clauses (two watched literals with blockers).
		ws := e.db.Watches[wl]
		fEnc := solverutil.EncodeLit(falsified)
		i, j := 0, 0
		confl := noConflict
		for i < len(ws) {
			w := ws[i]
			if e.valueEnc(w.Blocker) == lTrue {
				ws[j] = w
				i++
				j++
				continue
			}
			c := w.CRef
			lits := e.db.Arena.Lits(c)
			if lits[0] == fEnc {
				lits[0], lits[1] = lits[1], lits[0]
			}
			first := lits[0]
			nw := solverutil.Watcher{CRef: c, Blocker: first}
			if first != w.Blocker && e.valueEnc(first) == lTrue {
				ws[j] = nw
				i++
				j++
				continue
			}
			moved := false
			for k := 2; k < len(lits); k++ {
				if e.valueEnc(lits[k]) != lFalse {
					lits[1], lits[k] = lits[k], lits[1]
					e.db.Watches[lits[1]^1] = append(e.db.Watches[lits[1]^1], nw)
					moved = true
					break
				}
			}
			i++
			if moved {
				continue
			}
			ws[j] = nw
			j++
			if e.valueEnc(first) == lFalse {
				for ; i < len(ws); i++ {
					ws[j] = ws[i]
					j++
				}
				confl = conflict{cref: c}
				break
			}
			e.uncheckedEnqueue(solverutil.DecodeLit(first), reasonRef{cl: c})
		}
		e.db.Watches[wl] = ws[:j]
		if confl.isConflict() {
			e.qhead = len(e.trail)
			return confl
		}

		// PB propagation: constraints containing ¬p lost slack when p was
		// enqueued; check for violation and newly forced literals.
		for _, o := range e.occ[litIdx(p.Neg())] {
			c := o.c
			if c.slack < 0 {
				e.qhead = len(e.trail)
				return conflict{cref: solverutil.CRefUndef, pc: c}
			}
			for _, t := range c.terms {
				if t.Coef <= c.slack {
					break
				}
				if e.value(t.Lit) == lUndef {
					e.uncheckedEnqueue(t.Lit, reasonRef{cl: solverutil.CRefUndef, pc: c})
				}
			}
		}
	}
	return noConflict
}

func (e *cdclEngine) propagateToFixpoint() bool {
	return !e.propagate().isConflict()
}

// conflictLits appends the conflict's clause-shaped literal set to out: for
// a clause conflict the clause itself; for a PB conflict all currently
// false literals of the constraint (at least one of them must be true in
// any satisfying assignment, since together they drove the slack negative).
func (e *cdclEngine) conflictLits(confl conflict, out []cnf.Lit) []cnf.Lit {
	switch {
	case confl.cref != solverutil.CRefUndef:
		if e.db.Arena.Learnt(confl.cref) {
			e.bumpClause(confl.cref)
		}
		for _, u := range e.db.Arena.Lits(confl.cref) {
			out = append(out, solverutil.DecodeLit(u))
		}
	case confl.pc != nil:
		for _, t := range confl.pc.terms {
			if e.value(t.Lit) == lFalse {
				out = append(out, t.Lit)
			}
		}
	default:
		out = append(out, confl.a, confl.b)
	}
	return out
}

// reasonLits appends the literals to resolve on (excluding the implied
// literal) to out. For a PB reason of variable v, these are the literals of
// the constraint that were false before v was assigned.
func (e *cdclEngine) reasonLits(v int, out []cnf.Lit) []cnf.Lit {
	if rc := e.reasonCl[v]; rc != solverutil.CRefUndef {
		if e.db.Arena.Learnt(rc) {
			e.bumpClause(rc)
		}
		lits := e.db.Arena.Lits(rc)
		if lits[0]>>1 != uint32(v) {
			panic("pbsolver: reason clause invariant violated")
		}
		for _, u := range lits[1:] {
			out = append(out, solverutil.DecodeLit(u))
		}
		return out
	}
	if rb := e.reasonBin[v]; rb != 0 {
		return append(out, rb)
	}
	if rp := e.reasonPB[v]; rp != nil {
		pos := e.trailPos[v]
		for _, t := range rp.terms {
			if t.Lit.Var() == v {
				continue
			}
			if e.value(t.Lit) == lFalse && e.trailPos[t.Lit.Var()] < pos {
				out = append(out, t.Lit)
			}
		}
		return out
	}
	panic("pbsolver: missing reason during analysis")
}

// analyze performs first-UIP conflict analysis over mixed clause/binary/PB
// reasons; it returns the learnt clause (asserting literal first), the
// backtrack level, and the learnt clause's LBD. The returned slice is a
// reusable buffer, valid until the next analyze call.
func (e *cdclEngine) analyze(confl conflict) ([]cnf.Lit, int, int) {
	learnt := append(e.learntBuf[:0], 0)
	cleanup := e.cleanupBuf[:0]
	counter := 0
	var p cnf.Lit
	idx := len(e.trail) - 1

	lits := e.conflictLits(confl, e.scratchBuf[:0])
	for {
		for _, q := range lits {
			v := q.Var()
			if e.seen[v] || e.level[v] == 0 {
				continue
			}
			e.seen[v] = true
			cleanup = append(cleanup, v)
			e.bumpVar(v)
			if e.level[v] == e.decisionLevel() {
				counter++
			} else {
				learnt = append(learnt, q)
			}
		}
		for !e.seen[e.trail[idx].Var()] {
			idx--
		}
		p = e.trail[idx]
		idx--
		e.seen[p.Var()] = false
		counter--
		if counter == 0 {
			break
		}
		lits = e.reasonLits(p.Var(), lits[:0])
	}
	learnt[0] = p.Neg()
	e.scratchBuf = lits[:0]

	btLevel := 0
	if len(learnt) > 1 {
		maxI := 1
		for i := 2; i < len(learnt); i++ {
			if e.level[learnt[i].Var()] > e.level[learnt[maxI].Var()] {
				maxI = i
			}
		}
		learnt[1], learnt[maxI] = learnt[maxI], learnt[1]
		btLevel = e.level[learnt[1].Var()]
	}
	lbd := e.computeLBD(learnt)
	for _, v := range cleanup {
		e.seen[v] = false
	}
	e.learntBuf = learnt
	e.cleanupBuf = cleanup[:0]
	return learnt, btLevel, lbd
}

// computeLBD returns the number of distinct decision levels among the
// literals (Audemard & Simon's literal-blocks distance).
func (e *cdclEngine) computeLBD(lits []cnf.Lit) int {
	return e.lbd.CountLits(lits, e.level)
}

func (e *cdclEngine) bumpVar(v int) {
	e.activity[v] += e.varInc
	if e.activity[v] > 1e100 {
		for i := 1; i <= e.nVars; i++ {
			e.activity[i] *= 1e-100
		}
		e.varInc *= 1e-100
	}
	e.order.Update(v, e.activity)
}

func (e *cdclEngine) bumpClause(c solverutil.CRef) {
	act := e.db.Arena.Activity(c) + float32(e.claInc)
	e.db.Arena.SetActivity(c, act)
	if act > 1e20 {
		for _, lc := range e.db.Learnts {
			e.db.Arena.SetActivity(lc, e.db.Arena.Activity(lc)*1e-20)
		}
		e.claInc *= 1e-20
	}
}

func (e *cdclEngine) decayActivities() {
	e.varInc /= e.opts.varDecay()
	e.claInc /= 0.999
}

func (e *cdclEngine) record(lits []cnf.Lit, lbd int) {
	switch len(lits) {
	case 1:
		e.uncheckedEnqueue(lits[0], noReason)
	case 2:
		e.db.AttachBinary(lits[0], lits[1])
		e.stats.Learnts++
		e.uncheckedEnqueue(lits[0], reasonRef{cl: solverutil.CRefUndef, bin: lits[1]})
	default:
		c := e.db.Arena.Alloc(lits, true)
		e.db.Arena.SetLBD(c, lbd)
		e.db.Learnts = append(e.db.Learnts, c)
		e.db.Attach(c)
		e.bumpClause(c)
		e.stats.Learnts++
		e.uncheckedEnqueue(lits[0], reasonRef{cl: c})
	}
}

// learnCardinality derives and installs the cardinality reduction of a
// conflicting PB constraint (Galena's CARD learning): Σ lits ≥ r where r is
// the minimum number of true literals any satisfying assignment needs.
func (e *cdclEngine) learnCardinality(src *pbc) {
	if src.reduced || src.learnt {
		return
	}
	src.reduced = true
	if isCardinality(src) {
		return // reduction would be the constraint itself
	}
	r := cardinalityBound(src)
	if r <= 1 {
		return // degenerates to a clause; clause learning already covers it
	}
	terms := make([]pb.Term, len(src.terms))
	for i, t := range src.terms {
		terms[i] = pb.Term{Coef: 1, Lit: t.Lit}
	}
	p := &pbc{terms: terms, bound: r, learnt: true, reduced: true}
	// Install only when consistent with the current assignment; the
	// reduction is implied, so skipping is sound (pure heuristic).
	slack := -r
	for _, t := range terms {
		if e.value(t.Lit) != lFalse {
			slack++
		}
	}
	if slack < 0 {
		return
	}
	forced := false
	if slack == 0 {
		for _, t := range terms {
			if e.value(t.Lit) == lUndef {
				forced = true
				break
			}
		}
	}
	if forced {
		return // avoid out-of-band propagation; keep installation simple
	}
	e.installPBC(p)
	e.stats.LearntCards++
}

func isCardinality(c *pbc) bool {
	for _, t := range c.terms {
		if t.Coef != 1 {
			return false
		}
	}
	return true
}

// cardinalityBound returns the smallest r such that the r largest
// coefficients reach the bound (terms are sorted descending).
func cardinalityBound(c *pbc) int {
	sum := 0
	for i, t := range c.terms {
		sum += t.Coef
		if sum >= c.bound {
			return i + 1
		}
	}
	return len(c.terms) + 1 // unsatisfiable constraint
}

// exportLearnt offers a freshly learnt clause to the Export hook when its
// LBD passes the sharing threshold. lits is the reusable analysis buffer;
// the hook contract requires the receiver to copy.
func (e *cdclEngine) exportLearnt(lits []cnf.Lit, lbd int) {
	if e.opts.Export == nil || lbd > e.opts.exportLBD() || len(lits) > solverutil.MaxShareLen {
		return
	}
	e.opts.Export(lits, lbd)
	e.stats.Exported++
}

// importShared drains the Import hook and attaches the foreign clauses as
// learnt clauses. Must be called at decision level 0. Returns false when an
// imported clause (necessarily implied by the database) exposes root
// unsatisfiability.
func (e *cdclEngine) importShared() bool {
	if e.opts.Import == nil {
		return true
	}
	e.impBuf = e.opts.Import(e.impBuf[:0])
	for _, sc := range e.impBuf {
		if !e.addSharedClause(sc.Lits, sc.LBD) {
			return false
		}
	}
	return true
}

// addSharedClause attaches one imported clause at decision level 0. Unlike
// addClause, the clause enters the learnt database (tiered by the
// exporter's LBD) so the reduction policy can drop it again if it never
// helps. Returns false on root conflict.
func (e *cdclEngine) addSharedClause(lits []cnf.Lit, lbd int) bool {
	e.normBuf = append(e.normBuf[:0], lits...)
	norm, taut := e.normBuf.NormalizeInPlace()
	if taut {
		return true
	}
	for _, l := range norm {
		if l.Var() > e.nVars {
			e.growTo(l.Var())
		}
	}
	kept := norm[:0]
	for _, l := range norm {
		switch e.value(l) {
		case lTrue:
			return true
		case lUndef:
			kept = append(kept, l)
		}
	}
	e.stats.Imported++
	switch len(kept) {
	case 0:
		return false
	case 1:
		if !e.enqueue(kept[0], noReason) {
			return false
		}
		return e.propagateToFixpoint()
	case 2:
		e.db.AttachBinary(kept[0], kept[1])
		return true
	}
	c := e.db.Arena.Alloc(kept, true)
	e.db.Arena.SetLBD(c, lbd)
	e.db.Learnts = append(e.db.Learnts, c)
	e.db.Attach(c)
	return true
}

func (e *cdclEngine) pickBranchVar() int {
	for {
		v := e.order.Pop(e.activity)
		if v == 0 {
			return 0
		}
		if e.assign[v] == lUndef {
			return v
		}
	}
}

// locked reports whether the clause is the reason of its first literal's
// current assignment.
func (e *cdclEngine) locked(c solverutil.CRef) bool {
	v := int(e.db.Arena.Lits(c)[0] >> 1)
	return e.reasonCl[v] == c && e.assign[v] != lUndef
}

// reduceDB runs one LBD-based learnt-database reduction, compacting the
// arena when freed clauses waste more than a quarter of it.
func (e *cdclEngine) reduceDB() {
	removed := e.db.Reduce(e.opts.glueLBD(), e.locked)
	if removed == 0 {
		return
	}
	e.stats.Reduces++
	e.stats.Removed += int64(removed)
	if e.db.NeedsGC() {
		e.garbageCollect()
	}
}

// garbageCollect compacts the arena, remapping clause lists, watchers and
// reason references.
func (e *cdclEngine) garbageCollect() {
	e.db.GC(func(reloc func(solverutil.CRef) solverutil.CRef) {
		for v := 1; v <= e.nVars; v++ {
			if e.assign[v] != lUndef && e.reasonCl[v] != solverutil.CRefUndef {
				e.reasonCl[v] = reloc(e.reasonCl[v])
			}
		}
	})
	e.stats.ArenaGCs++
}

// solveDecision runs CDCL search until SAT/UNSAT or budget exhaustion.
func (e *cdclEngine) solveDecision(budget *budget) Status {
	return e.solveDecisionAssuming(budget, nil)
}

// solveDecisionAssuming runs the CDCL search with the given assumption
// literals enforced as the first decisions of every descent (the mechanism
// internal/par seeds cubes with). StatusUnsat then means "unsatisfiable
// under the assumptions" unless unsatNow was additionally set, in which
// case the database itself is contradictory; the engine stays usable and
// all learning carries over to later calls.
func (e *cdclEngine) solveDecisionAssuming(budget *budget, assumptions []cnf.Lit) Status {
	if e.unsatNow {
		return StatusUnsat
	}
	for _, a := range assumptions {
		if a.Var() > e.nVars {
			e.growTo(a.Var())
		}
	}
	e.cancelUntil(0)
	if !e.propagateToFixpoint() {
		e.unsatNow = true
		return StatusUnsat
	}
	if !e.importShared() {
		e.unsatNow = true
		return StatusUnsat
	}
	e.order.Rebuild(e.nVars, e.activity)

	restartNum := int64(1)
	conflictsAtRestart := e.stats.Conflicts
	restartLimit := solverutil.Luby(restartNum) * e.opts.restartBase()
	reduceInterval := e.opts.reduceInterval()
	nextReduce := e.stats.Conflicts + reduceInterval
	checkCounter := 0

	for {
		checkCounter++
		if checkCounter >= 256 {
			checkCounter = 0
			if budget.expired() {
				e.cancelUntil(0)
				return StatusUnknown
			}
			if e.prog.Ready() {
				e.prog.Emit(e.progressSnapshot())
			}
		}
		confl := e.propagate()
		if confl.isConflict() {
			e.stats.Conflicts++
			budget.conflicts++
			if e.decisionLevel() == 0 {
				e.unsatNow = true
				return StatusUnsat
			}
			learnt, btLevel, lbd := e.analyze(confl)
			e.exportLearnt(learnt, lbd)
			e.cancelUntil(btLevel)
			e.record(learnt, lbd)
			if e.opts.Engine == EngineGalena && confl.pc != nil {
				e.learnCardinality(confl.pc)
			}
			e.decayActivities()
			budget.passMark()
			if budget.conflictsExceeded() {
				e.cancelUntil(0)
				return StatusUnknown
			}
			if e.stats.Conflicts >= nextReduce {
				e.reduceDB()
				reduceInterval += e.opts.reduceInterval() / 8
				nextReduce = e.stats.Conflicts + reduceInterval
			}
			if e.stats.Conflicts-conflictsAtRestart >= restartLimit {
				e.stats.Restarts++
				restartNum++
				conflictsAtRestart = e.stats.Conflicts
				restartLimit = solverutil.Luby(restartNum) * e.opts.restartBase()
				e.cancelUntil(0)
				if !e.importShared() {
					e.unsatNow = true
					return StatusUnsat
				}
			}
			continue
		}
		// Assumptions occupy the first decision levels; after any backjump
		// below them they are re-applied here before free decisions resume.
		if dl := e.decisionLevel(); dl < len(assumptions) {
			a := assumptions[dl]
			switch e.value(a) {
			case lFalse:
				e.cancelUntil(0)
				return StatusUnsat // conflicts with the assumptions
			case lTrue:
				e.trailAt = append(e.trailAt, len(e.trail)) // empty level
			default:
				e.trailAt = append(e.trailAt, len(e.trail))
				e.uncheckedEnqueue(a, noReason)
			}
			continue
		}
		v := e.pickBranchVar()
		if v == 0 {
			return StatusSat
		}
		e.stats.Decisions++
		e.trailAt = append(e.trailAt, len(e.trail))
		var l cnf.Lit
		if e.opts.phaseSaving() && e.phase[v] {
			l = cnf.PosLit(v)
		} else {
			l = cnf.NegLit(v)
		}
		e.uncheckedEnqueue(l, noReason)
	}
}

// progressSnapshot assembles the engine's counters for a progress
// callback, tagged with the engine name and the optimization loop's
// current incumbent.
func (e *cdclEngine) progressSnapshot() solverutil.Progress {
	return solverutil.Progress{
		Engine:       e.opts.Engine.String(),
		Incumbent:    e.incumbent,
		Conflicts:    e.stats.Conflicts,
		Decisions:    e.stats.Decisions,
		Propagations: e.stats.Propagations,
		Restarts:     e.stats.Restarts,
		Learnts:      e.stats.Learnts,
		Reduces:      e.stats.Reduces,
		Removed:      e.stats.Removed,
	}
}

// noteIncumbent records an improved objective and reports it immediately
// (incumbent improvements are milestone events, exempt from rate
// limiting).
func (e *cdclEngine) noteIncumbent(z int) {
	e.incumbent = z
	if e.prog.Enabled() {
		e.prog.Emit(e.progressSnapshot())
	}
}

func (e *cdclEngine) model() cnf.Assignment {
	m := make(cnf.Assignment, e.nVars+1)
	for v := 1; v <= e.nVars; v++ {
		m[v] = e.assign[v] == lTrue
	}
	return m
}

// budget tracks shared limits across the optimization loop's solver calls.
type budget struct {
	deadline     time.Time
	maxConflicts int64
	conflicts    int64
	done         <-chan struct{} // context cancellation, may be nil
	// markAt and onMark are a one-shot conflict mark (Session.OnConflicts).
	markAt int64
	onMark func()
}

func (b *budget) expired() bool {
	if b.done != nil {
		select {
		case <-b.done:
			return true
		default:
		}
	}
	return !b.deadline.IsZero() && time.Now().After(b.deadline)
}

func (b *budget) conflictsExceeded() bool {
	return b.maxConflicts > 0 && b.conflicts >= b.maxConflicts
}

// passMark runs the conflict mark's callback, once, when the conflicts
// have reached it.
func (b *budget) passMark() {
	if b.onMark != nil && b.conflicts >= b.markAt {
		fn := b.onMark
		b.onMark = nil
		fn()
	}
}
