package pbsolver

import (
	"repro/internal/solverutil"
)

// vivify runs one budgeted vivification pass over the long problem and
// learnt clauses (Piette, Hamadi & Saïs 2008; the "clause distillation" of
// Lintao Zhang's lineage). Must be called at decision level 0. For each
// clause (l1 ∨ … ∨ ln) the clause is detached and the negated literals are
// assumed one at a time and propagated:
//
//   - a later literal becomes true  → the clause shrinks to prefix ∨ lit
//     (F ∧ ¬prefix ⊨ lit, so the shorter clause is implied by F alone);
//   - a later literal becomes false → that literal is redundant and is
//     dropped (any model violating the shrunk clause would violate F);
//   - propagation conflicts         → the prefix itself is implied.
//
// Propagation runs the full mixed closure — clauses, binary watch lists,
// and PB constraints — so PB-implied redundancies are removed too. The pass
// spends at most budget propagations, resuming at the stored cursors on
// the next restart. Returns false when the formula was proven
// unsatisfiable at level 0.
func (e *cdclEngine) vivify(budget int64) bool {
	// The restart may fire in the same iteration that enqueued a level-0
	// asserting literal; reach the fixpoint before probing so that probe
	// levels never swallow level-0 implications.
	if !e.propagateToFixpoint() {
		return false
	}
	e.probing = true
	defer func() { e.probing = false }()
	start := e.stats.Propagations
	for pass := 0; pass < 2; pass++ {
		list, cur := &e.db.Clauses, &e.vivHeadCl
		if pass == 1 {
			list, cur = &e.db.Learnts, &e.vivHeadLt
		}
		if *cur >= len(*list) {
			*cur = 0
		}
		for *cur < len(*list) {
			if e.stats.Propagations-start >= budget {
				return true
			}
			c := (*list)[*cur]
			if e.locked(c) {
				*cur++
				continue
			}
			nc, ok := e.vivifyClause(c, pass == 1)
			if !ok {
				return false
			}
			if nc == solverutil.CRefUndef {
				(*list)[*cur] = (*list)[len(*list)-1]
				*list = (*list)[:len(*list)-1]
				continue
			}
			(*list)[*cur] = nc
			*cur++
		}
		*cur = 0
	}
	if e.db.NeedsGC() {
		e.garbageCollect()
	}
	return true
}

// vivifyClause probes one clause as described on vivify. It returns the
// clause's replacement reference (the clause itself when unchanged,
// CRefUndef when the clause was removed or re-tiered to binary/unit) and
// reports false when the probe proved the formula unsatisfiable at the
// root.
func (e *cdclEngine) vivifyClause(c solverutil.CRef, learnt bool) (solverutil.CRef, bool) {
	origSize := e.db.Arena.Size(c)
	// Detach before probing: the clause must not participate in its own
	// strengthening (self-subsumption through propagation is circular).
	e.db.Detach(c)
	out := e.vivBuf[:0]
	satisfiedAtRoot := false
probe:
	for i := 0; i < origSize; i++ {
		l := solverutil.DecodeLit(e.db.Arena.Lits(c)[i])
		switch e.value(l) {
		case lTrue:
			if e.level[l.Var()] == 0 {
				satisfiedAtRoot = true
			} else {
				out = append(out, l)
			}
			break probe
		case lFalse:
			continue
		}
		out = append(out, l)
		if i == origSize-1 {
			break
		}
		e.trailAt = append(e.trailAt, len(e.trail))
		e.uncheckedEnqueue(l.Neg(), noReason)
		if e.propagate().isConflict() {
			break
		}
	}
	e.cancelUntil(0)
	e.vivBuf = out
	if satisfiedAtRoot {
		e.db.Arena.Free(c)
		return solverutil.CRefUndef, true
	}
	if len(out) == origSize {
		e.db.Attach(c)
		return c, true
	}
	e.stats.VivifiedLits += int64(origSize - len(out))
	switch len(out) {
	case 0:
		e.db.Arena.Free(c)
		return solverutil.CRefUndef, false
	case 1:
		e.db.Arena.Free(c)
		if !e.enqueue(out[0], noReason) || !e.propagateToFixpoint() {
			return solverutil.CRefUndef, false
		}
		return solverutil.CRefUndef, true
	case 2:
		e.db.AttachBinary(out[0], out[1])
		if !learnt {
			e.nBin++
		}
		e.db.Arena.Free(c)
		return solverutil.CRefUndef, true
	default:
		lbd := e.db.Arena.LBD(c)
		act := e.db.Arena.Activity(c)
		nc := e.db.Arena.Alloc(out, learnt)
		if learnt {
			if lbd > len(out)-1 {
				lbd = len(out) - 1
			}
			e.db.Arena.SetLBD(nc, lbd)
			e.db.Arena.SetActivity(nc, act)
		}
		e.db.Arena.Free(c)
		e.db.Attach(nc)
		return nc, true
	}
}
