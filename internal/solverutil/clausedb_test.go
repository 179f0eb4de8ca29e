package solverutil

import (
	"slices"
	"testing"

	"repro/internal/cnf"
)

func newDB(t *testing.T, nVars int) *ClauseDB {
	t.Helper()
	db := &ClauseDB{}
	db.Init()
	db.GrowVars(nVars)
	return db
}

// watcherFor reports whether literal l's falsification watch list contains
// clause c, and returns the blocker it carries.
func watcherFor(db *ClauseDB, l cnf.Lit, c CRef) (uint32, bool) {
	for _, w := range db.Watches[EncodeLit(l)^1] {
		if w.CRef == c {
			return w.Blocker, true
		}
	}
	return 0, false
}

func TestAttachInstallsBothWatchersWithBlockers(t *testing.T) {
	db := newDB(t, 4)
	c := db.Arena.Alloc(lits(1, -2, 3), false)
	db.Clauses = append(db.Clauses, c)
	db.Attach(c)

	b0, ok0 := watcherFor(db, cnf.PosLit(1), c)
	b1, ok1 := watcherFor(db, cnf.NegLit(2), c)
	if !ok0 || !ok1 {
		t.Fatal("Attach did not install watchers on the first two literals")
	}
	// Each watcher's blocker is the other watched literal.
	if b0 != EncodeLit(cnf.NegLit(2)) || b1 != EncodeLit(cnf.PosLit(1)) {
		t.Fatalf("blockers are %d and %d, want the opposite watched literals", b0, b1)
	}
	if _, ok := watcherFor(db, cnf.PosLit(3), c); ok {
		t.Fatal("third literal must not be watched")
	}
}

func TestDetachRemovesExactlyOwnWatchers(t *testing.T) {
	db := newDB(t, 4)
	c1 := db.Arena.Alloc(lits(1, 2, 3), false)
	c2 := db.Arena.Alloc(lits(1, 2, 4), false)
	db.Attach(c1)
	db.Attach(c2)
	db.Detach(c1)
	if _, ok := watcherFor(db, cnf.PosLit(1), c1); ok {
		t.Fatal("c1 still watched after Detach")
	}
	if _, ok := watcherFor(db, cnf.PosLit(2), c1); ok {
		t.Fatal("c1 still watched after Detach")
	}
	if _, ok := watcherFor(db, cnf.PosLit(1), c2); !ok {
		t.Fatal("Detach(c1) also removed c2's watcher")
	}
	if _, ok := watcherFor(db, cnf.PosLit(2), c2); !ok {
		t.Fatal("Detach(c1) also removed c2's watcher")
	}
}

func TestAttachBinaryImpliesBothDirections(t *testing.T) {
	db := newDB(t, 2)
	a, b := cnf.PosLit(1), cnf.NegLit(2)
	db.AttachBinary(a, b)
	// Falsifying a must imply b and vice versa.
	if got := db.BinWatches[EncodeLit(a)^1]; len(got) != 1 || got[0] != EncodeLit(b) {
		t.Fatalf("BinWatches[¬a] = %v, want [enc(b)]", got)
	}
	if got := db.BinWatches[EncodeLit(b)^1]; len(got) != 1 || got[0] != EncodeLit(a) {
		t.Fatalf("BinWatches[¬b] = %v, want [enc(a)]", got)
	}
}

// TestReserveBinaryKeepsWatchLists: attaching binary clauses after
// ReserveBinary gives the same watch lists as attaching them without it,
// each reserved list stays within its own room (appending past it never
// writes into a neighbour's), and a clause over an untracked variable is
// skipped instead of indexing past the lists.
func TestReserveBinaryKeepsWatchLists(t *testing.T) {
	clauses := []cnf.Clause{
		{cnf.PosLit(1), cnf.NegLit(2)}, {cnf.NegLit(1), cnf.PosLit(3)},
		{cnf.PosLit(1), cnf.PosLit(3)}, {cnf.PosLit(2), cnf.PosLit(1), cnf.PosLit(3)},
		{cnf.PosLit(1), cnf.NegLit(2)}, {cnf.PosLit(3), cnf.PosLit(9)},
	}
	plain, reserved := newDB(t, 3), newDB(t, 3)
	reserved.ReserveBinary(clauses)
	for _, c := range clauses {
		if len(c) == 2 && c[1].Var() <= 3 {
			plain.AttachBinary(c[0], c[1])
			reserved.AttachBinary(c[0], c[1])
		}
	}
	// One more binary past the reservation, as a learnt clause would add.
	plain.AttachBinary(cnf.NegLit(2), cnf.NegLit(3))
	reserved.AttachBinary(cnf.NegLit(2), cnf.NegLit(3))
	for u := range plain.BinWatches {
		if !slices.Equal(plain.BinWatches[u], reserved.BinWatches[u]) {
			t.Fatalf("BinWatches[%d] = %v with reservation, %v without", u, reserved.BinWatches[u], plain.BinWatches[u])
		}
	}
}

// addLearnt allocates an attached learnt clause with the given LBD and
// activity over three fresh-ish variables.
func addLearnt(db *ClauseDB, vs []int, lbd int, act float32) CRef {
	c := db.Arena.Alloc(lits(vs...), true)
	db.Arena.SetLBD(c, lbd)
	db.Arena.SetActivity(c, act)
	db.Learnts = append(db.Learnts, c)
	db.Attach(c)
	return c
}

func TestReduceBelowThresholdIsNoop(t *testing.T) {
	db := newDB(t, 10)
	for i := 0; i < 19; i++ {
		addLearnt(db, []int{1 + i%8, 9, 10}, 5, 0)
	}
	if removed := db.Reduce(2, func(CRef) bool { return false }); removed != 0 {
		t.Fatalf("Reduce removed %d clauses below the 20-clause threshold", removed)
	}
}

// TestReduceOrderingAndProtection: reduction removes roughly half the
// learnts, worst-first (highest LBD, then lowest activity), and never
// touches glue or locked clauses.
func TestReduceOrderingAndProtection(t *testing.T) {
	db := newDB(t, 40)
	var glue, locked, badHighLBD, goodHighLBD CRef
	lockedSet := map[CRef]bool{}
	// 40 clauses: LBD ramps 3..12; two special high-LBD clauses at the
	// end differ only in activity.
	for i := 0; i < 38; i++ {
		c := addLearnt(db, []int{1 + i%20, 21 + i%10, 31 + i%8}, 3+i%10, float32(i))
		switch i {
		case 0:
			glue = addLearnt(db, []int{5, 6, 7}, 2, 0) // LBD ≤ glue: kept
		case 1:
			locked = c
			lockedSet[c] = true
		}
	}
	badHighLBD = addLearnt(db, []int{1, 2, 3}, 12, 0.0)
	goodHighLBD = addLearnt(db, []int{4, 5, 6}, 12, 1e6)
	_ = goodHighLBD

	all := append([]CRef{}, db.Learnts...)
	before := len(db.Learnts)
	removed := db.Reduce(2, func(c CRef) bool { return lockedSet[c] })
	if removed == 0 {
		t.Fatal("Reduce removed nothing on an over-full learnt DB")
	}
	if got := before - len(db.Learnts); got != removed {
		t.Fatalf("Reduce reported %d removals, list shrank by %d", removed, got)
	}
	stillHave := func(c CRef) bool {
		for _, l := range db.Learnts {
			if l == c {
				return true
			}
		}
		return false
	}
	if !stillHave(glue) {
		t.Fatal("Reduce deleted a glue clause (LBD ≤ cutoff)")
	}
	if !stillHave(locked) {
		t.Fatal("Reduce deleted a locked clause")
	}
	if db.Arena.Freed(glue) || db.Arena.Freed(locked) {
		t.Fatal("protected clause freed in the arena")
	}
	// The worst clause (max LBD, min activity) must be the first to go.
	if stillHave(badHighLBD) {
		t.Fatal("Reduce kept the worst clause (LBD 12, activity 0)")
	}
	// Ordering: every removed clause must sort no better (higher LBD,
	// then lower activity) than every kept clause that was eligible for
	// deletion (not glue, not locked).
	worseOrEqual := func(r, k CRef) bool {
		lr, lk := db.Arena.LBD(r), db.Arena.LBD(k)
		if lr != lk {
			return lr > lk
		}
		return db.Arena.Activity(r) <= db.Arena.Activity(k)
	}
	for _, c := range all {
		if stillHave(c) {
			continue
		}
		for _, k := range db.Learnts {
			if db.Arena.LBD(k) <= 2 || lockedSet[k] {
				continue
			}
			if !worseOrEqual(c, k) {
				t.Fatalf("removed clause (LBD %d, act %g) sorts better than kept (LBD %d, act %g)",
					db.Arena.LBD(c), db.Arena.Activity(c), db.Arena.LBD(k), db.Arena.Activity(k))
			}
		}
	}
	// Removed clauses must be detached from every watch list and freed.
	for _, ws := range db.Watches {
		for _, w := range ws {
			if db.Arena.Freed(w.CRef) {
				t.Fatal("a freed clause is still watched")
			}
		}
	}
}

// TestGCRemapsEverything frees clauses, compacts, and checks that clause
// registries, watchers, and engine-held reason references all point at
// identical literals afterwards.
func TestGCRemapsEverything(t *testing.T) {
	db := newDB(t, 30)
	var kept []CRef
	for i := 0; i < 20; i++ {
		c := db.Arena.Alloc(lits(1+i, 2+i, 3+i), i%2 == 1)
		db.Attach(c)
		if i%2 == 1 {
			db.Learnts = append(db.Learnts, c)
		} else {
			db.Clauses = append(db.Clauses, c)
		}
		kept = append(kept, c)
	}
	// Free every third clause (detaching first, as engines do).
	freed := map[CRef]bool{}
	for i, c := range kept {
		if i%3 == 0 {
			db.Detach(c)
			db.Arena.Free(c)
			freed[c] = true
		}
	}
	filter := func(cs []CRef) []CRef {
		out := cs[:0]
		for _, c := range cs {
			if !freed[c] {
				out = append(out, c)
			}
		}
		return out
	}
	db.Clauses = filter(db.Clauses)
	db.Learnts = filter(db.Learnts)

	// Record surviving clauses' literal payloads, and hold one as a
	// "reason" the way an engine would.
	want := map[string][]uint32{}
	snapshot := func(c CRef) string {
		return string(rune(db.Arena.Lits(c)[0])) + string(rune(db.Arena.Lits(c)[1])) + string(rune(db.Arena.Lits(c)[2]))
	}
	for _, c := range append(append([]CRef{}, db.Clauses...), db.Learnts...) {
		cp := append([]uint32(nil), db.Arena.Lits(c)...)
		want[snapshot(c)] = cp
	}
	reason := db.Learnts[0]
	reasonLits := append([]uint32(nil), db.Arena.Lits(reason)...)

	wastedBefore := db.Arena.Wasted()
	if wastedBefore == 0 {
		t.Fatal("test setup: nothing wasted before GC")
	}
	db.GC(func(reloc func(CRef) CRef) {
		reason = reloc(reason)
	})
	if db.Arena.Wasted() != 0 {
		t.Fatalf("Wasted = %d after GC, want 0", db.Arena.Wasted())
	}
	for _, c := range append(append([]CRef{}, db.Clauses...), db.Learnts...) {
		got := db.Arena.Lits(c)
		w, ok := want[snapshot(c)]
		if !ok {
			t.Fatalf("clause %d has unrecognized payload after GC", c)
		}
		for i := range got {
			if got[i] != w[i] {
				t.Fatalf("clause %d literals changed across GC", c)
			}
		}
	}
	for i, u := range db.Arena.Lits(reason) {
		if u != reasonLits[i] {
			t.Fatal("reason reference not remapped consistently")
		}
	}
	// Watchers must reference live clauses whose first two literals match
	// the watched positions.
	for _, ws := range db.Watches {
		for _, w := range ws {
			if db.Arena.Freed(w.CRef) {
				t.Fatal("watcher references a freed clause after GC")
			}
		}
	}
}

func TestNeedsGCThreshold(t *testing.T) {
	db := newDB(t, 10)
	var cs []CRef
	for i := 0; i < 8; i++ {
		cs = append(cs, db.Arena.Alloc(lits(1, 2, 3), false))
	}
	if db.NeedsGC() {
		t.Fatal("NeedsGC with nothing freed")
	}
	// Free 3 of 8 clauses: wasted = 3/8 > 1/4.
	for _, c := range cs[:3] {
		db.Arena.Free(c)
	}
	if !db.NeedsGC() {
		t.Fatalf("NeedsGC = false with %d/%d words wasted", db.Arena.Wasted(), db.Arena.Len())
	}
}
