package solverutil

import (
	"sort"

	"repro/internal/cnf"
)

// Default solver knobs (zero-valued options select these).
const (
	// DefaultGlueLBD is the LBD at or below which learnt clauses are never
	// deleted (Audemard & Simon 2009's "glue" clauses).
	DefaultGlueLBD = 2
	// DefaultReduceInterval is the conflict count between learnt-database
	// reductions.
	DefaultReduceInterval = 2000
)

// ClauseDB is the CDCL engine's clause-storage layer: the arena, the
// watcher lists for long clauses, the inline binary watch lists, and the
// problem/learnt clause registries. It owns attachment, detachment,
// LBD-based reduction, and arena compaction; the engine keeps only the
// assignment-dependent parts (value, reasons, locked detection).
type ClauseDB struct {
	Arena      Arena
	Watches    [][]Watcher // indexed by encoded literal (2 per var)
	BinWatches [][]uint32  // encoded implied literal per binary clause
	Clauses    []CRef      // problem clauses with ≥3 literals
	Learnts    []CRef      // learnt clauses with ≥3 literals
}

// Init installs the dummy watch slots for the unused variable 0.
func (db *ClauseDB) Init() {
	db.Watches = [][]Watcher{nil, nil}
	db.BinWatches = [][]uint32{nil, nil}
}

// GrowVars extends the watch lists for n newly tracked variables.
func (db *ClauseDB) GrowVars(n int) {
	db.Watches = append(db.Watches, make([][]Watcher, 2*n)...)
	db.BinWatches = append(db.BinWatches, make([][]uint32, 2*n)...)
}

// Attach installs the clause's two watchers, each carrying the other
// watched literal as blocker.
func (db *ClauseDB) Attach(c CRef) {
	lits := db.Arena.Lits(c)
	db.Watches[lits[0]^1] = append(db.Watches[lits[0]^1], Watcher{CRef: c, Blocker: lits[1]})
	db.Watches[lits[1]^1] = append(db.Watches[lits[1]^1], Watcher{CRef: c, Blocker: lits[0]})
}

// Detach removes the clause's watchers (swap-delete).
func (db *ClauseDB) Detach(c CRef) {
	lits := db.Arena.Lits(c)
	for _, u := range []uint32{lits[0], lits[1]} {
		ws := db.Watches[u^1]
		for i := range ws {
			if ws[i].CRef == c {
				ws[i] = ws[len(ws)-1]
				db.Watches[u^1] = ws[:len(ws)-1]
				break
			}
		}
	}
}

// ReserveBinary sizes each binary watch list for the binary clauses
// among clauses, so attaching them appends without growing: the lists are
// carved from one allocation. Clauses that lose literals or are dropped
// before they are attached leave their room unused, and clauses over
// variables the lists do not cover yet are skipped.
func (db *ClauseDB) ReserveBinary(clauses []cnf.Clause) {
	need := make([]int, len(db.BinWatches))
	total := 0
	for _, c := range clauses {
		if len(c) != 2 {
			continue
		}
		a, b := EncodeLit(c[0])^1, EncodeLit(c[1])^1
		if int(a) < len(need) && int(b) < len(need) {
			need[a]++
			need[b]++
			total += 2
		}
	}
	slab := make([]uint32, total)
	for u, k := range need {
		if k > 0 && len(db.BinWatches[u]) == 0 {
			db.BinWatches[u], slab = slab[:0:k], slab[k:]
		}
	}
}

// AttachBinary wires the binary clause (a ∨ b) into the inline binary
// watch lists: each side's falsification implies the other literal.
func (db *ClauseDB) AttachBinary(a, b cnf.Lit) {
	ea, eb := EncodeLit(a), EncodeLit(b)
	db.BinWatches[ea^1] = append(db.BinWatches[ea^1], eb)
	db.BinWatches[eb^1] = append(db.BinWatches[eb^1], ea)
}

// Reduce deletes roughly half of the long learnt clauses, worst (highest
// LBD, then lowest activity) first. Glue clauses (LBD ≤ glue) and clauses
// the engine reports locked (current reasons) are kept. Returns the number
// of clauses freed; the caller decides when to compact (see GC).
func (db *ClauseDB) Reduce(glue int, locked func(CRef) bool) int {
	if len(db.Learnts) < 20 {
		return 0
	}
	sort.Slice(db.Learnts, func(i, j int) bool {
		ci, cj := db.Learnts[i], db.Learnts[j]
		li, lj := db.Arena.LBD(ci), db.Arena.LBD(cj)
		if li != lj {
			return li > lj
		}
		return db.Arena.Activity(ci) < db.Arena.Activity(cj)
	})
	target := len(db.Learnts) / 2
	kept := db.Learnts[:0]
	removed := 0
	for _, c := range db.Learnts {
		if removed < target && db.Arena.LBD(c) > glue && !locked(c) {
			db.Detach(c)
			db.Arena.Free(c)
			removed++
			continue
		}
		kept = append(kept, c)
	}
	db.Learnts = kept
	return removed
}

// NeedsGC reports whether freed clauses waste more than a quarter of the
// arena, the compaction trigger.
func (db *ClauseDB) NeedsGC() bool {
	return db.Arena.Wasted()*4 > db.Arena.Len()
}

// GC compacts the arena, remapping the clause registries and every
// watcher. remapReasons is called with the relocation function so the
// engine can remap its reason references in the same pass.
func (db *ClauseDB) GC(remapReasons func(reloc func(CRef) CRef)) {
	to := db.Arena.BeginGC()
	reloc := func(c CRef) CRef { return db.Arena.Reloc(to, c) }
	for i, c := range db.Clauses {
		db.Clauses[i] = reloc(c)
	}
	for i, c := range db.Learnts {
		db.Learnts[i] = reloc(c)
	}
	for wl := range db.Watches {
		ws := db.Watches[wl]
		for i := range ws {
			ws[i].CRef = reloc(ws[i].CRef)
		}
	}
	remapReasons(reloc)
	db.Arena.FinishGC(to)
}
