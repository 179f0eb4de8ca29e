package solverutil

import "repro/internal/cnf"

// LBDCounter counts distinct decision levels (Audemard & Simon's
// literal-blocks distance) with a generation-stamped scratch array, so
// repeated counts need no clearing. The CDCL engine embeds one.
type LBDCounter struct {
	stamp []int64 // per decision level
	gen   int64
}

// Count returns the LBD of the encoded literals (floored at 1; level-0
// literals are not counted). level is indexed by variable.
func (c *LBDCounter) Count(lits []uint32, level []int) int {
	c.gen++
	n := 0
	for _, u := range lits {
		n += c.mark(level[u>>1])
	}
	if n == 0 {
		n = 1
	}
	return n
}

// CountLits is Count for decoded literals.
func (c *LBDCounter) CountLits(lits []cnf.Lit, level []int) int {
	c.gen++
	n := 0
	for _, l := range lits {
		n += c.mark(level[l.Var()])
	}
	if n == 0 {
		n = 1
	}
	return n
}

func (c *LBDCounter) mark(lv int) int {
	// Empty assumption levels can push decision levels past the variable
	// count, the stamp array's natural size; grow on demand.
	for lv >= len(c.stamp) {
		c.stamp = append(c.stamp, 0)
	}
	if lv > 0 && c.stamp[lv] != c.gen {
		c.stamp[lv] = c.gen
		return 1
	}
	return 0
}
