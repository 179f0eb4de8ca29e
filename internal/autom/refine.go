package autom

import (
	"cmp"
	"slices"
)

// partition is an ordered partition of vertices into consecutive cells of
// the elems array. The left (canonical-path) partition and the deviation
// partitions share cell boundary positions by construction: refinement on
// the deviation side replays the recorded trace of the left side and fails
// on any structural mismatch.
type partition struct {
	elems []int // permutation of 0..n-1
	pos   []int // pos[v] = index of v in elems
	cbeg  []int // cbeg[i] = start index of the cell containing position i
	clen  []int // clen[s] = length of the cell starting at s (valid at starts)
}

// newPartition builds the unit partition split by vertex colors: one cell
// per color class, cells ordered by color value.
func newPartition(colors []int) *partition {
	n := len(colors)
	p := &partition{
		elems: make([]int, n),
		pos:   make([]int, n),
		cbeg:  make([]int, n),
		clen:  make([]int, n),
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(colors[a], colors[b]) })
	copy(p.elems, order)
	for i, v := range p.elems {
		p.pos[v] = i
	}
	start := 0
	for i := 0; i <= n; i++ {
		if i == n || (i > 0 && colors[p.elems[i]] != colors[p.elems[i-1]]) {
			for j := start; j < i; j++ {
				p.cbeg[j] = start
			}
			p.clen[start] = i - start
			start = i
		}
	}
	return p
}

func (p *partition) n() int { return len(p.elems) }

func (p *partition) copy() *partition {
	q := &partition{}
	p.copyInto(q)
	return q
}

// copyInto overwrites q with p, reusing q's arrays.
func (p *partition) copyInto(q *partition) {
	q.elems = append(q.elems[:0], p.elems...)
	q.pos = append(q.pos[:0], p.pos...)
	q.cbeg = append(q.cbeg[:0], p.cbeg...)
	q.clen = append(q.clen[:0], p.clen...)
}

// discrete reports whether all cells are singletons.
func (p *partition) discrete() bool {
	for i := 0; i < p.n(); i++ {
		if p.cbeg[i] == i && p.clen[i] != 1 {
			return false
		}
	}
	return true
}

// firstNonSingleton returns the start of the first cell with length > 1, or
// -1 when the partition is discrete.
func (p *partition) firstNonSingleton() int {
	i := 0
	for i < p.n() {
		if p.clen[i] > 1 {
			return i
		}
		i += p.clen[i]
	}
	return -1
}

// individualize moves vertex v to the front of its cell and splits off a
// singleton. The cell must contain v and have length > 1.
func (p *partition) individualize(v int) {
	s := p.cbeg[p.pos[v]]
	l := p.clen[s]
	if l < 2 {
		panic("autom: individualize on singleton cell")
	}
	// Swap v to position s.
	pv := p.pos[v]
	other := p.elems[s]
	p.elems[s], p.elems[pv] = v, other
	p.pos[v], p.pos[other] = s, pv
	// Split: [s,1] and [s+1, l-1].
	p.clen[s] = 1
	p.clen[s+1] = l - 1
	p.cbeg[s] = s
	for i := s + 1; i < s+l; i++ {
		p.cbeg[i] = s + 1
	}
}

// splitPart describes one degree-group of a split cell.
type splitPart struct {
	deg  int
	size int
}

// trace is the refinement transcript of the left path at one level: for
// each splitter, the cells it touched (by start position, ascending) and
// each cell's ordered (degree, size) groups, stored flat. The cells of
// ops[i] are cells[ops[i-1].end:ops[i].end] (from 0 for i = 0), and the
// groups of cells[j] likewise run to cells[j].end in parts.
type trace struct {
	ops   []splitOp
	cells []cellSplit
	parts []splitPart
}

type splitOp struct{ splitter, end int }

// cellSplit is one touched cell: its start and size before the split.
type cellSplit struct{ start, size, end int }

// refiner holds refinement's buffers, sized to the graph and reused by
// every refinement of one search.
type refiner struct {
	cnt     []int       // per vertex: neighbours in the current splitter; zero between splitters
	seen    []bool      // per position: the cell starting there is in cells
	pending []bool      // per position: the cell starting there is on work
	work    []int       // the worklist: starts of the cells still to split with
	cells   []int       // starts of the cells the current splitter touches
	rest    []int       // members with a nonzero count of the cell being split
	parts   []splitPart // groups of the cell just split
}

func newRefiner(n int) *refiner {
	return &refiner{cnt: make([]int, n), seen: make([]bool, n), pending: make([]bool, n)}
}

// push puts the cell starting at s on the worklist.
func (rf *refiner) push(s int) {
	rf.pending[s] = true
	rf.work = append(rf.work, s)
}

// refineRoot refines p, the partition by vertex colors, to its coarsest
// equitable refinement, with every cell as a splitter.
func refineRoot(g *Graph, p *partition, rf *refiner, stop func() bool) {
	for i := 0; i < p.n(); i += p.clen[i] {
		rf.push(i)
	}
	refineRecord(g, p, rf, nil, stop)
}

// refineIndividualized individualizes v in the equitable partition p and
// refines, recording into tr unless tr is nil. It pushes only the new
// singleton, since p was equitable with respect to v's whole cell.
func refineIndividualized(g *Graph, p *partition, v int, rf *refiner, tr *trace, stop func() bool) {
	t := p.cbeg[p.pos[v]]
	p.individualize(v)
	rf.push(t)
	refineRecord(g, p, rf, tr, stop)
}

// refineRecord runs equitable refinement to fixpoint from the cells on
// rf's worklist, recording the transcript into tr unless tr is nil.
// pushParts bounds it by O(m log n). stop, when non-nil, is polled once
// per worklist iteration so a cancelled search aborts mid-refinement
// instead of waiting for the fixpoint; on stop the transcript is
// truncated and the caller must discard the partition.
func refineRecord(g *Graph, p *partition, rf *refiner, tr *trace, stop func() bool) {
	cnt := rf.cnt
	for len(rf.work) > 0 {
		if stop != nil && stop() {
			for _, s := range rf.work {
				rf.pending[s] = false
			}
			rf.work = rf.work[:0]
			return
		}
		s := rf.work[len(rf.work)-1]
		rf.work = rf.work[:len(rf.work)-1]
		rf.pending[s] = false // splits keep their first part's start, so s is a cell start
		rf.cells = rf.cells[:0]
		send := s + p.clen[s]
		for i := s; i < send; i++ {
			for _, w := range g.adj[p.elems[i]] {
				if cnt[w] == 0 {
					if cs := p.cbeg[p.pos[w]]; !rf.seen[cs] {
						rf.seen[cs] = true
						rf.cells = append(rf.cells, cs)
					}
				}
				cnt[w]++
			}
		}
		// Split the touched cells in ascending order of start. Splitting
		// one cell moves no boundary of another, so every start stays valid.
		slices.Sort(rf.cells)
		for _, cs := range rf.cells {
			rf.seen[cs] = false
			size := p.clen[cs]
			rf.parts = rf.splitCell(p, cs, rf.parts[:0])
			if tr != nil {
				tr.parts = append(tr.parts, rf.parts...)
				tr.cells = append(tr.cells, cellSplit{start: cs, size: size, end: len(tr.parts)})
			}
			if len(rf.parts) > 1 {
				rf.pushParts(cs)
			}
		}
		rf.resetCounts(g, p, s, send)
		if tr != nil {
			tr.ops = append(tr.ops, splitOp{splitter: s, end: len(tr.cells)})
		}
	}
}

// pushParts pushes the parts of the cell just split at cs by Hopcroft's
// rule (McKay and Piperno, "Practical graph isomorphism, II", 2014): all
// but the first part of a pending cell, whose start stays pending, and
// otherwise all but the first largest part, whose counts follow from the
// others' because the partition is equitable with respect to the cell.
func (rf *refiner) pushParts(cs int) {
	skip, largest := cs, 0
	for i, ns := 0, cs; !rf.pending[cs] && i < len(rf.parts); ns, i = ns+rf.parts[i].size, i+1 {
		if rf.parts[i].size > largest {
			skip, largest = ns, rf.parts[i].size
		}
	}
	for i, ns := 0, cs; i < len(rf.parts); ns, i = ns+rf.parts[i].size, i+1 {
		if ns != skip {
			rf.push(ns)
		}
	}
}

// resetCounts zeroes the counts the splitter at positions [s, send) set.
func (rf *refiner) resetCounts(g *Graph, p *partition, s, send int) {
	for i := s; i < send; i++ {
		for _, w := range g.adj[p.elems[i]] {
			rf.cnt[w] = 0
		}
	}
}

// splitCell reorders the cell starting at cs stably by ascending count,
// installs the sub-cell boundaries and appends the ordered (count, size)
// groups to parts. A cell whose members share one count stays as it is.
// Otherwise the zero-count members, which a stable sort puts first in
// their current order, are compacted in place, and only the rest is
// sorted.
func (rf *refiner) splitCell(p *partition, cs int, parts []splitPart) []splitPart {
	cnt := rf.cnt
	l := p.clen[cs]
	members := p.elems[cs : cs+l]
	c0 := cnt[members[0]]
	uniform := true
	for _, v := range members[1:] {
		if cnt[v] != c0 {
			uniform = false
			break
		}
	}
	if uniform {
		return append(parts, splitPart{deg: c0, size: l})
	}
	z := 0
	rest := rf.rest[:0]
	for _, v := range members {
		if cnt[v] == 0 {
			members[z] = v
			z++
		} else {
			rest = append(rest, v)
		}
	}
	slices.SortStableFunc(rest, func(a, b int) int { return cmp.Compare(cnt[a], cnt[b]) })
	copy(members[z:], rest)
	rf.rest = rest
	start := cs
	for i := 0; i <= l; i++ {
		if i == l || (i > 0 && cnt[members[i]] != cnt[members[i-1]]) {
			sz := cs + i - start
			parts = append(parts, splitPart{deg: cnt[members[i-1]], size: sz})
			p.clen[start] = sz
			for j := start; j < cs+i; j++ {
				p.cbeg[j] = start
			}
			start = cs + i
		}
	}
	for i, v := range members {
		p.pos[v] = cs + i
	}
	return parts
}

// refineReplay replays a recorded transcript on a deviation partition,
// verifying that every split matches the left side structurally. Returns
// false on mismatch (no automorphism can extend this branch). stop, when
// non-nil, is polled once per op so cancellation is observed inside long
// replays; a stopped replay reports a mismatch, which is always sound
// (the branch is merely not pursued).
func refineReplay(g *Graph, p *partition, tr *trace, rf *refiner, stop func() bool) bool {
	cnt := rf.cnt
	cellFrom, partFrom := 0, 0
	for _, op := range tr.ops {
		if stop != nil && stop() {
			return false
		}
		s := op.splitter
		if p.cbeg[s] != s {
			return false
		}
		send := s + p.clen[s]
		for i := s; i < send; i++ {
			for _, w := range g.adj[p.elems[i]] {
				cnt[w]++
			}
		}
		cells := tr.cells[cellFrom:op.end]
		cellFrom = op.end
		ok := true
		// The touched cells must be exactly those recorded, with identical
		// group structure.
		for _, c := range cells {
			recorded := tr.parts[partFrom:c.end]
			partFrom = c.end
			if p.cbeg[c.start] != c.start {
				ok = false
				break
			}
			rf.parts = rf.splitCell(p, c.start, rf.parts[:0])
			if !slices.Equal(rf.parts, recorded) {
				ok = false
				break
			}
		}
		if ok {
			// Any touched cell not in the recorded set is a mismatch.
			for i := s; i < send && ok; i++ {
				for _, w := range g.adj[p.elems[i]] {
					// After splitting, members moved into sub-cells whose
					// origin was recorded: a neighbour's cell must lie
					// inside one of the recorded ranges.
					if cnt[w] > 0 && !startCovered(cells, p.cbeg[p.pos[w]]) {
						ok = false
						break
					}
				}
			}
		}
		rf.resetCounts(g, p, s, send)
		if !ok {
			return false
		}
	}
	return true
}

// startCovered reports whether position cs falls inside any recorded cell
// range [start, start+size).
func startCovered(cells []cellSplit, cs int) bool {
	for _, c := range cells {
		if cs >= c.start && cs < c.start+c.size {
			return true
		}
	}
	return false
}
