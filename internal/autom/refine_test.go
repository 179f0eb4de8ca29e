package autom

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
)

// refineReference is the oracle for refineRecord: equitable refinement
// from every cell of p as a splitter, where every part of every split cell
// goes back on the worklist. It shares only splitCell with the searches,
// and checkRefinement checks splitCell's output for equitability.
func refineReference(g *Graph, p *partition, rf *refiner) {
	work := []int{}
	for i := 0; i < p.n(); i += p.clen[i] {
		work = append(work, i)
	}
	cnt := rf.cnt
	for len(work) > 0 {
		s := work[len(work)-1]
		work = work[:len(work)-1]
		if p.cbeg[s] != s {
			continue
		}
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
		slices.Sort(rf.cells)
		for _, cs := range rf.cells {
			rf.seen[cs] = false
			rf.parts = rf.splitCell(p, cs, rf.parts[:0])
			if len(rf.parts) > 1 {
				ns := cs
				for _, pt := range rf.parts {
					work = append(work, ns)
					ns += pt.size
				}
			}
		}
		rf.resetCounts(g, p, s, send)
	}
}

// checkRefinement runs the searches' root refinement on g, then
// individualizes the first and the last member of the first non-singleton
// cell and refines again, as both searches do. Every result must be a
// well-formed partition with the reference's cells, as sets, and
// equitable; a recorded individualization must replay onto the identical
// ordered partition; and the refiner's scratch must be clean afterwards.
func checkRefinement(g *Graph) error {
	g.freeze()
	rf := newRefiner(g.n)
	p := newPartition(g.colors)
	refineRoot(g, p, rf, nil)
	ref := newPartition(g.colors)
	refineReference(g, ref, newRefiner(g.n))
	if err := sameCells(g, p, ref, rf); err != nil {
		return fmt.Errorf("root refinement: %v", err)
	}
	t := p.firstNonSingleton()
	if t < 0 {
		return nil
	}
	for _, v := range []int{p.elems[t], p.elems[t+p.clen[t]-1]} {
		q, tr := p.copy(), &trace{}
		refineIndividualized(g, q, v, rf, tr, nil)
		r := p.copy()
		r.individualize(v)
		refineReference(g, r, newRefiner(g.n))
		if err := sameCells(g, q, r, rf); err != nil {
			return fmt.Errorf("individualized %d: %v", v, err)
		}
		rp := p.copy()
		rp.individualize(v)
		if !refineReplay(g, rp, tr, rf, nil) || !slices.Equal(rp.elems, q.elems) {
			return fmt.Errorf("individualized %d: the replay of its own transcript disagrees", v)
		}
	}
	return nil
}

// CheckRefinement exposes checkRefinement to the package's external
// tests, which build symmetry graphs with symgraph.
var CheckRefinement = checkRefinement

// sameCells reports an error unless p is well formed, has q's cells as
// sets, is equitable, and rf's scratch is all zero.
func sameCells(g *Graph, p, q *partition, rf *refiner) error {
	if err := p.check(); err != nil {
		return err
	}
	if a, b := p.cellIDs(), q.cellIDs(); !slices.Equal(a, b) {
		return fmt.Errorf("cells %v, reference %v", p.cells(), q.cells())
	}
	if len(rf.work) != 0 {
		return fmt.Errorf("worklist not empty: %v", rf.work)
	}
	for v := range rf.cnt {
		if rf.cnt[v] != 0 || rf.seen[v] || rf.pending[v] {
			return fmt.Errorf("refiner scratch not reset at %d", v)
		}
	}
	return equitable(g, p)
}

// check verifies that elems, pos, cbeg and clen describe one partition.
func (p *partition) check() error {
	for i, v := range p.elems {
		if p.pos[v] != i {
			return fmt.Errorf("pos[%d] = %d, want %d", v, p.pos[v], i)
		}
	}
	for s := 0; s < p.n(); s += p.clen[s] {
		if p.clen[s] < 1 || s+p.clen[s] > p.n() {
			return fmt.Errorf("cell at %d has length %d", s, p.clen[s])
		}
		for i := s; i < s+p.clen[s]; i++ {
			if p.cbeg[i] != s {
				return fmt.Errorf("cbeg[%d] = %d, want %d", i, p.cbeg[i], s)
			}
		}
	}
	return nil
}

// cellIDs names each vertex's cell by its smallest member, which makes
// two partitions with the same cells as sets compare equal.
func (p *partition) cellIDs() []int {
	id := make([]int, p.n())
	for s := 0; s < p.n(); s += p.clen[s] {
		m := slices.Min(p.elems[s : s+p.clen[s]])
		for _, v := range p.elems[s : s+p.clen[s]] {
			id[v] = m
		}
	}
	return id
}

// cells lists the cells in order, each sorted, for error messages.
func (p *partition) cells() [][]int {
	var out [][]int
	for s := 0; s < p.n(); s += p.clen[s] {
		c := slices.Clone(p.elems[s : s+p.clen[s]])
		slices.Sort(c)
		out = append(out, c)
	}
	return out
}

// equitable reports an error unless every member of each cell has the
// same number of neighbours in every cell.
func equitable(g *Graph, p *partition) error {
	cnt := make([]int, g.n)
	for x := 0; x < p.n(); x += p.clen[x] {
		for _, u := range p.elems[x : x+p.clen[x]] {
			for _, w := range g.adj[u] {
				cnt[w]++
			}
		}
		for y := 0; y < p.n(); y += p.clen[y] {
			for _, v := range p.elems[y+1 : y+p.clen[y]] {
				if cnt[v] != cnt[p.elems[y]] {
					return fmt.Errorf("cell at %d: vertices %d and %d have %d and %d neighbours in the cell at %d",
						y, p.elems[y], v, cnt[p.elems[y]], cnt[v], x)
				}
			}
		}
		clear(cnt)
	}
	return nil
}

// TestRefineMatchesReference checks the searches' refinement against the
// reference on random colored graphs of several sizes and densities.
func TestRefineMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, density := range []float64{0.05, 0.15, 0.5, 0.85} {
		for colors := 1; colors <= 3; colors++ {
			for iter := 0; iter < 20; iter++ {
				n := 1 + rng.Intn(60)
				g := randomGraph(rng, n, density)
				for v := 0; v < n; v++ {
					g.SetColor(v, rng.Intn(colors))
				}
				if err := checkRefinement(g); err != nil {
					t.Fatalf("n=%d density=%.2f colors=%d: %v", n, density, colors, err)
				}
			}
		}
	}
	// Regular and vertex-transitive graphs, where refinement splits
	// nothing until a vertex is individualized.
	for _, g := range []*Graph{cycleGraph(12), petersenGraph(), completeBipartite(6),
		completeGraph(9), circulantGraph(13, 1, 5), queenGraph(5, 5), NewGraph(7)} {
		if err := checkRefinement(g); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRefineMatchesReferenceTable1 runs the same check on the 20 graphs
// of the paper's Table 1.
func TestRefineMatchesReferenceTable1(t *testing.T) {
	for _, info := range graph.BenchmarkTable {
		g, err := graph.Benchmark(info.Name)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkRefinement(FromAdjacency(g.Adjacency())); err != nil {
			t.Errorf("%s: %v", info.Name, err)
		}
	}
}

// coloredGraphFromFuzz decodes fuzz input into a colored graph: byte 0
// picks the vertex count (1–40), byte 1 the number of colors (1–3), the
// next n*(n-1)/2 bits (MSB first) the edges and the bytes after them one
// color per vertex. Missing bytes read as zero.
func coloredGraphFromFuzz(data []byte) *Graph {
	at := func(i int) byte {
		if i < len(data) {
			return data[i]
		}
		return 0
	}
	n := 1 + int(at(0)%40)
	colors := 1 + int(at(1)%3)
	g := NewGraph(n)
	bit := 0
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			if at(2+bit/8)&(1<<(7-bit%8)) != 0 {
				g.AddEdge(a, b)
			}
			bit++
		}
	}
	off := 2 + (bit+7)/8
	for v := 0; v < n; v++ {
		g.SetColor(v, int(at(off+v))%colors)
	}
	return g
}

// FuzzRefine checks the searches' refinement against the reference on
// arbitrary colored graphs of up to 40 vertices.
func FuzzRefine(f *testing.F) {
	f.Add([]byte{9, 0, 0xA5, 0x5A, 0x3C, 0xC3, 0x0F, 0xF0})
	f.Add([]byte{5, 1, 0xFF, 0x00, 0xFF})
	f.Add([]byte{39, 2, 0x12, 0x34, 0x56, 0x78, 0x9A, 0xBC, 0xDE, 0xF0, 0x11, 0x22, 0x33, 0x44})
	f.Add([]byte{0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := checkRefinement(coloredGraphFromFuzz(data)); err != nil {
			t.Fatal(err)
		}
	})
}
