package graph

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestAddEdgeBasics(t *testing.T) {
	g := New("t", 4)
	if !g.AddEdge(0, 1) {
		t.Fatal("first AddEdge should report true")
	}
	if g.AddEdge(1, 0) {
		t.Fatal("reversed duplicate should report false")
	}
	if g.AddEdge(2, 2) {
		t.Fatal("self loop should be ignored")
	}
	if g.M() != 1 {
		t.Fatalf("M = %d, want 1", g.M())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Fatal("HasEdge should be symmetric")
	}
	if g.HasEdge(0, 3) {
		t.Fatal("absent edge reported present")
	}
}

func TestDegreesAndNeighbors(t *testing.T) {
	g := New("t", 5)
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	g.AddEdge(0, 4)
	if g.Degree(0) != 3 || g.Degree(3) != 0 {
		t.Fatalf("degrees wrong: %d %d", g.Degree(0), g.Degree(3))
	}
	nb := g.Neighbors(0)
	want := []int32{1, 2, 4}
	if len(nb) != 3 || nb[0] != want[0] || nb[1] != want[1] || nb[2] != want[2] {
		t.Fatalf("Neighbors(0) = %v", nb)
	}
}

func TestMaxDegreeVertexAndNeighbor(t *testing.T) {
	g := New("t", 4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(1, 3)
	g.AddEdge(2, 3)
	if v := g.MaxDegreeVertex(); v != 1 {
		t.Fatalf("MaxDegreeVertex = %d, want 1", v)
	}
	// Neighbors of 1: 0 (deg 1), 2 (deg 2), 3 (deg 2) → 2 on tie-break.
	if u := g.MaxDegreeNeighbor(1); u != 2 {
		t.Fatalf("MaxDegreeNeighbor(1) = %d, want 2", u)
	}
	empty := New("e", 1)
	if empty.MaxDegreeNeighbor(0) != -1 {
		t.Fatal("isolated vertex should have no max-degree neighbor")
	}
}

func TestIsProperColoring(t *testing.T) {
	g := Cycle(4)
	if !g.IsProperColoring([]int{0, 1, 0, 1}) {
		t.Fatal("2-coloring of C4 should be proper")
	}
	if g.IsProperColoring([]int{0, 0, 1, 1}) {
		t.Fatal("adjacent same colors should fail")
	}
	if g.IsProperColoring([]int{0, 1}) {
		t.Fatal("wrong length should fail")
	}
}

func TestCliqueHelpers(t *testing.T) {
	g := Complete(4)
	if !g.IsClique([]int{0, 1, 2, 3}) {
		t.Fatal("K4 should be a clique")
	}
	g2 := Cycle(4)
	if g2.IsClique([]int{0, 1, 2}) {
		t.Fatal("path in C4 is not a clique")
	}
}

func TestQueensCounts(t *testing.T) {
	cases := []struct {
		rows, cols, wantV, wantE int
	}{
		{5, 5, 25, 160},
		{6, 6, 36, 290},
		{7, 7, 49, 476},
		{8, 12, 96, 1368},
	}
	for _, c := range cases {
		g := Queens(c.rows, c.cols)
		if g.N() != c.wantV || g.M() != c.wantE {
			t.Errorf("Queens(%d,%d): |V|=%d |E|=%d, want %d/%d",
				c.rows, c.cols, g.N(), g.M(), c.wantV, c.wantE)
		}
		if !g.IsClique(g.Clique) {
			t.Errorf("Queens(%d,%d): recorded clique is not a clique", c.rows, c.cols)
		}
		if len(g.Clique) != max(c.rows, c.cols) {
			t.Errorf("Queens(%d,%d): clique size %d, want %d",
				c.rows, c.cols, len(g.Clique), max(c.rows, c.cols))
		}
	}
}

func TestMycielskiCounts(t *testing.T) {
	cases := []struct {
		level, wantV, wantE, wantChi int
	}{
		{3, 11, 20, 4},
		{4, 23, 71, 5},
		{5, 47, 236, 6},
	}
	for _, c := range cases {
		g := Mycielski(c.level)
		if g.N() != c.wantV || g.M() != c.wantE || g.Chi != c.wantChi {
			t.Errorf("Mycielski(%d): V=%d E=%d chi=%d, want %d/%d/%d",
				c.level, g.N(), g.M(), g.Chi, c.wantV, c.wantE, c.wantChi)
		}
	}
}

func TestMycielskiIsTriangleFree(t *testing.T) {
	g := Mycielski(4)
	for _, e := range g.Edges() {
		for w := 0; w < g.N(); w++ {
			if g.HasEdge(e[0], w) && g.HasEdge(e[1], w) {
				t.Fatalf("triangle %d-%d-%d in Mycielski graph", e[0], e[1], w)
			}
		}
	}
}

func TestPartitePlantedCertificates(t *testing.T) {
	g := PartitePlanted("p", 40, 120, 6, 7)
	if g.N() != 40 || g.M() != 120 || g.Chi != 6 {
		t.Fatalf("bad stats: %v chi=%d", g, g.Chi)
	}
	if !g.IsClique(g.Clique) || len(g.Clique) != 6 {
		t.Fatal("planted clique invalid")
	}
	if !g.IsProperColoring(g.Parts) {
		t.Fatal("partition witness is not a proper coloring")
	}
	mx := 0
	for _, p := range g.Parts {
		if p > mx {
			mx = p
		}
	}
	if mx != 5 {
		t.Fatalf("partition uses %d classes, want 6", mx+1)
	}
}

func TestPartiteGeneratorsDeterministic(t *testing.T) {
	a := PartitePlanted("p", 30, 80, 5, 11)
	b := PartitePlanted("p", 30, 80, 5, 11)
	ea, eb := a.Edges(), b.Edges()
	if len(ea) != len(eb) {
		t.Fatal("nondeterministic edge count")
	}
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatalf("edge %d differs: %v vs %v", i, ea[i], eb[i])
		}
	}
}

func TestPartiteScenesAndGeometric(t *testing.T) {
	s := PartiteScenes("s", 50, 150, 7, 3)
	if s.M() != 150 || !s.IsClique(s.Clique) || !s.IsProperColoring(s.Parts) {
		t.Fatalf("scenes generator invalid: %v", s)
	}
	ge := PartiteGeometric("g", 50, 150, 7, 3)
	if ge.M() != 150 || !ge.IsClique(ge.Clique) || !ge.IsProperColoring(ge.Parts) {
		t.Fatalf("geometric generator invalid: %v", ge)
	}
}

func TestIntervalInterference(t *testing.T) {
	g, ivs := IntervalInterference("regs", 30, 5, 9)
	if g.N() != 30 || len(ivs) != 30 {
		t.Fatalf("bad sizes: %d vertices %d intervals", g.N(), len(ivs))
	}
	if !g.IsClique(g.Clique) || len(g.Clique) != 5 {
		t.Fatal("witness clique invalid")
	}
	// Edges must match interval overlaps exactly.
	for a := 0; a < g.N(); a++ {
		for b := a + 1; b < g.N(); b++ {
			overlap := ivs[a].Start < ivs[b].End && ivs[b].Start < ivs[a].End
			if overlap != g.HasEdge(a, b) {
				t.Fatalf("edge (%d,%d) = %v but overlap = %v", a, b, g.HasEdge(a, b), overlap)
			}
		}
	}
	// Max simultaneous overlap must be exactly Chi=5 (interval graphs are
	// perfect, so this pins the chromatic number).
	events := map[int]int{}
	for _, iv := range ivs {
		events[iv.Start]++
		events[iv.End]--
	}
	times := make([]int, 0, len(events))
	for t := range events {
		times = append(times, t)
	}
	// Sweep in time order.
	for i := 0; i < len(times); i++ {
		for j := i + 1; j < len(times); j++ {
			if times[j] < times[i] {
				times[i], times[j] = times[j], times[i]
			}
		}
	}
	cur, mx := 0, 0
	for _, tm := range times {
		cur += events[tm]
		if cur > mx {
			mx = cur
		}
	}
	if mx != 5 {
		t.Fatalf("max overlap = %d, want 5", mx)
	}
}

func TestBenchmarkRegistryStats(t *testing.T) {
	for _, info := range BenchmarkTable {
		g, err := Benchmark(info.Name)
		if err != nil {
			t.Fatalf("Benchmark(%s): %v", info.Name, err)
		}
		if g.N() != info.PaperV {
			t.Errorf("%s: |V|=%d, want %d", info.Name, g.N(), info.PaperV)
		}
		// Edge counts: paper numbers follow file conventions (some double).
		if g.M() != info.PaperE && 2*g.M() != info.PaperE {
			t.Errorf("%s: |E|=%d, neither matches paper %d nor half",
				info.Name, g.M(), info.PaperE)
		}
		if info.PaperChi > 0 && g.Chi != info.PaperChi {
			t.Errorf("%s: chi=%d, want %d", info.Name, g.Chi, info.PaperChi)
		}
		if info.PaperChi == 0 && g.Chi <= 20 {
			t.Errorf("%s: chi=%d, want >20", info.Name, g.Chi)
		}
		// Verify certificates where present.
		if len(g.Clique) > 0 && !g.IsClique(g.Clique) {
			t.Errorf("%s: invalid clique certificate", info.Name)
		}
		if len(g.Parts) > 0 && !g.IsProperColoring(g.Parts) {
			t.Errorf("%s: invalid partition certificate", info.Name)
		}
	}
}

func TestAllBenchmarksCount(t *testing.T) {
	gs, err := AllBenchmarks()
	if err != nil {
		t.Fatal(err)
	}
	if len(gs) != 20 {
		t.Fatalf("got %d benchmarks, want 20", len(gs))
	}
}

func TestQueensBenchmarksHaveKnownChi(t *testing.T) {
	want := map[string]int{"queen5_5": 5, "queen6_6": 7, "queen7_7": 7, "queen8_12": 12}
	for _, g := range QueensBenchmarks() {
		if g.Chi != want[g.Name()] {
			t.Errorf("%s chi = %d, want %d", g.Name(), g.Chi, want[g.Name()])
		}
	}
}

func TestUnknownBenchmark(t *testing.T) {
	if _, err := Benchmark("nope"); err == nil {
		t.Fatal("expected error for unknown benchmark")
	}
}

func TestDimacsRoundTrip(t *testing.T) {
	g := Queens(5, 5)
	var b strings.Builder
	if err := WriteDimacs(&b, g); err != nil {
		t.Fatal(err)
	}
	back, err := ParseDimacs("queen5_5", strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if back.N() != g.N() || back.M() != g.M() {
		t.Fatalf("round trip: %v vs %v", back, g)
	}
	ea, eb := g.Edges(), back.Edges()
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatalf("edge %d differs after round trip", i)
		}
	}
}

func TestParseDimacsErrors(t *testing.T) {
	cases := []string{
		"e 1 2\n",                  // edge before problem line
		"p edge 2 1\ne 1 5\n",      // endpoint out of range
		"p edge 2 1\np edge 2 1\n", // duplicate problem line
		"p graph 2 1\n",            // unsupported format
		"p edge -5 0\n",            // negative vertex count
		"x nonsense\n",             // unrecognized line
		"",                         // no problem line
	}
	for _, in := range cases {
		if _, err := ParseDimacs("bad", strings.NewReader(in)); err == nil {
			t.Errorf("ParseDimacs(%q) should fail", in)
		}
	}
}

// TestDimacsVertices: the declared count is read from the first problem
// line, past comments and surrounding blanks, without building the graph.
func TestDimacsVertices(t *testing.T) {
	for in, want := range map[string]int{
		"c big\n  p edge 20000000 0\r\ne 1 2\n": 20000000,
		"p col 7 3\n":                           7,
		"p edge -5 0\n":                         -5,
		"p edge many 0\n":                       0,
		"c no problem line\n":                   0,
		"":                                      0,
	} {
		if got := DimacsVertices(in); got != want {
			t.Errorf("DimacsVertices(%q) = %d, want %d", in, got, want)
		}
	}
}

func TestParseDimacsToleratesDuplicates(t *testing.T) {
	in := "c comment\np edge 3 4\ne 1 2\ne 2 1\ne 2 3\ne 2 3\n"
	g, err := ParseDimacs("dup", strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.M() != 2 {
		t.Fatalf("M = %d, want 2 unique edges", g.M())
	}
}

func TestClonePreservesEverything(t *testing.T) {
	g := PartitePlanted("p", 20, 40, 4, 1)
	c := g.Clone()
	if c.N() != g.N() || c.M() != g.M() || c.Chi != g.Chi {
		t.Fatal("clone stats differ")
	}
	c.AddEdge(0, 1) // may or may not be new, but must not affect g
	ea, eb := g.Edges(), PartitePlanted("p", 20, 40, 4, 1).Edges()
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatal("clone mutated original")
		}
	}
}

// Property: generated partite graphs never contain intra-part edges, which
// is the structural fact guaranteeing χ ≤ k.
func TestPartiteNoIntraPartEdgesProperty(t *testing.T) {
	f := func(seed int64) bool {
		g := PartitePlanted("p", 24, 60, 5, seed)
		for _, e := range g.Edges() {
			if g.Parts[e[0]] == g.Parts[e[1]] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
