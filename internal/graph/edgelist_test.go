package graph

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// FuzzEdgeList: on any input, EdgeList's decoder accepts exactly what
// encoding/json accepts into a [][2]int and yields the same pairs. The
// seeds cover the hand-parsed form and each kind of input it hands to
// encoding/json.
func FuzzEdgeList(f *testing.F) {
	for _, seed := range []string{
		`[[0,1],[1,2]]`,
		" \t\n\r[ [0 , 1] ,\n[2,3] ]\r\n ",
		`null`, ` null `, `[]`, `[ ]`, `[null]`, `[[]]`, `[[5]]`, `[[null,4]]`,
		`[[1,2,3]]`, `[[1,2,"x\"\\\/\b\f\n\r\té",{"a":[1,{"b":null}]},true,false,-1.5e+3,0.5E-2]]`,
		`[[-1,2]]`, `[[-0,0]]`, `[[9223372036854775807,-9223372036854775808]]`,
		`[[9223372036854775808,0]]`, `[[-9223372036854775809,0]]`, `[[99999999999999999999,0]]`,
		`[[1.0,2]]`, `[[1e2,2]]`, `[[01,2]]`, `[[-,2]]`, `[[1.,2]]`, `[[1,2,1.]]`, `[[1,2,01]]`,
		`[[0,1],]`, `[[0,1]`, `[[0,`, `[[0,1]]]`, `[[[0,1]]]`, `[[0,1]]x`, `[[0,1]] null`,
		`{"a":1}`, `"[[0,1]]"`, `[["0",1]]`, `[[true,1]]`, `[1,2]`, `[{}]`, ``, `nul`, `[nul]`,
		"[[0,1,\"\x01\"]]", `[[0,1,"\q"]]`, `[[0,1,"\u12"]]`, `[[0,1,"open]]`, `[[0,1,{"k"}]]`, `[[0,1,{1:2}]]`,
		`[[0,1,[]],[2,3,{}]]`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var want [][2]int
		werr := json.Unmarshal(data, &want)
		var got EdgeList
		gerr := got.UnmarshalJSON(data)
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("%q: encoding/json says %v, EdgeList says %v", data, werr, gerr)
		}
		if werr != nil {
			return
		}
		if (want == nil) != (got == nil) || !slices.Equal(want, got) {
			t.Fatalf("%q: encoding/json yields %v (nil %t), EdgeList %v (nil %t)", data, want, want == nil, got, got == nil)
		}
	})
}

// TestParseEdgesTakesCommonForm: lists of integer pairs are parsed by
// hand; every other form is left to encoding/json.
func TestParseEdgesTakesCommonForm(t *testing.T) {
	for in, want := range map[string]EdgeList{
		`[[0,1],[1,2]]`:                  {{0, 1}, {1, 2}},
		" [ [ 3 ,\t-4 ] ,\n[-0,0] ]\r\n": {{3, -4}, {0, 0}},
		`[]`:                             {},
		`[[9223372036854775807,-9223372036854775808]]`: {{9223372036854775807, -9223372036854775808}},
	} {
		if got, ok := parseEdges([]byte(in)); !ok || !slices.Equal(got, want) {
			t.Errorf("parseEdges(%q) = %v, %t; want %v", in, got, ok, want)
		}
	}
	for _, in := range []string{`null`, `[null]`, `[[1]]`, `[[1,2,3]]`, `[[1.0,2]]`, `[[1e2,2]]`,
		`[[01,2]]`, `[[9223372036854775808,0]]`, `[[0,1],]`, `[[0,1]]x`, `[["0",1]]`} {
		if got, ok := parseEdges([]byte(in)); ok {
			t.Errorf("parseEdges(%q) = %v, took a form it leaves to encoding/json", in, got)
		}
	}
}

// TestGraphConstructionMatchesMapReference: FromEdges and AddEdge both
// agree with a map-based reference on M, Edges, HasEdge, Degree and
// Neighbors, over random lists that repeat edges in both orientations and
// hold self-loops. FromEdges refuses a list with an out-of-range
// endpoint, naming the first such edge. AddEdge on a bulk-built graph
// grows one list without touching its neighbours in the slab.
func TestGraphConstructionMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20040324))
	for iter := 0; iter < 400; iter++ {
		n := rng.Intn(30)
		edges := make([][2]int, rng.Intn(2*n*n+1))
		for i := range edges {
			edges[i] = [2]int{rng.Intn(n), rng.Intn(n)}
		}
		if n > 0 && len(edges) > 0 && rng.Intn(4) == 0 {
			bad := rng.Intn(len(edges))
			edges[bad][rng.Intn(2)] = []int{-1, n, n + 7}[rng.Intn(3)]
			first := slices.IndexFunc(edges, func(e [2]int) bool {
				return e[0] < 0 || e[1] < 0 || e[0] >= n || e[1] >= n
			})
			_, err := FromEdges("bad", n, edges)
			want := fmt.Sprintf("edge (%d,%d) out of range [0,%d)", edges[first][0], edges[first][1], n)
			if err == nil || err.Error() != want {
				t.Fatalf("iter %d: FromEdges error %v, want %q", iter, err, want)
			}
			continue
		}

		ref := newMapGraph(n)
		inc := New("inc", n)
		for _, e := range edges {
			added := ref.add(e[0], e[1])
			if got := inc.AddEdge(e[0], e[1]); got != added {
				t.Fatalf("iter %d: AddEdge%v = %t, want %t", iter, e, got, added)
			}
		}
		bulk, err := FromEdges("bulk", n, edges)
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		for v := 0; v < n; v++ {
			if l := bulk.Neighbors(v); cap(l) != len(l) {
				t.Fatalf("iter %d: vertex %d's list has room for %d more in the slab", iter, v, cap(l)-len(l))
			}
		}
		for name, g := range map[string]*Graph{"AddEdge": inc, "FromEdges": bulk, "Clone": bulk.Clone()} {
			ref.check(t, fmt.Sprintf("iter %d %s", iter, name), g)
		}
		if n >= 2 {
			for k := 0; k < 5; k++ {
				a, b := rng.Intn(n), rng.Intn(n)
				if got, want := bulk.AddEdge(a, b), ref.add(a, b); got != want {
					t.Fatalf("iter %d: AddEdge(%d,%d) after FromEdges = %t, want %t", iter, a, b, got, want)
				}
			}
			ref.check(t, fmt.Sprintf("iter %d FromEdges+AddEdge", iter), bulk)
		}
	}
	if _, err := FromEdges("neg", -1, nil); err == nil {
		t.Fatal("FromEdges accepted a negative vertex count")
	}
}

// mapGraph is the reference: one set of neighbours per vertex.
type mapGraph []map[int]bool

func newMapGraph(n int) mapGraph {
	g := make(mapGraph, n)
	for v := range g {
		g[v] = map[int]bool{}
	}
	return g
}

func (r mapGraph) add(a, b int) bool {
	if a == b || r[a][b] {
		return false
	}
	r[a][b], r[b][a] = true, true
	return true
}

func (r mapGraph) check(t *testing.T, what string, g *Graph) {
	t.Helper()
	n := len(r)
	var edges [][2]int
	for a := 0; a < n; a++ {
		nb := make([]int32, 0, len(r[a]))
		for b := range r[a] {
			nb = append(nb, int32(b))
			if a < b {
				edges = append(edges, [2]int{a, b})
			}
		}
		slices.Sort(nb)
		if g.Degree(a) != len(r[a]) || !slices.Equal(g.Neighbors(a), nb) {
			t.Fatalf("%s: vertex %d has degree %d and neighbours %v, want %d and %v",
				what, a, g.Degree(a), g.Neighbors(a), len(r[a]), nb)
		}
	}
	slices.SortFunc(edges, func(x, y [2]int) int {
		if x[0] != y[0] {
			return x[0] - y[0]
		}
		return x[1] - y[1]
	})
	if g.N() != n || g.M() != len(edges) || !slices.Equal(g.Edges(), edges) {
		t.Fatalf("%s: N=%d M=%d Edges=%v, want N=%d M=%d Edges=%v", what, g.N(), g.M(), g.Edges(), n, len(edges), edges)
	}
	for a := -1; a <= n; a++ {
		for b := -1; b <= n; b++ {
			want := a >= 0 && a < n && b >= 0 && b < n && r[a][b]
			if g.HasEdge(a, b) != want {
				t.Fatalf("%s: HasEdge(%d,%d) = %t, want %t", what, a, b, !want, want)
			}
		}
	}
}
