package autom_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/autom"
	"repro/internal/encode"
	"repro/internal/graph"
	"repro/internal/symgraph"
	"repro/internal/testutil"
)

// The golden hashes below pin every output of both searches on real
// inputs: a change of split order, candidate order or pruning shows up as
// a different generator list, node count or canonical labeling, even when
// the group order is unchanged. Canonical bytes are also the service's
// persisted cache keys, so a CanonicalForm mismatch would orphan every
// stored record. On an intended change, regenerate the table from the
// messages this test prints and say why in the change log.

// hashAutomorphisms digests (generators, order, exact, nodes, base length).
func hashAutomorphisms(r *autom.Result) string {
	h := sha256.New()
	fmt.Fprintf(h, "%v|%s|%t|%d|%d", r.Generators, r.Order, r.Exact, r.Nodes, r.BaseLen)
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// hashCanonical digests (Bytes, Perm, Generators, Nodes, OrbitPrunes,
// PrefixPrunes).
func hashCanonical(c *autom.Canonical) string {
	h := sha256.New()
	fmt.Fprintf(h, "%x|%v|%v|%d|%d|%d", c.Bytes, c.Perm, c.Generators, c.Nodes, c.OrbitPrunes, c.PrefixPrunes)
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func benchGraph(t *testing.T, name string) *graph.Graph {
	t.Helper()
	g, err := graph.Benchmark(name)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// symmetryGraph is one row of the automorphism tables: the colored
// symmetry graph of a K=20 encoding.
type symmetryGraph struct {
	name string
	g    *autom.Graph
}

// symmetryGraphs builds the symmetry graphs of the named Table-1 graphs
// and of the planted graphs the end-to-end benchmark's solve and shatter
// workloads submit, at K=20 under no SBP and under NU+SC.
func symmetryGraphs(t *testing.T, names ...string) []symmetryGraph {
	t.Helper()
	var graphs []*graph.Graph
	for _, name := range names {
		graphs = append(graphs, benchGraph(t, name))
	}
	graphs = append(graphs, testutil.PlantedGraphs()...)
	var out []symmetryGraph
	for _, g := range graphs {
		for _, kind := range []encode.SBPKind{encode.SBPNone, encode.SBPNUSC} {
			out = append(out, symmetryGraph{
				name: fmt.Sprintf("%s/K=20/%v", g.Name(), kind),
				g:    symgraph.Build(encode.Build(g, 20, kind).F).G,
			})
		}
	}
	return out
}

// goldenNames are the Table-1 graphs of the automorphism tables.
var goldenNames = []string{"myciel3", "myciel4", "myciel5", "queen5_5", "jean", "anna"}

var goldenAutomorphisms = map[string]string{
	"myciel3/K=20/none":    "c5a274d6aed67dd7",
	"myciel3/K=20/NU+SC":   "0383c4665162d80f",
	"myciel4/K=20/none":    "89ceac4f75ffe357",
	"myciel4/K=20/NU+SC":   "b5549498bed7908f",
	"myciel5/K=20/none":    "9fc3bd656c25ccc0",
	"myciel5/K=20/NU+SC":   "00c71b0388398a05",
	"queen5_5/K=20/none":   "6145c094e63552e3",
	"queen5_5/K=20/NU+SC":  "df668417c81b079b",
	"jean/K=20/none":       "09b711b6b11bb738",
	"jean/K=20/NU+SC":      "08b30beedb0fe430",
	"anna/K=20/none":       "6ca1ad75b0d6ff53",
	"anna/K=20/NU+SC":      "9e93acaaccf9bcc9",
	"scenes/K=20/none":     "fdaa56c5c4086d14",
	"scenes/K=20/NU+SC":    "64a0817e67a9062c",
	"geometric/K=20/none":  "7a6bbbbc153cc0e1",
	"geometric/K=20/NU+SC": "e3cfc81b1c326e63",
	"planted/K=20/none":    "799caaac2579e004",
	"planted/K=20/NU+SC":   "9ef3daadd3f6a860",
	"interval/K=20/none":   "3a00f929c5675c0e",
	"interval/K=20/NU+SC":  "0c2a6ac55939cb91",
}

func TestFindAutomorphismsGolden(t *testing.T) {
	for _, r := range symmetryGraphs(t, goldenNames...) {
		got := hashAutomorphisms(autom.FindAutomorphisms(r.g, autom.Options{}))
		if want := goldenAutomorphisms[r.name]; got != want {
			t.Errorf("%s: hash %s, want %s\n\t%q: %q,", r.name, got, want, r.name, got)
		}
	}
}

// groupOrders pins the group order of every TestFindAutomorphismsGolden
// row, and that each search is exact. Unlike the hashes above it holds
// across any change of split order, candidate order or generating set:
// such a change must not alter the group a search finds, so this table is
// never regenerated.
var groupOrders = map[string]string{
	"myciel3/K=20/none":    "24329020081766400000",
	"myciel3/K=20/NU+SC":   "2",
	"myciel4/K=20/none":    "24329020081766400000",
	"myciel4/K=20/NU+SC":   "10",
	"myciel5/K=20/none":    "24329020081766400000",
	"myciel5/K=20/NU+SC":   "10",
	"queen5_5/K=20/none":   "19463216065413120000",
	"queen5_5/K=20/NU+SC":  "2",
	"jean/K=20/none":       "112108124536779571200000",
	"jean/K=20/NU+SC":      "46080",
	"anna/K=20/none":       "969582810193773270663168000000",
	"anna/K=20/NU+SC":      "398529331200",
	"scenes/K=20/none":     "14597412049059840000",
	"scenes/K=20/NU+SC":    "6",
	"geometric/K=20/none":  "116779296392478720000",
	"geometric/K=20/NU+SC": "48",
	"planted/K=20/none":    "2432902008176640000",
	"planted/K=20/NU+SC":   "1",
	"interval/K=20/none":   "9731608032706560000",
	"interval/K=20/NU+SC":  "4",
}

func TestFindAutomorphismsGroupOrder(t *testing.T) {
	for _, r := range symmetryGraphs(t, goldenNames...) {
		res := autom.FindAutomorphisms(r.g, autom.Options{})
		if got, want := res.Order.String(), groupOrders[r.name]; got != want || !res.Exact {
			t.Errorf("%s: order %s (exact %t), want %s (exact)", r.name, got, res.Exact, want)
		}
	}
}

// TestRefineMatchesReferenceSymmetryGraphs runs autom's refinement check
// (the reference cells, as sets, and equitability, at the root and after
// one individualization) on the symmetry graphs of formulas.
func TestRefineMatchesReferenceSymmetryGraphs(t *testing.T) {
	for _, r := range symmetryGraphs(t, "myciel3", "myciel4", "queen5_5") {
		if err := autom.CheckRefinement(r.g); err != nil {
			t.Errorf("%s: %v", r.name, err)
		}
	}
}

var goldenCanonical = map[string]string{
	"DSJC125.1": "aede793c37c184b6",
	"games120":  "e17bf406e026e228",
	"jean":      "b086e60908753547",
	"miles250":  "d3a471f834c0a4c2",
	"myciel3":   "0233f2bef4cabd2b",
	"myciel4":   "e957e9c15b4ad89a",
	"queen5_5":  "65ea6b38c4d866a8",
	"queen6_6":  "9c7faeb53f1b008e",
	"queen7_7":  "59a0b607fb353fe7",
	"C100":      "448bc7c7120721e1",
	"K12_12":    "2a8db078320aa87b",
}

func TestCanonicalFormGolden(t *testing.T) {
	toAutom := func(g *graph.Graph) *autom.Graph {
		a := autom.NewGraph(g.N())
		for _, e := range g.Edges() {
			a.AddEdge(e[0], e[1])
		}
		return a
	}
	type tc struct {
		name string
		g    *autom.Graph
	}
	var cases []tc
	for _, name := range []string{"DSJC125.1", "games120", "jean", "miles250", "myciel3",
		"myciel4", "queen5_5", "queen6_6", "queen7_7"} {
		cases = append(cases, tc{name, toAutom(benchGraph(t, name))})
	}
	k := autom.NewGraph(24)
	for u := 0; u < 12; u++ {
		for v := 12; v < 24; v++ {
			k.AddEdge(u, v)
		}
	}
	cases = append(cases, tc{"C100", toAutom(graph.Cycle(100))}, tc{"K12_12", k})
	for _, c := range cases {
		got := hashCanonical(autom.CanonicalForm(c.g, autom.CanonicalOptions{}))
		if want := goldenCanonical[c.name]; got != want {
			t.Errorf("%s: hash %s, want %s\n\t%q: %q,", c.name, got, want, c.name, got)
		}
	}
}
