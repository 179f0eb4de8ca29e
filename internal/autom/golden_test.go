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

// plantedGraphs are one graph of each planted-χ family at the sizes the
// end-to-end benchmark's solve and shatter workloads submit.
func plantedGraphs() []*graph.Graph {
	iv, _ := graph.IntervalInterference("interval", 40, 6, 4)
	return []*graph.Graph{
		graph.PartiteScenes("scenes", 40, 130, 6, 1),
		graph.PartiteGeometric("geometric", 50, 130, 6, 2),
		graph.PartitePlanted("planted", 50, 160, 6, 3),
		iv,
	}
}

var goldenAutomorphisms = map[string]string{
	"myciel3/K=20/none":    "c5a274d6aed67dd7",
	"myciel3/K=20/NU+SC":   "0383c4665162d80f",
	"myciel4/K=20/none":    "89ceac4f75ffe357",
	"myciel4/K=20/NU+SC":   "b5549498bed7908f",
	"myciel5/K=20/none":    "9fc3bd656c25ccc0",
	"myciel5/K=20/NU+SC":   "00c71b0388398a05",
	"queen5_5/K=20/none":   "6145c094e63552e3",
	"queen5_5/K=20/NU+SC":  "df668417c81b079b",
	"jean/K=20/none":       "0823b72b344ceeb9",
	"jean/K=20/NU+SC":      "0b39c71648c8822b",
	"anna/K=20/none":       "329afa419969a5b7",
	"anna/K=20/NU+SC":      "918dac7893cf52c3",
	"scenes/K=20/none":     "fdaa56c5c4086d14",
	"scenes/K=20/NU+SC":    "64a0817e67a9062c",
	"geometric/K=20/none":  "2ce1329723482ea0",
	"geometric/K=20/NU+SC": "aa56cbd06d95e645",
	"planted/K=20/none":    "799caaac2579e004",
	"planted/K=20/NU+SC":   "9ef3daadd3f6a860",
	"interval/K=20/none":   "3a00f929c5675c0e",
	"interval/K=20/NU+SC":  "97448f5af5d6f02a",
}

func TestFindAutomorphismsGolden(t *testing.T) {
	var graphs []*graph.Graph
	for _, name := range []string{"myciel3", "myciel4", "myciel5", "queen5_5", "jean", "anna"} {
		graphs = append(graphs, benchGraph(t, name))
	}
	graphs = append(graphs, plantedGraphs()...)
	for _, g := range graphs {
		for _, kind := range []encode.SBPKind{encode.SBPNone, encode.SBPNUSC} {
			name := fmt.Sprintf("%s/K=20/%v", g.Name(), kind)
			enc := symgraph.Build(encode.Build(g, 20, kind).F)
			got := hashAutomorphisms(autom.FindAutomorphisms(enc.G, autom.Options{}))
			if want := goldenAutomorphisms[name]; got != want {
				t.Errorf("%s: hash %s, want %s\n\t%q: %q,", name, got, want, name, got)
			}
		}
	}
}

var goldenCanonical = map[string]string{
	"DSJC125.1": "a563f0287b226086",
	"games120":  "b01dc853436f5204",
	"jean":      "d7be4663b249bfd5",
	"miles250":  "ba2e0bb80860e2c2",
	"myciel3":   "0d42f62e5186faed",
	"myciel4":   "b133928d1d04b426",
	"queen5_5":  "99ef2081882db090",
	"queen6_6":  "aff0bf75d3a36346",
	"queen7_7":  "328a1902944cce54",
	"C100":      "6397005cff2aa6fa",
	"K12_12":    "455ef94f3c7c6a78",
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
