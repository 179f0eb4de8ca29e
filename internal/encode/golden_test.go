package encode

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/graph"
	"repro/internal/pb"
	"repro/internal/testutil"
)

// hashFormula digests a whole formula in order: the variable count, every
// clause, every row with its bound, and the objective. Two builds hash
// alike only when the solvers and the symmetry graph would load the same
// literals in the same order.
func hashFormula(f *pb.Formula) string {
	h := sha256.New()
	fmt.Fprintf(h, "vars %d\n", f.NumVars)
	for _, c := range f.Clauses {
		fmt.Fprintf(h, "c %v\n", c)
	}
	for i := range f.Constraints {
		fmt.Fprintf(h, "r %v >= %d\n", f.Constraints[i].Terms, f.Constraints[i].Bound)
	}
	fmt.Fprintf(h, "o %v\n", f.Objective)
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// goldenBuild pins encode.Build's output at K=20 under every kind the
// service accepts. On an intended encoding change, regenerate the table
// from the messages this test prints and say why in the change log.
var goldenBuild = map[string]string{
	"myciel3/K=20/none":      "d21218cbd0863f74",
	"myciel3/K=20/NU":        "9046ce1503382e14",
	"myciel3/K=20/CA":        "1c05efe736ed216b",
	"myciel3/K=20/LI":        "bb4c19b576f0fbea",
	"myciel3/K=20/SC":        "15c81de84d20c64e",
	"myciel3/K=20/NU+SC":     "6ef655fa58da5c87",
	"myciel3/K=20/LI-quad":   "7a0d0f81ee312e0c",
	"myciel3/K=20/clique":    "b476e0940f709379",
	"myciel4/K=20/none":      "5dea405c2ff721aa",
	"myciel4/K=20/NU":        "6216d2311fe725c2",
	"myciel4/K=20/CA":        "91923070bebaeab6",
	"myciel4/K=20/LI":        "c1b086f32acb953c",
	"myciel4/K=20/SC":        "27938785bf0fb27a",
	"myciel4/K=20/NU+SC":     "660d803940f305e6",
	"myciel4/K=20/LI-quad":   "c7c225f5b6ab585e",
	"myciel4/K=20/clique":    "1bba9e335cc2e38f",
	"queen5_5/K=20/none":     "8e77c0381ca27b39",
	"queen5_5/K=20/NU":       "b964eb5c6d90dbbe",
	"queen5_5/K=20/CA":       "1175972beff66aea",
	"queen5_5/K=20/LI":       "56381a1a10b85648",
	"queen5_5/K=20/SC":       "1eb87bda01bf6e46",
	"queen5_5/K=20/NU+SC":    "8ef6fac774af0d4d",
	"queen5_5/K=20/LI-quad":  "b9ceebab1405ce2c",
	"queen5_5/K=20/clique":   "d6f98f63e76bd62c",
	"jean/K=20/none":         "2c63cacdc76b0a1b",
	"jean/K=20/NU":           "333a47b4fb12d8e0",
	"jean/K=20/CA":           "34f504338a61438b",
	"jean/K=20/LI":           "f1261ab4ea3d9cfd",
	"jean/K=20/SC":           "6e654a734362db02",
	"jean/K=20/NU+SC":        "eb3c392e5ac7f60c",
	"jean/K=20/LI-quad":      "d7b86fe1f92729a7",
	"jean/K=20/clique":       "eb56f0e28deff7b2",
	"scenes/K=20/none":       "21ee3e5d0eb96691",
	"scenes/K=20/NU":         "e95dd7e8038b1459",
	"scenes/K=20/CA":         "e8398428c44dc2a7",
	"scenes/K=20/LI":         "61c0132e3a0c982d",
	"scenes/K=20/SC":         "5b39c1a512baabd3",
	"scenes/K=20/NU+SC":      "1e745721a8fe2eb3",
	"scenes/K=20/LI-quad":    "0532ab08582e2313",
	"scenes/K=20/clique":     "d3b23d91d5ee4861",
	"geometric/K=20/none":    "5f2862e196d820de",
	"geometric/K=20/NU":      "7c612a21313bfbb3",
	"geometric/K=20/CA":      "4ebd912c356dd3d4",
	"geometric/K=20/LI":      "c2476332357fadf9",
	"geometric/K=20/SC":      "eeb41c3db7b1312d",
	"geometric/K=20/NU+SC":   "661f1b6555a47dba",
	"geometric/K=20/LI-quad": "e883d9e86dbc86c0",
	"geometric/K=20/clique":  "b44accf1643afc54",
	"planted/K=20/none":      "1a2627af899f85b0",
	"planted/K=20/NU":        "3f7f8e03ab560bf2",
	"planted/K=20/CA":        "fa430e1347f9daae",
	"planted/K=20/LI":        "e50afe29a877f6ce",
	"planted/K=20/SC":        "c2e0619e06c5e533",
	"planted/K=20/NU+SC":     "4440337abbb141dc",
	"planted/K=20/LI-quad":   "122f398acb2bbd7c",
	"planted/K=20/clique":    "cfc6773bf94933eb",
	"interval/K=20/none":     "eac9cc6e52d252a9",
	"interval/K=20/NU":       "43af66fe5e4f223a",
	"interval/K=20/CA":       "293d2e978253527f",
	"interval/K=20/LI":       "5deaa3d35e8fb4cf",
	"interval/K=20/SC":       "3f25f55a7ab8ad9d",
	"interval/K=20/NU+SC":    "89e93345d2378e94",
	"interval/K=20/LI-quad":  "85a4cc243ddb43ae",
	"interval/K=20/clique":   "865d2af7a793cc0e",
}

func TestBuildGolden(t *testing.T) {
	var graphs []*graph.Graph
	for _, name := range []string{"myciel3", "myciel4", "queen5_5", "jean"} {
		g, err := graph.Benchmark(name)
		if err != nil {
			t.Fatal(err)
		}
		graphs = append(graphs, g)
	}
	graphs = append(graphs, testutil.PlantedGraphs()...)
	kinds := append(append([]SBPKind(nil), Kinds...), SBPLIQuad, SBPClique)
	kindName := func(k SBPKind) string {
		switch k {
		case SBPLIQuad:
			return "LI-quad"
		case SBPClique:
			return "clique"
		}
		return k.String()
	}
	for _, g := range graphs {
		for _, kind := range kinds {
			name := fmt.Sprintf("%s/K=20/%s", g.Name(), kindName(kind))
			got := hashFormula(Build(g, 20, kind).F)
			if want := goldenBuild[name]; got != want {
				t.Errorf("%s: hash %s, want %s\n\t%q: %q,", name, got, want, name, got)
			}
		}
	}
}
