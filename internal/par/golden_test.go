package par

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/encode"
	"repro/internal/graph"
	"repro/internal/testutil"
)

// cubeGoldenGraphs are the generator's golden inputs: Table-1 instances,
// the planted graphs of e2ebench's solve workload and the larger ones of
// its racers workload.
func cubeGoldenGraphs(t testing.TB) []*graph.Graph {
	var graphs []*graph.Graph
	for _, name := range []string{"myciel3", "myciel4", "myciel5", "queen5_5", "huck", "jean", "DSJC125.1"} {
		g, err := graph.Benchmark(name)
		if err != nil {
			t.Fatal(err)
		}
		graphs = append(graphs, g)
	}
	graphs = append(graphs, testutil.PlantedGraphs()...)
	return append(graphs, testutil.RacerGraphs()...)
}

// goldenCubes pins CubesPB's output — every cube in order, the ranked
// branching pool and the refuted count — at depths 1 to 6 (seeded with
// the depth) on K=20 formulas without SBPs and under NU+SC. A generator change that fails it changed which cubes par
// conquers (and the par.cubes_* counters a trace reports). On an intended
// change, regenerate the table from the messages this test prints and say
// why in the change log.
var goldenCubes = map[string]string{
	"myciel3/K=20/none":        "09de4b78d96927bd",
	"myciel3/K=20/NU+SC":       "943bfaf1026ca7e3",
	"myciel4/K=20/none":        "7faa3f964a1eddc9",
	"myciel4/K=20/NU+SC":       "8037e316a76af4cb",
	"myciel5/K=20/none":        "06b506007a3a7ffe",
	"myciel5/K=20/NU+SC":       "e73a2a27b020e5a8",
	"queen5_5/K=20/none":       "2f4a3966bf7b5866",
	"queen5_5/K=20/NU+SC":      "3b22998d90b1f5a2",
	"huck/K=20/none":           "ae6b9b7337866f11",
	"huck/K=20/NU+SC":          "340f5a3ea9755975",
	"jean/K=20/none":           "a73730bb1c9fe5e2",
	"jean/K=20/NU+SC":          "678c6263cb5ba236",
	"DSJC125.1/K=20/none":      "433aa07769032885",
	"DSJC125.1/K=20/NU+SC":     "938212fdd5d6d12f",
	"scenes/K=20/none":         "296bed895df5b44f",
	"scenes/K=20/NU+SC":        "90a2d0556d8a5a1b",
	"geometric/K=20/none":      "a9597b591b54de0b",
	"geometric/K=20/NU+SC":     "78b068de5a438c53",
	"planted/K=20/none":        "df1626ad5bf4a879",
	"planted/K=20/NU+SC":       "f774b31f90ce0bda",
	"interval/K=20/none":       "bb1e267fd7330dff",
	"interval/K=20/NU+SC":      "f164459c0ff202e8",
	"scenes-55/K=20/none":      "c02767be40658f48",
	"scenes-55/K=20/NU+SC":     "fd8b2b39534c1a1b",
	"geometric-100/K=20/none":  "7409d64e99ea37e8",
	"geometric-100/K=20/NU+SC": "fff2e2e90f9ad186",
	"planted-100/K=20/none":    "e917fb3c4dde4356",
	"planted-100/K=20/NU+SC":   "32c15bfc97e194b8",
	"interval-60/K=20/none":    "1b1dee67588f6a10",
	"interval-60/K=20/NU+SC":   "cb7f4f0c65fa6fac",
}

func TestCubesPBGolden(t *testing.T) {
	for _, g := range cubeGoldenGraphs(t) {
		for _, kind := range []encode.SBPKind{encode.SBPNone, encode.SBPNUSC} {
			f := encode.Build(g, 20, kind).F
			h := sha256.New()
			for depth := 1; depth <= 6; depth++ {
				cs := CubesPB(f, CubeOptions{Depth: depth, Seed: int64(depth)})
				fmt.Fprintf(h, "depth %d root-unsat %v refuted %d\nvars %v\n", depth, cs.RootUnsat, cs.Refuted, cs.Vars)
				for _, c := range cs.Cubes {
					fmt.Fprintf(h, "cube %v\n", c)
				}
			}
			name := fmt.Sprintf("%s/K=20/%s", g.Name(), kind)
			got := hex.EncodeToString(h.Sum(nil))[:16]
			if want := goldenCubes[name]; got != want {
				t.Errorf("%s: hash %s, want %s\n\t%q: %q,", name, got, want, name, got)
			}
		}
	}
}
