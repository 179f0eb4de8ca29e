package pbsolver

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/encode"
	"repro/internal/graph"
	"repro/internal/testutil"
)

// goldenSearch pins PBS's search on the paper's NU+SC formulas at K=20:
// status, objective and the four search counters. A change to formula
// loading (clause order, watch order, root propagation) or to the search
// itself shows up here even when every answer stays right. On an intended
// search change, regenerate the table from the messages this test prints
// and say why in the change log.
var goldenSearch = map[string]string{
	"myciel3":   "OPTIMAL obj=4 conflicts=7 props=809 decisions=171 restarts=0",
	"myciel4":   "OPTIMAL obj=5 conflicts=159 props=6224 decisions=1126 restarts=1",
	"queen5_5":  "OPTIMAL obj=5 conflicts=8 props=1725 decisions=41 restarts=0",
	"jean":      "OPTIMAL obj=10 conflicts=5863 props=155865 decisions=16532 restarts=30",
	"scenes":    "OPTIMAL obj=6 conflicts=47 props=5215 decisions=256 restarts=0",
	"geometric": "OPTIMAL obj=6 conflicts=13 props=2185 decisions=233 restarts=0",
	"planted":   "OPTIMAL obj=6 conflicts=16 props=2856 decisions=186 restarts=0",
	"interval":  "OPTIMAL obj=6 conflicts=22 props=2016 decisions=85 restarts=0",
}

func TestSearchCountersGolden(t *testing.T) {
	var graphs []*graph.Graph
	for _, name := range []string{"myciel3", "myciel4", "queen5_5", "jean"} {
		g, err := graph.Benchmark(name)
		if err != nil {
			t.Fatal(err)
		}
		graphs = append(graphs, g)
	}
	graphs = append(graphs, testutil.PlantedGraphs()...)
	for _, g := range graphs {
		enc := encode.Build(g, 20, encode.SBPNUSC)
		res := Optimize(context.Background(), enc.F, Options{Engine: EnginePBS})
		got := fmt.Sprintf("%v obj=%d conflicts=%d props=%d decisions=%d restarts=%d",
			res.Status, res.Objective, res.Stats.Conflicts, res.Stats.Propagations,
			res.Stats.Decisions, res.Stats.Restarts)
		if want := goldenSearch[g.Name()]; got != want {
			t.Errorf("%s: %s, want %s\n\t%q: %q,", g.Name(), got, want, g.Name(), got)
		}
	}
}
