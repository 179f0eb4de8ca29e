package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"repro/internal/graph"
	"repro/internal/httpapi"
)

// A job is one prepared submission: the exact POST body, and for checking
// the answer the graph as submitted (vertex count and edge list, after any
// relabeling) with its chromatic number known from outside the solver.
type job struct {
	body  []byte
	n     int
	edges [][2]int
	chi   int
}

// A workload is a seeded job list plus the way it is driven. Every run of a
// workload with one seed replays the same list, so runs differ only in how
// fast the machine serves it.
type workload struct {
	name string
	// clients is the number of closed-loop HTTP clients, each on its own
	// keep-alive connection.
	clients int
	// cycle lets the measured phase wrap around to the head of the list.
	// Only hits may: its every job is a cache hit, so a second pass does
	// the same work as the first. A solving workload that runs out of
	// novel graphs stops early instead of timing cache hits.
	cycle bool
	// replay is the number of jobs from the head of the list the traced
	// run replays through the pipeline layers. It is fixed, not the number
	// the traffic completed, so the per-job counters repeat exactly.
	replay int
	// warm is the warm-up list run during set-up, the same for every seed.
	warm func() []job
	// list builds the measured list for a seed.
	list func(seed int64) []job
}

// defaultSeed is the workload seed BENCHMARK.json's command passes;
// heldOutSeed is kept for checking a claim on inputs it was not tuned on.
const (
	defaultSeed = 20040324
	heldOutSeed = 19620817
	// warmSeed drives the warm-up lists, which are the same for every
	// workload seed so set-up time does not depend on it.
	warmSeed = 4099
)

var workloads = []workload{
	{
		name: "hits", clients: 2, cycle: true, replay: 1024,
		warm: hitsWarm,
		list: func(seed int64) []job { return hitsList(seed, 2048) },
	},
	{
		name: "solve", clients: 2, replay: 256,
		warm: func() []job { return partiteList(warmSeed, 48, solveSizes, solveSpec) },
		list: func(seed int64) []job { return partiteList(seed, 16384, solveSizes, solveSpec) },
	},
	{
		name: "shatter", clients: 2, replay: 64,
		warm: func() []job { return partiteList(warmSeed, 8, solveSizes, shatterSpec) },
		list: func(seed int64) []job { return partiteList(seed, 2048, solveSizes, shatterSpec) },
	},
	{
		name: "racers", clients: 1, replay: 64,
		warm: func() []job { return partiteList(warmSeed, 8, racerSizes, racerSpec) },
		list: func(seed int64) []job { return partiteList(seed, 2048, racerSizes, racerSpec) },
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q (want hits, solve, shatter or racers)", name)
}

// baseRequest is the spec every job shares: the paper's K=20 bound, the
// NU+SC instance-independent construction and the PBS II engine. The
// timeout is far above any job's solve time, so no run ever times one.
func baseRequest(name string, n int, edges [][2]int) httpapi.JobRequest {
	return httpapi.JobRequest{
		Name: name, N: n, Edges: edges,
		K: 20, SBP: "NU+SC", Engine: "pbs2", Timeout: "60s",
	}
}

func newJob(req httpapi.JobRequest, chi int) job {
	body, err := json.Marshal(req)
	if err != nil {
		panic(err) // a JobRequest of ints and strings always marshals
	}
	return job{body: body, n: req.N, edges: req.Edges, chi: chi}
}

// hitsPool are Table-1 instances the service decides in at most ~0.2 s
// under the base spec, so warming the cache with them is cheap.
var hitsPool = []string{
	"DSJC125.1", "games120", "jean", "miles250", "myciel3", "myciel4",
	"queen5_5", "queen6_6", "queen7_7",
}

// tableChi returns the chromatic number the paper's Table 1 reports.
func tableChi(name string) int {
	for _, info := range graph.BenchmarkTable {
		if info.Name == name {
			return info.PaperChi
		}
	}
	panic("no Table-1 row for " + name)
}

func poolGraph(name string) *graph.Graph {
	g, err := graph.Benchmark(name)
	if err != nil {
		panic(err) // hitsPool names are static Table-1 names
	}
	return g
}

// hitsWarm submits every pool graph once in its own labeling, which puts
// each pool graph's answer in the cache.
func hitsWarm() []job {
	out := make([]job, 0, len(hitsPool))
	for _, name := range hitsPool {
		g := poolGraph(name)
		out = append(out, newJob(baseRequest(name, g.N(), g.Edges()), tableChi(name)))
	}
	return out
}

// hitsList is n seeded relabelings of the pool graphs, each pool graph
// once per round in a seeded order, so every job is isomorphic to a warmed
// graph and is answered from the cache.
func hitsList(seed int64, n int) []job {
	rng := rand.New(rand.NewSource(seed))
	graphs := make([]*graph.Graph, len(hitsPool))
	for i, name := range hitsPool {
		graphs[i] = poolGraph(name)
	}
	out := make([]job, 0, n)
	for len(out) < n {
		for _, i := range rng.Perm(len(hitsPool)) {
			if len(out) == n {
				break
			}
			g := graphs[i]
			req := baseRequest(hitsPool[i], g.N(), relabel(g, rng))
			out = append(out, newJob(req, tableChi(hitsPool[i])))
		}
	}
	return out
}

// relabel returns g's edges under a random vertex permutation, each edge
// in a random orientation and the list in a random order.
func relabel(g *graph.Graph, rng *rand.Rand) [][2]int {
	perm := rng.Perm(g.N())
	edges := g.Edges()
	out := make([][2]int, len(edges))
	for i, e := range edges {
		a, b := perm[e[0]], perm[e[1]]
		if rng.Intn(2) == 0 {
			a, b = b, a
		}
		out[i] = [2]int{a, b}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// family is one planted-χ generator standing in for a family of the
// paper's instances, at a fixed size.
type family struct {
	name    string
	n, e, k int
}

func (f family) generate(seed int64) *graph.Graph {
	switch f.name {
	case "scenes": // book graphs
		return graph.PartiteScenes(f.name, f.n, f.e, f.k, seed)
	case "geometric": // mileage graphs
		return graph.PartiteGeometric(f.name, f.n, f.e, f.k, seed)
	case "planted": // register graphs
		return graph.PartitePlanted(f.name, f.n, f.e, f.k, seed)
	case "interval": // register allocation
		g, _ := graph.IntervalInterference(f.name, f.n, f.k, seed)
		return g
	}
	panic("unknown family " + f.name)
}

// solveSizes are decided sequentially in about 3-10 ms each on a 2-core
// x86 machine; with instance-dependent SBPs the same graphs take about
// 30-100 ms, most of it in symmetry detection.
var solveSizes = []family{
	{"scenes", 40, 130, 6},
	{"geometric", 50, 130, 6},
	{"planted", 50, 160, 6},
	{"interval", 40, 0, 6},
}

// racerSizes are harder: about 15-30 ms sequentially and about 30 ms under
// cube-and-conquer on two workers, so a single client completes over six
// hundred jobs a run.
var racerSizes = []family{
	{"scenes", 55, 180, 7},
	{"geometric", 100, 260, 8},
	{"planted", 100, 400, 7},
	{"interval", 60, 0, 7},
}

func solveSpec(int, *httpapi.JobRequest) {}

func shatterSpec(_ int, r *httpapi.JobRequest) { r.InstanceDependent = true }

// racerSpec solves with cube-and-conquer on two workers. Alternating it
// with the engine portfolio made the latency bimodal (~28 ms and ~14 ms
// modes) with the median between them, and that median moved by up to 30%
// from run to run.
func racerSpec(_ int, r *httpapi.JobRequest) { r.Parallel = 2 }

// partiteList is n novel graphs, each family once per round in a seeded
// order; job i's graph comes from its own generator seed, so a list is a
// prefix of every longer list with the same seed.
func partiteList(seed int64, n int, sizes []family, spec func(int, *httpapi.JobRequest)) []job {
	rng := rand.New(rand.NewSource(seed))
	out := make([]job, 0, n)
	for len(out) < n {
		for _, fi := range rng.Perm(len(sizes)) {
			if len(out) == n {
				break
			}
			g := sizes[fi].generate(rng.Int63())
			req := baseRequest(g.Name(), g.N(), g.Edges())
			spec(len(out), &req)
			out = append(out, newJob(req, g.Chi))
		}
	}
	return out
}
