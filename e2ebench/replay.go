package main

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"repro/internal/autom"
	"repro/internal/cnf"
	"repro/internal/core"
	"repro/internal/encode"
	"repro/internal/httpapi"
	"repro/internal/par"
	"repro/internal/pbsolver"
	"repro/internal/sbp"
	"repro/internal/symgraph"
)

// replayed is one job's pass through the pipeline layers outside the
// service, with the counters each layer returned.
type replayed struct {
	index      int
	id         string
	canonNodes int64
	solver     bool // the service ran a solver for the job (no cache hit)
	clauses    int64
	detected   bool
	generators int64
	sbpClauses int64
	racer      string // "par" or "portfolio" for racing jobs
	stats      pbsolver.Stats
	par        par.Stats
	// inSolve is the replayed time of the layers service.solve covers:
	// encode, symmetry detection, SBPs and search.
	inSolve time.Duration
}

// replay passes the first w.replay jobs of the list, as the traced phase
// answered them, through the layers the service ran for each: canonical
// labeling always, and for jobs that were not cache hits encode, symmetry
// detection and SBPs (instance-dependent jobs only) and the search, the
// way core.Solve calls them. It runs w.clients jobs at a time, as the
// daemon's workers did, and checks every replayed answer. A job the phase
// did not answer is skipped, which only a very slow run leaves.
func replay(w workload, jobs []job, answers []answer, tr *tracer) ([]replayed, error) {
	first := make(map[int]answer)
	for _, a := range answers {
		if _, seen := first[a.index]; !seen && a.solved && a.index < w.replay {
			first[a.index] = a
		}
	}
	var todo []int
	for i := 0; i < min(w.replay, len(jobs)); i++ {
		if _, ok := first[i]; ok {
			todo = append(todo, i)
		}
	}
	out := make([]replayed, len(todo))
	errs := make([]error, len(todo))
	var wg sync.WaitGroup
	next := make(chan int)
	for c := 0; c < w.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range next {
				i := todo[k]
				out[k], errs[k] = replayJob(jobs[i], first[i], tr)
			}
		}()
	}
	for k := range todo {
		next <- k
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return out, err
		}
	}
	return out, nil
}

func replayJob(j job, a answer, tr *tracer) (replayed, error) {
	r := replayed{index: a.index, id: a.id, solver: !a.cacheHit}
	var req httpapi.JobRequest
	if err := json.Unmarshal(j.body, &req); err != nil {
		return r, err
	}
	g, err := req.Graph()
	if err != nil {
		return r, err
	}
	spec, err := req.Spec()
	if err != nil {
		return r, err
	}
	ctx := context.Background()
	rec := func(name string, start time.Time, counters map[string]int64) time.Duration {
		end := time.Now()
		tr.record(span{Name: name, Job: a.id, Parent: "replay.job", Start: start, End: end, Counters: counters})
		return end.Sub(start)
	}
	root := time.Now()
	defer func() {
		tr.record(span{Name: "replay.job", Job: a.id, Start: root, End: time.Now()})
	}()

	// Canonical labeling, as the service's worker runs it on every job.
	start := time.Now()
	ag := autom.NewGraph(g.N())
	for _, e := range g.Edges() {
		ag.AddEdge(e[0], e[1])
	}
	canon := autom.CanonicalForm(ag, autom.CanonicalOptions{Context: ctx})
	r.canonNodes = canon.Nodes
	rec("autom.canon", start, map[string]int64{"nodes": canon.Nodes})
	if !r.solver {
		return r, nil
	}

	// core.Solve: encode, optional symmetry breaking, search.
	k := core.EffectiveK(g, spec.K)
	start = time.Now()
	enc := encode.Build(g, k, spec.SBP)
	st := enc.F.Stats()
	r.clauses = int64(st.CNF + st.PB)
	r.inSolve += rec("encode.build", start, map[string]int64{"clauses": r.clauses})
	if spec.InstanceDependent {
		r.detected = true
		start = time.Now()
		perms, _ := symgraph.Detect(enc.F, autom.Options{Context: ctx})
		perms = liftGraphGens(enc, perms, canon.Generators)
		r.generators = int64(len(perms))
		r.inSolve += rec("symgraph.detect", start, map[string]int64{"generators": r.generators})
		start = time.Now()
		sst := sbp.AddSBPs(enc.F, perms, sbp.Options{})
		r.sbpClauses = int64(sst.Clauses)
		r.inSolve += rec("sbp.add", start, map[string]int64{"clauses": r.sbpClauses})
	}
	opts := pbsolver.Options{Engine: spec.Engine, Timeout: spec.Timeout}
	var res pbsolver.Result
	start = time.Now()
	switch {
	case spec.Parallel > 1:
		r.racer = "par"
		pres := par.Optimize(ctx, enc.F, par.Options{
			Workers: spec.Parallel, CubeDepth: spec.CubeDepth, ShareLBD: spec.ShareLBD, Solver: opts,
		})
		res, r.par = pres.Result, pres.Par
		r.inSolve += rec("par.search", start, map[string]int64{
			"cubes": r.par.CubesGenerated, "refuted": r.par.CubesRefuted, "imported": r.par.ClausesImported,
		})
	default:
		if spec.Portfolio {
			r.racer = "portfolio"
			res = pbsolver.PortfolioSolve(ctx, enc.F, pbsolver.PortfolioOptions{Base: opts}).Result
		} else {
			res = pbsolver.Optimize(ctx, enc.F, opts)
		}
		r.inSolve += rec("pbsolver.search", start, map[string]int64{
			"conflicts": res.Stats.Conflicts, "propagations": res.Stats.Propagations,
		})
	}
	r.stats = res.Stats
	if res.Status != pbsolver.StatusOptimal {
		return r, fmt.Errorf("replay of job %d: status %v, want optimal", a.index, res.Status)
	}
	if msg := check(j, res.Objective, enc.ColoringFromModel(res.Model)); msg != "" {
		return r, fmt.Errorf("replay of job %d: %s", a.index, msg)
	}
	return r, nil
}

// liftGraphGens adds the canonical search's graph automorphisms to the
// detected formula symmetries the way core.Solve does: each is lifted to
// x(v,j) -> x(π(v),j), kept only if it verifies as a formula symmetry, and
// deduplicated against the detected ones.
func liftGraphGens(enc *encode.Encoding, perms []symgraph.LitPerm, gens []autom.Perm) []symgraph.LitPerm {
	seen := make(map[string]bool, len(perms))
	for _, p := range perms {
		seen[fmt.Sprint(p.Img)] = true
	}
	n := enc.G.N()
	for _, gp := range gens {
		if len(gp) != n {
			continue
		}
		lp := symgraph.NewIdentityPerm(enc.F.NumVars)
		for v := 0; v < n; v++ {
			for c := 0; c < enc.K; c++ {
				lp.Img[enc.X(v, c)] = cnf.PosLit(enc.X(gp[v], c))
			}
		}
		if lp.IsIdentity() || !symgraph.VerifyLitPerm(enc.F, lp) {
			continue
		}
		if key := fmt.Sprint(lp.Img); !seen[key] {
			seen[key] = true
			perms = append(perms, lp)
		}
	}
	return perms
}
