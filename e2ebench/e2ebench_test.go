package main

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/httpapi"
)

// The job lists are the benchmark's inputs: one seed must always give the
// same bytes, another seed other bytes, and shatter must submit exactly
// solve's graphs.
func TestJobListsAreSeeded(t *testing.T) {
	for _, w := range workloads {
		a, b, other := w.list(defaultSeed), w.list(defaultSeed), w.list(heldOutSeed)
		if len(a) != len(b) {
			t.Fatalf("%s: list lengths %d and %d for one seed", w.name, len(a), len(b))
		}
		differs := false
		for i := range a {
			if !bytes.Equal(a[i].body, b[i].body) {
				t.Fatalf("%s: job %d body differs between two builds with one seed", w.name, i)
			}
			differs = differs || !bytes.Equal(a[i].body, other[i].body)
		}
		if !differs {
			t.Errorf("%s: the held-out seed yields the same list", w.name)
		}
		wa, wb := w.warm(), w.warm()
		for i := range wa {
			if !bytes.Equal(wa[i].body, wb[i].body) {
				t.Fatalf("%s: warm-up job %d differs between two builds", w.name, i)
			}
		}
	}

	solve, _ := findWorkload("solve")
	shatter, _ := findWorkload("shatter")
	sj, hj := solve.list(defaultSeed), shatter.list(defaultSeed)
	for i := range hj {
		s, h := decode(t, sj[i].body), decode(t, hj[i].body)
		if s.InstanceDependent || !h.InstanceDependent {
			t.Fatalf("job %d: instance_dependent is %v on solve, %v on shatter", i, s.InstanceDependent, h.InstanceDependent)
		}
		h.InstanceDependent = false
		if !reflect.DeepEqual(s, h) {
			t.Fatalf("job %d: shatter submits another graph or spec than solve", i)
		}
	}
}

func decode(t *testing.T, body []byte) httpapi.JobRequest {
	t.Helper()
	var req httpapi.JobRequest
	if err := json.Unmarshal(body, &req); err != nil {
		t.Fatal(err)
	}
	return req
}

// A tiny solve and shatter list, run twice through a traced daemon and the
// replay, must give identical work counters, the ones later counter-based
// claims rest on. The replay must also take exactly the service's conflict
// count on every sequential job.
func TestLayerCountersRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("solves through an in-process daemon")
	}
	counters := []string{
		"autom.canon_nodes_per_job", "encode.clauses_per_job", "symgraph.generators_per_job",
		"sbp.clauses_per_job", "pbsolver.conflicts_per_job", "pbsolver.propagations_per_job",
	}
	for _, name := range []string{"solve", "shatter"} {
		w, _ := findWorkload(name)
		w.replay = 8
		jobs := w.list(defaultSeed)[:w.replay]
		var first metrics
		for run := 0; run < 2; run++ {
			m := tracedCounters(t, w, jobs)
			if m["service.cache_hit_frac"].Value != 0 {
				t.Fatalf("%s: cache hits on a list of novel graphs", name)
			}
			shatters := m["sbp.clauses_per_job"].Value > 0 && m["symgraph.detect_p50_ms"].Value > 0
			if shatters != (name == "shatter") {
				t.Fatalf("%s: symmetry layers ran: %v", name, shatters)
			}
			if run == 0 {
				first = m
				continue
			}
			for _, c := range counters {
				if m[c] != first[c] {
					t.Errorf("%s: %s is %v, then %v", name, c, first[c].Value, m[c].Value)
				}
			}
		}
	}
}

func tracedCounters(t *testing.T, w workload, jobs []job) metrics {
	tr := &tracer{}
	d, err := startDaemon(filepath.Join(t.TempDir(), "store"), tr)
	if err != nil {
		t.Fatal(err)
	}
	p := drive(d, w, jobs, 0, tr)
	if err := d.stop(); err != nil {
		t.Fatal(err)
	}
	s := summarize(p)
	if s.solved != len(jobs) {
		t.Fatalf("%s: %d of %d jobs solved and verified: %v", w.name, s.solved, len(jobs), s.wrong)
	}
	reps, err := replay(w, jobs, p.answers, tr)
	if err != nil {
		t.Fatal(err)
	}
	for _, msg := range replayMismatches(p, reps) {
		t.Error(msg)
	}
	return perLayer(p, s, tr.snapshot(), reps)
}

// The correctness gate accepts any proper coloring with exactly χ colors,
// whatever their values, and rejects every other answer.
func TestCheckRejectsWrongAnswers(t *testing.T) {
	c5 := job{n: 5, edges: [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}}, chi: 3}
	for _, ok := range [][]int{{0, 1, 0, 1, 2}, {5, 6, 5, 6, 7}} {
		if msg := check(c5, 3, ok); msg != "" {
			t.Errorf("check(3, %v) rejected a proper 3-coloring: %s", ok, msg)
		}
	}
	for _, bad := range []struct {
		chi      int
		coloring []int
	}{
		{2, []int{0, 1, 0, 1, 2}},    // claimed χ below the reference
		{4, []int{0, 1, 0, 1, 2}},    // claimed χ above the reference
		{3, []int{0, 1, 0, 1, 0}},    // edge (4,0) monochromatic
		{3, []int{0, 1, 2, 3, 4}},    // proper, but 5 colors
		{3, []int{0, 1, 0, 1}},       // too short
		{3, []int{0, 1, 2, 0, 1, 2}}, // too long
		{3, []int{0, 1, 0, -1, 2}},   // negative color
	} {
		if check(c5, bad.chi, bad.coloring) == "" {
			t.Errorf("check(%d, %v) accepted a wrong answer", bad.chi, bad.coloring)
		}
	}
}
