package service

import (
	"context"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/graph"
)

// TestFinishedJobFootprint bounds what the job table keeps of a finished
// job: the heap each cache hit adds once it has finished. One solve warms
// the cache and 300 relabelled hits fill the 256-trace flight recorder, so
// that over the 2,000 measured hits the table is what grows. A finished
// job reads about 665 B on myciel4 and 1,080 B on DSJC125.1. It used to
// keep its whole job struct, its done and recorded channels and a coloring
// at 8 bytes per vertex: about 1,420 B on myciel4 and 2,250 B on DSJC125.1
// (Go 1.24, amd64).
func TestFinishedJobFootprint(t *testing.T) {
	for _, tc := range []struct {
		name  string
		bound float64 // bytes per finished job
	}{
		{"myciel4", 900},    // n=23
		{"DSJC125.1", 1400}, // n=125
	} {
		t.Run(tc.name, func(t *testing.T) {
			g, err := graph.Benchmark(tc.name)
			if err != nil {
				t.Fatal(err)
			}
			var runs atomic.Int64
			svc := New(Config{Workers: 1, Solve: countingSolve(&runs, 0)})
			defer svc.Close()
			rng := rand.New(rand.NewSource(1))
			submit := func(n int) {
				for i := 0; i < n; i++ {
					id, err := svc.Submit(relabel(tc.name, g, randomPerm(rng, g.N())), JobSpec{K: 8})
					if err != nil {
						t.Fatal(err)
					}
					info, err := svc.Wait(context.Background(), id)
					if err != nil || info.Result == nil || len(info.Result.Coloring) != g.N() {
						t.Fatalf("job %s: %+v, %v; want a result with a coloring", id, info, err)
					}
				}
			}
			submit(1 + 300)
			before := heapAlloc()
			submit(2000)
			perJob := float64(heapAlloc()-before) / 2000
			if n := runs.Load(); n != 1 {
				t.Fatalf("%d solver runs, want 1: the measured jobs must be cache hits", n)
			}
			t.Logf("%s (n=%d): %.0f B per finished job", tc.name, g.N(), perJob)
			if perJob > tc.bound {
				t.Fatalf("%s: a finished job keeps %.0f B, want at most %.0f", tc.name, perJob, tc.bound)
			}
		})
	}
}

// heapAlloc returns the live heap after a collection.
func heapAlloc() int64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}
