package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

// testRegistry declares one metric of every kind.
func testRegistry() (*Registry, *Counter, map[string]*Counter, *Histogram, *HistogramVec) {
	reg := NewRegistry("t_")
	c := reg.Counter("jobs_total", "jobs", "Jobs.")
	reg.Gauge("depth", "depth,omitempty", "Depth.", func() int64 { return 0 })
	reg.Flag("busy", "busy", "1 while busy.", func() bool { return true })
	rejects := reg.Counters("rejects_total", "Rejections, by reason.", "reason",
		Series{"full", "rejects_full"}, Series{"quota", "rejects_quota"})
	reg.Table("tenants,omitempty", "tenant", []Column{
		{Name: "tenant_accepts_total", Field: "accepts", Help: "Accepts."},
		{Name: "tenant_in_flight", Field: "in_flight", Help: "In flight.", Gauge: true},
	}, func() []Row { return []Row{{"b", []int64{2, 1}}, {"a", []int64{1, 0}}} })
	reg.Table("", "", []Column{{Name: "store_entries", Help: "Entries.", Gauge: true}}, func() []Row { return nil })
	h := reg.Histogram("wait_seconds", "wait", "Wait.", []time.Duration{time.Millisecond, 5 * time.Millisecond})
	vec := reg.HistogramVec("phase_seconds", "Phases.", "phase", []time.Duration{time.Millisecond})
	reg.Value("health,omitempty", func() any { return nil })
	return reg, c, rejects, h, vec
}

// TestRegistryRendersBothSurfaces pins what each kind of declaration
// renders to /metrics and to /v1/stats, including the omitempty rule, the
// histogram's exact sum and an unlabelled table without a row.
func TestRegistryRendersBothSurfaces(t *testing.T) {
	reg, c, rejects, h, vec := testRegistry()
	c.Add(5)
	rejects["quota"].Inc()
	h.Observe(1500 * time.Microsecond)
	vec.With("solve").Observe(2 * time.Second)

	var text bytes.Buffer
	reg.WritePrometheus(&text)
	want := `# HELP t_jobs_total Jobs.
# TYPE t_jobs_total counter
t_jobs_total 5
# HELP t_depth Depth.
# TYPE t_depth gauge
t_depth 0
# HELP t_busy 1 while busy.
# TYPE t_busy gauge
t_busy 1
# HELP t_rejects_total Rejections, by reason.
# TYPE t_rejects_total counter
t_rejects_total{reason="full"} 0
t_rejects_total{reason="quota"} 1
# HELP t_tenant_accepts_total Accepts.
# TYPE t_tenant_accepts_total counter
t_tenant_accepts_total{tenant="a"} 1
t_tenant_accepts_total{tenant="b"} 2
# HELP t_tenant_in_flight In flight.
# TYPE t_tenant_in_flight gauge
t_tenant_in_flight{tenant="a"} 0
t_tenant_in_flight{tenant="b"} 1
# HELP t_wait_seconds Wait.
# TYPE t_wait_seconds histogram
t_wait_seconds_bucket{le="0.001"} 0
t_wait_seconds_bucket{le="0.005"} 1
t_wait_seconds_bucket{le="+Inf"} 1
t_wait_seconds_sum 0.0015
t_wait_seconds_count 1
# HELP t_phase_seconds Phases.
# TYPE t_phase_seconds histogram
t_phase_seconds_bucket{phase="solve",le="0.001"} 0
t_phase_seconds_bucket{phase="solve",le="+Inf"} 1
t_phase_seconds_sum{phase="solve"} 2
t_phase_seconds_count{phase="solve"} 1
`
	if text.String() != want {
		t.Errorf("/metrics:\n%s\nwant:\n%s", text.String(), want)
	}

	body, err := json.Marshal(reg.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	wantJSON := `{"jobs":5,"busy":true,"rejects_full":0,"rejects_quota":1,` +
		`"tenants":{"a":{"accepts":1,"in_flight":0},"b":{"accepts":2,"in_flight":1}},` +
		`"wait":{"count":1,"sum_ms":1.5,"buckets":[{"le_ms":1,"count":0},{"le_ms":5,"count":1},{"le_ms":-1,"count":0}]}}`
	if string(body) != wantJSON {
		t.Errorf("/v1/stats:\n%s\nwant:\n%s", body, wantJSON)
	}

	families, keys := reg.Names()
	if got := strings.Join(families, " "); got != "t_jobs_total t_depth t_busy t_rejects_total t_tenant_accepts_total t_tenant_in_flight t_store_entries t_wait_seconds t_phase_seconds" {
		t.Errorf("families %s", got)
	}
	if got := strings.Join(keys, " "); got != "jobs depth busy rejects_full rejects_quota tenants wait health" {
		t.Errorf("keys %s", got)
	}
}

// TestSnapshotAccessors: values read back by key, and a key never
// declared, or read as the wrong kind, panics instead of reading as zero.
func TestSnapshotAccessors(t *testing.T) {
	reg, c, _, h, _ := testRegistry()
	c.Inc()
	h.Observe(7 * time.Millisecond)
	snap := reg.Snapshot()
	if snap.Int("jobs") != 1 || snap.Int("depth") != 0 || !snap.Bool("busy") || snap.Value("health") != nil {
		t.Fatalf("snapshot %+v", snap.vals)
	}
	if row := snap.Table("tenants")["b"]; row["accepts"] != 2 || row["in_flight"] != 1 {
		t.Fatalf("tenant b = %v", row)
	}
	if hs := snap.Value("wait").(HistogramSnapshot); hs.Count != 1 || hs.Buckets[2].Count != 1 || hs.SumMS != 7 {
		t.Fatalf("wait = %+v", hs)
	}
	for _, read := range []func(){
		func() { snap.Int("job") },
		func() { snap.Int("busy") },
		func() { snap.Value("jobs_total") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("a bad key read without a panic")
				}
			}()
			read()
		}()
	}
}

// TestRegistryConcurrentUse: workers update counters and histograms
// while /metrics and /v1/stats render; run under -race, and the totals
// must come out exact.
func TestRegistryConcurrentUse(t *testing.T) {
	reg, c, rejects, h, vec := testRegistry()
	const workers, each = 4, 500
	var wg sync.WaitGroup
	stop := make(chan struct{})
	var renders sync.WaitGroup
	for i := 0; i < 2; i++ {
		renders.Add(1)
		go func() {
			defer renders.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				reg.WritePrometheus(&bytes.Buffer{})
				if _, err := json.Marshal(reg.Snapshot()); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			phase := []string{"canon", "solve"}[w%2]
			for i := 0; i < each; i++ {
				c.Inc()
				rejects["full"].Add(2)
				h.Observe(time.Duration(i) * time.Microsecond)
				vec.With(phase).Observe(time.Millisecond)
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	renders.Wait()
	snap := reg.Snapshot()
	if snap.Int("jobs") != workers*each || snap.Int("rejects_full") != 2*workers*each {
		t.Fatalf("counters %d, %d", snap.Int("jobs"), snap.Int("rejects_full"))
	}
	if hs := snap.Value("wait").(HistogramSnapshot); hs.Count != workers*each {
		t.Fatalf("histogram count %d", hs.Count)
	}
	for _, phase := range []string{"canon", "solve"} {
		if n := vec.With(phase).Snapshot().Count; n != workers*each/2 {
			t.Fatalf("phase %s count %d", phase, n)
		}
	}
}
