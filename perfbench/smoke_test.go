package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"

	"pivot/internal/exp"
)

// tinyWorkloads are the three workloads shrunk to run in seconds: short
// warm-up and granules, fewer cores and threads, and a coarse sweep scale
// whose cells no golden covers.
func tinyWorkloads() map[string]workloadFunc {
	colo := coloPivot
	colo.warmup, colo.granule, colo.nominal = 20_000, 5_000, 50_000
	lc := lcTenants
	lc.cores, lc.stress = 4, 1
	lc.warmup, lc.granule, lc.nominal = 20_000, 5_000, 50_000
	sw := fig13Sweep
	sw.scale = exp.Scale{Warmup: 20_000, Measure: 20_000, CalMeasure: 20_000,
		LoadFracs: []float64{0.3, 0.9}, Epoch: 5_000, MaxBEThreads: 2}
	sw.cores, sw.loads, sw.threads, sw.golden = 4, []int{10, 90}, 2, ""
	return map[string]workloadFunc{"colo-pivot": colo.run, "lc-tenants": lc.run, "fig13-sweep": sw.run}
}

func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for name, run := range tinyWorkloads() {
		for _, trace := range []bool{false, true} {
			r := newReport()
			if err := run(r, args{seed: 7, secs: 1, trace: trace}); err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if r.failed != 0 || r.attempted == 0 {
				t.Errorf("%s trace=%v: %d of %d checks failed", name, trace, r.failed, r.attempted)
			}
			want := endToEnd[:3] // peak_rss_mb is set by main
			if trace {
				want = nil // main fills the metrics a workload does not exercise
			}
			for _, m := range want {
				got, ok := r.metrics[m.name]
				if !ok || got.Unit != m.unit || !(got.Value > 0) || math.IsInf(got.Value, 0) {
					t.Errorf("%s: metric %s = %+v, want a positive value in %s", name, m.name, got, m.unit)
				}
			}
			if trace {
				for _, k := range []string{"engine.skip_speedup", "trace.overhead_frac", "self.sim_frac"} {
					if _, ok := r.metrics[k]; !ok {
						t.Errorf("%s: traced run lacks %s", name, k)
					}
				}
			}
		}
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json declares exactly the metrics
// and workloads this program reports.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricName) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the program reports %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the program reports %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer())
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json declares %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is unknown to the program", w.Name)
		}
	}
}
