package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"runtime/pprof"
	"strings"
	"time"

	"pivot/internal/machine"
	"pivot/internal/sim"
	"pivot/internal/stats"
	"pivot/internal/workload"
)

// lcLoad is one latency-critical tenant at a pinned mean inter-arrival.
type lcLoad struct {
	app    string
	meanIA float64 // cycles
}

// mix is a machine workload: a task mix under PIVOT, set up by offline
// profiling, assembly and warm-up, then stepped serially in fixed granules.
type mix struct {
	name      string
	cores     int
	lcs       []lcLoad
	beThreads int // iBench threads
	stress    int // stress threads of the offline profiling phase
	warmup    sim.Cycle
	granule   sim.Cycle
	// nominal is the simulated cycles per host second this mix ran at when
	// the benchmark was defined. It turns --seconds into a fixed number of
	// granules, so a faster simulator finishes the same work sooner.
	nominal float64
}

// coloPivot is the Fig-1 mix: memory bandwidth near peak, so the DRAM,
// interconnect and bwctrl paths dominate host time.
var coloPivot = mix{
	name: "colo-pivot", cores: 4,
	lcs:       []lcLoad{{workload.Silo, 5000}},
	beThreads: 3, stress: 3,
	warmup: 250_000, granule: 25_000, nominal: 1e6,
}

// lcTenants is the Fig-19 mix with no BE task: five idle cores and light
// memory traffic, so skip-ahead and per-slot polling dominate host time. The
// inter-arrivals are Xapian 30%, Masstree 20% and Img-DNN 10% of their
// quick-scale calibrated max load, pinned so no calibration runs.
var lcTenants = mix{
	name: "lc-tenants", cores: 8,
	lcs:    []lcLoad{{workload.Xapian, 4369}, {workload.Masstree, 18349}, {workload.ImgDNN, 12579}},
	stress: 7,
	warmup: 250_000, granule: 100_000, nominal: 12e6,
}

// outputs are the simulated results a machine run is checked on.
type outputs struct {
	Cycle       uint64   `json:"cycle"`
	P95         []uint32 `json:"p95"`
	Completed   []uint64 `json:"completed"`
	BECommitted uint64   `json:"be_committed"`
}

func outputsOf(m *machine.Machine) outputs {
	o := outputs{Cycle: uint64(m.Engine.Now()), BECommitted: m.BECommitted()}
	for i, lc := range m.LCTasks() {
		o.P95 = append(o.P95, m.LCp95(i))
		o.Completed = append(o.Completed, lc.Source.Completed())
	}
	return o
}

// tasks profiles every LC app offline and builds the task list.
func (mx mix) tasks(seed uint64) []machine.TaskSpec {
	cfg := machine.KunpengConfig(mx.cores)
	var ts []machine.TaskSpec
	for _, lc := range mx.lcs {
		params := workload.LCApps()[lc.app]
		ts = append(ts, machine.TaskSpec{
			Kind: machine.TaskLC, LC: params, MeanInterarrival: lc.meanIA, Seed: seed,
			Potential: machine.ProfileLC(cfg, params, mx.stress, seed),
		})
	}
	for i := 1; i <= mx.beThreads; i++ {
		ts = append(ts, machine.TaskSpec{
			Kind: machine.TaskBE, BE: workload.BEApps()[workload.IBench], Seed: seed + 10 + uint64(i),
		})
	}
	return ts
}

func (mx mix) build(ts []machine.TaskSpec, dense bool) (*machine.Machine, error) {
	return machine.New(machine.KunpengConfig(mx.cores), machine.Options{Policy: machine.PolicyPIVOT, Dense: dense}, ts)
}

// setup profiles, assembles and warms one machine, recording a span per
// step. withStats enables the stats registry before warm-up.
func (mx mix) setup(seed uint64, sp spans, withStats bool) (*machine.Machine, []machine.TaskSpec, error) {
	var ts []machine.TaskSpec
	sp.time("machine.profile_s", func() { ts = mx.tasks(seed) })
	var m *machine.Machine
	var err error
	sp.time("machine.new_s", func() { m, err = mx.build(ts, false) })
	if err != nil {
		return nil, nil, err
	}
	if withStats {
		m.EnableStats(1_000_000, 0)
	}
	sp.time("machine.warmup_s", func() { m.Engine.Step(mx.warmup) })
	return m, ts, nil
}

// timed steps m through n granules and returns each granule's host time,
// the same time at the host's nominal speed (h measures the host between
// granules, every refInterval), and the outputs after the first prefix
// granules.
func (mx mix) timed(m *machine.Machine, n, prefix int, h *hostRef) (raw, norm []float64, atPrefix outputs) {
	raw, norm = make([]float64, n), make([]float64, n)
	h.measure()
	block, blockStart := 0, time.Now()
	for g := 0; g < n; g++ {
		t := time.Now()
		m.Engine.Step(mx.granule)
		raw[g] = time.Since(t).Seconds()
		if g+1 == prefix {
			atPrefix = outputsOf(m)
		}
		if g == n-1 || time.Since(blockStart) >= refInterval {
			f := h.factor()
			for i := block; i <= g; i++ {
				norm[i] = raw[i] * f
			}
			block, blockStart = g+1, time.Now()
		}
	}
	return raw, norm, atPrefix
}

// granules sizes one trial of the timed phase so that an untraced run's
// setupReps trials together take about secs seconds at the nominal rate.
func (mx mix) granules(secs int) int {
	return max(10, int(float64(secs)*mx.nominal/float64(setupReps*mx.granule)+0.5))
}

// run times setupReps identical trials: each set-up builds the same warmed
// machine, and each machine then steps through the same granules. Times are
// taken at the host's nominal speed (see hostRef), and each granule is
// charged the fastest of its trials, which removes what the host reference
// misses; the trials must agree exactly.
func (mx mix) run(r *report, a args) error {
	n := mx.granules(a.secs)
	prefix := max(1, n/10)
	sp := spans{}
	h := newHostRef()
	reps := setupReps
	if a.trace {
		reps = 1
	}
	var setups []float64
	var raws, trials [][]float64
	var pre, final outputs
	var ts []machine.TaskSpec
	for k := 0; k < reps; k++ {
		var m *machine.Machine
		var tk []machine.TaskSpec
		var err error
		h.measure()
		_, setup := h.timeNorm(func() { m, tk, err = mx.setup(a.seed, sp, false) })
		if err != nil {
			return err
		}
		setups = append(setups, setup)
		raw, norm, p := mx.timed(m, n, prefix, h)
		raws, trials = append(raws, raw), append(trials, norm)
		f := outputsOf(m)
		if k == 0 {
			pre, final, ts = p, f, tk
		} else {
			r.check(reflect.DeepEqual(p, pre) && reflect.DeepEqual(f, final),
				"%s trial %d outputs %+v differ from trial 0's %+v", mx.name, k, f, final)
		}
	}
	best := make([]float64, n)
	for g := range best {
		best[g] = trials[0][g]
		for _, tr := range trials[1:] {
			best[g] = min(best[g], tr[g])
		}
	}
	wall := sum(best)

	// Dense ≡ skip-ahead: a fresh dense machine must reach the first trial's
	// outputs at the end of the prefix.
	dm, err := mx.build(ts, true)
	if err != nil {
		return err
	}
	prefixCycles := mx.warmup + sim.Cycle(prefix)*mx.granule
	t := time.Now()
	dm.Engine.Step(prefixCycles)
	wallDense := time.Since(t)
	got := outputsOf(dm)
	r.check(reflect.DeepEqual(got, pre), "%s dense prefix outputs %+v differ from skip-ahead's %+v", mx.name, got, pre)
	checkRef(r, refKey(mx.name, a.seed, n), final, a.record)

	if !a.trace {
		r.set("setup_s", "s", median(setups))
		r.set("wall_s", "s", wall)
		r.set("sim_cycles_per_s", "1/s", float64(mx.granule)*float64(n)/wall)
		return nil
	}

	// Traced pass: another machine with the stats registry on, stepped under
	// the CPU profiler.
	tm, _, err := mx.setup(a.seed, spans{}, true)
	if err != nil {
		return err
	}
	before := tm.StatsDump()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return fmt.Errorf("starting CPU profile: %w", err)
	}
	traw, _, tpre := mx.timed(tm, n, prefix, h)
	pprof.StopCPUProfile()
	after := tm.StatsDump()
	r.check(reflect.DeepEqual(outputsOf(tm), final) && reflect.DeepEqual(tpre, pre),
		"%s traced run outputs differ from the untraced run's", mx.name)
	self, err := attributeProfile(prof.Bytes())
	if err != nil {
		return err
	}

	setSpans(r, sp)
	r.set("host.ref_ms", "ms", 1e3*median(h.all))
	r.set("machine.step_ms.p50", "ms", 1e3*median(raws[0]))
	r.set("machine.step_ms.p99", "ms", 1e3*quantile(raws[0], 0.99))
	setSelf(r, self)
	setCounts(r, countDelta(before, after), self)
	skipPrefix := sp.total("machine.warmup_s") + sum(raws[0][:prefix])
	r.set("engine.skip_speedup", "x", wallDense.Seconds()/skipPrefix)
	r.set("trace.overhead_frac", "frac", sum(traw)/sum(raws[0])-1)
	return nil
}

// countDelta returns each counter's growth between two stats dumps, with
// the per-core cpuN.committed counters summed into cpu.committed.
func countDelta(before, after stats.Dump) map[string]float64 {
	out := map[string]float64{}
	add := func(d stats.Dump, sign float64) {
		for _, in := range d.Instruments {
			if in.Kind != "counter" {
				continue
			}
			name := in.Name
			if strings.HasPrefix(name, "cpu") && strings.Count(name, ".") == 1 && strings.HasSuffix(name, ".committed") {
				name = "cpu.committed"
			}
			out[name] += sign * in.Value
		}
	}
	add(after, 1)
	add(before, -1)
	return out
}

// setCounts reports the stats work counts, the ratios of useful work to
// attempts, and host nanoseconds of each module's self time per event.
func setCounts(r *report, c map[string]float64, self selfTime) {
	for _, name := range countMetrics {
		r.set(name, "count", c[name])
	}
	r.set("dram.row_hit_frac", "frac", ratio(c["dram.row_hits"], c["dram.row_hits"]+c["dram.row_misses"]))
	r.set("dram.accept_frac", "frac", ratio(c["dram.served"], c["dram.served"]+c["dram.refused"]))
	r.set("dram.ns_per_served", "ns", ratio(1e9*self["dram"], c["dram.served"]))
	r.set("cpu.ns_per_committed", "ns", ratio(1e9*self["cpu"], c["cpu.committed"]))
	r.set("interconnect.ns_per_forwarded", "ns", ratio(1e9*self["interconnect"], c["ic.forwarded"]+c["bus.forwarded"]))
	r.set("bwctrl.ns_per_forwarded", "ns", ratio(1e9*self["bwctrl"], c["bwctrl.forwarded"]))
}

// countMetrics are the stats counters reported as they are.
var countMetrics = []string{
	"cpu.committed", "llc.misses", "ic.forwarded", "bus.refused", "bwctrl.refused", "dram.served", "dram.refused",
}

// ratio is a/b, or 0 when there is no base.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

//go:embed refs.json
var refsJSON []byte

// refKey names a reference: the outputs depend on the workload, the seed
// and the number of timed granules.
func refKey(name string, seed uint64, granules int) string {
	return fmt.Sprintf("%s seed=%d granules=%d", name, seed, granules)
}

// refsPath is where --record writes, relative to the checkout root.
const refsPath = "perfbench/refs.json"

// checkRef compares a run's final outputs with the reference recorded for
// its key, when one exists; with record set it adds them to refsPath
// instead, for the next build to embed.
func checkRef(r *report, key string, got outputs, record bool) {
	src := refsJSON
	if record {
		var err error
		if src, err = os.ReadFile(refsPath); err != nil {
			r.fail(err)
			return
		}
	}
	refs := map[string]outputs{}
	if err := json.Unmarshal(src, &refs); err != nil {
		r.fail(fmt.Errorf("refs.json: %w", err))
		return
	}
	if record {
		if r.failed > 0 {
			r.fail(fmt.Errorf("not recording %s from a run with failed checks", key))
			return
		}
		refs[key] = got
		b, err := json.MarshalIndent(refs, "", "  ")
		if err == nil {
			err = os.WriteFile(refsPath, append(b, '\n'), 0o644)
		}
		r.check(err == nil, "recording %s: %v", key, err)
		return
	}
	want, ok := refs[key]
	if !ok {
		return
	}
	r.check(reflect.DeepEqual(got, want), "%s: outputs %+v differ from the reference %+v", key, got, want)
}
