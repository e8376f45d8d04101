// Command perfbench is the repository's benchmark. It runs one named
// workload of the PIVOT simulator in a fresh process, checks every output it
// produces, and prints its metrics as one JSON object on the last line of
// standard output:
//
//	perfbench --workload colo-pivot --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics (host time of set-up and
// of the timed phase, simulated cycles per host second, peak RSS). With
// --trace 1 it runs the timed phase twice, untraced and then traced (CPU
// profile, stats counters, spans around its own calls), and reports the
// per-layer metrics instead. README.md names every workload and metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report accumulates a run's correctness checks and metrics.
type report struct {
	attempted, failed int
	metrics           map[string]metric
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

// check counts one correctness check, logging a failure to standard error.
func (r *report) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
	}
}

// fail counts an error that stopped part of the run as a failed check.
func (r *report) fail(err error) { r.check(false, "%v", err) }

func (r *report) set(name, unit string, v float64) { r.metrics[name] = metric{v, unit} }

// spans records the host seconds of the benchmark's calls into each layer,
// keyed by span name.
type spans map[string][]float64

func (s spans) time(name string, f func()) {
	t := time.Now()
	f()
	s[name] = append(s[name], time.Since(t).Seconds())
}

// total is the summed duration of a span in seconds.
func (s spans) total(name string) float64 { return sum(s[name]) }

// args are one run's command-line settings.
type args struct {
	seed   uint64
	secs   int
	trace  bool
	record bool // store the machine outputs as references
}

// workloadFunc runs one workload, filling r.
type workloadFunc func(r *report, a args) error

var workloads = map[string]workloadFunc{
	"colo-pivot":  coloPivot.run,
	"lc-tenants":  lcTenants.run,
	"fig13-sweep": fig13Sweep.run,
}

// setupReps is how many times an untraced run repeats its set-up; setup_s
// is the median.
const setupReps = 5

// defaultSeed is the seed the quick goldens were produced with.
const defaultSeed = 1

func main() {
	name := flag.String("workload", "", "workload to run: colo-pivot, lc-tenants or fig13-sweep")
	seed := flag.Uint64("seed", defaultSeed, "workload seed")
	secs := flag.Int("seconds", 15, "sizes the timed phase of the machine workloads")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	record := flag.Bool("record", false, "store this run's final machine outputs in refs.json as the reference for its workload, seed and size")
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || *secs < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %s), --seconds >= 1 and --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))

	stamp, err := json.Marshal(map[string]any{
		"host": hostStamp(), "workload": *name, "seed": *seed, "seconds": *secs, "trace": *trace,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(stamp))

	r := newReport()
	if err := run(r, args{seed: *seed, secs: *secs, trace: *trace == 1, record: *record}); err != nil {
		r.fail(err)
	}
	if *trace == 0 {
		r.set("peak_rss_mb", "MB", peakRSSMB())
	} else {
		for _, m := range perLayer() {
			if _, ok := r.metrics[m.name]; !ok {
				r.set(m.name, m.unit, 0)
			}
		}
	}
	out, err := json.Marshal(map[string]any{
		"correct": r.failed == 0, "attempted": r.attempted, "failed": r.failed, "metrics": r.metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

type metricName struct{ name, unit string }

// endToEnd lists the metrics an untraced run reports.
var endToEnd = []metricName{{"setup_s", "s"}, {"wall_s", "s"}, {"sim_cycles_per_s", "1/s"}, {"peak_rss_mb", "MB"}}

// perLayer lists every per-layer metric. A traced run reports all of them,
// with 0 for those its workload does not exercise (README.md says which).
func perLayer() []metricName {
	ms := []metricName{
		{"machine.profile_s", "s"}, {"machine.new_s", "s"}, {"machine.warmup_s", "s"},
		{"machine.step_ms.p50", "ms"}, {"machine.step_ms.p99", "ms"},
		{"exp.calib_s", "s"}, {"exp.potential_s", "s"}, {"exp.be_alone_s", "s"},
		{"exp.maxbe_s.total", "s"}, {"exp.maxbe_s.p50", "s"}, {"exp.maxbe_s.calls", "count"},
		{"exp.run_s.total", "s"}, {"exp.run_s.p50", "s"}, {"exp.run_s.calls", "count"},
		{"exp.repeat_frac", "frac"}, {"exp.repeat_time_frac", "frac"},
	}
	for _, m := range modules {
		ms = append(ms, metricName{"self." + m + "_s", "s"}, metricName{"self." + m + "_frac", "frac"})
	}
	for _, c := range countMetrics {
		ms = append(ms, metricName{c, "count"})
	}
	return append(ms,
		metricName{"dram.row_hit_frac", "frac"}, metricName{"dram.accept_frac", "frac"},
		metricName{"dram.ns_per_served", "ns"}, metricName{"cpu.ns_per_committed", "ns"},
		metricName{"interconnect.ns_per_forwarded", "ns"}, metricName{"bwctrl.ns_per_forwarded", "ns"},
		metricName{"engine.skip_speedup", "x"}, metricName{"trace.overhead_frac", "frac"},
		metricName{"host.ref_ms", "ms"},
	)
}

// setSpans reports the spans a workload recorded around its calls.
func setSpans(r *report, sp spans) {
	for _, name := range []string{"machine.profile_s", "machine.new_s", "machine.warmup_s",
		"exp.calib_s", "exp.potential_s", "exp.be_alone_s"} {
		if _, ok := sp[name]; ok {
			r.set(name, "s", sp.total(name))
		}
	}
	calls, callTime := 0, 0.0
	for _, name := range []string{"exp.maxbe_s", "exp.run_s"} {
		if _, ok := sp[name]; ok {
			r.set(name+".total", "s", sp.total(name))
			r.set(name+".p50", "s", median(sp[name]))
			r.set(name+".calls", "count", float64(len(sp[name])))
			calls += len(sp[name])
			callTime += sp.total(name)
		}
	}
	if calls > 0 {
		r.set("exp.repeat_frac", "frac", float64(len(sp["exp.repeat"]))/float64(calls))
		r.set("exp.repeat_time_frac", "frac", sp.total("exp.repeat")/callTime)
	}
}

// setSelf reports CPU-profile self time per module, in seconds and as a
// share of all samples.
func setSelf(r *report, self selfTime) {
	var all float64
	for _, v := range self {
		all += v
	}
	for _, m := range modules {
		r.set("self."+m+"_s", "s", self[m])
		r.set("self."+m+"_frac", "frac", ratio(self[m], all))
	}
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// hostStamp identifies what produced a result: comparisons are only valid
// between results with the same host key.
func hostStamp() map[string]any {
	commit, modified := "unknown", false
	goVersion := runtime.Version()
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				commit = s.Value
			case "vcs.modified":
				modified = s.Value == "true"
			}
		}
	}
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100"
	}
	return map[string]any{
		"commit": commit, "modified": modified, "cpu": cpuModel(), "nproc": runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0), "gogc": gogc, "go": goVersion,
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, ln := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(ln, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSSMB is the process's peak resident set size (Linux reports ru_maxrss
// in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
