package pivot

// One benchmark per paper table/figure. Each benchmark exercises the same
// code path as the corresponding cmd/pivot-exp experiment at a reduced scope
// (one application / one cell instead of the full sweep) so `go test
// -bench=.` regenerates every result's machinery in minutes. The headline
// quantity of each figure is attached via b.ReportMetric; run
// `cmd/pivot-exp` for the full tables.

import (
	"fmt"
	"sync"
	"testing"

	"pivot/internal/exp"
	"pivot/internal/machine"
	"pivot/internal/mem"
	"pivot/internal/metrics"
	"pivot/internal/rrbp"
	"pivot/internal/workload"
)

// mustRun / mustCalib / mustTable unwrap the exp layer's error returns;
// any simulation failure fails the benchmark immediately.
func mustRun(b *testing.B, ctx *exp.Context, spec exp.RunSpec) exp.RunResult {
	b.Helper()
	r, err := ctx.Run(spec)
	if err != nil {
		b.Fatal(err)
	}
	return r
}

// seeded returns a view of ctx whose runs use seed Scale.Seed+i, so every
// iteration of a benchmark loop simulates instead of returning the result
// the context memoized for the previous one. The first iteration keeps the
// scale's seed, and calibrations, computed on first use, stay shared.
func seeded(ctx *exp.Context, i int) *exp.Context {
	c := *ctx
	c.Scale.Seed += uint64(i)
	return &c
}

func mustCalib(b *testing.B, ctx *exp.Context, app string) *exp.AppCalib {
	b.Helper()
	cal, err := ctx.Calib(app)
	if err != nil {
		b.Fatal(err)
	}
	return cal
}

func mustTable(t *metrics.Table, err error) *metrics.Table {
	if err != nil {
		panic(err)
	}
	return t
}

var (
	benchOnce sync.Once
	benchCtx  *exp.Context
)

// benchContext returns a shared, pre-calibrated harness context at bench
// scale (4 cores, short runs) so per-benchmark setup stays out of the timer.
func benchContext(b *testing.B) *exp.Context {
	b.Helper()
	benchOnce.Do(func() {
		s := exp.Quick()
		s.Warmup = 150_000
		s.Measure = 200_000
		s.CalMeasure = 120_000
		s.LoadFracs = []float64{0.2, 0.6}
		s.MaxBEThreads = 3
		benchCtx = exp.NewContext(machine.KunpengConfig(4), s)
		// Pre-warm the caches every benchmark shares. An error here is
		// cached and resurfaces in the first benchmark's mustCalib.
		benchCtx.Calib(workload.Masstree) //nolint:errcheck
		benchCtx.Potential(workload.Masstree)
	})
	return benchCtx
}

// benchColo runs one co-location cell under a method and reports the
// figure's headline metrics.
func benchColo(b *testing.B, mth exp.Method, app string, load int, threads int) exp.RunResult {
	b.Helper()
	ctx := benchContext(b)
	var last exp.RunResult
	for i := 0; i < b.N; i++ {
		last = mustRun(b, seeded(ctx, i), exp.RunSpec{Method: mth,
			LCs: []exp.LCSpec{{App: app, LoadPct: load}},
			BEs: []exp.BESpec{{App: workload.IBench, Threads: threads}}})
	}
	if len(last.P95) > 0 {
		b.ReportMetric(float64(last.P95[0]), "p95-cycles")
	}
	b.ReportMetric(last.BEIPC, "be-ipc")
	b.ReportMetric(last.BWUtil, "bw-util")
	return last
}

// --- Motivation figures ----------------------------------------------------

func BenchmarkFig01TailLatencyDefault(b *testing.B) {
	benchColo(b, exp.MethodDefault(), workload.Masstree, 70, 3)
}

func BenchmarkFig01TailLatencyMPAM(b *testing.B) {
	benchColo(b, exp.MethodMPAM(), workload.Masstree, 70, 3)
}

func BenchmarkFig02BandwidthFullPath(b *testing.B) {
	benchColo(b, exp.MethodFullPath(), workload.Masstree, 70, 3)
}

func BenchmarkFig02BandwidthPIVOT(b *testing.B) {
	benchColo(b, exp.MethodPIVOT(), workload.Masstree, 70, 3)
}

func BenchmarkFig03MaxBEThroughput(b *testing.B) {
	ctx := benchContext(b)
	var v float64
	for i := 0; i < b.N; i++ {
		var err error
		v, err = seeded(ctx, i).MaxBEThroughput(exp.MethodPIVOT(),
			[]exp.LCSpec{{App: workload.Masstree, LoadPct: 70}}, workload.IBench, 3)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(v, "be-throughput-norm")
}

func BenchmarkFig05CycleSplit(b *testing.B) {
	ctx := benchContext(b)
	var split [mem.NumComponents]float64
	for i := 0; i < b.N; i++ {
		r := mustRun(b, seeded(ctx, i), exp.RunSpec{Method: exp.MethodDefault(),
			LCs: []exp.LCSpec{{App: workload.Masstree, LoadPct: 70}},
			BEs: []exp.BESpec{{App: workload.IBench, Threads: 3}}})
		split = r.Split
	}
	b.ReportMetric(split[mem.CompMemCtrl], "memctrl-cycles")
	b.ReportMetric(split[mem.CompDRAM], "dram-cycles")
}

func BenchmarkFig06FullPathScaling(b *testing.B) {
	benchColo(b, exp.MethodFullPath(), workload.Silo, 70, 3)
}

func BenchmarkFig07LeaveOneOut(b *testing.B) {
	ctx := benchContext(b)
	var p95 uint32
	for i := 0; i < b.N; i++ {
		r := mustRun(b, seeded(ctx, i), exp.RunSpec{Method: exp.MethodFullPath(),
			LCs: []exp.LCSpec{{App: workload.Masstree, LoadPct: 70}},
			BEs: []exp.BESpec{{App: workload.IBench, Threads: 3}},
			Opt: machine.Options{DisableMSC: mem.CompMemCtrl}})
		p95 = r.P95[0]
	}
	b.ReportMetric(float64(p95), "p95-cycles")
}

func BenchmarkFig08StallCDF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		prof := machine.RunProfiler(machine.KunpengConfig(4),
			workload.LCApps()[workload.Silo], 3, 1, 200_000)
		loadFrac, stallFrac := prof.CDF()
		if len(loadFrac) > 0 {
			b.ReportMetric(stallFrac[len(loadFrac)/10], "stall-share-top10pct")
		}
	}
}

func BenchmarkFig12LoadLatencyCurve(b *testing.B) {
	ctx := benchContext(b)
	var knee float64
	for i := 0; i < b.N; i++ {
		cal := mustCalib(b, ctx, workload.Masstree)
		knee = float64(cal.QoSTarget)
	}
	b.ReportMetric(knee, "qos-cycles")
}

// --- Evaluation figures ------------------------------------------------------

func BenchmarkFig13PARTIES(b *testing.B) {
	benchColo(b, exp.MethodPARTIES(), workload.Silo, 50, 3)
}

func BenchmarkFig13CLITE(b *testing.B) {
	benchColo(b, exp.MethodCLITE(), workload.Silo, 50, 3)
}

func BenchmarkFig13PIVOT(b *testing.B) {
	benchColo(b, exp.MethodPIVOT(), workload.Silo, 50, 3)
}

func BenchmarkFig14TailUnderManagers(b *testing.B) {
	benchColo(b, exp.MethodPARTIES(), workload.Masstree, 50, 3)
}

func BenchmarkFig15TwoLCHeatmapCell(b *testing.B) {
	ctx := benchContext(b)
	var r exp.RunResult
	for i := 0; i < b.N; i++ {
		r = mustRun(b, seeded(ctx, i), exp.RunSpec{Method: exp.MethodPIVOT(),
			LCs: []exp.LCSpec{
				{App: workload.Xapian, LoadPct: 30},
				{App: workload.ImgDNN, LoadPct: 30},
			},
			BEs: []exp.BESpec{{App: workload.IBench, Threads: 2}}})
	}
	b.ReportMetric(r.BEIPC, "be-ipc")
}

func BenchmarkFig16CloudSuiteBE(b *testing.B) {
	ctx := benchContext(b)
	var r exp.RunResult
	for i := 0; i < b.N; i++ {
		r = mustRun(b, seeded(ctx, i), exp.RunSpec{Method: exp.MethodPIVOT(),
			LCs: []exp.LCSpec{{App: workload.Xapian, LoadPct: 50}},
			BEs: []exp.BESpec{{App: workload.DataAn, Threads: 3}}})
	}
	b.ReportMetric(r.BEIPC, "be-ipc")
	b.ReportMetric(r.BWUtil, "bw-util")
}

func BenchmarkFig17TwoBE(b *testing.B) {
	ctx := benchContext(b)
	var r exp.RunResult
	for i := 0; i < b.N; i++ {
		r = mustRun(b, seeded(ctx, i), exp.RunSpec{Method: exp.MethodPIVOT(),
			LCs: []exp.LCSpec{{App: workload.Silo, LoadPct: 50}},
			BEs: []exp.BESpec{
				{App: workload.GraphAn, Threads: 2},
				{App: workload.InMemAn, Threads: 1},
			}})
	}
	b.ReportMetric(r.BEIPC, "be-ipc")
}

func BenchmarkFig18TwoLCFrontier(b *testing.B) {
	ctx := benchContext(b)
	var r exp.RunResult
	for i := 0; i < b.N; i++ {
		r = mustRun(b, seeded(ctx, i), exp.RunSpec{Method: exp.MethodPIVOT(),
			LCs: []exp.LCSpec{
				{App: workload.Silo, LoadPct: 50},
				{App: workload.Masstree, LoadPct: 30},
			}})
	}
	qos := 0.0
	if r.AllQoS {
		qos = 1
	}
	b.ReportMetric(qos, "both-qos-met")
}

func BenchmarkFig19ThreeLC(b *testing.B) {
	ctx := benchContext(b)
	var r exp.RunResult
	for i := 0; i < b.N; i++ {
		r = mustRun(b, seeded(ctx, i), exp.RunSpec{Method: exp.MethodPIVOT(),
			LCs: []exp.LCSpec{
				{App: workload.Xapian, LoadPct: 30},
				{App: workload.Masstree, LoadPct: 20},
				{App: workload.ImgDNN, LoadPct: 10},
			}})
	}
	qos := 0.0
	if r.AllQoS {
		qos = 1
	}
	b.ReportMetric(qos, "all-qos-met")
}

// --- Predictors, sensitivity, Neoverse --------------------------------------

func BenchmarkFig20CBP(b *testing.B) {
	benchColo(b, exp.Method{Name: "CBP", Policy: machine.PolicyCBP}, workload.Masstree, 50, 3)
}

func BenchmarkFig20CBPFullPath(b *testing.B) {
	benchColo(b, exp.Method{Name: "CBP+FullPath", Policy: machine.PolicyCBPFullPath},
		workload.Masstree, 50, 3)
}

func BenchmarkFig21RunAloneIPC(b *testing.B) {
	ctx := benchContext(b)
	var r exp.RunResult
	for i := 0; i < b.N; i++ {
		r = mustRun(b, seeded(ctx, i), exp.RunSpec{Method: exp.MethodDefault(),
			LCs: []exp.LCSpec{{App: workload.Masstree, LoadPct: 70}}})
	}
	b.ReportMetric(r.LCIPC[0], "lc-ipc")
}

func BenchmarkFig22RRBP16Entries(b *testing.B) {
	ctx := benchContext(b)
	cfg := rrbp.DefaultConfig()
	cfg.Entries = 16
	cfg.RefreshCycles = machine.ScaledRRBPRefresh
	var r exp.RunResult
	for i := 0; i < b.N; i++ {
		r = mustRun(b, seeded(ctx, i), exp.RunSpec{Method: exp.MethodPIVOT(),
			LCs: []exp.LCSpec{{App: workload.Masstree, LoadPct: 70}},
			BEs: []exp.BESpec{{App: workload.IBench, Threads: 3}},
			Opt: machine.Options{RRBP: cfg}})
	}
	b.ReportMetric(r.BEIPC, "be-ipc")
}

func BenchmarkSensitivityRefresh(b *testing.B) {
	ctx := benchContext(b)
	cfg := rrbp.DefaultConfig()
	cfg.RefreshCycles = machine.ScaledRRBPRefresh / 2
	var r exp.RunResult
	for i := 0; i < b.N; i++ {
		r = mustRun(b, seeded(ctx, i), exp.RunSpec{Method: exp.MethodPIVOT(),
			LCs: []exp.LCSpec{{App: workload.Masstree, LoadPct: 70}},
			BEs: []exp.BESpec{{App: workload.IBench, Threads: 3}},
			Opt: machine.Options{RRBP: cfg}})
	}
	b.ReportMetric(r.BEIPC, "be-ipc")
}

var (
	neoOnce sync.Once
	neoCtx  *exp.Context
)

func neoverseContext(b *testing.B) *exp.Context {
	b.Helper()
	neoOnce.Do(func() {
		s := exp.Quick()
		s.Warmup = 150_000
		s.Measure = 200_000
		s.CalMeasure = 120_000
		s.LoadFracs = []float64{0.2, 0.6}
		s.MaxBEThreads = 3
		neoCtx = exp.NewContext(machine.NeoverseConfig(4), s)
	})
	return neoCtx
}

func BenchmarkFig23NeoversePIVOT(b *testing.B) {
	ctx := neoverseContext(b)
	var r exp.RunResult
	for i := 0; i < b.N; i++ {
		r = mustRun(b, seeded(ctx, i), exp.RunSpec{Method: exp.MethodPIVOT(),
			LCs: []exp.LCSpec{{App: workload.Silo, LoadPct: 50}},
			BEs: []exp.BESpec{{App: workload.IBench, Threads: 3}}})
	}
	b.ReportMetric(r.BEIPC, "be-ipc")
}

func BenchmarkFig24NeoverseCloudSuite(b *testing.B) {
	ctx := neoverseContext(b)
	var r exp.RunResult
	for i := 0; i < b.N; i++ {
		r = mustRun(b, seeded(ctx, i), exp.RunSpec{Method: exp.MethodCLITE(),
			LCs: []exp.LCSpec{{App: workload.Xapian, LoadPct: 50}},
			BEs: []exp.BESpec{{App: workload.DataAn, Threads: 3}}})
	}
	b.ReportMetric(r.BEIPC, "be-ipc")
}

func BenchmarkFig25NeoverseTwoBE(b *testing.B) {
	ctx := neoverseContext(b)
	var r exp.RunResult
	for i := 0; i < b.N; i++ {
		r = mustRun(b, seeded(ctx, i), exp.RunSpec{Method: exp.MethodPIVOT(),
			LCs: []exp.LCSpec{{App: workload.Moses, LoadPct: 50}},
			BEs: []exp.BESpec{
				{App: workload.GraphAn, Threads: 2},
				{App: workload.InMemAn, Threads: 1},
			}})
	}
	b.ReportMetric(r.BEIPC, "be-ipc")
}

// --- Tables ------------------------------------------------------------------

func BenchmarkTable1Workloads(b *testing.B) {
	ctx := benchContext(b)
	for i := 0; i < b.N; i++ {
		_ = mustTable(ctx.Table1()).String()
	}
}

func BenchmarkTable2KunpengConfig(b *testing.B) {
	ctx := benchContext(b)
	for i := 0; i < b.N; i++ {
		_ = mustTable(ctx.Table2()).String()
	}
}

func BenchmarkStorageBudget(b *testing.B) {
	var total int
	for i := 0; i < b.N; i++ {
		total = DefaultStorageBudget().Total()
	}
	b.ReportMetric(float64(total), "bits")
}

// --- Micro-benchmarks of the hot simulation paths ---------------------------

func BenchmarkSimulatorCyclesPerSecond(b *testing.B) {
	tasks := []machine.TaskSpec{
		{Kind: machine.TaskLC, LC: workload.LCApps()[workload.Silo], MeanInterarrival: 5000, Seed: 1},
		{Kind: machine.TaskBE, BE: workload.BEApps()[workload.IBench], Seed: 11},
		{Kind: machine.TaskBE, BE: workload.BEApps()[workload.IBench], Seed: 12},
		{Kind: machine.TaskBE, BE: workload.BEApps()[workload.IBench], Seed: 13},
	}
	m := machine.MustNew(machine.KunpengConfig(4), machine.Options{Policy: machine.PolicyDefault}, tasks)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Engine.Step(10_000)
	}
	b.ReportMetric(10_000*float64(b.N)/b.Elapsed().Seconds(), "sim-cycles/s")
}

// BenchmarkSimulatorCyclesPerSecondParallel measures the sharded windowed
// tick loop on the Fig-1 task mix (1 LC Silo + 3 BE iBench, the same tasks
// as the serial benchmark above) hosted on an 8-core machine, across shard
// worker counts, so one -bench run shows the scaling curve. workers=1
// isolates the windowed loop's algorithmic win (coordinator forecasts and
// skips the shared slots; cores advance in bulk inside windows); higher
// counts add goroutine fan-out on top.
func BenchmarkSimulatorCyclesPerSecondParallel(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			tasks := []machine.TaskSpec{
				{Kind: machine.TaskLC, LC: workload.LCApps()[workload.Silo], MeanInterarrival: 5000, Seed: 1},
				{Kind: machine.TaskBE, BE: workload.BEApps()[workload.IBench], Seed: 11},
				{Kind: machine.TaskBE, BE: workload.BEApps()[workload.IBench], Seed: 12},
				{Kind: machine.TaskBE, BE: workload.BEApps()[workload.IBench], Seed: 13},
			}
			m := machine.MustNew(machine.KunpengConfig(8),
				machine.Options{Policy: machine.PolicyDefault, Parallel: workers}, tasks)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Engine.Step(10_000)
			}
			b.ReportMetric(10_000*float64(b.N)/b.Elapsed().Seconds(), "sim-cycles/s")
		})
	}
}

func BenchmarkOfflineProfiling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		machine.ProfileLC(machine.KunpengConfig(4), workload.LCApps()[workload.Silo], 3, 1)
	}
}
