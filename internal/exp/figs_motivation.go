package exp

import (
	"fmt"

	"pivot/internal/machine"
	"pivot/internal/mem"
	"pivot/internal/metrics"
	"pivot/internal/scenario"
	"pivot/internal/workload"
)

// Fig01 — normalized 95th-percentile latency of the LC tasks under Default,
// MBA and MPAM (a value above 1.0 on the QoS-normalised scale is a
// violation). Shows MPAM failing to enforce QoS and MBA succeeding.
func (ctx *Context) Fig01() (*metrics.Table, error) {
	sc := scenario.MustBuiltin("fig1")
	apps := sc.MustAxis("tasks[0].app").Strings()
	policies := sc.MustAxis("policy").Strings()
	t := &metrics.Table{
		Title:   "Figure 1: normalized p95 latency vs QoS (>1.00 violates)",
		Headers: append([]string{"app"}, policies...),
	}
	rn := ctx.runner()
	bes := []BESpec{{App: sc.Tasks[1].App, Threads: ctx.beThreads(sc.Tasks[1].ThreadCount())}}
	for _, app := range apps {
		cal := rn.calib(app)
		lcs := []LCSpec{{App: app, LoadPct: sc.Tasks[0].LoadPct}}
		cells := []string{app}
		for _, pol := range policies {
			var r RunResult
			if pol == "MBA" {
				// MBA's level is searched, not declared: the best-of-ladder
				// sweep lives in the harness.
				r, _ = rn.bestMBA(lcs, bes)
			} else {
				r = rn.run(RunSpec{Method: mustMethod(pol), LCs: lcs, BEs: bes})
			}
			cells = append(cells, fmt.Sprintf("%.2f", float64(r.P95[0])/float64(cal.QoSTarget)))
		}
		t.AddRow(cells...)
	}
	return t, rn.err
}

// Fig02 — memory bandwidth utilisation of MBA, MPAM, FullPath and PIVOT in
// the same scenario. Shows the utilisation ordering MBA < FullPath < PIVOT.
func (ctx *Context) Fig02() (*metrics.Table, error) {
	sc := scenario.MustBuiltin("fig2")
	policies := sc.MustAxis("policy").Strings()
	t := &metrics.Table{
		Title:   "Figure 2: memory bandwidth utilisation (fraction of peak)",
		Headers: append([]string{"app"}, policies...),
	}
	rn := ctx.runner()
	bes := []BESpec{{App: sc.Tasks[1].App, Threads: ctx.beThreads(sc.Tasks[1].ThreadCount())}}
	for _, app := range sc.MustAxis("tasks[0].app").Strings() {
		lcs := []LCSpec{{App: app, LoadPct: sc.Tasks[0].LoadPct}}
		cells := []any{app}
		for _, pol := range policies {
			if pol == "MBA" {
				r, lvl := rn.bestMBA(lcs, bes)
				cells = append(cells, fmt.Sprintf("%.3f (lvl %d)", r.BWUtil, lvl))
			} else {
				cells = append(cells, rn.run(RunSpec{Method: mustMethod(pol), LCs: lcs, BEs: bes}).BWUtil)
			}
		}
		t.AddRowf(cells...)
	}
	return t, rn.err
}

// Fig03 — maximum normalised iBench throughput with no QoS violation
// (normalised to 7-thread iBench running alone).
func (ctx *Context) Fig03() (*metrics.Table, error) {
	sc := scenario.MustBuiltin("fig3")
	policies := sc.MustAxis("policy").Strings()
	t := &metrics.Table{
		Title:   "Figure 3: max iBench throughput under QoS (vs 7-thread alone)",
		Headers: append([]string{"app"}, policies...),
	}
	rn := ctx.runner()
	beApp := sc.Tasks[1].App
	n := ctx.beThreads(sc.Tasks[1].ThreadCount())
	for _, app := range sc.MustAxis("tasks[0].app").Strings() {
		lcs := []LCSpec{{App: app, LoadPct: sc.Tasks[0].LoadPct}}
		cells := []any{app}
		for _, pol := range policies {
			if pol == "MBA" {
				cells = append(cells, rn.maxBEMBA(lcs, beApp, n))
			} else {
				cells = append(cells, rn.maxBE(mustMethod(pol), lcs, beApp, n))
			}
		}
		t.AddRowf(cells...)
	}
	return t, rn.err
}

// Fig05 — where do Masstree's critical loads spend their cycles? Average
// per-component cycles of chase-load memory requests under Run Alone,
// Co-location (Default) and Full Path.
func (ctx *Context) Fig05() (*metrics.Table, error) {
	t := &metrics.Table{
		Title: "Figure 5: cycle split of Masstree critical loads per component",
		Headers: []string{"scenario", "L2", "Interconnect", "LLC", "Bus",
			"BWCtrl", "MemCtrl", "DRAM", "Resp", "total"},
	}
	sc := scenario.MustBuiltin("fig5")
	app := sc.Tasks[0].App
	cal, err := ctx.Calib(app)
	if err != nil {
		return nil, err
	}

	// Track only the chase PCs: rebuild the generator deterministically the
	// same way the machine does (core slot 0, same seed derivation).
	chase := chaseSetFor(cal.App, ctx.Scale.Seed)

	row := func(name string, mth Method, bes []BESpec) error {
		opt := machine.Options{}
		r, err := ctx.runWithSplit(RunSpec{Method: mth,
			LCs: []LCSpec{{App: app, LoadPct: sc.Tasks[0].LoadPct}}, BEs: bes, Opt: opt}, chase)
		if err != nil {
			return err
		}
		cells := []string{name}
		var total float64
		for _, c := range []mem.Component{mem.CompL2, mem.CompInterconnect, mem.CompLLC,
			mem.CompBus, mem.CompBWCtrl, mem.CompMemCtrl, mem.CompDRAM, mem.CompResp} {
			cells = append(cells, fmt.Sprintf("%.0f", r.Split[c]))
			total += r.Split[c]
		}
		cells = append(cells, fmt.Sprintf("%.0f", total))
		t.AddRow(cells...)
		return nil
	}
	bes := []BESpec{{App: sc.Tasks[1].App, Threads: ctx.beThreads(sc.Tasks[1].ThreadCount())}}
	if err := row("Run Alone", MethodDefault(), nil); err != nil {
		return nil, err
	}
	if err := row("Co-location", MethodDefault(), bes); err != nil {
		return nil, err
	}
	if err := row("Full Path", MethodFullPath(), bes); err != nil {
		return nil, err
	}
	return t, nil
}

// runWithSplit runs a spec with the split-statistics filter set.
func (ctx *Context) runWithSplit(spec RunSpec, filter map[uint64]bool) (RunResult, error) {
	in, err := ctx.resolve(spec)
	if err != nil {
		return RunResult{}, err
	}
	m, err := machine.New(ctx.Cfg, in.opt, in.tasks)
	if err != nil {
		return RunResult{}, err
	}
	m.SetStatsFilter(filter)
	if err := m.RunChecked(ctx.runContext(), in.warmup, in.measure); err != nil {
		return RunResult{}, err
	}
	var res RunResult
	res.Split, res.SplitN = m.SplitAverages()
	res.BWUtil = m.BWUtil()
	res.P95 = []uint32{m.LCp95(0)}
	return res, nil
}

// chaseSetFor reproduces the chase-load PCs of the LC generator on core 0
// with the machine's seed derivation.
func chaseSetFor(app workload.LCParams, seed uint64) map[uint64]bool {
	// Mirrors machine.New: rng = NewRNG(seed + 1*0x9E37), gen uses
	// rng.Fork(). The PC layout depends only on the parameter counts, so a
	// throwaway generator suffices.
	gen := workload.NewReqGen(app, 0, nil)
	set := make(map[uint64]bool)
	for _, pc := range gen.ChasePCs() {
		set[pc] = true
	}
	return set
}

// Fig06 — normalized p95 under FullPath with increasing BE thread counts:
// full-path prioritisation keeps every LC task within QoS even at the
// highest contention.
func (ctx *Context) Fig06() (*metrics.Table, error) {
	sc := scenario.MustBuiltin("fig6")
	threads := sc.MustAxis("tasks[1].threads").Ints()
	headers := []string{"app"}
	for _, n := range threads {
		headers = append(headers, fmt.Sprintf("%d thr", n))
	}
	t := &metrics.Table{
		Title:   "Figure 6: normalized p95 under FullPath vs #iBench threads",
		Headers: headers,
	}
	rn := ctx.runner()
	for _, app := range sc.MustAxis("tasks[0].app").Strings() {
		cal := rn.calib(app)
		cells := []string{app}
		for _, n := range threads {
			r := rn.run(RunSpec{Method: mustMethod(sc.Policy),
				LCs: []LCSpec{{App: app, LoadPct: sc.Tasks[0].LoadPct}},
				BEs: []BESpec{{App: sc.Tasks[1].App, Threads: n}}})
			cells = append(cells, fmt.Sprintf("%.2f", float64(r.P95[0])/float64(cal.QoSTarget)))
		}
		t.AddRow(cells...)
	}
	return t, rn.err
}

// Fig07 — leave-one-out: normalized p95 when one MSC does not enforce
// priority. QoS violations appear whenever any single component opts out.
func (ctx *Context) Fig07() (*metrics.Table, error) {
	sc := scenario.MustBuiltin("fig7")
	mscs := sc.MustAxis("options.disable_msc").Strings() // "" = all enforce
	headers := []string{"app"}
	for _, name := range mscs {
		if name == "" {
			headers = append(headers, "all MSCs")
		} else {
			headers = append(headers, "-"+name)
		}
	}
	t := &metrics.Table{
		Title:   "Figure 7: normalized p95 with one MSC not enforcing priority",
		Headers: headers,
	}
	rn := ctx.runner()
	bes := []BESpec{{App: sc.Tasks[1].App, Threads: ctx.beThreads(sc.Tasks[1].ThreadCount())}}
	for _, app := range sc.MustAxis("tasks[0].app").Strings() {
		cal := rn.calib(app)
		lcs := []LCSpec{{App: app, LoadPct: sc.Tasks[0].LoadPct}}
		cells := []string{app}
		for _, name := range mscs {
			r := rn.run(RunSpec{Method: mustMethod(sc.Policy), LCs: lcs, BEs: bes,
				Opt: optionsFor(scenario.Options{DisableMSC: name})})
			cells = append(cells, fmt.Sprintf("%.2f", float64(r.P95[0])/float64(cal.QoSTarget)))
		}
		t.AddRow(cells...)
	}
	return t, rn.err
}

// Fig08 — cumulative distribution of static loads vs ROB stall cycles for
// Silo and Moses: a small fraction of loads causes nearly all stall cycles.
func (ctx *Context) Fig08() (*metrics.Table, error) {
	t := &metrics.Table{
		Title:   "Figure 8: CDF — top static loads vs share of ROB stall cycles",
		Headers: []string{"app", "loads", "top 5%", "top 10%", "top 20%", "top 50%"},
	}
	for _, app := range scenario.MustBuiltin("fig8").MustAxis("tasks[0].app").Strings() {
		prof := machine.RunProfilerOpt(ctx.Cfg, ctx.lcParams(app),
			ctx.Scale.MaxBEThreads, ctx.Scale.Seed, machine.ProfileCycles,
			ctx.guard(machine.Options{}))
		loadFrac, stallFrac := prof.CDF()
		share := func(frac float64) string {
			for i, lf := range loadFrac {
				if lf >= frac {
					return fmt.Sprintf("%.3f", stallFrac[i])
				}
			}
			return "1.000"
		}
		t.AddRow(app, fmt.Sprint(len(loadFrac)),
			share(0.05), share(0.10), share(0.20), share(0.50))
	}
	return t, nil
}

// Fig12 — run-alone load-latency curves with the knee-derived QoS target
// and max load per application.
func (ctx *Context) Fig12() (*metrics.Table, error) {
	t := &metrics.Table{
		Title:   "Figure 12: load-latency curves (run alone), knee and max load",
		Headers: []string{"app", "load", "RPMC", "p95", "mean", "QoS", "maxLoad"},
	}
	for _, app := range scenario.MustBuiltin("fig12").MustAxis("tasks[0].app").Strings() {
		cal, err := ctx.Calib(app)
		if err != nil {
			return nil, err
		}
		for _, pt := range cal.Curve {
			t.AddRow(app,
				fmt.Sprintf("%.0f%%", pt.LoadFrac*100),
				fmt.Sprintf("%.1f", pt.RPMC),
				fmt.Sprint(pt.P95),
				fmt.Sprintf("%.0f", pt.Mean),
				fmt.Sprint(cal.QoSTarget),
				fmt.Sprintf("%.1f", cal.MaxLoad))
		}
	}
	return t, nil
}
