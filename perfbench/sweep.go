package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"reflect"
	"runtime/pprof"
	"time"

	"pivot/internal/exp"
	"pivot/internal/machine"
	"pivot/internal/workload"
)

// sweep is the figure workload: a fresh exp.Context replaying, in the
// golden suite's order, the Fig-13 max-BE searches, the Fig-13-EMU searches
// (the same calls again) and the Fig-14 runs for one LC app.
type sweep struct {
	name    string
	scale   exp.Scale
	cores   int
	app     string
	loads   []int
	threads int // iBench threads, also the BE-alone normalisation
	// golden names the directory of the quick golden tables this sweep's
	// cells must match at the default seed ("" for sweeps with no golden).
	golden string
}

var fig13Sweep = sweep{
	name: "fig13-sweep", scale: exp.Quick(), cores: 8, app: workload.Masstree,
	loads: []int{10, 30, 50, 70, 90}, threads: 7,
	golden: filepath.Join("internal", "exp", "testdata"),
}

// sweepMethods are the Fig-13/14 columns, in golden order.
var sweepMethods = []exp.Method{exp.MethodDefault(), exp.MethodPARTIES(), exp.MethodCLITE(), exp.MethodPIVOT()}

// cells holds one pass's rendered figure cells, [load][method], formatted
// exactly as the golden tables print them.
type cells struct {
	fig13, emu, fig14 [][]string
	runs              []exp.RunResult // the Fig-14 runs, in order
	calls, norm       []float64       // each call's host seconds, raw and at nominal host speed
}

// fig14Spec is the Fig-14 run of one cell: the LC app at pct% of its max
// load beside the full iBench stressor.
func (sw sweep) fig14Spec(mth exp.Method, pct int) exp.RunSpec {
	return exp.RunSpec{Method: mth, LCs: []exp.LCSpec{{App: sw.app, LoadPct: pct}},
		BEs: []exp.BESpec{{App: workload.IBench, Threads: sw.threads}}}
}

func (sw sweep) setup(seed uint64, sp spans) (*exp.Context, error) {
	sc := sw.scale
	sc.Seed = seed
	ctx := exp.NewContext(machine.KunpengConfig(sw.cores), sc)
	var err error
	sp.time("exp.calib_s", func() { _, err = ctx.Calib(sw.app) })
	if err != nil {
		return nil, err
	}
	sp.time("exp.potential_s", func() { ctx.Potential(sw.app) })
	sp.time("exp.be_alone_s", func() { _, err = ctx.BEAloneIPC(workload.IBench, sw.threads) })
	return ctx, err
}

// timed replays the sweep on ctx. Spans record every call; a call whose
// arguments equal an earlier call's is also recorded as a repeat.
func (sw sweep) timed(ctx *exp.Context, sp spans, h *hostRef) (cells, error) {
	var c cells
	cal, err := ctx.Calib(sw.app)
	if err != nil {
		return c, err
	}
	seen := map[string]bool{}
	h.measure()
	call := func(span, key string, f func()) {
		raw, norm := h.timeNorm(f)
		sp[span] = append(sp[span], raw)
		c.calls, c.norm = append(c.calls, raw), append(c.norm, norm)
		if seen[key] {
			sp["exp.repeat"] = append(sp["exp.repeat"], raw)
		}
		seen[key] = true
	}
	for _, table := range []*[][]string{&c.fig13, &c.emu} {
		for _, pct := range sw.loads {
			lcs := []exp.LCSpec{{App: sw.app, LoadPct: pct}}
			var row []string
			for _, mth := range sweepMethods {
				var v float64
				call("exp.maxbe_s", fmt.Sprint("maxbe ", mth.Name, pct), func() {
					v, err = ctx.MaxBEThroughput(mth, lcs, workload.IBench, sw.threads)
				})
				if err != nil {
					return c, err
				}
				row = append(row, fmt.Sprintf("%.0f", v*100))
			}
			*table = append(*table, row)
		}
	}
	for _, pct := range sw.loads {
		var row []string
		for _, mth := range sweepMethods {
			var res exp.RunResult
			call("exp.run_s", fmt.Sprint("run ", mth.Name, pct), func() {
				res, err = ctx.Run(sw.fig14Spec(mth, pct))
			})
			if err != nil {
				return c, err
			}
			c.runs = append(c.runs, res)
			row = append(row, fmt.Sprintf("%.2f", float64(res.P95[0])/float64(cal.QoSTarget)))
		}
		c.fig14 = append(c.fig14, row)
	}
	return c, nil
}

// rerunFig14 runs the Fig-14 cells again on ctx and returns each run's
// host time at nominal host speed.
func (sw sweep) rerunFig14(ctx *exp.Context, h *hostRef) ([]exp.RunResult, []float64, error) {
	var runs []exp.RunResult
	var secs []float64
	h.measure()
	for _, pct := range sw.loads {
		for _, mth := range sweepMethods {
			var res exp.RunResult
			var err error
			_, norm := h.timeNorm(func() { res, err = ctx.Run(sw.fig14Spec(mth, pct)) })
			if err != nil {
				return nil, nil, err
			}
			runs, secs = append(runs, res), append(secs, norm)
		}
	}
	return runs, secs, nil
}

// pctLabel renders a load percentage as the golden tables print it.
func pctLabel(pct int) string { return fmt.Sprintf("%d%%", pct) }

// runCycles is the simulated length of one exp.Run at the sweep's scale.
func (sw sweep) runCycles() float64 { return float64(sw.scale.Warmup + sw.scale.Measure) }

func (sw sweep) run(r *report, a args) error {
	reps := setupReps
	if a.trace {
		reps = 1
	}
	sp := spans{}
	h := newHostRef()
	var setups []float64
	var ctxs []*exp.Context
	for k := 0; k < reps; k++ {
		var ctx *exp.Context
		var err error
		h.measure()
		_, setup := h.timeNorm(func() { ctx, err = sw.setup(a.seed, sp) })
		if err != nil {
			return err
		}
		setups = append(setups, setup)
		ctxs = append(ctxs, ctx)
	}
	c, err := sw.timed(ctxs[0], sp, h)
	if err != nil {
		return err
	}
	sw.checkCells(r, c, a.seed)

	var twall float64
	var prof bytes.Buffer
	if a.trace {
		// Traced pass on a fresh context, so no result of the untraced pass
		// is reused.
		ctx, err := sw.setup(a.seed, spans{})
		if err != nil {
			return err
		}
		ctxs = append(ctxs, ctx)
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return fmt.Errorf("starting CPU profile: %w", err)
		}
		tc, err := sw.timed(ctx, spans{}, h)
		pprof.StopCPUProfile()
		if err != nil {
			return err
		}
		twall = sum(tc.calls)
		r.check(sameCells(tc, c), "%s traced pass cells differ from the untraced pass's", sw.name)
	}

	// Dense ≡ skip-ahead on the first Fig-14 run, on the last context set up.
	dctx := ctxs[len(ctxs)-1]
	dctx.Dense = true
	t := time.Now()
	dres, err := dctx.Run(sw.fig14Spec(sweepMethods[0], sw.loads[0]))
	denseWall := time.Since(t)
	if err != nil {
		return err
	}
	r.check(reflect.DeepEqual(dres, c.runs[0]), "%s dense run %+v differs from skip-ahead run %+v", sw.name, dres, c.runs[0])

	// The Fig-14 runs are the last calls of a pass.
	first14 := len(c.calls) - len(c.runs)
	if !a.trace {
		// Run the Fig-14 cells again on a second context: they must match,
		// and each run is charged its faster time, as the machine workloads
		// charge each granule.
		again, secs, err := sw.rerunFig14(ctxs[1], h)
		if err != nil {
			return err
		}
		r.check(reflect.DeepEqual(again, c.runs), "%s Fig-14 runs on a second context differ", sw.name)
		for i := range secs {
			secs[i] = min(secs[i], c.norm[first14+i])
		}
		r.set("setup_s", "s", median(setups))
		r.set("wall_s", "s", sum(c.norm))
		r.set("sim_cycles_per_s", "1/s", float64(len(secs))*sw.runCycles()/sum(secs))
		return nil
	}
	self, err := attributeProfile(prof.Bytes())
	if err != nil {
		return err
	}
	setSpans(r, sp)
	setSelf(r, self)
	r.set("host.ref_ms", "ms", 1e3*median(h.all))
	r.set("engine.skip_speedup", "x", denseWall.Seconds()/c.calls[first14])
	r.set("trace.overhead_frac", "frac", twall/sum(c.calls)-1)
	return nil
}

func sameCells(a, b cells) bool {
	return reflect.DeepEqual(a.fig13, b.fig13) && reflect.DeepEqual(a.emu, b.emu) &&
		reflect.DeepEqual(a.fig14, b.fig14) && reflect.DeepEqual(a.runs, b.runs)
}

// checkCells checks a pass's internal consistency (the EMU searches repeat
// the Fig-13 searches exactly) and, where a golden applies, every cell.
func (sw sweep) checkCells(r *report, c cells, seed uint64) {
	for i, pct := range sw.loads {
		for j, mth := range sweepMethods {
			r.check(c.emu[i][j] == c.fig13[i][j], "%s EMU cell %s %d%% = %s, Fig-13 cell = %s",
				sw.name, mth.Name, pct, c.emu[i][j], c.fig13[i][j])
		}
	}
	if sw.golden == "" || seed != defaultSeed {
		return
	}
	for _, g := range []struct {
		file string
		got  [][]string
	}{{"golden_quick_fig13.txt", c.fig13}, {"golden_quick_fig14.txt", c.fig14}} {
		t, err := readGolden(filepath.Join(sw.golden, g.file))
		if err != nil {
			r.fail(err)
			continue
		}
		for i, pct := range sw.loads {
			for j, mth := range sweepMethods {
				want, ok := t.cell(mth.Name, sw.app, pctLabel(pct))
				r.check(ok && want == g.got[i][j], "%s %s %s %d%%: got %s, golden %q",
					sw.name, g.file, mth.Name, pct, g.got[i][j], want)
			}
		}
	}
}
