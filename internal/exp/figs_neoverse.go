package exp

import (
	"fmt"

	"pivot/internal/machine"
	"pivot/internal/metrics"
	"pivot/internal/scenario"
)

// sibling builds a context over another machine configuration: every knob
// (scale, robustness, observability, checkpointing, run context) carries
// over, and the caches are those of cfg — knees shift with the deeper ROB and
// faster LLC. Every sibling over one config, reached from any context of the
// family, shares one set of caches, so figures on the same sibling machine
// calibrate it once. The capture of the most recent instrumented run is
// shared too, so LastStats/LastTimeline/LastFlight on the original context
// see runs executed on the sibling.
func (ctx *Context) sibling(cfg machine.Config) *Context {
	out := *ctx
	out.Cfg = cfg
	out.sh = ctx.sh.fam.sharedFor(cfg)
	return &out
}

// neoverse is the Table III sibling machine.
func (ctx *Context) neoverse() *Context {
	return ctx.sibling(machine.NeoverseConfig(ctx.Cfg.Cores))
}

// Fig23 — Figure 13's 1 LC + iBench sweep on the ARM Neoverse-like CPU,
// PIVOT vs CLITE.
func (ctx *Context) Fig23() (*metrics.Table, error) {
	sc := scenario.MustBuiltin("fig23")
	nctx := ctx.ForScenario(sc)
	policies := sc.MustAxis("policy").Strings()
	t := &metrics.Table{
		Title:   "Figure 23 (Neoverse): max iBench throughput (%) vs LC load",
		Headers: append([]string{"app", "load"}, policies...),
	}
	rn := nctx.runner()
	beApp := sc.Tasks[1].App
	n := nctx.beThreads(sc.Tasks[1].ThreadCount())
	for _, app := range sc.MustAxis("tasks[0].app").Strings() {
		for _, pct := range sc.MustAxis("tasks[0].load_pct").Ints() {
			lcs := []LCSpec{{App: app, LoadPct: pct}}
			cells := []string{app, fmt.Sprintf("%d%%", pct)}
			for _, pol := range policies {
				cells = append(cells, fmt.Sprintf("%.0f", rn.maxBE(mustMethod(pol), lcs, beApp, n)*100))
			}
			t.AddRow(cells...)
		}
	}
	return t, rn.err
}

// Fig24 — Figure 16's CloudSuite single-BE scenarios on Neoverse.
func (ctx *Context) Fig24() (*metrics.Table, error) {
	sc := scenario.MustBuiltin("fig24")
	t := &metrics.Table{
		Title:   "Figure 24 (Neoverse): CloudSuite BE throughput (norm), 2 LC @40%",
		Headers: []string{"scenario", "method", "BE tput", "BW util", "QoS"},
	}
	if err := ctx.ForScenario(sc).fig16Body(t, sc); err != nil {
		return nil, err
	}
	return t, nil
}

// Fig25 — Figure 17's 2 LC + 2 BE scenarios on Neoverse.
func (ctx *Context) Fig25() (*metrics.Table, error) {
	sc := scenario.MustBuiltin("fig25")
	t := &metrics.Table{
		Title:   "Figure 25 (Neoverse): 2 LC + 2 BE throughput (norm) + bandwidth",
		Headers: []string{"scenario", "method", "BE tput", "BW util", "QoS"},
	}
	if err := ctx.ForScenario(sc).fig17Body(t, sc); err != nil {
		return nil, err
	}
	return t, nil
}
