package dram

import (
	"fmt"
	"reflect"
	"testing"

	"pivot/internal/mem"
	"pivot/internal/sim"
)

// This file pins the idle-forecast contract: a controller driven through
// NextWork/SkipCycles, the way sim.Engine drives it, must be
// indistinguishable from one ticked every cycle.

// arrival is one request offered to the controller at cycle at (and retried
// every cycle after a refusal, in order, like an upstream station).
type arrival struct {
	at       sim.Cycle
	addr     uint64
	part     mem.PartID
	critical bool
}

// classFlip sets partition part's class at cycle at. Flips are applied after
// the controller's Tick, where the machine's bwctrl rolls its window.
type classFlip struct {
	at    sim.Cycle
	part  mem.PartID
	class int
}

type served struct {
	id int
	at sim.Cycle
}

// rig drives one controller over a scripted request stream and class
// schedule, either densely or with skip-ahead.
type rig struct {
	t       *testing.T
	c       *Controller
	arrs    []arrival
	flips   []classFlip
	next    int // next arrival to offer
	nextF   int // next flip to apply
	classes [4]int
	gen     uint64
	log     []served
	ticks   int // Ticks executed
	idle    int // cycles NextWork reported idle

	// faultEnd, when set, is the cycle from which the installed fault is
	// removed, stranding requests it spiked with ready > now.
	faultEnd sim.Cycle
}

// spike is a fault that delays every request it admits by its value.
type spike sim.Cycle

func (spike) DropAccept(sim.Cycle) bool          { return false }
func (s spike) ExtraLatency(sim.Cycle) sim.Cycle { return sim.Cycle(s) }
func (spike) HoldGrant(sim.Cycle) bool           { return false }

// withSpikes installs a spike fault until cycle end.
func (g *rig) withSpikes(d, end sim.Cycle) *rig {
	g.c.Fault = spike(d)
	g.faultEnd = end
	return g
}

func newRig(t *testing.T, cfg Config, arrs []arrival, flips []classFlip) *rig {
	g := &rig{t: t, c: New(cfg, 64), arrs: arrs, flips: flips}
	g.c.PriorityEnabled = true
	g.c.Classify = func(r *mem.Req) int { return g.classes[r.Part] }
	g.c.ClassGen = func() uint64 { return g.gen }
	g.c.Respond = func(r *mem.Req, now sim.Cycle) { g.log = append(g.log, served{int(r.PC), now}) }
	return g
}

// reload moves the controller's state into a freshly built, identically
// wired one, as a checkpoint resume does.
func (g *rig) reload() {
	old := g.c
	g.c = New(old.Config(), 64)
	g.c.PriorityEnabled, g.c.Classify, g.c.ClassGen = old.PriorityEnabled, old.Classify, old.ClassGen
	g.c.Respond, g.c.Fault = old.Respond, old.Fault
	g.c.RestoreState(old.SnapshotState())
}

// upstream runs everything ordered after the controller in cycle now: class
// flips, then the offers due by now until the first refusal, then fault
// removal.
func (g *rig) upstream(now sim.Cycle) {
	for g.nextF < len(g.flips) && g.flips[g.nextF].at <= now {
		f := g.flips[g.nextF]
		if g.classes[f.part] != f.class {
			g.classes[f.part] = f.class
			g.gen++
		}
		g.nextF++
	}
	for g.next < len(g.arrs) && g.arrs[g.next].at <= now {
		a := g.arrs[g.next]
		r := &mem.Req{Addr: a.addr, PC: uint64(g.next), Part: a.part, Critical: a.critical}
		if !g.c.Accept(r, now) {
			break
		}
		g.next++
	}
	if now+1 == g.faultEnd {
		g.c.Fault = nil
	}
}

// upstreamNext is the upstream's own NextWork: the next cycle at which it
// offers a request or flips a class.
func (g *rig) upstreamNext(now sim.Cycle) sim.Cycle {
	next := sim.NeverWork
	if g.next < len(g.arrs) {
		next = max(g.arrs[g.next].at, now)
	}
	if g.nextF < len(g.flips) {
		next = min(next, max(g.flips[g.nextF].at, now))
	}
	return next
}

// runDense ticks every cycle. On each cycle where NextWork reports idle it
// also checks the contract's other half: that Tick changes nothing but
// BusyCycles, by the amount SkipCycles would add.
func (g *rig) runDense(end sim.Cycle) {
	for now := sim.Cycle(0); now < end; now++ {
		g.ticks++
		if _, idle := g.c.NextWork(now); idle {
			g.idle++
			before := g.c.SnapshotState()
			want := g.c.Stats.BusyCycles
			g.c.SkipCycles(now, now+1)
			want, g.c.Stats.BusyCycles = g.c.Stats.BusyCycles, want
			logged := len(g.log)
			g.c.Tick(now)
			after := g.c.SnapshotState()
			busy := after.Stats.BusyCycles
			after.Stats.BusyCycles = before.Stats.BusyCycles
			if !reflect.DeepEqual(before, after) || len(g.log) != logged {
				g.t.Fatalf("cycle %d: NextWork reported idle but Tick changed state", now)
			}
			if busy != want {
				g.t.Fatalf("cycle %d: idle Tick counted %d busy cycles, SkipCycles %d",
					now, busy-before.Stats.BusyCycles, want-before.Stats.BusyCycles)
			}
		} else {
			g.c.Tick(now)
		}
		g.upstream(now)
	}
}

// runSkip mirrors sim.Engine.Step with two slots, the controller then the
// upstream: per-cycle polling, per-cycle compensation for an idle
// controller, and a bulk jump when both are idle. At the first cycle
// reached at or after each of reloads, the controller is checkpointed and
// resumed.
func (g *rig) runSkip(end sim.Cycle, reloads ...sim.Cycle) {
	for now := sim.Cycle(0); now < end; {
		if len(reloads) > 0 && now >= reloads[0] {
			g.reload()
			reloads = reloads[1:]
		}
		next, idle := g.c.NextWork(now)
		if !idle || next <= now {
			g.c.Tick(now)
			g.ticks++
		} else {
			g.c.SkipCycles(now, now+1)
		}
		upIdle := g.upstreamNext(now) > now
		g.upstream(now)
		now++
		if !idle || next <= now || !upIdle {
			continue
		}
		to := min(next, g.upstreamNext(now), end)
		if to > now {
			g.c.SkipCycles(now, to)
			now = to
		}
	}
}

// contractCfg has two channels, refresh on, and a short starvation guard so
// a run crosses every forecast threshold many times.
func contractCfg() Config {
	return Config{
		Channels: 2, Banks: 4, ColumnLines: 8, TBurst: 4, TCAS: 10, TRP: 30, TRCD: 30,
		CapNormal: 6, CapPrio: 3, MaxWait: 60, RespLatency: 5,
		RefreshInterval: 1500, RefreshLatency: 40,
	}
}

// chAddr builds an address hitting (channel, bank, row, col) under
// contractCfg's [row | bank | column | channel] layout.
func chAddr(ch, bank, row, col uint64) uint64 {
	return (((row*4+bank)*8+col)*2 + ch) * 64
}

// randomStream draws bursty arrivals over few rows, so row hits, conflicts,
// full queues and idle gaps all occur, plus periodic class flips.
func randomStream(seed uint64, end sim.Cycle) ([]arrival, []classFlip) {
	rng := sim.NewRNG(seed)
	var arrs []arrival
	for at := sim.Cycle(0); at < end; {
		for n := rng.Intn(4) + 1; n > 0; n-- {
			arrs = append(arrs, arrival{
				at:       at,
				addr:     chAddr(rng.Uint64n(2), rng.Uint64n(4), rng.Uint64n(3), rng.Uint64n(8)),
				part:     mem.PartID(rng.Intn(4)),
				critical: rng.Intn(5) == 0,
			})
		}
		at += sim.Cycle(rng.Exp(60)) + 1
	}
	var flips []classFlip
	for at := sim.Cycle(500); at < end; at += sim.Cycle(rng.Intn(400)) + 1 {
		flips = append(flips, classFlip{at: at, part: mem.PartID(rng.Intn(4)), class: rng.Intn(3)})
	}
	return arrs, flips
}

func TestSkipAheadMatchesDense(t *testing.T) {
	const end = 40_000
	for seed := uint64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			arrs, flips := randomStream(seed, end)
			dense := newRig(t, contractCfg(), arrs, flips).withSpikes(150, 3000)
			dense.runDense(end)
			skip := newRig(t, contractCfg(), arrs, flips).withSpikes(150, 3000)
			skip.runSkip(end, 3000, 20_000) // resume as the last spikes elapse

			if dense.next < len(arrs)/2 || dense.c.Stats.Promoted == 0 || dense.c.Stats.Refreshes == 0 ||
				dense.c.Stats.Refused == 0 || dense.gen == 0 {
				t.Fatalf("stream too tame: accepted %d/%d, stats %+v, class changes %d",
					dense.next, len(arrs), dense.c.Stats, dense.gen)
			}
			if dense.idle < end/4 || skip.ticks > end/2 {
				t.Fatalf("forecast rarely idle: %d idle cycles dense, %d ticks skipping, of %d",
					dense.idle, skip.ticks, end)
			}
			t.Logf("%d idle cycles dense, %d ticks skipping, of %d", dense.idle, skip.ticks, end)
			if !reflect.DeepEqual(dense.log, skip.log) {
				t.Fatalf("response sequences differ: dense %d, skip %d responses", len(dense.log), len(skip.log))
			}
			if dense.c.Stats != skip.c.Stats {
				t.Fatalf("stats differ:\ndense %+v\nskip  %+v", dense.c.Stats, skip.c.Stats)
			}
			if !reflect.DeepEqual(dense.c.SnapshotState(), skip.c.SnapshotState()) {
				t.Fatal("final controller state differs")
			}
		})
	}
}

// TestClassChangeWakesController pins the class-generation check. A
// priority request is activating its row, so its channel idles: only a
// class-0 normal request with an open row may slip under. The normal request
// here is class 1 until a flip that coincides with no timing event makes it
// class 0. A dense run serves it on the next cycle; a skip-ahead run that
// kept trusting its forecast would sleep until the priority row opens and
// serve the priority request first.
func TestClassChangeWakesController(t *testing.T) {
	cfg := testCfg()
	cfg.TRCD = 150
	arrs := []arrival{
		{at: 0, addr: lineAddr(0, 0, 0)},                   // opens bank 0, row 0
		{at: 300, addr: lineAddr(1, 0, 0), critical: true}, // activates for 150 cycles
		{at: 300, addr: lineAddr(0, 0, 1), part: 1},        // row hit, class 1
	}
	flips := []classFlip{{at: 0, part: 1, class: 1}, {at: 350, part: 1, class: 0}}
	const end = 1000
	dense := newRig(t, cfg, arrs, flips)
	dense.runDense(end)
	skip := newRig(t, cfg, arrs, flips)
	skip.runSkip(end)
	if len(dense.log) != 3 || dense.log[1].id != 2 {
		t.Fatalf("dense run served %+v, want the class-0 row hit second", dense.log)
	}
	if !reflect.DeepEqual(dense.log, skip.log) {
		t.Fatalf("skip-ahead served %+v, dense %+v", skip.log, dense.log)
	}
}
