package machine

import (
	"fmt"
	"math/bits"

	"pivot/internal/mem"
	"pivot/internal/sim"
)

// This file carves the machine into the shard boundaries the sharded engine
// (internal/sim/parallel.go) drives: one shard per core — the core itself,
// its private L1/L2/MSHR/prefetcher, its core-local delay wheel
// (loadDone/fillLocal events), and its LC task state (load-generator source,
// RRBP/CBP predictor, profiler) — plus a coordinator owning everything
// shared: DRAM, the bandwidth controller, the bus and interconnect stations,
// the MBA throttle, the LLC, the shared delay wheel (egress/deliver events),
// request recycling, stats aggregation and epoch sampling.
//
// Why this split is bit-exact (the full inventory is in DESIGN.md):
//
//   - The only way a core affects the shared side is an egress event with at
//     least Cfg.L1.HitCycles of scheduling latency. PlanWindow bounds every
//     window so all egress scheduled inside it falls due at or after the
//     barrier, so the coordinator never misses a same-window event.
//   - The only ways the shared side affects a core are cache fills, egress
//     queue pushes/pops, retry wake-ups and predictor-refresh decisions. The
//     coordinator runs its half of the window FIRST, staging each of those
//     into per-shard mailboxes stamped with its exact cycle; shards then
//     replay their cycles applying mailbox events at those stamps. Staging a
//     wake-capable event shrinks the window so a woken core's egress still
//     lands past the (new) barrier.
//   - Events sharing a wheel slot are dispatched in schedule order in the
//     serial run. Parallel mode reproduces that order canonically: schedule
//     cycle (reconstructed from due and kind), then component rank (LLC-hit
//     delivers are scheduled by the interconnect, which ticks before cores),
//     then a per-shard schedule sequence number for same-cycle same-core
//     ties.
//
// Everything here assumes phases never overlap: the coordinator runs alone,
// then shards run (possibly concurrently with EACH OTHER, never with the
// coordinator), then the barrier merge runs alone. Shard code may therefore
// freely read machine-wide immutable wiring (Cfg, Opt, hooks) and its own
// mutable state, and nothing else.

// parEvent is one coordinator→shard mailbox event, applied by the shard at
// exactly stamp, in staging order within a stamp.
type parEvent struct {
	stamp sim.Cycle
	kind  uint8
	addr  uint64 // evFill: the filled line
	flag  bool   // evFill: LLC miss; evRefresh: usage reading valid
	under bool   // evRefresh: usage < expected bandwidth
}

const (
	// evFill fills the shard's private caches and wakes MSHR waiters (a DRAM
	// response or LLC-hit delivery reaching the core).
	evFill uint8 = iota
	// evOutPush mirrors one egress request entering the port's out queue.
	evOutPush
	// evOutPop mirrors one egress request leaving the port's out queue.
	evOutPop
	// evWake drops the core's cached idle verdict (a flush freed egress
	// slots that may unblock a structurally refused retry).
	evWake
	// evRefresh carries one 1024-cycle predictor refresh boundary, with the
	// bandwidth-usage reading the coordinator took at that cycle.
	evRefresh
)

// parShard is one core's shard: the per-core mutable state the coordinator
// must never touch mid-window, plus the window-scoped staging areas.
type parShard struct {
	m  *Machine
	id int

	// now is the shard's current cycle while replaying a window; between
	// windows it equals the engine clock. The LC load generator's clock
	// closure reads it so arrivals land at the shard's cycle, not the
	// window start.
	now sim.Cycle

	// wheel holds this core's loadDone/fillLocal completions (the shared
	// wheel keeps only egress/deliver events in parallel mode).
	wheel delayQ

	// pool is the per-shard request free list (the coordinator recycles a
	// request back to its issuing core's pool; pools are unobservable).
	pool []*mem.Req

	// seq numbers every event this shard schedules, breaking canonical-order
	// ties between same-cycle events of the same core. Serial mode leaves it
	// zero; it is never serialised.
	seq uint64

	// mail is the coordinator-staged event stream for the current window,
	// sorted by stamp (the coordinator stages in cycle order).
	mail []parEvent

	// egress holds the egress events this shard scheduled during the current
	// window; every one falls due at or after the barrier, where the
	// coordinator merges them into the shared wheel in canonical order.
	egress []delayed

	// outLen mirrors len(port.out) as of the shard's current cycle, advanced
	// by evOutPush/evOutPop. The shard's own egress never lands inside the
	// window (due >= barrier), so mailbox deltas are the complete story.
	outLen int

	// issueAt is the NextIssue forecast computed at the last barrier.
	issueAt sim.Cycle

	// issued / delayedEv fold into the machine's request-conservation
	// counters at the barrier, keeping every between-step reader (auditor,
	// diagnostics, snapshots) oblivious to sharding.
	issued    uint64
	delayedEv int
}

// parRuntime is the machine's sharded-mode state; nil when serial.
type parRuntime struct {
	m      *Machine
	shards []*parShard

	// egMin is the minimum core→coordinator latency: the smallest egress
	// scheduling delay (stores and prefetches egress after the L1 hit
	// latency), bounding how far a window may extend past a possible issue.
	egMin sim.Cycle

	// winEnd is the current window's (possibly shrinking) end while the
	// coordinator half runs.
	winEnd sim.Cycle

	scratch []delayed // barrier-merge buffer, reused across windows
}

// buildParallel installs sharded execution with the given worker count.
// Called from New; Options.Dense wins over Options.Parallel because the
// dense loop is the trusted reference.
func (m *Machine) buildParallel(workers int) {
	egMin := sim.Cycle(m.Cfg.L1.HitCycles)
	if egMin < 1 {
		egMin = 1 // Validate enforces >= 1; keep the invariant local too
	}
	pr := &parRuntime{m: m, egMin: egMin}
	shards := make([]sim.Shard, len(m.ports))
	for i, p := range m.ports {
		sh := &parShard{m: m, id: i}
		p.sh = sh
		pr.shards = append(pr.shards, sh)
		shards[i] = sh
	}
	if len(shards) == 0 {
		return // no tasks, nothing to shard; stay serial
	}
	m.par = pr
	m.Engine.SetShardPlan(&sim.ShardPlan{Coord: pr, Shards: shards, Workers: workers})
}

// disableParallel folds all shard-held state back into the serial structures
// and removes the shard plan. Used when a feature incompatible with sharded
// execution (the flight recorder's pooled span allocation is order-sensitive)
// is enabled after construction. Must be called between engine steps.
func (m *Machine) disableParallel() {
	pr := m.par
	if pr == nil {
		return
	}
	// Merge shard wheels back into the shared wheel in canonical slot order.
	for slot := range m.delays.wheel {
		merged := m.delays.wheel[slot]
		n := len(merged)
		for _, sh := range pr.shards {
			merged = append(merged, sh.wheel.wheel[slot]...)
			sh.wheel.wheel[slot] = nil
		}
		if len(merged) > n {
			m.sortCanonical(merged)
		}
		m.delays.wheel[slot] = merged
	}
	m.delays.recount()
	for _, sh := range pr.shards {
		sh.wheel.recount()
		m.reqPool = append(m.reqPool, sh.pool...)
		sh.pool = nil
	}
	for _, p := range m.ports {
		p.sh = nil
	}
	m.par = nil
	m.Engine.SetShardPlan(nil)
}

// ParallelActive reports whether sharded execution is currently installed.
func (m *Machine) ParallelActive() bool { return m.par != nil }

// schedOf reconstructs the cycle at which a wheel event was scheduled from
// its due cycle and kind; storing it would widen the serialised format for a
// value that is pure arithmetic.
func (m *Machine) schedOf(e delayed) sim.Cycle {
	l1 := sim.Cycle(m.Cfg.L1.HitCycles)
	switch e.kind {
	case delayLoadDone:
		return e.due - l1
	case delayFillLocal:
		return e.due - l1 - sim.Cycle(m.Cfg.L2.HitCycles)
	case delayEgress:
		if e.req.IsWrite || e.req.Prefetch {
			return e.due - l1
		}
		return e.due - l1 - sim.Cycle(m.Cfg.L2.HitCycles)
	default: // delayDeliver
		return e.due - sim.Cycle(m.Cfg.LLC.HitCycles) - m.Cfg.LLCRespLatency
	}
}

// rankOf orders same-cycle wheel events the way the serial tick order
// schedules them: LLC-hit delivers come from the interconnect's tick (before
// any core runs), everything else from core i in core order.
func rankOf(e delayed) int {
	switch e.kind {
	case delayDeliver:
		return 0
	case delayEgress:
		return e.req.CoreID + 1
	default:
		return e.core + 1
	}
}

// sortCanonical sorts one wheel slot's events into serial dispatch order:
// (schedule cycle, rank, per-shard sequence). The sort is stable so entries
// the canonical key cannot split (restored events carrying seq 0) keep their
// existing — already serial — order. Insertion sort, not sort.SliceStable:
// the batches are a handful of events merged every window, and the
// reflection-based swapper was a measurable slice of the barrier cost.
func (m *Machine) sortCanonical(slot []delayed) {
	for i := 1; i < len(slot); i++ {
		e := slot[i]
		se, re := m.schedOf(e), rankOf(e)
		j := i - 1
		for j >= 0 {
			sj, rj := m.schedOf(slot[j]), rankOf(slot[j])
			if sj < se || (sj == se && (rj < re || (rj == re && slot[j].schedSeq <= e.schedSeq))) {
				break
			}
			slot[j+1] = slot[j]
			j--
		}
		slot[j+1] = e
	}
}

// stage appends a mailbox event for one shard.
func (pr *parRuntime) stage(core int, ev parEvent) {
	sh := pr.shards[core]
	sh.mail = append(sh.mail, ev)
}

// capWindow shrinks the running window after staging a wake-capable event at
// cycle now: a core woken at now can issue immediately, and its egress must
// still fall due at or after the barrier.
func (pr *parRuntime) capWindow(now sim.Cycle) {
	if e := now + pr.egMin; e < pr.winEnd {
		pr.winEnd = e
	}
}

// PlanWindow implements sim.Coordinator: bound the window by the earliest
// possible shard issue plus the minimum egress latency, and clip it so epoch
// sample points land exactly at a barrier (the sampler must observe the
// machine at the end of the sample cycle, which mid-window it is not).
func (pr *parRuntime) PlanWindow(from, limit, earliestIssue sim.Cycle) sim.Cycle {
	e := limit
	if earliestIssue != sim.NeverWork {
		if b := earliestIssue + pr.egMin; b < e {
			e = b
		}
	}
	if m := pr.m; m.statsOn && m.statsEpoch > 0 {
		s := from
		if r := from % m.statsEpoch; r != 0 {
			s = from + (m.statsEpoch - r)
		}
		if s < e {
			e = s + 1
		}
	}
	if e <= from {
		e = from + 1
	}
	return e
}

// RunCoordWindow implements sim.Coordinator: a serial skip-ahead loop over
// the shared components only, mirroring the engine's Step exactly (per-cycle
// poll, per-cycle skip compensation, bulk skip when all idle). The window end
// may shrink mid-flight via capWindow.
//
// The loop is written against the concrete component types in tick order
// (mc, bw, bus, ic, aux) rather than a []coordSlot of interfaces: the poll
// runs every simulated cycle and the devirtualised calls inline, which is
// worth several percent of total runtime under saturated mixes. Two of the
// five slots elide work that needs compensation — the memory controller (the
// data-bus busy count an idle Tick still bumps while it waits out DRAM
// timing) and the aux ticker (the throttle's per-held-port Delayed count) —
// so every cycle either slot does not tick gets its SkipCycles.
//
// An idle verdict is cached instead of re-polled every cycle: NextWork is a
// pure function of component state and the clock, monotone in the clock while
// the state is untouched, so a forecast "idle until next" stays valid until
// the component itself ticks or a component upstream of it ticks (the only
// way traffic reaches its Accept). The dirty mask propagates ticks along the
// machine's acceptor graph each cycle:
//
//	aux → ic (port flush)    ic → bus (LLC miss), aux (LLC-hit deliver)
//	bus → bw                 bw → mc, aux (window rollover moves MPAM class)
//	mc → aux (responses)
//
// The three station-backed slots (bw, bus, ic) use TickNext: tick and
// forecast in one fused call, so a consulted slot never pays a separate
// NextWork poll and a quiescent slot sleeps until its own forecast expires
// or a neighbour dirties it. Only a tick that actually forwarded work (or
// rolled a monitoring window) propagates dirt — a refused grant leaves every
// neighbour's forecast intact because refusal implies the downstream slot is
// full, hence busy, hence already dense. The mc and aux slots keep a cheaper
// probe scheme: their NextWork is a field read, so they consult it on every
// eighth cycle and tick blind in between (ticking a component whose NextWork
// would report idle is observably a no-op by the NextWork contract; the
// dense serial loop is the reference).
//
// Everything is re-polled at the window boundary: the barrier merges shard
// egress into the wheel and refreshes the out-queue mirrors.
func (pr *parRuntime) RunCoordWindow(from, to sim.Cycle) sim.Cycle {
	const (
		dMC = 1 << iota
		dBW
		dBUS
		dIC
		dAUX
		dAll = dMC | dBW | dBUS | dIC | dAUX
	)
	m := pr.m
	pr.winEnd = to
	now := from
	dirty := dAll
	var mcN, bwN, busN, icN, auxN sim.Cycle
	for now < pr.winEnd {
		ticked := 0
		probe := now&7 == 0
		if dirty&dMC != 0 || now >= mcN {
			if !probe {
				m.mc.Tick(now)
				ticked |= dMC
			} else if next, idle := m.mc.NextWork(now); !idle || next <= now {
				m.mc.Tick(now)
				ticked |= dMC
			} else {
				mcN = next
				m.mc.SkipCycles(now, now+1)
			}
		} else {
			m.mc.SkipCycles(now, now+1)
		}
		if dirty&dBW != 0 || now >= bwN {
			next, idle, worked := m.bw.TickNext(now)
			if worked {
				ticked |= dBW
			}
			if idle {
				bwN = next
			} else {
				bwN = now // busy: re-consult next cycle
			}
		}
		if dirty&dBUS != 0 || now >= busN {
			next, idle, worked := m.bus.TickNext(now)
			if worked {
				ticked |= dBUS
			}
			if idle {
				busN = next
			} else {
				busN = now
			}
		}
		if dirty&dIC != 0 || now >= icN {
			next, idle, worked := m.ic.TickNext(now)
			if worked {
				ticked |= dIC
			}
			if idle {
				icN = next
			} else {
				icN = now
			}
		}
		if dirty&dAUX != 0 || now >= auxN {
			if !probe {
				m.auxTickPar(now)
				ticked |= dAUX
			} else if next, idle := m.auxNextWork(now); !idle || next <= now {
				m.auxTickPar(now)
				ticked |= dAUX
			} else {
				auxN = next
				m.auxSkip(now, now+1)
			}
		} else {
			m.auxSkip(now, now+1)
		}
		dirty = ticked
		if ticked&dMC != 0 {
			dirty |= dAUX
		}
		if ticked&dBW != 0 {
			dirty |= dMC | dAUX
		}
		if ticked&dBUS != 0 {
			dirty |= dBW
		}
		if ticked&dIC != 0 {
			dirty |= dBUS | dAUX
		}
		if ticked&dAUX != 0 {
			dirty |= dIC
		}
		now++
		if ticked != 0 {
			continue
		}
		// Every slot idle with a valid forecast: bulk-skip to the earliest.
		t := min(mcN, bwN, busN, icN, auxN)
		if t > pr.winEnd {
			t = pr.winEnd
		}
		if t > now {
			m.mc.SkipCycles(now, t)
			m.auxSkip(now, t)
			now = t
		}
	}
	return pr.winEnd
}

// FinishWindow implements sim.Coordinator: merge shard-staged egress into
// the shared wheel in canonical order, fold shard counters into the machine
// counters (so everything between steps — auditor, diagnostics, snapshots —
// sees serial-identical values), and take the epoch sample if this window
// ends one.
func (pr *parRuntime) FinishWindow(end sim.Cycle) {
	m := pr.m
	merged := pr.scratch[:0]
	for _, sh := range pr.shards {
		merged = append(merged, sh.egress...)
		sh.egress = sh.egress[:0]
		sh.mail = sh.mail[:0]
	}
	if len(merged) > 0 {
		// All staged egress was scheduled inside this window, strictly after
		// everything already in its target slot (earlier windows' events and
		// this window's LLC-hit delivers all have earlier schedule keys, see
		// DESIGN.md), so a canonical sort of the batch followed by plain
		// appends lands every event in exact serial slot order.
		m.sortCanonical(merged)
		for _, e := range merged {
			m.delays.after(e)
		}
	}
	pr.scratch = merged[:0]
	for _, sh := range pr.shards {
		m.reqsIssued += sh.issued
		sh.issued = 0
		m.reqsDelayed += sh.delayedEv
		sh.delayedEv = 0
		sh.outLen = len(m.ports[sh.id].out)
	}
	if m.statsOn && m.statsEpoch > 0 && (end-1)%m.statsEpoch == 0 {
		m.statsNow = end - 1
		m.sampler.Sample(uint64(end - 1))
	}
}

// auxTickPar is auxTick's coordinator half: drain the shared wheel, flush
// port egress, and stage predictor-refresh boundaries (with the bandwidth
// usage reading taken here, at the coordinator's cycle) for the LC shards.
func (m *Machine) auxTickPar(now sim.Cycle) {
	m.drainDelaysPar(now)
	for occ := m.outOcc; occ != 0; occ &= occ - 1 {
		m.ports[bits.TrailingZeros64(occ)].flushPar(now)
	}
	if now&1023 == 0 {
		for _, lc := range m.lcs {
			if lc.RRBP == nil && lc.CBP == nil {
				continue
			}
			ev := parEvent{stamp: now, kind: evRefresh}
			if lc.RRBP != nil && m.bw.WindowsDone() > 0 {
				expected := lc.Spec.ExpectedBW
				if expected <= 0 {
					expected = m.Opt.ExpectedLCBW
				}
				ev.flag = true
				ev.under = m.bw.Usage(mem.PartID(lc.Core)) < expected
			}
			m.par.stage(lc.Core, ev)
		}
	}
}

// drainDelaysPar dispatches shared-wheel events due this cycle. In parallel
// mode the shared wheel carries only egress and deliver events; core-local
// completions live in the shard wheels.
func (m *Machine) drainDelaysPar(now sim.Cycle) {
	for _, e := range m.delays.take(int(now) & 255) {
		switch e.kind {
		case delayEgress:
			m.reqsDelayed--
			p := m.ports[e.req.CoreID]
			p.out = append(p.out, e.req)
			m.outOcc |= 1 << uint(e.req.CoreID)
			m.par.stage(e.req.CoreID, parEvent{stamp: now, kind: evOutPush})
		case delayDeliver:
			m.reqsDelayed--
			m.deliverPar(e.req, now, false)
		default:
			panic(fmt.Sprintf("machine: core-local delay kind %d in shared wheel", e.kind))
		}
	}
}

// deliverPar is deliver's coordinator half: stage the cache fill (and its
// wake) for the owning shard, then do the shared-side accounting — stats and
// recycling — here, in coordinator order, exactly where serial does it.
func (m *Machine) deliverPar(r *mem.Req, now sim.Cycle, llcMiss bool) {
	m.par.stage(r.CoreID, parEvent{stamp: now, kind: evFill, addr: r.Addr, flag: llcMiss})
	m.par.capWindow(now)
	m.deliverStats(r, now)
	m.recycle(r, now)
}

// flushPar is flush's coordinator half: identical pops, but the shard learns
// about them (and the retry wake) through its mailbox.
func (p *corePort) flushPar(now sim.Cycle) {
	popped := 0
	for len(p.out) > 0 {
		r := p.out[0]
		if !p.m.thr.Accept(r, now) {
			break
		}
		copy(p.out, p.out[1:])
		p.out = p.out[:len(p.out)-1]
		popped++
	}
	if popped > 0 {
		if len(p.out) == 0 {
			p.m.outOcc &^= 1 << uint(p.id)
		}
		pr := p.m.par
		for i := 0; i < popped; i++ {
			pr.stage(p.id, parEvent{stamp: now, kind: evOutPop})
		}
		pr.stage(p.id, parEvent{stamp: now, kind: evWake})
		pr.capWindow(now)
	}
}

// newReq is the shard-side request allocator (the machine counter is folded
// at the barrier). Flight recording is never active in parallel mode, so the
// serial allocator's StartTrace branch has no shard-side twin.
func (sh *parShard) newReq() *mem.Req {
	sh.issued++
	var r *mem.Req
	if n := len(sh.pool); n > 0 {
		r = sh.pool[n-1]
		sh.pool = sh.pool[:n-1]
		r.Reset()
	} else {
		r = &mem.Req{}
	}
	return r
}

// applyFill is deliver's shard half: fill the private caches, wake MSHR
// waiters, drop the cached idle verdict.
func (p *corePort) applyFill(addr uint64, llcMiss bool, now sim.Cycle) {
	part := mem.PartID(p.id)
	p.l2.Insert(addr, part, false)
	p.l1.Insert(addr, part, false)
	if e := p.mshr.Fill(addr); e != nil {
		for _, w := range e.Waiters {
			p.m.Cores[p.id].CompleteLoad(w, llcMiss, now)
		}
	}
	p.m.Cores[p.id].WakeIdle()
}

// applyRefresh is the shard half of the 1024-cycle predictor boundary.
func (sh *parShard) applyRefresh(ev parEvent, now sim.Cycle) {
	lc := sh.m.lcByCore(sh.id)
	if lc == nil {
		return
	}
	if lc.RRBP != nil {
		lc.RRBP.MaybeRefresh(now)
		if ev.flag {
			lc.RRBP.SetUnderBandwidth(ev.under)
		}
	}
	if lc.CBP != nil {
		lc.CBP.MaybeRefresh(now)
	}
}

// RunShardWindow implements sim.Shard: replay this core's cycles over
// [from, to), interleaving mailbox events, the core-local wheel and the
// core's own skip-ahead. Per cycle the ordering matches serial exactly:
// coordinator-staged effects first (serial ticks them before the aux wheel
// drain, or their canonical slot position precedes every core-local event),
// then the shard wheel, then the predictor refresh, then the core.
func (sh *parShard) RunShardWindow(from, to sim.Cycle) {
	m := sh.m
	core := m.Cores[sh.id]
	p := m.ports[sh.id]
	mi := 0
	mail := sh.mail
	u := from
	for u < to {
		refreshLo, refreshHi := -1, -1
		for mi < len(mail) && mail[mi].stamp == u {
			ev := mail[mi]
			mi++
			switch ev.kind {
			case evFill:
				p.applyFill(ev.addr, ev.flag, u)
			case evOutPush:
				sh.outLen++
			case evOutPop:
				sh.outLen--
			case evWake:
				core.WakeIdle()
			case evRefresh:
				if refreshLo < 0 {
					refreshLo = mi - 1
				}
				refreshHi = mi
			}
		}
		sh.drainWheel(u)
		for i := refreshLo; i >= 0 && i < refreshHi; i++ {
			if mail[i].kind == evRefresh {
				sh.applyRefresh(mail[i], u)
			}
		}
		sh.now = u
		next, idle := core.NextWork(u)
		if !idle || next <= u {
			core.Tick(u)
			u++
			continue
		}
		t := next
		if t > to {
			t = to
		}
		if mi < len(mail) && mail[mi].stamp < t {
			t = mail[mi].stamp
		}
		if wn, ok := sh.wheel.nextDue(u); !ok {
			t = u + 1 // unreachable after the drain; fail dense, not idle
		} else if wn < t {
			t = wn
		}
		if t <= u {
			t = u + 1
		}
		core.SkipCycles(u, t)
		u = t
	}
	sh.now = to
	sh.issueAt = sh.forecastIssue(to)
}

// drainWheel dispatches this shard's core-local completions due at u.
func (sh *parShard) drainWheel(u sim.Cycle) {
	m := sh.m
	for _, e := range sh.wheel.take(int(u) & 255) {
		switch e.kind {
		case delayLoadDone:
			m.Cores[e.core].CompleteLoad(e.seq, false, u)
		case delayFillLocal:
			m.ports[e.core].fillLocal(e.line, u)
		default:
			panic(fmt.Sprintf("machine: shared delay kind %d in shard wheel", e.kind))
		}
	}
}

// forecastIssue computes the earliest cycle at which this shard could next
// perform coordinator-visible work: immediately if the core is active,
// otherwise the earlier of the core's own next work and the shard wheel's
// next completion (which can wake the core). Coordinator-staged wake-ups are
// the coordinator's problem (capWindow).
func (sh *parShard) forecastIssue(to sim.Cycle) sim.Cycle {
	next, idle := sh.m.Cores[sh.id].NextWork(to)
	if !idle || next <= to {
		return to
	}
	wn, ok := sh.wheel.nextDue(to)
	if !ok {
		return to
	}
	if wn < next {
		next = wn
	}
	return next
}

// NextIssue implements sim.Shard. A stale forecast (fresh build, or just
// after a restore) degrades to "could issue now", which only shortens the
// first window.
func (sh *parShard) NextIssue(at sim.Cycle) sim.Cycle {
	if sh.issueAt <= at {
		return at
	}
	return sh.issueAt
}

// lcByCore finds the LC task pinned to a core (nil for BE cores).
func (m *Machine) lcByCore(core int) *LCTask {
	for _, lc := range m.lcs {
		if lc.Core == core {
			return lc
		}
	}
	return nil
}

// snapshotDelays builds the serialised wheel for a parallel-mode machine:
// per slot, the shared wheel's events (already canonical) merged with every
// shard wheel's, sorted into serial dispatch order, so the snapshot is
// byte-identical to the one a serial run takes at the same cycle.
func (m *Machine) snapshotDelays(s *MachineState) {
	var buf []delayed
	for slot := range m.delays.wheel {
		buf = buf[:0]
		buf = append(buf, m.delays.wheel[slot]...)
		for _, sh := range m.par.shards {
			buf = append(buf, sh.wheel.wheel[slot]...)
		}
		if len(buf) == 0 {
			continue
		}
		m.sortCanonical(buf)
		out := make([]DelayedState, len(buf))
		for i, e := range buf {
			out[i] = delayedState(e)
		}
		s.Delays[slot] = out
	}
}

// splitRestoredDelays moves the restored shared wheel's core-local events
// into the shard wheels (preserving slot order via fresh sequence numbers)
// and resets every shard's window-scoped runtime state. Called at the end of
// RestoreState when parallel mode is active.
func (m *Machine) splitRestoredDelays() {
	pr := m.par
	for slot := range m.delays.wheel {
		keep := m.delays.wheel[slot][:0]
		for _, e := range m.delays.wheel[slot] {
			switch e.kind {
			case delayLoadDone, delayFillLocal:
				sh := pr.shards[e.core]
				sh.seq++
				e.schedSeq = sh.seq
				sh.wheel.wheel[slot] = append(sh.wheel.wheel[slot], e)
			default:
				keep = append(keep, e)
			}
		}
		m.delays.wheel[slot] = keep
	}
	m.delays.recount()
	now := m.Engine.Now()
	for _, sh := range pr.shards {
		sh.wheel.recount()
		sh.mail = sh.mail[:0]
		sh.egress = sh.egress[:0]
		sh.issued = 0
		sh.delayedEv = 0
		sh.outLen = len(m.ports[sh.id].out)
		sh.issueAt = 0
		sh.now = now
	}
}

// lcClock builds the load generator clock for one core: the shard's replay
// cycle while a parallel window runs, the engine clock otherwise.
func (m *Machine) lcClock(core int) func() sim.Cycle {
	return func() sim.Cycle {
		if m.par != nil {
			return m.par.shards[core].now
		}
		return m.Engine.Now()
	}
}
