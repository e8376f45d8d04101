package sim

import "testing"

// probe is a ticker that is quiescent until its wake cycle and active from
// then on, recording every ticked cycle and every compensated skip range so
// tests can prove the engine covers each simulated cycle exactly once.
type probe struct {
	wake  Cycle
	ticks []Cycle
	skips [][2]Cycle
}

func (p *probe) Tick(now Cycle) { p.ticks = append(p.ticks, now) }

func (p *probe) NextWork(now Cycle) (Cycle, bool) {
	if now < p.wake {
		return p.wake, true
	}
	return 0, false
}

func (p *probe) SkipCycles(from, to Cycle) {
	p.skips = append(p.skips, [2]Cycle{from, to})
}

// coverage verifies each cycle of [0, end) is covered exactly once, by a tick
// or by a skip range.
func (p *probe) coverage(t *testing.T, end Cycle) {
	t.Helper()
	seen := make([]int, end)
	for _, c := range p.ticks {
		seen[c]++
	}
	for _, r := range p.skips {
		for c := r[0]; c < r[1]; c++ {
			seen[c]++
		}
	}
	for c, n := range seen {
		if n != 1 {
			t.Fatalf("cycle %d covered %d times (ticks %d, skips %d)", c, n, len(p.ticks), len(p.skips))
		}
	}
}

// TestSkipCompensationCoversEveryCycle drives both elision regimes — the
// global bulk jump while all slots sleep, and the eager per-cycle elision of
// one sleeping slot while another ticks densely — and proves every cycle is
// either ticked or compensated exactly once per component.
func TestSkipCompensationCoversEveryCycle(t *testing.T) {
	a := &probe{wake: 100}
	b := &probe{wake: 250}
	e := NewEngine()
	e.Register(a)
	e.Register(b)
	e.Step(300)
	if e.Now() != 300 {
		t.Fatalf("Now = %d, want 300", e.Now())
	}
	a.coverage(t, 300)
	b.coverage(t, 300)
	if len(a.ticks) != 200 { // active 100..299
		t.Fatalf("a ticked %d cycles, want 200", len(a.ticks))
	}
	if len(b.ticks) != 50 { // active 250..299
		t.Fatalf("b ticked %d cycles, want 50", len(b.ticks))
	}
	// The all-idle prefix must have used a bulk jump, not 100 polls: both
	// probes get one wide compensation range covering cycles 1..99.
	bulk := 0
	for _, r := range b.skips {
		if r[1]-r[0] > 1 {
			bulk++
			if r[0] != 1 || r[1] != 100 {
				t.Fatalf("bulk skip = %v, want [1,100)", r)
			}
		}
	}
	if bulk != 1 {
		t.Fatalf("b got %d bulk skips, want exactly 1", bulk)
	}
}

// TestSlotTicksCountExecutedTicks: under skip-ahead each slot's count is the
// cycles it was really ticked; in dense mode every slot ticks every stepped
// cycle. Counting allocates nothing on either path.
func TestSlotTicksCountExecutedTicks(t *testing.T) {
	for _, dense := range []bool{false, true} {
		a := &probe{wake: 100}
		b := &probe{wake: 250}
		e := NewEngine()
		e.SetDense(dense)
		e.Register(a)
		e.Register(b)
		e.Step(300)
		ticks, stepped := e.SlotTicks()
		if stepped != 300 || ticks[0] != uint64(len(a.ticks)) || ticks[1] != uint64(len(b.ticks)) {
			t.Fatalf("dense=%v: SlotTicks = %v, %d; probes ticked %d, %d of 300",
				dense, ticks, stepped, len(a.ticks), len(b.ticks))
		}
		a.ticks, b.ticks = make([]Cycle, 0, 2000), make([]Cycle, 0, 2000)
		a.skips, b.skips = make([][2]Cycle, 0, 2000), make([][2]Cycle, 0, 2000)
		if allocs := testing.AllocsPerRun(10, func() { e.Step(100) }); allocs != 0 {
			t.Fatalf("dense=%v: Step allocates %.1f objects/op, want 0", dense, allocs)
		}
	}
}

// TestStepNeverOvershoots: a bulk jump is clamped to the Step window even
// when the earliest reported work lies far beyond it, so absolute boundaries
// (checkpoint intervals, audit epochs, cycle budgets) are always honoured.
func TestStepNeverOvershoots(t *testing.T) {
	p := &probe{wake: 1 << 40}
	e := NewEngine()
	e.Register(p)
	for i := 0; i < 5; i++ {
		e.Step(123)
	}
	if e.Now() != 5*123 {
		t.Fatalf("Now = %d, want %d", e.Now(), 5*123)
	}
	p.coverage(t, 5*123)
	if len(p.ticks) != 0 {
		t.Fatalf("quiescent probe ticked %d times", len(p.ticks))
	}
}

// TestNonReporterPinsDense: a ticker without NextWork must be ticked every
// cycle, and its presence must prevent any global jump.
func TestNonReporterPinsDense(t *testing.T) {
	plain := 0
	p := &probe{wake: NeverWork}
	e := NewEngine()
	e.Register(TickFunc(func(Cycle) { plain++ }))
	e.Register(p)
	e.Step(500)
	if plain != 500 {
		t.Fatalf("plain ticker ran %d times, want 500", plain)
	}
	p.coverage(t, 500)
	if len(p.skips) != 500 {
		t.Fatalf("probe compensated %d ranges, want 500 one-cycle elisions", len(p.skips))
	}
}

// TestDenseModeIgnoresReporters: the -dense escape hatch must tick every
// component every cycle and never call SkipCycles.
func TestDenseModeIgnoresReporters(t *testing.T) {
	p := &probe{wake: NeverWork}
	e := NewEngine()
	e.SetDense(true)
	e.Register(p)
	e.Step(200)
	if len(p.ticks) != 200 || len(p.skips) != 0 {
		t.Fatalf("dense mode: %d ticks, %d skips; want 200, 0", len(p.ticks), len(p.skips))
	}
}

// TestRunUntilGranuleExceedsLimit: a granule larger than the remaining limit
// is clamped, so the run stops exactly at the limit.
func TestRunUntilGranuleExceedsLimit(t *testing.T) {
	e := NewEngine()
	count := 0
	e.Register(TickFunc(func(Cycle) { count++ }))
	if got := e.RunUntil(50, 100, func() bool { return false }); got != 50 {
		t.Fatalf("RunUntil = %d, want 50", got)
	}
	if count != 50 {
		t.Fatalf("ticked %d cycles, want exactly 50", count)
	}
}

// TestRunUntilStopFiresMidGranule: the stop condition is only observed at
// granule boundaries — a condition that becomes true mid-granule stops the
// run at the end of that granule, not at the cycle it turned true.
func TestRunUntilStopFiresMidGranule(t *testing.T) {
	e := NewEngine()
	count := 0
	e.Register(TickFunc(func(Cycle) { count++ }))
	if got := e.RunUntil(1000, 100, func() bool { return count >= 30 }); got != 100 {
		t.Fatalf("RunUntil = %d, want 100 (first boundary after the condition)", got)
	}
	if count != 100 {
		t.Fatalf("ticked %d cycles, want 100", count)
	}
}

// TestRunUntilZeroGranule: granule 0 degrades to per-cycle checks.
func TestRunUntilZeroGranule(t *testing.T) {
	e := NewEngine()
	count := 0
	e.Register(TickFunc(func(Cycle) { count++ }))
	if got := e.RunUntil(10, 0, func() bool { return count >= 3 }); got != 3 {
		t.Fatalf("RunUntil = %d, want 3", got)
	}
}

// TestSkipRunUntilStopsAtExactBoundaries: skip-ahead inside RunUntil still
// lands on every granule boundary, so stop conditions and absolute-boundary
// callers observe identical stopping points in both modes.
func TestSkipRunUntilStopsAtExactBoundaries(t *testing.T) {
	p := &probe{wake: 1 << 40}
	e := NewEngine()
	e.Register(p)
	checks := []Cycle{}
	e.RunUntil(700, 64, func() bool {
		checks = append(checks, e.Now())
		return false
	})
	want := []Cycle{64, 128, 192, 256, 320, 384, 448, 512, 576, 640, 700}
	if len(checks) != len(want) {
		t.Fatalf("stop checked at %v, want %v", checks, want)
	}
	for i := range want {
		if checks[i] != want[i] {
			t.Fatalf("stop check %d at cycle %d, want %d", i, checks[i], want[i])
		}
	}
	p.coverage(t, 700)
}
