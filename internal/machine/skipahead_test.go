package machine

import (
	"bytes"
	"context"
	"errors"
	"os"
	"testing"

	"pivot/internal/sim"
	"pivot/internal/workload"
)

// buildMode builds a ckptCase machine forced into the given stepping mode.
func (tc ckptCase) buildMode(t *testing.T, dense bool) *Machine {
	t.Helper()
	opt := tc.opt
	opt.Dense = dense
	m, err := New(KunpengConfig(4), opt, tc.tasks)
	if err != nil {
		t.Fatalf("%s: New: %v", tc.name, err)
	}
	if tc.stats {
		m.EnableStats(5_000, 0)
	}
	return m
}

// buildPar builds a ckptCase machine in sharded parallel mode with the given
// worker count.
func (tc ckptCase) buildPar(t *testing.T, workers int) *Machine {
	t.Helper()
	opt := tc.opt
	opt.Parallel = workers
	m, err := New(KunpengConfig(4), opt, tc.tasks)
	if err != nil {
		t.Fatalf("%s: New: %v", tc.name, err)
	}
	if !m.ParallelActive() {
		t.Fatalf("%s: parallel mode not active", tc.name)
	}
	if tc.stats {
		m.EnableStats(5_000, 0)
	}
	return m
}

// TestSkipAheadEquivalence is the tentpole's central proof obligation,
// extended to a serial/skip/parallel triangle: for every workload mix, a
// skip-ahead run, a sharded parallel run and a -dense run finish with
// byte-identical serialised machine state, byte-identical result-snapshot
// JSON, byte-identical stats-framework dumps (where enabled), and the same
// checkpoint fingerprint. The dense serial loop remains the trusted oracle.
func TestSkipAheadEquivalence(t *testing.T) {
	for _, tc := range ckptCases() {
		t.Run(tc.name, func(t *testing.T) {
			ctx := context.Background()
			dense := tc.buildMode(t, true)
			skip := tc.buildMode(t, false)
			par := tc.buildPar(t, 2)
			if dense.Engine.Dense() == skip.Engine.Dense() {
				t.Fatal("modes not actually distinct")
			}
			if err := dense.RunChecked(ctx, ckptWarmup, ckptMeasure); err != nil {
				t.Fatalf("dense run: %v", err)
			}
			if err := skip.RunChecked(ctx, ckptWarmup, ckptMeasure); err != nil {
				t.Fatalf("skip run: %v", err)
			}
			if err := par.RunChecked(ctx, ckptWarmup, ckptMeasure); err != nil {
				t.Fatalf("parallel run: %v", err)
			}

			ref := stateBytes(t, dense)
			if got := stateBytes(t, skip); !bytes.Equal(got, ref) {
				t.Errorf("skip: serialised machine state differs (%d vs %d bytes)", len(got), len(ref))
			}
			if got := stateBytes(t, par); !bytes.Equal(got, ref) {
				t.Errorf("parallel: serialised machine state differs (%d vs %d bytes)", len(got), len(ref))
			}
			if skip.Fingerprint() != dense.Fingerprint() || par.Fingerprint() != dense.Fingerprint() {
				t.Errorf("checkpoint fingerprints differ: skip %#x, par %#x, dense %#x",
					skip.Fingerprint(), par.Fingerprint(), dense.Fingerprint())
			}
			var sj, dj, pj bytes.Buffer
			if err := skip.Snapshot().WriteJSON(&sj); err != nil {
				t.Fatal(err)
			}
			if err := dense.Snapshot().WriteJSON(&dj); err != nil {
				t.Fatal(err)
			}
			if err := par.Snapshot().WriteJSON(&pj); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(sj.Bytes(), dj.Bytes()) {
				t.Error("skip: result-snapshot JSON differs from dense")
			}
			if !bytes.Equal(pj.Bytes(), dj.Bytes()) {
				t.Error("parallel: result-snapshot JSON differs from dense")
			}
			if tc.stats {
				var ss, ds, ps bytes.Buffer
				if err := skip.StatsDump().WriteJSON(&ss); err != nil {
					t.Fatal(err)
				}
				if err := dense.StatsDump().WriteJSON(&ds); err != nil {
					t.Fatal(err)
				}
				if err := par.StatsDump().WriteJSON(&ps); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(ss.Bytes(), ds.Bytes()) {
					t.Error("skip: stats-framework dump differs from dense")
				}
				if !bytes.Equal(ps.Bytes(), ds.Bytes()) {
					t.Error("parallel: stats-framework dump differs from dense")
				}
			}
			if skip.MeasuredCycles() != dense.MeasuredCycles() || par.MeasuredCycles() != dense.MeasuredCycles() {
				t.Errorf("measured cycles: skip %d, par %d, dense %d",
					skip.MeasuredCycles(), par.MeasuredCycles(), dense.MeasuredCycles())
			}
		})
	}
}

// TestSkipAheadEquivalenceIdleHeavy covers the regime skip-ahead exists for:
// a lightly loaded LC with no BE neighbours spends most cycles with every
// component quiescent, so the engine takes large global jumps — and must
// still be byte-identical to the dense reference.
func TestSkipAheadEquivalenceIdleHeavy(t *testing.T) {
	mk := func(opt Options) *Machine {
		opt.Policy = PolicyDefault
		return MustNew(KunpengConfig(4), opt,
			[]TaskSpec{lcTask(workload.Silo, 60_000)})
	}
	d, s, p := mk(Options{Dense: true}), mk(Options{}), mk(Options{Parallel: 2})
	d.Run(50_000, 150_000)
	s.Run(50_000, 150_000)
	p.Run(50_000, 150_000)
	ref := stateBytes(t, d)
	if got := stateBytes(t, s); !bytes.Equal(got, ref) {
		t.Errorf("idle-heavy skip state differs (%d vs %d bytes)", len(got), len(ref))
	}
	if got := stateBytes(t, p); !bytes.Equal(got, ref) {
		t.Errorf("idle-heavy parallel state differs (%d vs %d bytes)", len(got), len(ref))
	}
	if s.LCp95(0) != d.LCp95(0) || s.Cores[0].Stats.IdleCycles != d.Cores[0].Stats.IdleCycles {
		t.Errorf("idle-heavy stats differ: p95 %d vs %d, idle %d vs %d",
			s.LCp95(0), d.LCp95(0), s.Cores[0].Stats.IdleCycles, d.Cores[0].Stats.IdleCycles)
	}
	if p.LCp95(0) != d.LCp95(0) || p.Cores[0].Stats.IdleCycles != d.Cores[0].Stats.IdleCycles {
		t.Errorf("idle-heavy parallel stats differ: p95 %d vs %d, idle %d vs %d",
			p.LCp95(0), d.LCp95(0), p.Cores[0].Stats.IdleCycles, d.Cores[0].Stats.IdleCycles)
	}
	// The memory controller's idle forecast lets the engine sleep through
	// activate, CAS and burst waits: a handful of ticks per line moved, not
	// one per cycle of each wait (~28 per line here without it).
	ticks, _ := s.Engine.SlotTicks()
	if s.slotNames[0] != "dram" || ticks[0] > 8*s.mc.Stats.Served {
		t.Errorf("slot %s ticked %d times for %d lines served", s.slotNames[0], ticks[0], s.mc.Stats.Served)
	}
}

// TestSkipAheadEquivalenceKillResume proves crash-safety under skip-ahead: a
// skip-ahead run killed mid-measure (cycle budget standing in for SIGKILL)
// and resumed by a second skip-ahead process finishes byte-identical to a
// dense run that was never interrupted.
func TestSkipAheadEquivalenceKillResume(t *testing.T) {
	tc := ckptCases()[0]
	ctx := context.Background()

	ref := tc.buildMode(t, true)
	if err := ref.RunChecked(ctx, ckptWarmup, ckptMeasure); err != nil {
		t.Fatalf("dense reference: %v", err)
	}

	dir := t.TempDir()
	cc := CheckpointConfig{Dir: dir, Interval: ckptInterval, Keep: 3}

	killed := tc.buildMode(t, false)
	killed.Opt.MaxCycles = 72_000 // mid-measure, off any interval boundary
	if _, err := killed.RunCheckpointed(ctx, ckptWarmup, ckptMeasure, cc); !errors.Is(err, ErrCycleBudget) {
		t.Fatalf("killed run: err = %v, want cycle-budget abort", err)
	}

	resumed := tc.buildMode(t, false)
	from, err := resumed.RunCheckpointed(ctx, ckptWarmup, ckptMeasure, cc)
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if from < 72_000 {
		t.Fatalf("resumed from cycle %d, want the abort flush at >= 72000", from)
	}
	if got, want := stateBytes(t, resumed), stateBytes(t, ref); !bytes.Equal(got, want) {
		t.Error("skip-ahead kill-and-resume final state differs from uninterrupted dense run")
	}
	if resumed.LCp95(0) != ref.LCp95(0) || resumed.BECommitted() != ref.BECommitted() {
		t.Errorf("whole-run stats differ: p95 %d vs %d, BE %d vs %d",
			resumed.LCp95(0), ref.LCp95(0), resumed.BECommitted(), ref.BECommitted())
	}
}

// TestSkipAheadCheckpointBoundaries: skip-ahead must pause at exactly the
// same absolute checkpoint boundaries as dense stepping, even in an
// idle-heavy run whose engine jumps would otherwise sail past them. The two
// modes must write the same set of checkpoint files, cycle-stamped at exact
// interval multiples, with identical payload bytes.
func TestSkipAheadCheckpointBoundaries(t *testing.T) {
	ctx := context.Background()
	// One lightly loaded LC: long quiescent stretches around each boundary.
	mk := func(dense bool) *Machine {
		return MustNew(KunpengConfig(4),
			Options{Policy: PolicyDefault, Dense: dense},
			[]TaskSpec{lcTask(workload.Silo, 60_000)})
	}
	const interval sim.Cycle = 16_000

	runDir := func(m *Machine) string {
		dir := t.TempDir()
		if err := m.stepCheckpointed(ctx, 100_000, CheckpointConfig{Dir: dir, Interval: interval, Keep: 100}); err != nil {
			t.Fatalf("stepCheckpointed: %v", err)
		}
		return dir
	}
	dDir, sDir := runDir(mk(true)), runDir(mk(false))

	list := func(dir string) []string {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		return names
	}
	dNames, sNames := list(dDir), list(sDir)
	if len(sNames) != len(dNames) || len(sNames) != int(100_000/interval) {
		t.Fatalf("checkpoint counts differ: skip %d, dense %d, want %d",
			len(sNames), len(dNames), 100_000/interval)
	}
	for i := range dNames {
		if sNames[i] != dNames[i] {
			t.Fatalf("checkpoint file %d differs: %s vs %s", i, sNames[i], dNames[i])
		}
		got, want := payloadAt(t, sDir+"/"+sNames[i]), payloadAt(t, dDir+"/"+dNames[i])
		if !bytes.Equal(got, want) {
			t.Errorf("checkpoint %s payload differs between modes", sNames[i])
		}
	}
}
