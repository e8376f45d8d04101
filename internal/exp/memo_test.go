package exp

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"pivot/internal/machine"
	"pivot/internal/workload"
)

// memoCtx returns a fresh context with the spec's LC app calibrated, so
// counters only move for co-location runs.
func memoCtx(t *testing.T) *Context {
	t.Helper()
	ctx := tinyCtx()
	if _, err := ctx.Calib(workload.Silo); err != nil {
		t.Fatal(err)
	}
	return ctx
}

func memoSpec() RunSpec {
	return RunSpec{Method: MethodDefault(),
		LCs: []LCSpec{{App: workload.Silo, LoadPct: 50}},
		BEs: []BESpec{{App: workload.IBench, Threads: 2}}}
}

// wantMemo checks the context's memo counters.
func wantMemo(t *testing.T, ctx *Context, hits, misses uint64) {
	t.Helper()
	if h, m := ctx.RunMemoStats(); h != hits || m != misses {
		t.Fatalf("run memo: %d hit(s), %d miss(es); want %d, %d", h, m, hits, misses)
	}
}

// TestRunMemoHitMatchesFreshRun: a memo hit returns exactly what simulating
// the same spec on a fresh context returns.
func TestRunMemoHitMatchesFreshRun(t *testing.T) {
	ctx := memoCtx(t)
	tRun(t, ctx, memoSpec())
	hit := tRun(t, ctx, memoSpec())
	wantMemo(t, ctx, 1, 1)

	fresh := memoCtx(t)
	want := tRun(t, fresh, memoSpec())
	wantMemo(t, fresh, 0, 1)
	if !reflect.DeepEqual(hit, want) {
		t.Errorf("memo hit differs from a fresh run:\n hit: %+v\nwant: %+v", hit, want)
	}
}

// TestRunMemoResultsAreCopies: a caller mutating a returned result cannot
// change what the memo hands out next.
func TestRunMemoResultsAreCopies(t *testing.T) {
	ctx := memoCtx(t)
	first := tRun(t, ctx, memoSpec())
	p95 := first.P95[0]
	first.P95[0] = p95 + 1

	second := tRun(t, ctx, memoSpec())
	if second.P95[0] != p95 {
		t.Fatalf("mutating the miss's result changed the memo: p95 %d, want %d", second.P95[0], p95)
	}
	second.P95[0] = p95 + 2
	if third := tRun(t, ctx, memoSpec()); third.P95[0] != p95 {
		t.Fatalf("mutating a hit's result changed the memo: p95 %d, want %d", third.P95[0], p95)
	}
	wantMemo(t, ctx, 2, 1)
}

// TestRunMemoBypassedForArtifacts: a run that produces stats, a flight
// report or checkpoints simulates every time, even when the memo already
// holds its result, so its artifacts are always fresh.
func TestRunMemoBypassedForArtifacts(t *testing.T) {
	t.Run("stats", func(t *testing.T) {
		ctx := memoCtx(t)
		tRun(t, ctx, memoSpec())
		ctx.StatsEpoch = 20_000
		tRun(t, ctx, memoSpec())
		first := ctx.LastStats()
		tRun(t, ctx, memoSpec())
		wantMemo(t, ctx, 0, 3)
		if first == nil || ctx.LastStats() == first {
			t.Error("repeated instrumented run did not refresh LastStats")
		}
	})
	t.Run("flight", func(t *testing.T) {
		ctx := memoCtx(t)
		tRun(t, ctx, memoSpec())
		ctx.FlightTop = 4
		tRun(t, ctx, memoSpec())
		first := ctx.LastFlight()
		tRun(t, ctx, memoSpec())
		wantMemo(t, ctx, 0, 3)
		if first == nil || ctx.LastFlight() == first {
			t.Error("repeated flight-recorded run did not refresh LastFlight")
		}
	})
	t.Run("checkpoint", func(t *testing.T) {
		ctx := memoCtx(t)
		tRun(t, ctx, memoSpec())
		ctx.CheckpointDir = t.TempDir()
		tRun(t, ctx, memoSpec())
		tRun(t, ctx, memoSpec())
		wantMemo(t, ctx, 0, 3)
	})
}

// TestRunMemoKeysDense: the engine mode is part of the key, so a dense run
// after a skip-ahead run of the same spec is a real simulation.
func TestRunMemoKeysDense(t *testing.T) {
	ctx := memoCtx(t)
	skip := tRun(t, ctx, memoSpec())
	ctx.Dense = true
	dense := tRun(t, ctx, memoSpec())
	wantMemo(t, ctx, 0, 2)
	if !reflect.DeepEqual(skip, dense) {
		t.Errorf("dense run differs from skip-ahead run:\ndense: %+v\n skip: %+v", dense, skip)
	}
}

// TestRunMemoForgetsFailedRuns: a run cancelled through WithRunContext is
// not cached, so the parent context then simulates it successfully.
func TestRunMemoForgetsFailedRuns(t *testing.T) {
	ctx := memoCtx(t)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ctx.WithRunContext(cancelled).Run(memoSpec()); err == nil {
		t.Fatal("run under a cancelled context succeeded")
	}
	tRun(t, ctx, memoSpec())
	wantMemo(t, ctx, 0, 2)

	// A caller waiting on another caller's failing run simulates the spec
	// itself instead of inheriting the failure.
	ctx = memoCtx(t)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		ctx.WithRunContext(cancelled).Run(memoSpec()) //nolint:errcheck // may fail or hit
	}()
	if _, err := ctx.Run(memoSpec()); err != nil {
		t.Errorf("run racing a cancelled run of the same spec: %v", err)
	}
	wg.Wait()
}

// TestRunMemoConcurrentCallersShareOneRun: concurrent requests for one spec
// simulate it once and all receive the same result.
func TestRunMemoConcurrentCallersShareOneRun(t *testing.T) {
	ctx := memoCtx(t)
	const n = 8
	results := make([]RunResult, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = ctx.Run(memoSpec())
		}(i)
	}
	wg.Wait()
	for i := range results {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(results[i], results[0]) {
			t.Errorf("caller %d got %+v, caller 0 got %+v", i, results[i], results[0])
		}
	}
	wantMemo(t, ctx, n-1, 1)
}

// TestSiblingsShareCachesPerConfig: every sibling over one machine config,
// reached from any context of the family, shares that config's caches.
func TestSiblingsShareCachesPerConfig(t *testing.T) {
	ctx := tinyCtx()
	neo := machine.NeoverseConfig(4)
	a, b := ctx.sibling(neo), ctx.sibling(neo)
	if a.sh != b.sh {
		t.Error("two siblings over one config have separate caches")
	}
	if a.sh == ctx.sh {
		t.Error("a sibling over another config shares the original's caches")
	}
	if back := a.sibling(ctx.Cfg); back.sh != ctx.sh {
		t.Error("a sibling's sibling over the original config has separate caches")
	}
}

// TestRunMemoSearchStepsApartFromRuns: a repeated search is answered from
// the memo step by step, but a direct Run of one of its steps simulates.
func TestRunMemoSearchStepsApartFromRuns(t *testing.T) {
	ctx := memoCtx(t)
	lcs := memoSpec().LCs
	search := func() float64 {
		t.Helper()
		v, err := ctx.MaxBEThroughput(MethodDefault(), lcs, workload.IBench, 2)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	first := search()
	_, steps := ctx.RunMemoStats()
	if steps == 0 {
		t.Fatal("search ran no step")
	}
	if again := search(); again != first {
		t.Fatalf("repeated search returned %v, first %v", again, first)
	}
	wantMemo(t, ctx, steps, steps)

	// The search's first step runs the most BE threads the scale allows.
	spec := memoSpec()
	spec.BEs[0].Threads = ctx.Scale.MaxBEThreads
	tRun(t, ctx, spec)
	wantMemo(t, ctx, steps, steps+1)
	tRun(t, ctx, spec)
	wantMemo(t, ctx, steps+1, steps+1)
}
