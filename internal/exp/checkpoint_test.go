package exp

import (
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"pivot/internal/faultinject"
	"pivot/internal/machine"
	"pivot/internal/workload"
)

// TestCheckpointedRunResumeMatchesUninterrupted is the harness-level recovery
// regression: a co-location run interrupted mid-measure and later resumed
// from its checkpoints must report the exact whole-run RunResult of an
// uninterrupted execution — every percentile, IPC and bandwidth figure.
func TestCheckpointedRunResumeMatchesUninterrupted(t *testing.T) {
	ctx := tinyCtx()
	dir := t.TempDir()
	ctx.CheckpointDir = dir
	ctx.CheckpointInterval = 40_000

	spec := RunSpec{
		Method: MethodDefault(),
		LCs:    []LCSpec{{App: workload.Silo, LoadPct: 60}},
		BEs:    []BESpec{{App: workload.IBench, Threads: 2}},
	}

	// Uninterrupted reference (itself checkpointed — checkpointing must not
	// perturb results — and cleaned up on success).
	ref := tRun(t, ctx, spec)
	if entries, _ := os.ReadDir(dir); len(entries) != 0 {
		t.Fatalf("completed run left %d checkpoint entries behind", len(entries))
	}

	// Interrupted attempt: a cycle budget mid-measure stands in for SIGINT
	// (both surface as an AbortError, which flushes a final checkpoint).
	abortSpec := spec
	abortSpec.Opt.MaxCycles = ctx.Scale.Warmup + ctx.Scale.Measure/2
	if _, err := ctx.Run(abortSpec); err == nil {
		t.Fatal("budget-bounded run did not abort")
	}
	if entries, _ := os.ReadDir(dir); len(entries) == 0 {
		t.Fatal("aborted run flushed no checkpoint")
	}

	// Resume: same spec, no budget. Must pick up the aborted run's state.
	got, err := ctx.Run(spec)
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if !reflect.DeepEqual(got, ref) {
		t.Errorf("resumed result differs from uninterrupted run:\n got: %+v\nwant: %+v", got, ref)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 0 {
		t.Errorf("resumed run left %d checkpoint entries behind", len(entries))
	}
}

// TestCheckpointDirGating: manager-driven and fault-injected runs must not
// checkpoint (their state lives outside the machine snapshot).
func TestCheckpointDirGating(t *testing.T) {
	ctx := tinyCtx()
	ctx.CheckpointDir = t.TempDir()

	tasks := []machine.TaskSpec{{Kind: machine.TaskLC, LC: workload.LCApps()[workload.Silo], MeanInterarrival: 5000, Seed: 1}}
	in := runInputs{opt: machine.Options{Policy: machine.PolicyDefault}, tasks: tasks,
		warmup: ctx.Scale.Warmup, measure: ctx.Scale.Measure}
	m := machine.MustNew(ctx.Cfg, in.opt, tasks)

	if dir := ctx.checkpointDir(m, RunSpec{Method: MethodDefault()}, in); dir == "" {
		t.Error("plain run denied a checkpoint dir")
	}
	if dir := ctx.checkpointDir(m, RunSpec{Method: MethodPARTIES()}, in); dir != "" {
		t.Error("manager run granted a checkpoint dir")
	}
	if dir := ctx.checkpointDir(m, RunSpec{Method: MethodDefault(), Faults: &faultinject.Config{}}, in); dir != "" {
		t.Error("fault-injected run granted a checkpoint dir")
	}
	a := ctx.checkpointDir(m, RunSpec{Method: MethodDefault()}, in)
	b := ctx.checkpointDir(m, RunSpec{Method: MethodMBA(40)}, in)
	// Directory names hash the built machine's fingerprint and knobs, so
	// checkpoints written before a change of key plumbing still resume.
	h := fnv.New64a()
	fmt.Fprintf(h, "%016x|%s|%d|%d|%d|%d|%d", m.Fingerprint(), "Default", 0,
		ctx.Scale.Warmup, ctx.Scale.Measure, 0, 0)
	if want := filepath.Join(ctx.CheckpointDir, fmt.Sprintf("run-%016x", h.Sum64())); a != want {
		t.Errorf("checkpoint dir %s, want %s", a, want)
	}
	if a == b {
		t.Error("different methods share a checkpoint dir")
	}
}
