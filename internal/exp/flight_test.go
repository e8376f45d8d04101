package exp

import (
	"bytes"
	"testing"

	"pivot/internal/machine"
	"pivot/internal/workload"
)

// fig1Spec is the Fig 1 motivation mix (one LC vs the iBench stressor) with a
// pinned inter-arrival so no calibration sweep runs.
func fig1Spec() RunSpec {
	return RunSpec{
		Method: MethodDefault(),
		LCs:    []LCSpec{{App: workload.ImgDNN, Interarrival: 5000}},
		BEs:    []BESpec{{App: workload.IBench, Threads: 2}},
	}
}

// flightCtx is a tiny harness context with the flight recorder armed.
func flightCtx() *Context {
	ctx := tinyCtx()
	ctx.FlightTop = 16
	ctx.FlightSample = 128
	return ctx
}

// reportJSON runs the spec on ctx and renders the captured report.
func reportJSON(t *testing.T, ctx *Context, spec RunSpec) []byte {
	t.Helper()
	if _, err := ctx.Run(spec); err != nil {
		t.Fatalf("Run: %v", err)
	}
	rep := ctx.LastFlight()
	if rep == nil {
		t.Fatal("flight-armed run captured no report")
	}
	if rep.Demand == 0 || len(rep.Slowest) == 0 {
		t.Fatalf("degenerate report: %d demand, %d slow", rep.Demand, len(rep.Slowest))
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestFlightReportStableAcrossModes is the PR's acceptance criterion at the
// harness level: the Fig 1 mix's tail-attribution report must be byte-
// identical whether the run executed dense, skip-ahead, or skip-ahead killed
// mid-measure and resumed from its checkpoints.
func TestFlightReportStableAcrossModes(t *testing.T) {
	spec := fig1Spec()

	dense := flightCtx()
	dense.Dense = true
	denseRep := reportJSON(t, dense, spec)

	skip := flightCtx()
	skipRep := reportJSON(t, skip, spec)

	if !bytes.Equal(denseRep, skipRep) {
		t.Errorf("report differs dense vs skip-ahead:\n--- dense ---\n%s\n--- skip ---\n%s", denseRep, skipRep)
	}

	// Kill-and-resume: a cycle budget mid-measure stands in for SIGKILL, then
	// the identical invocation resumes from the flushed checkpoint.
	resume := flightCtx()
	resume.CheckpointDir = t.TempDir()
	resume.CheckpointInterval = 40_000
	abortSpec := spec
	abortSpec.Opt.MaxCycles = resume.Scale.Warmup + resume.Scale.Measure/2
	if _, err := resume.Run(abortSpec); err == nil {
		t.Fatal("budget-bounded run did not abort")
	}
	resumeRep := reportJSON(t, resume, spec)
	if !bytes.Equal(denseRep, resumeRep) {
		t.Errorf("report differs after kill-and-resume:\n--- dense ---\n%s\n--- resumed ---\n%s", denseRep, resumeRep)
	}
}

// TestFlightCheckpointDirKeying: flight settings are part of the checkpoint
// identity, so a flight-armed rerun never tries to restore a recorder-less
// run's snapshots (and vice versa).
func TestFlightCheckpointDirKeying(t *testing.T) {
	plain := tinyCtx()
	armed := flightCtx()
	dir := t.TempDir()
	plain.CheckpointDir, armed.CheckpointDir = dir, dir

	spec := fig1Spec()
	in := runInputs{opt: machine.Options{Policy: machine.PolicyDefault},
		tasks:  []machine.TaskSpec{{Kind: machine.TaskLC, LC: workload.LCApps()[workload.Silo], MeanInterarrival: 5000, Seed: 1}},
		warmup: plain.Scale.Warmup, measure: plain.Scale.Measure}
	m := machine.MustNew(plain.Cfg, in.opt, in.tasks)
	a := plain.checkpointDir(m, spec, in)
	b := armed.checkpointDir(m, spec, in)
	if a == "" || b == "" {
		t.Fatal("checkpointing denied for a plain run")
	}
	if a == b {
		t.Error("flight-armed and recorder-less runs share a checkpoint dir")
	}
}
