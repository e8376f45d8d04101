package main

import (
	"bytes"
	"runtime/pprof"
	"testing"
	"time"
)

func TestFuncPackage(t *testing.T) {
	for name, want := range map[string]string{
		"pivot/internal/dram.(*Controller).startActivates":                   "pivot/internal/dram",
		"pivot/internal/ring.(*Ring[go.shape.*pivot/internal/mem.Req]).Push": "pivot/internal/ring",
		"pivot/internal/ring.Ring[go.shape.struct { a.b }].Len":              "pivot/internal/ring",
		"pivot/internal/exp.lookup[go.shape.*uint8]":                         "pivot/internal/exp",
		"pivot/internal/sim.(*Engine).Step.func1":                            "pivot/internal/sim",
		"pivot/internal/machine.New":                                         "pivot/internal/machine",
		"runtime.mallocgc":                                                   "runtime",
		"internal/runtime/maps.(*Map).getWithKey":                            "internal/runtime/maps",
		"main.main": "main",
	} {
		if got := funcPackage(name); got != want {
			t.Errorf("funcPackage(%q) = %q, want %q", name, got, want)
		}
	}
}

func TestStackModule(t *testing.T) {
	for _, c := range []struct {
		frames []string // leaf first
		want   string
	}{
		{[]string{"pivot/internal/dram.(*Controller).claim", "pivot/internal/sim.(*Engine).Step"}, "dram"},
		// A helper package is charged to its nearest listed caller, through
		// generic shapes whose type arguments contain slashes.
		{[]string{"pivot/internal/ring.(*Ring[go.shape.*pivot/internal/mem.Req]).Push",
			"pivot/internal/interconnect.(*Station).Tick", "pivot/internal/sim.(*Engine).Step"}, "interconnect"},
		{[]string{"runtime.memmove", "pivot/internal/cpu.(*Core).Tick"}, "cpu"},
		{[]string{"pivot/internal/load.(*stationaryModel).NextArrival"}, "loadgen"},
		{[]string{"pivot/internal/workload.(*ReqGen).Next"}, "loadgen"},
		// Allocation and collection are runtime_gc wherever they are called.
		{[]string{"runtime.nextFreeFast", "runtime.mallocgc", "pivot/internal/machine.(*Machine).newReq"}, "runtime_gc"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker.func2", "runtime.systemstack"}, "runtime_gc"},
		{[]string{"runtime.sweepone", "runtime.bgsweep", "runtime.goexit"}, "runtime_gc"},
		{[]string{"runtime.futex", "runtime.goexit"}, "other"},
		{[]string{"pivot/internal/mem.(*Req).Reset", "main.main"}, "other"},
		{nil, "other"},
	} {
		if got := stackModule(c.frames); got != c.want {
			t.Errorf("stackModule(%q) = %q, want %q", c.frames, got, c.want)
		}
	}
}

// TestAttributeProfile decodes a real CPU profile of a short colo-pivot run:
// every sample must land in a module, and the memory path must show up.
func TestAttributeProfile(t *testing.T) {
	m, _, err := coloPivot.setup(defaultSeed, spans{}, false)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiler unavailable: %v", err)
	}
	for start := time.Now(); time.Since(start) < 700*time.Millisecond; {
		m.Engine.Step(coloPivot.granule)
	}
	pprof.StopCPUProfile()
	self, err := attributeProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for mod, v := range self {
		found := false
		for _, known := range modules {
			found = found || mod == known
		}
		if !found {
			t.Errorf("sample attributed to unknown module %q", mod)
		}
		total += v
	}
	if total < 0.2 {
		t.Fatalf("profile holds %.3fs of samples, want most of 0.7s", total)
	}
	if self["dram"]+self["interconnect"]+self["bwctrl"] == 0 {
		t.Errorf("no samples on the memory path: %v", self)
	}
	if _, err := attributeProfile([]byte("not gzip")); err == nil {
		t.Error("attributeProfile accepted a non-gzip input")
	}
}
