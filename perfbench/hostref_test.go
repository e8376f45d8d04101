package main

import (
	"math"
	"sort"
	"testing"
	"time"
)

func TestHostRefScale(t *testing.T) {
	h := newHostRef()
	raw, norm := h.timeNorm(func() { time.Sleep(5 * time.Millisecond) })
	n := len(h.all)
	want := raw * refNominal / ((h.all[n-2] + h.all[n-1]) / 2)
	if raw < 0.005 || math.Abs(norm-want) > 1e-9*want {
		t.Errorf("timeNorm = %v, %v; want raw >= 5ms and norm = %v", raw, norm, want)
	}
	if sort.IntsAreSorted(h.src) {
		t.Error("the kernel sorted its input in place; every run must sort the same data")
	}
}
