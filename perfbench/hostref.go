package main

import (
	"sort"
	"time"
)

// hostRef measures how fast the host runs right now, with fixed work the
// benchmark owns: sorting a copy of the same pseudo-random slice. On a
// shared host the simulator's speed swings by up to 1.8x over phases that
// last from a second to many minutes, independently of the code, and this
// kernel's time follows those swings (over 2-second windows its time and
// the simulator's correlate at about 0.9). Scaling a host time by
// refNominal/kernel time turns it into seconds at the host's nominal speed,
// which only a change to the simulator moves.
type hostRef struct {
	src, buf []int
	last     float64   // the latest kernel time, seconds
	all      []float64 // every kernel time, reported by traced runs
}

// refNominal is the kernel's time at the nominal speed of the host the
// benchmark was defined on. It only sets the scale of normalised times.
const refNominal = 1.5e-3

// refInterval is how much host time may pass between two kernel runs.
const refInterval = 100 * time.Millisecond

func newHostRef() *hostRef {
	h := &hostRef{src: make([]int, 4096), buf: make([]int, 4096)}
	x := uint64(0x9E3779B97F4A7C15)
	for i := range h.src {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		h.src[i] = int(x >> 1)
	}
	h.measure()
	return h
}

// measure times the kernel and returns the fastest of three tries, so one
// interrupt does not count as a slow host.
func (h *hostRef) measure() float64 {
	best := 0.0
	for try := 0; try < 3; try++ {
		t := time.Now()
		for r := 0; r < 6; r++ {
			copy(h.buf, h.src)
			sort.Ints(h.buf)
		}
		if d := time.Since(t).Seconds(); try == 0 || d < best {
			best = d
		}
	}
	h.last = best
	h.all = append(h.all, best)
	return best
}

// factor measures the kernel again and returns the scale for host time
// spent since the previous measurement: refNominal over the mean of the
// kernel times that bracket it.
func (h *hostRef) factor() float64 {
	before := h.last
	return refNominal / ((before + h.measure()) / 2)
}

// timeNorm runs f and returns its host time in seconds and that time at the
// host's nominal speed.
func (h *hostRef) timeNorm(f func()) (raw, norm float64) {
	t := time.Now()
	f()
	raw = time.Since(t).Seconds()
	return raw, raw * h.factor()
}
