package main

import (
	"fmt"
	"os"
	"runtime"
	"time"
)

// The host this benchmark runs on is a share of a machine whose speed
// drifts: on a 2-vCPU host, ten 25 s table1-full runs had a median
// run_geomean_ms of 113 ms in one set and 152 ms in the next, ten minutes
// later, with each set's own spread under 0.17. The reference below is
// fixed code of the benchmark's own that does the kinds of work the
// workloads do. Each process times it before, during (every refEvery, off
// the clock) and after its measurement, and the end-to-end times are
// rescaled to a host on which its median takes refNominalMs.
// Across 42 single processes of 5 s the reference time moved with the
// workloads' (correlation 0.79 to 0.94), and rescaling cut the spread of
// run_geomean_ms from 0.22, 0.30 and 0.17 (table1-full, serve-mix,
// vet-corpus) to 0.11, 0.09 and 0.07. A change to sharc does not move the
// reference, so it shows in full.

const (
	// refNominalMs is the reference time the end-to-end times are scaled
	// to, about its median on a 2-vCPU host in a quiet period.
	refNominalMs = 30.0
	// refSamples is how many times a process times the reference before
	// its measurement and again after it.
	refSamples = 3
	// refEvery is how often the workloads' loops time it while they
	// measure, off the clock, so that it follows the host through the run.
	refEvery = 500 * time.Millisecond
)

// hostClock collects a process's reference times. A nil *hostClock
// samples nothing.
type hostClock struct {
	ms   []float64
	last time.Time
}

// sample times the reference once, on a collected heap. Its allocations
// and GC cycles are left out of what readHeap reports.
func (h *hostClock) sample() {
	if h == nil {
		return
	}
	h0 := readHeap()
	runtime.GC()
	h.ms = append(h.ms, ms(reference()))
	excludeHeap(readHeap().since(h0))
	h.last = time.Now()
}

// tick samples the reference if refEvery has passed since the last sample.
func (h *hostClock) tick() {
	if h != nil && time.Since(h.last) >= refEvery {
		h.sample()
	}
}

// rescale turns the measured end-to-end times into times on the nominal
// host and records the median reference time as host.ref_ms. The raw
// values go to standard error.
func (h *hostClock) rescale(m map[string]float64) {
	ref := median(h.ms)
	fmt.Fprintf(os.Stderr, "host reference %.3f ms over %d samples; unscaled setup_s %.6g run_geomean_ms %.6g req_per_s %.6g\n",
		ref, len(h.ms), m["setup_s"], m["run_geomean_ms"], m["req_per_s"])
	s := refNominalMs / ref
	m["setup_s"] *= s
	m["run_geomean_ms"] *= s
	m["req_per_s"] /= s
	m["host.ref_ms"] = ref
}

// reference is the fixed work: allocation, pointer chasing and GC (a tree
// of 2^15 nodes built and summed four times), branchy dispatch (a stack
// machine running 3M steps of a fixed program), and memory bandwidth
// (four sweeps over an 8 MB buffer).
func reference() time.Duration {
	start := time.Now()
	acc := 0
	for i := 0; i < 4; i++ {
		acc += buildTree(14, 1).sum()
	}
	acc += stackMachine(3_000_000)
	buf := make([]int64, 1<<20)
	for k := 0; k < 4; k++ {
		for i := range buf {
			buf[i] += int64(i ^ k)
		}
	}
	acc += int(buf[len(buf)-1])
	refSink = acc
	return time.Since(start)
}

// refSink keeps the reference's result alive.
var refSink int

type refNode struct {
	l, r *refNode
	v    int
}

func buildTree(depth, v int) *refNode {
	if depth == 0 {
		return &refNode{v: v}
	}
	return &refNode{l: buildTree(depth-1, 2*v), r: buildTree(depth-1, 2*v+1), v: v}
}

func (n *refNode) sum() int {
	if n == nil {
		return 0
	}
	return n.v + n.l.sum() + n.r.sum()
}

func stackMachine(steps int) int {
	code := [...]byte{0, 1, 2, 3, 1, 4, 2, 0, 3, 4}
	stack := make([]int, 0, 64)
	acc := 0
	for i := 0; i < steps; i++ {
		switch code[i%len(code)] {
		case 0:
			stack = append(stack, i)
		case 1:
			if len(stack) > 0 {
				acc += stack[len(stack)-1]
				stack = stack[:len(stack)-1]
			}
		case 2:
			acc ^= acc << 3
		case 3:
			acc += i & 7
		case 4:
			if acc&1 == 0 {
				stack = append(stack, acc)
			}
		}
		if len(stack) > 60 {
			stack = stack[:0]
		}
	}
	return acc
}
