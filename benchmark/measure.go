package main

import (
	"math"
	"runtime"
	"sort"
	"time"
)

// sample is one finished op of a timed window.
type sample struct {
	end  int64 // ns since the window started
	dur  int64 // ns
	prog int   // index into the workload's programs; 0 when there is one kind of op
	ok   bool
}

// cut is a slice boundary: when it was taken and the process's
// cumulative heap allocation at that moment.
type cut struct {
	at    int64
	alloc uint64
}

func markCut(t0 time.Time) cut {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return cut{int64(time.Since(t0)), ms.TotalAlloc}
}

// nSlices is how many slices a timed window is cut into.
const nSlices = 32

// allocOps is how many ops alloc_mb_per_op is taken over when a
// workload's cost per op drifts inside a window (serve.churn: the
// replica's compile log grows with every never-seen expression, and
// each request copies it). A fixed count from the window's start makes
// the number a property of the program, not of how many requests the
// host got through.
const allocOps = 4096

// window is what a timed window leaves behind.
type window struct {
	samples []sample
	cuts    []cut // slice boundaries, first at the window's start
	// allocMark, when its ops is non-zero, is the heap allocated up to
	// the moment the ops-th op finished.
	allocMark struct {
		ops   int
		alloc uint64
	}
}

// opTimeMS is the op-time statistic at quantile q: the geometric mean
// over programs of each program's q-quantile op time, so one long
// program cannot drown the rest. With one kind of op it is the plain
// quantile. minN is the smallest per-program sample count.
func opTimeMS(samples []sample, nprog int, q float64) (ms float64, minN int) {
	per := make([][]float64, nprog)
	for _, s := range samples {
		if s.ok {
			per[s.prog] = append(per[s.prog], float64(s.dur)/1e6)
		}
	}
	var qs []float64
	minN = -1
	for _, p := range per {
		if minN < 0 || len(p) < minN {
			minN = len(p)
		}
		if len(p) > 0 {
			sort.Float64s(p)
			qs = append(qs, quantile(p, q))
		}
	}
	return geomean(qs), max(minN, 0)
}

// windowMetrics turns a timed window into the three windowed end-to-end
// metrics (setup_s is measured apart), into m, and the informational
// numbers beside them, into info. Slice i spans (cuts[i], cuts[i+1]] and owns the ops that
// finished inside it.
//
// The gated numbers are the quiet ones: the fastest slice and each
// program's fastest op. On the shared two-core box this was written on,
// memory-bound work slows by 1.3-1.7x for tens of seconds at a time
// while a register-only spin loop does not move; ten runs of one commit
// then spread by 30-50% in the median slice and the median op, and by
// 5-20% in the fastest ones. Noise of that kind only ever slows, so the
// best observation is the one nearest the program's own speed. Medians
// and the tail are printed beside them, ungated.
func windowMetrics(w window, nprog int, m, info metrics) {
	cuts := w.cuts
	bySlice := make([][]sample, len(cuts)-1)
	var inWindow []sample
	for _, s := range w.samples {
		i := sort.Search(len(cuts), func(i int) bool { return cuts[i].at >= s.end }) - 1
		if !s.ok || i < 0 || i >= len(bySlice) {
			continue
		}
		bySlice[i] = append(bySlice[i], s)
		inWindow = append(inWindow, s)
	}
	// A slice without ops is a pause between serve.churn's episodes:
	// neither its time nor its allocation belongs to the window.
	var live [][]sample
	var rate []float64
	var ns int64
	var bytes uint64
	for i, ss := range bySlice {
		if len(ss) > 0 {
			live = append(live, ss)
			rate = append(rate, float64(len(ss))/(float64(cuts[i+1].at-cuts[i].at)/1e9))
			ns += cuts[i+1].at - cuts[i].at
			bytes += cuts[i+1].alloc - cuts[i].alloc
		}
	}
	n := float64(max(len(inWindow), 1))

	// <metric>.spread is how far the window's two halves disagree about
	// the metric, as a share of it: what -compare holds against the bound
	// before it calls a row resolved.
	half := len(live) / 2
	disagree := func(whole float64, of func(lo, hi int) float64) float64 {
		if half == 0 || whole == 0 {
			return 0
		}
		return math.Abs(of(0, half)-of(half, len(live))) / whole
	}
	bestRate := func(lo, hi int) float64 { return quantile(sortedCopy(rate[lo:hi]), 1) }
	fastest := func(lo, hi int) float64 {
		var ss []sample
		for _, l := range live[lo:hi] {
			ss = append(ss, l...)
		}
		ms, _ := opTimeMS(ss, nprog, 0)
		return ms
	}

	sorted := sortedCopy(rate)
	best := quantile(sorted, 1)
	m.set("ops_per_s", best, "1/s")
	info.set("ops_per_s.median_slice", quantile(sorted, 0.5), "1/s")
	info.set("ops_per_s.min_slice", quantile(sorted, 0), "1/s")
	info.set("ops_per_s.whole_window", n/(float64(max(ns, 1))/1e9), "1/s")
	info.set("ops_per_s.spread", disagree(best, bestRate), "share")

	opMin, minN := opTimeMS(inWindow, nprog, 0)
	m.set("op_min_ms", opMin, "ms")
	info.set("op_min_ms.spread", disagree(opMin, fastest), "share")
	p50, _ := opTimeMS(inWindow, nprog, 0.5)
	info.set("op_p50_ms", p50, "ms")
	if label, q, ok := tailPercentile(minN); ok {
		tail, _ := opTimeMS(inWindow, nprog, q)
		info.set("op_p"+label+"_ms", tail, "ms")
	}

	info.set("alloc_mb_per_op.whole_window", float64(bytes)/1e6/n, "MB")
	if w.allocMark.ops > 0 {
		n, bytes = float64(w.allocMark.ops), w.allocMark.alloc-cuts[0].alloc
	}
	m.set("alloc_mb_per_op", float64(bytes)/1e6/n, "MB")

	info.set("samples", float64(len(inWindow)), "count")
	info.set("samples.min_per_program", float64(minN), "count")
	info.set("slices", float64(len(rate)), "count")
}
