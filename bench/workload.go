package main

import (
	"runtime"
	"time"
)

// runContext carries the command line into a workload run.
type runContext struct {
	seed, shapeSeed int64
	// budget is how long the timed region measures.
	budget time.Duration
	// trace repeats the workload with the benchmark's spans switched on
	// and fills the per-layer metrics; end-to-end numbers are taken from
	// the untraced pass either way.
	trace  bool
	outDir string
}

// workload is one benchmark workload. gated maps the generic gated metric
// names onto the workload's own headline metrics; names missing from it are
// reported by the workload under the gated name itself.
type workload struct {
	name, why string
	// minCPUs is the smallest machine the workload means anything on: a
	// workload with a second thread (scheduler workers, or a load generator
	// beside the server) measures the OS scheduler on one CPU.
	minCPUs int
	gated   map[string]string
	run     func(w *workload, rc *runContext) (*workloadReport, error)
}

var workloads = []*workload{replayDense, replayWide, controlChurn, daemonSaturate, daemonPaced}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// liveHeap forces a collection and returns the bytes of live heap objects.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

const megabyte = 1 << 20

// repeatSetUp runs a workload's set-up n times, discarding all but the last
// instance, and returns that instance, the live heap before it was built
// and the duration of every repetition: setup_s is their median, so one
// slow repetition does not decide it.
func repeatSetUp[T any](n int, setUp func() (T, error), discard func(T)) (last T, heapBefore uint64, durations samples, err error) {
	for i := 0; i < n; i++ {
		heapBefore = liveHeap()
		start := time.Now()
		inst, err := setUp()
		if err != nil {
			return last, 0, nil, err
		}
		durations.add(time.Since(start))
		if i < n-1 {
			discard(inst)
			continue
		}
		last = inst
	}
	return last, heapBefore, durations, nil
}

func stateMB(heapAt, heapBefore uint64) float64 {
	return (float64(heapAt) - float64(heapBefore)) / megabyte
}
