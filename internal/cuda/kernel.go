package cuda

import (
	"fmt"
	"runtime"

	"repro/internal/par"
)

// KernelFunc is the body of a simulated CUDA kernel, invoked with a block of
// logical threads [lo, hi) — one thread per filtration, exactly as
// GateKeeper-GPU maps work ("each filtration is performed by a single CUDA
// thread") — for the body to loop over. worker identifies the OS-level
// executor, in [0, MaxWorkers(threads)), so callers can give each executor
// its own scratch state — the analogue of a CUDA thread's reserved stack
// frame.
type KernelFunc func(worker, lo, hi int)

// launchGrain is how many logical threads an executor claims at a time: a
// few warps, so stragglers balance across executors.
const launchGrain = 4 * WarpSize

// Launch executes fn over logical threads 0..threads-1 under the given
// launch geometry. The geometry is validated against the device limits and
// used for occupancy/power accounting; actual execution is par.For over a
// pool sized to the host (one executor runs inline). Launch blocks until
// every thread has run — the engine's only synchronization point, like the
// paper's per-batch cudaDeviceSynchronize.
func (d *Device) Launch(lc LaunchConfig, threads int, fn KernelFunc) error {
	if d.faults != nil {
		// Injected faults fire before any thread runs, so a failed launch
		// leaves the buffers untouched and a retry reproduces the batch.
		if err := d.faults.checkLaunch(); err != nil {
			return err
		}
	}
	if threads <= 0 {
		return fmt.Errorf("cuda: launch with %d threads", threads)
	}
	if lc.ThreadsPerBlock <= 0 || lc.ThreadsPerBlock > d.Spec.MaxThreadsPerBlock {
		return fmt.Errorf("cuda: %d threads per block outside (0,%d]",
			lc.ThreadsPerBlock, d.Spec.MaxThreadsPerBlock)
	}
	if lc.Blocks <= 0 {
		return fmt.Errorf("cuda: launch with %d blocks", lc.Blocks)
	}
	if lc.Threads() < threads {
		return fmt.Errorf("cuda: geometry provides %d threads, need %d", lc.Threads(), threads)
	}
	par.For(MaxWorkers(threads), threads, launchGrain, fn)
	return nil
}

// MaxWorkers returns the widest executor pool Launch starts for the given
// thread count (fewer run when the threads make fewer blocks); engines
// preallocate one scratch kernel per worker.
func MaxWorkers(threads int) int {
	w := runtime.GOMAXPROCS(0)
	if threads < w {
		w = threads
	}
	if w < 1 {
		w = 1
	}
	return w
}

// RecordKernel folds a modelled kernel execution into the device telemetry:
// its duration (CUDA-event kernel time) and the utilization driving the
// power trace.
func (d *Device) RecordKernel(seconds, utilization float64) {
	d.recordKernel(seconds, utilization)
}
