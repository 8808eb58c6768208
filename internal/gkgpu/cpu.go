package gkgpu

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/cuda"
	"repro/internal/filter"
	"repro/internal/par"
)

// hostGrain is how many pairs a host worker claims per scheduling step — the
// CPU engine filtering them, the GPU engine's encode stage packing them: rare
// enough cursor traffic to stay off the shared cache line, fine enough that
// an uneven pair (one sealed after a block vs one folded to the end) cannot
// strand a tail.
const hostGrain = 64

// CPUEngine is the GateKeeper-CPU baseline of Section 4.3: the same improved
// GateKeeper algorithm executed by host threads ("we implement
// GateKeeper-CPU in a multicore fashion and report the results of 12
// cores"). Its modelled times grow almost linearly with the error threshold,
// which is the CPU-vs-GPU contrast of Figure S.12.
//
// A CPUEngine is safe for concurrent use; calls serialize on an internal
// mutex (the parallelism lives inside a call, across its pairs) and each
// worker goroutine owns a persistent Kernel, so the steady state of a warm
// engine allocates only the per-call result slice.
type CPUEngine struct {
	readLen int
	maxE    int
	cores   int
	setup   Setup
	model   cuda.CostModel

	mu      sync.Mutex
	kernels []*filter.Kernel
	ref     *packedRef // loaded by SetReference for the index-named path
	cand    candidateScratch
	stats   Stats
}

// NewCPUEngine builds the baseline for one geometry and logical core count.
func NewCPUEngine(readLen, maxE, cores int, setup Setup, model cuda.CostModel) (*CPUEngine, error) {
	if readLen <= 0 || maxE < 0 || maxE > readLen {
		return nil, fmt.Errorf("gkgpu: invalid CPU engine geometry L=%d e=%d", readLen, maxE)
	}
	if cores < 1 {
		return nil, fmt.Errorf("gkgpu: invalid core count %d", cores)
	}
	if model == (cuda.CostModel{}) {
		model = cuda.DefaultCostModel()
	}
	if setup.Name == "" {
		setup = Setup1()
	}
	return &CPUEngine{readLen: readLen, maxE: maxE, cores: cores, setup: setup, model: model}, nil
}

// workersFor bounds a call's fan-out by the configured core count, the
// machine width, and the work available (in claimable blocks: a worker
// beyond them would find the cursor spent), and makes sure a persistent
// kernel exists for every worker slot. Kernels survive across calls — the
// read-length-keyed scratch is the expensive part, and reusing it is what
// keeps the per-call steady state allocation-free inside the workers.
func (c *CPUEngine) workersFor(n int) int {
	workers := cuda.MaxWorkers((n + hostGrain - 1) / hostGrain)
	if workers > c.cores {
		workers = c.cores
	}
	for len(c.kernels) < workers {
		c.kernels = append(c.kernels, filter.NewKernel(filter.ModeGPU, c.readLen, c.maxE))
	}
	return workers
}

// FilterPairs filters every pair on the host, fanning out across goroutines
// (bounded by the configured core count) with one persistent kernel per
// worker. Results come back in input order, one per pair.
func (c *CPUEngine) FilterPairs(pairs []Pair, errThreshold int) ([]Result, error) {
	if errThreshold < 0 || errThreshold > c.maxE {
		return nil, fmt.Errorf("gkgpu: threshold %d outside [0,%d]", errThreshold, c.maxE)
	}
	results := make([]Result, len(pairs))
	c.mu.Lock()
	defer c.mu.Unlock()
	start := time.Now()
	workers := c.workersFor(len(pairs))
	par.For(workers, len(pairs), hostGrain, func(w, lo, hi int) {
		cpuFilterRange(c.kernels[w], pairs[lo:hi], results[lo:hi], errThreshold)
	})

	w := cuda.Workload{Pairs: len(pairs), ReadLen: c.readLen, E: errThreshold, DeviceEncoded: true}
	c.stats.KernelSeconds += c.model.CPUKernelSeconds(w, c.cores, c.setup.CPUFactor)
	c.stats.FilterSeconds += c.model.CPUFilterSeconds(w, c.cores, c.setup.CPUFactor)
	c.stats.Batches++
	c.stats.countDecisions(results)
	c.stats.WallSeconds += time.Since(start).Seconds()
	return results, nil
}

// cpuFilterRange is one worker's claimed block of a pair batch: the
// per-worker steady state, filtering each pair on the worker's kernel. A
// pair the kernel cannot check (wrong-length sequences — FilterChecked's
// only error once the threshold is validated up front) keeps its slot as
// Undefined+Accept, the same defensive pass-to-verification convention the
// GPU engine applies to out-of-geometry streaming items, so Stats counts it
// as Undefined rather than a plain accept.
//
//gk:noalloc
func cpuFilterRange(kern *filter.Kernel, pairs []Pair, out []Result, errThreshold int) {
	for i := range pairs {
		d, err := kern.FilterChecked(pairs[i].Read, pairs[i].Ref, errThreshold)
		if err != nil {
			out[i] = Result{Accept: true, Undefined: true}
			continue
		}
		out[i] = Result{Accept: d.Accept, Undefined: d.Undefined, Estimate: uint16(d.Estimate)}
	}
}

// SetReference loads the reference the index-named candidate path filters
// against: like the GPU engine it encodes seq once, up front, and keeps only
// the packed form (2-bit codes plus the 'N' bitmap, 0.375 B/base) — seq itself
// is not retained.
func (c *CPUEngine) SetReference(seq []byte) error {
	if len(seq) < c.readLen {
		return fmt.Errorf("gkgpu: reference (%d) shorter than read length (%d)", len(seq), c.readLen)
	}
	ref := packReference(seq)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ref = ref
	return nil
}

// FilterCandidates filters index-named candidates against the loaded
// reference on the host. It runs the GPU engine's prologue and kernel body
// (candidateScratch.prepare, candidateRange), so validation, undefined
// semantics, result ordering and decisions are the same on both engines for
// the same inputs. Each distinct read is encoded once per call, however many
// candidate locations it has.
func (c *CPUEngine) FilterCandidates(reads [][]byte, cands []Candidate, errThreshold int) ([]Result, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.cand.prepare(c.readLen, c.maxE, c.ref, reads, cands, errThreshold); err != nil {
		return nil, err
	}
	results := make([]Result, len(cands))
	start := time.Now()
	workers := c.workersFor(len(cands))
	par.For(workers, len(cands), hostGrain, func(w, lo, hi int) {
		candidateRange(c.kernels[w], c.ref, c.cand.planes, c.cand.hasN,
			cands[lo:hi], results[lo:hi], errThreshold)
	})

	// Timing model: the index path matches the GPU engine's host-encoded
	// transfer profile (reads shipped once, reference resident).
	w := cuda.Workload{Pairs: len(cands), ReadLen: c.readLen, E: errThreshold, DeviceEncoded: false}
	c.stats.KernelSeconds += c.model.CPUKernelSeconds(w, c.cores, c.setup.CPUFactor)
	c.stats.FilterSeconds += c.model.CPUFilterSeconds(w, c.cores, c.setup.CPUFactor)
	c.stats.Batches++
	c.stats.countDecisions(results)
	c.stats.WallSeconds += time.Since(start).Seconds()
	return results, nil
}

// Stats returns the accumulated measurements.
func (c *CPUEngine) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// ResetStats clears the accumulated measurements.
func (c *CPUEngine) ResetStats() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats = Stats{}
}
