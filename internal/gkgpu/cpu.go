package gkgpu

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bitvec"
	"repro/internal/cuda"
	"repro/internal/filter"
)

// cpuGrain is how many pairs a CPU worker claims per scheduling step: rare
// enough cursor traffic to stay off the shared cache line, fine enough that
// an uneven pair (one sealed after a block vs one folded to the end) cannot
// strand a tail.
const cpuGrain = 64

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
	// Candidate-path scratch, reused across calls: every read of the call
	// encoded once (encodeReads' plane slots), and whether it holds an
	// unknown base.
	readPlanes []uint64
	readHasN   []bool
	stats      Stats
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
	workers := cuda.MaxWorkers((n + cpuGrain - 1) / cpuGrain)
	if workers > c.cores {
		workers = c.cores
	}
	for len(c.kernels) < workers {
		c.kernels = append(c.kernels, filter.NewKernel(filter.ModeGPU, c.readLen, c.maxE))
	}
	return workers
}

// ParallelFor runs body over [0, n) across workers goroutines, each claiming
// grain-sized blocks off a shared cursor, so a block of early-sealed pairs
// doesn't leave its worker idle while another grinds through exhaustive
// ones. It is the one host-side fan-out: the CPU engine's filtering and
// the mapper's seeding and verification all run on it. Channel-free by
// design — the block fully determines its worker's writes, so indexed
// slices are the only shared state: body must touch only its [lo, hi) slots.
// w names the calling worker, in [0, workers), so a body can keep per-worker
// scratch. No more workers start than there are blocks to claim; one worker
// runs inline.
func ParallelFor(workers, n, grain int, body func(w, lo, hi int)) {
	if n == 0 {
		return
	}
	workers = min(workers, (n+grain-1)/grain)
	if workers <= 1 {
		body(0, 0, n)
		return
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				hi := int(cursor.Add(int64(grain)))
				lo := hi - grain
				if lo >= n {
					return
				}
				if hi > n {
					hi = n
				}
				body(w, lo, hi)
			}
		}(w)
	}
	wg.Wait()
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
	ParallelFor(workers, len(pairs), cpuGrain, func(w, lo, hi int) {
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
// reference on the host, with the same validation, undefined semantics, and
// result ordering as the GPU engine's FilterCandidates: decisions are
// identical on both engines for the same inputs. Each distinct read is
// encoded once per call, however many candidate locations it has.
func (c *CPUEngine) FilterCandidates(reads [][]byte, cands []Candidate, errThreshold int) ([]Result, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.ref == nil {
		return nil, fmt.Errorf("gkgpu: FilterCandidates before SetReference")
	}
	if errThreshold < 0 || errThreshold > c.maxE {
		return nil, fmt.Errorf("gkgpu: threshold %d outside [0,%d]", errThreshold, c.maxE)
	}
	L := c.readLen
	for i, r := range reads {
		if len(r) != L {
			return nil, fmt.Errorf("gkgpu: read %d has length %d; engine compiled for %d", i, len(r), L)
		}
	}
	for i, cd := range cands {
		if cd.ReadID < 0 || int(cd.ReadID) >= len(reads) {
			return nil, fmt.Errorf("gkgpu: candidate %d references read %d of %d", i, cd.ReadID, len(reads))
		}
		if cd.Pos < 0 || int(cd.Pos)+L > c.ref.length {
			return nil, fmt.Errorf("gkgpu: candidate %d window [%d,%d) outside reference of %d",
				i, cd.Pos, int(cd.Pos)+L, c.ref.length)
		}
	}
	results := make([]Result, len(cands))
	start := time.Now()
	planeWords := bitvec.MaskWords(L)
	c.readPlanes = slices.Grow(c.readPlanes[:0], 2*len(reads)*planeWords)[:2*len(reads)*planeWords]
	c.readHasN = slices.Grow(c.readHasN[:0], len(reads))[:len(reads)]
	encodeReads(c.readPlanes, c.readHasN, reads, planeWords)
	workers := c.workersFor(len(cands))
	ParallelFor(workers, len(cands), cpuGrain, func(w, lo, hi int) {
		cpuCandidateRange(c.kernels[w], c.ref, c.readPlanes, c.readHasN,
			cands[lo:hi], results[lo:hi], errThreshold)
	})

	// Timing model: the index path matches the GPU engine's host-encoded
	// transfer profile (reads shipped once, reference resident).
	w := cuda.Workload{Pairs: len(cands), ReadLen: L, E: errThreshold, DeviceEncoded: false}
	c.stats.KernelSeconds += c.model.CPUKernelSeconds(w, c.cores, c.setup.CPUFactor)
	c.stats.FilterSeconds += c.model.CPUFilterSeconds(w, c.cores, c.setup.CPUFactor)
	c.stats.Batches++
	c.stats.countDecisions(results)
	c.stats.WallSeconds += time.Since(start).Seconds()
	return results, nil
}

// cpuCandidateRange is cpuFilterRange for index-named candidates, the host
// form of the GPU engine's candidate kernel: a candidate whose read (readHasN,
// set by the call's one encode walk) or reference window (the packed
// reference's 'N' bitmap) holds an unknown base is Undefined+Accept without
// touching the kernel; any other is filtered where it lies — the read's
// planes in their slot of planes, the window at its bit offset in the packed
// reference's.
//
//gk:noalloc
func cpuCandidateRange(kern *filter.Kernel, ref *packedRef, planes []uint64, readHasN []bool,
	cands []Candidate, out []Result, errThreshold int) {

	L := kern.ReadLen()
	planeWords := bitvec.MaskWords(L)
	for i := range cands {
		cd := cands[i]
		if readHasN[cd.ReadID] || ref.hasN(cd.Pos, L) {
			out[i] = Result{Accept: true, Undefined: true}
			continue
		}
		readLo, readHi := readPlanes(planes, cd.ReadID, planeWords)
		est, accept := kern.FilterPlanes(readLo, readHi, ref.lo, ref.hi, planeOff(cd.Pos), errThreshold)
		out[i] = Result{Accept: accept, Estimate: uint16(est)}
	}
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
