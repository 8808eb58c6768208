// Package gkgpu is the core of the reproduction: the GateKeeper-GPU
// pre-alignment filtering engine of Sections 3.1-3.4, built on the simulated
// CUDA runtime (package cuda) and the improved GateKeeper kernel (package
// filter).
//
// The engine follows the paper's four steps: (1) system configuration —
// compute the per-thread memory load and the largest batch of filtrations
// the device's free global memory sustains; (2) resource allocation — one
// set of unified-memory buffers per device for reads, candidate segments and
// undefined flags; (3) preprocessing — 2-bit encoding on the host or inside
// the kernel, batching many reads per kernel call; (4) the kernel itself — one
// logical thread per filtration, each result written where the host reads it.
// Unified memory is one pointer and the engine uses it as one: what the CUDA
// driver does behind that pointer — memory advice and asynchronous prefetch on
// Pascal, on-demand paging on Kepler, the second buffer set of a
// double-buffered stream — is charged by the cost model
// (cuda.CostModel.TransferSeconds, KernelSeconds, PipelinedFilterSeconds) and
// not acted out on the host; the engine only draws the transfers' faults
// (deviceState.drawTransfers).
//
// Every filtering call is the same loop (Engine.runRounds): the items are cut
// into synchronized rounds — "the batch size is equal for all devices to
// ensure a fair workload", weighted by each device's modelled rate in a mixed
// context — every device with a share runs it at once, and the host reads the
// results back, the round's only synchronization point. A filtration's
// decision is a pure function of its pair, so faults have one answer
// everywhere: a share that fails is retried under Config.Fault, a device that
// keeps failing or is lost is quarantined, and the round runs again on the
// survivors with bit-identical results, the damage visible only in
// Stats.Retries / Redispatches / DevicesLost and the clocks. With no device
// left the call fails with ErrStreamAborted wrapping the first classified
// fault, and every later call fails the same way at once.
//
// Four entry points feed that loop. Engine.FilterPairs takes materialized
// read/segment pairs; Engine.FilterCandidates is the index-named mrFAST
// integration — (read, location) candidates against the unified-memory
// reference loaded by SetReference — and is what the mapper calls. Both charge
// the paper's measured pipeline: encode, transfer and kernel one after the
// other per round, reproducing the FilterSeconds of Section 4.3.
// Engine.FilterStream and Engine.FilterCandidateStream take the same two
// inputs from a channel: one goroutine collects a batch, runs it through the
// loop exactly as the one-shot call would, and emits its results before it
// reads the channel again. What a stream promises beyond the one-shot call:
// results in the order items were received, from any number of producers;
// back-pressure (it does not read its input while a batch runs or while the
// consumer lags); cancellation by context; a bounded wait (streamLinger) before
// a partly filled batch runs; and, when it fails, its input drained to the
// close so no producer blocks. Decisions are identical on all four; a stream's
// modelled clock differs, because it is charged as the paper's double-buffered
// device — host encode of batch N+1 hidden behind the kernel of batch N
// (CostModel.PipelinedFilterSeconds). That overlap, and the second buffer set
// it takes, exist in the model only: here the "device" is the same CPU, so the
// simulation runs a stream's batches one after the other through the one
// buffer set each device holds.
//
// The engine is one kernel body run by whichever processor is at hand.
// FilterCandidates on Engine and on CPUEngine (the Section 4.3 baseline) share
// one checked prologue (candidateScratch.prepare: validate, encode each read
// once into engine-owned planes) and one body (candidateRange, the package's
// only FilterPlanes call), handed to cuda.Device.Launch on the one and to
// par.For on the other — and Launch is par.For behind a fault check, so every
// fan-out in the package (kernel threads, the reference packer, the encode
// stages) is the same cursor-claiming loop. Transfer buffers are read where
// they lie: the host encodes straight into a unified buffer's word view and
// the kernel's threads slice their operands out of it.
package gkgpu

import (
	"fmt"

	"repro/internal/cuda"
)

// EncodingActor selects which processor performs the 2-bit encoding, the
// paper's central deployment trade-off (Section 3.3, Figure 6): encoding on
// the host shrinks transfers and speeds the kernel, encoding on the device
// parallelizes the packing and wins on end-to-end filter time.
type EncodingActor int

// Encoding actors.
const (
	EncodeOnDevice EncodingActor = iota
	EncodeOnHost
)

func (a EncodingActor) String() string {
	if a == EncodeOnHost {
		return "host"
	}
	return "device"
}

// Setup bundles the host-side characteristics of the paper's two
// experimental platforms; the GPU side lives in cuda.DeviceSpec.
type Setup struct {
	Name string
	// HostFactor scales host preparation costs relative to Setup 1's
	// Xeon Gold 6140.
	HostFactor float64
	// CPUFactor scales the GateKeeper-CPU baseline relative to Setup 1.
	CPUFactor float64
	// CPUCores is the core count used for the multicore CPU baseline.
	CPUCores int
	// EncodeWorkers is the host-encode worker-pool width of the modelled
	// platform, used by the streams' pipelined cost model (the real pool is
	// sized to the simulating machine, but modelled clocks must not depend on
	// it). Zero behaves as 1.
	EncodeWorkers int
}

// Setup1 returns the paper's primary platform: Xeon Gold 6140 host with
// GTX 1080 Ti devices (PCIe 3, prefetch-capable).
func Setup1() Setup {
	return Setup{Name: "Setup 1", HostFactor: 1.0, CPUFactor: 1.0, CPUCores: 12, EncodeWorkers: 12}
}

// Setup2 returns the secondary platform: Xeon E5-2643 host with Tesla K20X
// devices (PCIe 2, no prefetch).
func Setup2() Setup {
	return Setup{Name: "Setup 2", HostFactor: 1.2, CPUFactor: 1.08, CPUCores: 12, EncodeWorkers: 12}
}

// Config parametrizes an Engine. ReadLen and MaxE mirror the CUDA build's
// compile-time constants: the kernel's bitmask arrays are fixed-size, so the
// engine is built for one geometry and rejects others at run time.
type Config struct {
	ReadLen  int
	MaxE     int
	Encoding EncodingActor
	Setup    Setup
	Model    cuda.CostModel

	// RegsPerThread and ThreadsPerBlock define the launch geometry;
	// GateKeeper-GPU uses 40-48 registers and maximizes the block size to
	// maximize the batch (Section 5.4.1). Zero values take the defaults.
	RegsPerThread   int
	ThreadsPerBlock int

	// MaxBatchPairs caps the per-device batch regardless of free memory
	// (useful to keep simulation memory bounded); zero means no extra cap.
	MaxBatchPairs int

	// StreamBatchPairs is the batch granularity of the streams: a batch holds
	// up to this many items for each live device, one round's worth. Smaller
	// batches lower latency; larger batches amortize the per-launch overhead.
	// Zero picks a default, and values above the smallest per-device batch
	// capacity are clamped to it.
	StreamBatchPairs int

	// Fault tunes the retry/quarantine reaction of every filtering call to
	// device failures; the zero value takes the documented defaults.
	Fault FaultPolicy
}

func (c *Config) applyDefaults() {
	if c.RegsPerThread == 0 {
		c.RegsPerThread = 48
	}
	if c.ThreadsPerBlock == 0 {
		c.ThreadsPerBlock = 1024
	}
	if c.Model == (cuda.CostModel{}) {
		c.Model = cuda.DefaultCostModel()
	}
	if c.Setup.Name == "" {
		c.Setup = Setup1()
	}
	if c.MaxBatchPairs == 0 {
		c.MaxBatchPairs = 1 << 20
	}
	c.Fault.applyDefaults()
}

// Validate rejects configurations the CUDA build could not compile.
func (c Config) Validate() error {
	if c.ReadLen <= 0 || c.ReadLen > 1024 {
		return fmt.Errorf("gkgpu: read length %d outside (0,1024]", c.ReadLen)
	}
	if c.MaxE < 0 || c.MaxE > c.ReadLen {
		return fmt.Errorf("gkgpu: error threshold %d outside [0,%d]", c.MaxE, c.ReadLen)
	}
	if c.StreamBatchPairs < 0 {
		return fmt.Errorf("gkgpu: negative stream batch size %d", c.StreamBatchPairs)
	}
	return nil
}

// Result is one filtration outcome. Estimate follows
// the kernel's hot-path semantics (filter.Decision.Estimate): it is the bound
// the decision was sealed at, not the exhaustive windowed count — on an
// accept an upper bound on that count, <= the threshold; on a reject a lower
// bound on it, > the threshold. The engine consumes only the decision, as the
// paper's pipeline does.
type Result struct {
	Accept    bool
	Undefined bool
	Estimate  uint16
}

// Pair is one read/candidate-segment input.
type Pair struct {
	Read, Ref []byte
}

// resultStride is a Result's footprint in the modelled device's memory budget
// (Configure): accept flag, undefined flag, and a 16-bit edit-distance
// approximation.
const resultStride = 4
