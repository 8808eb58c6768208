// Package gatekeeper is the public API of the GateKeeper-GPU reproduction:
// fast and accurate pre-alignment filtering for short read mapping (Bingöl,
// Alser, Mutlu, Ozturk, Alkan — HiCOMB/IPDPSW 2021, arXiv:2103.14978),
// implemented in pure Go on a simulated CUDA runtime.
//
// Three layers are exposed, lowest to highest:
//
//   - Filters: single-pair pre-alignment filters — the paper's improved
//     GateKeeper algorithm plus the five comparators of its evaluation
//     (GateKeeper-FPGA, SHD, MAGNET, Shouji, SneakySnake).
//   - Engines: batched filtering on one or more simulated GPUs with the
//     paper's unified-memory pipeline (system configuration, host/device
//     encoding, multi-GPU fan-out) and calibrated kernel/filter time, power,
//     and occupancy telemetry. Every entry point runs the same synchronized
//     rounds under one fault contract: Engine.FilterPairs over a slice,
//     Engine.FilterStream over a channel — pairs flow in (many concurrent
//     producers are fine), are batched, and results flow out in input
//     order. A device holds one set of unified-memory buffers, read and
//     written in place by host and kernel; memory advice, prefetching,
//     on-demand paging and the double buffering that overlaps the host
//     encoding of one batch with the kernel of the previous one are the cost
//     model's (cuda.CostModel), which is what a stream's clock reads.
//   - Mapper: an mrFAST-style seed-and-extend read mapper with the engine as
//     its pre-alignment stage, reproducing the whole-genome evaluation.
//
// The exported names are aliases of the implementation packages under
// internal/, so downstream users get the full concrete types through this
// single import.
package gatekeeper

import (
	"io"

	"repro/internal/align"
	"repro/internal/cuda"
	"repro/internal/dna"
	"repro/internal/filter"
	"repro/internal/gkgpu"
	"repro/internal/mapper"
	"repro/internal/simdata"
)

// Version identifies the reproduction release.
const Version = "1.0.0"

// Filtering layer ---------------------------------------------------------

// Filter is a single-pair pre-alignment filter.
type Filter = filter.Filter

// Decision is a filter's verdict on one pair.
type Decision = filter.Decision

// Kernel is the GateKeeper filtration kernel for one fixed geometry (one
// per worker thread, like a CUDA thread's stack frame).
type Kernel = filter.Kernel

// Filter algorithm variants.
const (
	ModeGPU  = filter.ModeGPU
	ModeFPGA = filter.ModeFPGA
)

// NewFilter constructs a filter by name: gatekeeper-gpu, gatekeeper-fpga,
// shd, magnet, shouji, or sneakysnake.
func NewFilter(name string) (Filter, error) { return filter.New(name) }

// AllFilters returns one instance of every implemented filter.
func AllFilters() []Filter { return filter.All() }

// NewKernel builds a GateKeeper kernel for a fixed read length and maximum
// error threshold.
func NewKernel(mode filter.Mode, readLen, maxE int) *Kernel {
	return filter.NewKernel(mode, readLen, maxE)
}

// Engine layer ------------------------------------------------------------

// Pair is one read/candidate-reference-segment input.
type Pair = gkgpu.Pair

// Result is one batched filtration outcome.
type Result = gkgpu.Result

// Engine is the GateKeeper-GPU batched filtering engine.
type Engine = gkgpu.Engine

// CPUEngine is the multicore GateKeeper-CPU baseline.
type CPUEngine = gkgpu.CPUEngine

// EngineConfig parametrizes an Engine (read length and maximum threshold
// mirror the CUDA build's compile-time constants).
type EngineConfig = gkgpu.Config

// EngineStats carries the paper's kernel-time/filter-time measurements.
type EngineStats = gkgpu.Stats

// Setup describes a host platform (Setup1 and Setup2 mirror the paper's).
type Setup = gkgpu.Setup

// Encoding actors: where the 2-bit packing happens.
const (
	EncodeOnDevice = gkgpu.EncodeOnDevice
	EncodeOnHost   = gkgpu.EncodeOnHost
)

// Setup1 returns the paper's primary platform (Xeon Gold + GTX 1080 Ti).
func Setup1() Setup { return gkgpu.Setup1() }

// Setup2 returns the secondary platform (Xeon E5 + Tesla K20X).
func Setup2() Setup { return gkgpu.Setup2() }

// DeviceSpec describes a simulated GPU model.
type DeviceSpec = cuda.DeviceSpec

// GTX1080Ti returns the Setup 1 device model.
func GTX1080Ti() DeviceSpec { return cuda.GTX1080Ti() }

// TeslaK20X returns the Setup 2 device model.
func TeslaK20X() DeviceSpec { return cuda.TeslaK20X() }

// NewEngine builds a GateKeeper-GPU engine on n simulated devices of the
// given model.
func NewEngine(cfg EngineConfig, nDevices int, spec DeviceSpec) (*Engine, error) {
	return gkgpu.NewEngine(cfg, cuda.NewUniformContext(nDevices, spec))
}

// NewCPUEngine builds the GateKeeper-CPU baseline.
func NewCPUEngine(readLen, maxE, cores int) (*CPUEngine, error) {
	return gkgpu.NewCPUEngine(readLen, maxE, cores, gkgpu.Setup1(), cuda.DefaultCostModel())
}

// Mapper layer ------------------------------------------------------------

// Mapper is the mrFAST-style seed-and-extend read mapper.
type Mapper = mapper.Mapper

// MapperConfig parametrizes a mapper, including its optional PreFilter.
type MapperConfig = mapper.Config

// Mapping is one reported alignment, with contig-relative coordinates.
type Mapping = mapper.Mapping

// MapStats carries the whole-genome evaluation counters.
type MapStats = mapper.Stats

// Reference is a multi-contig reference genome: concatenated contig bases
// plus the name/offset/length table the mapper uses to keep every candidate
// window, concordant pair, and SAM record inside one contig.
type Reference = mapper.Reference

// Contig is one named sequence of a Reference.
type Contig = mapper.Contig

// SeqRecord is a named sequence parsed from FASTA/FASTQ input (dna.Record).
type SeqRecord = dna.Record

// NewReference builds a multi-contig Reference from FASTA records, e.g.
// the output of ReadFASTA over a whole-genome file.
func NewReference(recs []SeqRecord) (*Reference, error) { return mapper.NewReference(recs) }

// ReadFASTA parses FASTA records (multi-contig references included) with no
// line-length limit; headers split into id and description.
func ReadFASTA(r io.Reader) ([]SeqRecord, error) { return dna.ReadFASTA(r) }

// NewMapper builds a mapper over a flat single-contig reference sequence.
func NewMapper(ref []byte, cfg MapperConfig) (*Mapper, error) { return mapper.New(ref, cfg) }

// NewMapperFromReference builds a mapper over a multi-contig reference.
func NewMapperFromReference(ref *Reference, cfg MapperConfig) (*Mapper, error) {
	return mapper.NewFromReference(ref, cfg)
}

// Performance model ---------------------------------------------------------

// CostModel holds the calibrated performance-model constants used for
// kernel-time, filter-time and power telemetry.
type CostModel = cuda.CostModel

// Workload describes a filtering batch for the cost model.
type Workload = cuda.Workload

// DefaultCostModel returns the constants calibrated against the paper's
// Setup 1 measurements.
func DefaultCostModel() CostModel { return cuda.DefaultCostModel() }

// Ground truth and data ---------------------------------------------------

// EditDistance returns the exact global edit distance (the Edlib-equivalent
// ground truth of every accuracy experiment).
func EditDistance(a, b []byte) int { return align.Distance(a, b) }

// DatasetProfile describes one of the paper's evaluation datasets.
type DatasetProfile = simdata.Profile

// Dataset returns a registered dataset profile (set1..set12, minimap2,
// bwamem).
func Dataset(name string) (DatasetProfile, error) { return simdata.Set(name) }

// GeneratePairs synthesizes n pairs from a dataset profile.
func GeneratePairs(p DatasetProfile, seed int64, n int) []Pair {
	return simdata.ToEnginePairs(simdata.Generate(p, seed, n))
}
