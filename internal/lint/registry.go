package lint

// NoAllocRegistry is the canonical list of hot-path functions that carry a
// //gk:noalloc annotation — the single source of truth shared by the static
// analyzer and the runtime AllocsPerRun guards. gklint fails if the
// annotations in the tree and this list ever differ (in either direction),
// and the alloc tests (internal/filter/alloc_test.go,
// internal/align/verifier_test.go, internal/mapper/index_test.go) assert
// that the functions they exercise are registered here, so the static and
// runtime checks cannot drift apart.
//
// Keys are FuncKey form: pkgpath.Func, or pkgpath.Recv.Method with the
// receiver's pointer stripped.
var NoAllocRegistry = []string{
	// The bit-plane block kernel: the core (one filtration end to end on
	// planes), its interleaved-input adapters and the raw-byte entry point.
	"repro/internal/filter.Kernel.FilterPlanes",
	"repro/internal/filter.Kernel.FilterEncoded",
	"repro/internal/filter.Kernel.FilterEncodedAt",
	"repro/internal/filter.Kernel.FilterChecked",
	"repro/internal/filter.Kernel.countRuns",
	"repro/internal/filter.Kernel.ReadLen",
	"repro/internal/filter.span",
	"repro/internal/filter.amendWord",

	// Bit-vector primitives the kernel leans on: the in-place window reads,
	// the adapters' plane split, and the error counters.
	"repro/internal/bitvec.EncodedWords",
	"repro/internal/bitvec.MaskWords",
	"repro/internal/bitvec.Window",
	"repro/internal/bitvec.WindowZero",
	"repro/internal/bitvec.Deinterleave",
	"repro/internal/bitvec.extractEven",
	"repro/internal/bitvec.CountWindowsWord",
	"repro/internal/bitvec.CountRunsLUT",

	// The 2-bit codec's hot-path forms.
	"repro/internal/dna.Code",
	"repro/internal/dna.IsACGT",
	"repro/internal/dna.WordsFor",
	"repro/internal/dna.TryEncodeInto",
	"repro/internal/dna.TryEncodePlanes",
	"repro/internal/dna.unknownBytes",

	// The verifier: one thresholded distance, the wavefront pass it and
	// Align try first with its byte compare, and behind the hand-over the
	// lazy mask build, the column pass, the same pass recording its deltas
	// for Align's traceback, and the block update the two share.
	"repro/internal/align.Verifier.Distance",
	"repro/internal/align.Verifier.wavefront",
	"repro/internal/align.wavefrontWidth",
	"repro/internal/align.matchLen",
	"repro/internal/align.load64",
	"repro/internal/align.Verifier.buildMasks",
	"repro/internal/align.Verifier.columns",
	"repro/internal/align.Verifier.record",
	"repro/internal/align.blockStep",
	"repro/internal/align.abs",

	// CSR seed index lookup, the three steps of a probe it is built from, the
	// seeder's staged block over the same steps, and the contig-coordinate
	// accessors every candidate's boundary check goes through.
	"repro/internal/mapper.Index.Lookup",
	"repro/internal/mapper.seedKey",
	"repro/internal/mapper.Index.bucketBounds",
	"repro/internal/mapper.Index.equalRange",
	"repro/internal/mapper.seeder.seedBlock",
	"repro/internal/mapper.Contig.End",
	"repro/internal/mapper.Reference.ContigOff",
	"repro/internal/mapper.Reference.ContigOf",
	"repro/internal/mapper.Reference.Locate",
	"repro/internal/mapper.Reference.locate",
	"repro/internal/mapper.Reference.WindowContig",

	// The engines' per-worker steady states: one claimed block of the CPU
	// baseline's pair batch, one block of an index-named candidate batch on
	// either engine, and what the candidate block runs per candidate — the
	// packed reference's window 'N' test, the read's plane slot, the window's
	// bit offset.
	"repro/internal/gkgpu.cpuFilterRange",
	"repro/internal/gkgpu.candidateRange",
	"repro/internal/gkgpu.packedRef.hasN",
	"repro/internal/gkgpu.readPlanes",
	"repro/internal/gkgpu.planeOff",

	// The cost-model arithmetic the engine's share clocks evaluate per device
	// per round, plus the workload/device accessors it leans on.
	"repro/internal/cuda.Workload.Words",
	"repro/internal/cuda.Workload.Masks",
	"repro/internal/cuda.Workload.TransferBytes",
	"repro/internal/cuda.DeviceSpec.Cores",
	"repro/internal/cuda.DeviceSpec.SupportsPrefetch",
	"repro/internal/cuda.DeviceSpec.PCIeBandwidth",
	"repro/internal/cuda.CostModel.KernelSlotsPerPair",
	"repro/internal/cuda.CostModel.KernelSeconds",
	"repro/internal/cuda.CostModel.TransferSeconds",
	"repro/internal/cuda.CostModel.HostPrepSeconds",
	"repro/internal/cuda.CostModel.EncodePoolSpeedup",
	"repro/internal/cuda.CostModel.PipelinedFilterSeconds",
	"repro/internal/cuda.CostModel.Utilization",
	"repro/internal/cuda.CostModel.PairRate",

	// Hot-path entry-point counters (instrumentation must not re-introduce
	// allocation on the paths it observes).
	"repro/internal/metrics.Counter.Inc",
	"repro/internal/metrics.Counter.Add",
	"repro/internal/metrics.Counter.Load",
}

// NoAllocSet returns the registry as a set.
func NoAllocSet() map[string]bool {
	s := make(map[string]bool, len(NoAllocRegistry))
	for _, k := range NoAllocRegistry {
		s[k] = true
	}
	return s
}

// IsNoAlloc reports whether pkgpath-qualified function fn (FuncKey form
// without the package prefix, e.g. "Kernel.FilterEncoded") is registered as
// a noalloc hot path. The runtime AllocsPerRun guards call this so a guard
// cannot silently test a function the static analyzer stopped covering.
func IsNoAlloc(pkgPath, fn string) bool {
	return NoAllocSet()[pkgPath+"."+fn]
}
