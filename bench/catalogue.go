package main

// metricDef is one named metric. Kind says where the number comes from, so a
// wall time is never read next to a cost-model clock by accident:
//
//	measured  wall time (or a rate over it) taken in bench/ around a call
//	count     exact work count; repeats across runs of one seed
//	reported  the program's own mapper.Stats clocks for the traced run
//	modelled  internal/cuda cost-model seconds, not a wall time
//	derived   ratio of two measured values
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
	Kind   string  `json:"kind"`
}

const (
	throughputBound = 0.25
	setupBound      = 0.25
	recallBound     = 0.20
)

// endToEnd is what a user of the mapper sees: set-up time, reads/s through
// each mapping configuration at width 1, and recall against the simulated
// truth. BENCHMARK.json lists the same names; rig_test.go keeps them equal.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: setupBound, Kind: "measured"},
	{Name: "oneshot_none_reads_per_s", Unit: "reads/s", Better: "higher", Bound: throughputBound, Kind: "measured"},
	{Name: "oneshot_cpu_reads_per_s", Unit: "reads/s", Better: "higher", Bound: throughputBound, Kind: "measured"},
	{Name: "oneshot_gpu_reads_per_s", Unit: "reads/s", Better: "higher", Bound: throughputBound, Kind: "measured"},
	{Name: "stream_cpu_reads_per_s", Unit: "reads/s", Better: "higher", Bound: throughputBound, Kind: "measured"},
	{Name: "stream_gpu_reads_per_s", Unit: "reads/s", Better: "higher", Bound: throughputBound, Kind: "measured"},
	{Name: "file_sam_reads_per_s", Unit: "reads/s", Better: "higher", Bound: throughputBound, Kind: "measured"},
	{Name: "recall", Unit: "share", Better: "higher", Bound: recallBound, Kind: "count"},
}

// perLayer is the traced pass. README.md says which end-to-end metric each
// one should move and on which workload.
var perLayer = []metricDef{
	// dna
	{Name: "dna.decode_s", Unit: "s", Better: "lower", Kind: "measured"},
	{Name: "dna.decode_mb_per_s", Unit: "MB/s", Better: "higher", Kind: "measured"},
	{Name: "dna.encode_s", Unit: "s", Better: "lower", Kind: "measured"},
	{Name: "dna.encode_mbases_per_s", Unit: "Mbases/s", Better: "higher", Kind: "measured"},
	{Name: "dna.revcomp_s", Unit: "s", Better: "lower", Kind: "measured"},
	// mapper: index and seeding
	{Name: "mapper.index_build_s", Unit: "s", Better: "lower", Kind: "measured"},
	{Name: "mapper.index_entries", Unit: "count", Better: "lower", Kind: "count"},
	{Name: "mapper.index_serialize_s", Unit: "s", Better: "lower", Kind: "measured"},
	{Name: "mapper.index_load_s", Unit: "s", Better: "lower", Kind: "measured"},
	{Name: "mapper.seed_s", Unit: "s", Better: "lower", Kind: "measured"},
	{Name: "mapper.seed_lookups", Unit: "count", Better: "lower", Kind: "count"},
	{Name: "mapper.seed_hits", Unit: "count", Better: "lower", Kind: "count"},
	{Name: "mapper.candidates", Unit: "count", Better: "lower", Kind: "count"},
	{Name: "mapper.cand_per_read_p50", Unit: "count", Better: "lower", Kind: "count"},
	{Name: "mapper.cand_per_read_p99", Unit: "count", Better: "lower", Kind: "count"},
	{Name: "mapper.cand_per_read_max", Unit: "count", Better: "lower", Kind: "count"},
	{Name: "mapper.seed_probe_delta", Unit: "count", Better: "lower", Kind: "count"},
	// gkgpu
	{Name: "gkgpu.cpu_filter_s", Unit: "s", Better: "lower", Kind: "measured"},
	{Name: "gkgpu.cpu_filter_mpairs_per_s", Unit: "Mpairs/s", Better: "higher", Kind: "measured"},
	{Name: "gkgpu.gpu_filter_s", Unit: "s", Better: "lower", Kind: "measured"},
	{Name: "gkgpu.gpu_filter_mpairs_per_s", Unit: "Mpairs/s", Better: "higher", Kind: "measured"},
	{Name: "gkgpu.gpu_stream_filter_s", Unit: "s", Better: "lower", Kind: "measured"},
	{Name: "gkgpu.stream_batches", Unit: "count", Better: "lower", Kind: "measured"}, // the linger timer decides it
	{Name: "gkgpu.retries", Unit: "count", Better: "lower", Kind: "count"},
	{Name: "gkgpu.accepted", Unit: "count", Better: "lower", Kind: "count"},
	{Name: "gkgpu.rejected", Unit: "count", Better: "higher", Kind: "count"},
	{Name: "gkgpu.undefined", Unit: "count", Better: "lower", Kind: "count"},
	{Name: "gkgpu.reduction_share", Unit: "share", Better: "higher", Kind: "count"},
	{Name: "gkgpu.filter_probe_delta", Unit: "count", Better: "lower", Kind: "count"},
	// cuda: cost-model clocks, never combined with a wall time
	{Name: "cuda.kernel_model_s", Unit: "s", Better: "lower", Kind: "modelled"},
	{Name: "cuda.filter_model_s", Unit: "s", Better: "lower", Kind: "modelled"},
	{Name: "cuda.hostprep_model_s", Unit: "s", Better: "lower", Kind: "modelled"},
	// filter
	{Name: "filter.kernel_ns_per_pair", Unit: "ns", Better: "lower", Kind: "measured"},
	{Name: "filter.kernel_accept_share", Unit: "share", Better: "lower", Kind: "count"},
	{Name: "filter.checked_ns_per_pair", Unit: "ns", Better: "lower", Kind: "measured"},
	// align
	{Name: "align.verify_ns_per_pair", Unit: "ns", Better: "lower", Kind: "measured"},
	{Name: "align.verify_pairs", Unit: "count", Better: "lower", Kind: "count"},
	{Name: "align.verify_s", Unit: "s", Better: "lower", Kind: "measured"},
	{Name: "align.verify_hit_share", Unit: "share", Better: "higher", Kind: "count"},
	{Name: "align.verify_alloc_b_per_pair", Unit: "B", Better: "lower", Kind: "measured"},
	{Name: "align.verify_all_s", Unit: "s", Better: "lower", Kind: "measured"},
	{Name: "align.traceback_ns_per_pair", Unit: "ns", Better: "lower", Kind: "measured"},
	{Name: "align.traceback_alloc_b_per_pair", Unit: "B", Better: "lower", Kind: "measured"},
	// mapper: output
	{Name: "mapper.sam_write_s", Unit: "s", Better: "lower", Kind: "measured"},
	{Name: "mapper.sam_mb_per_s", Unit: "MB/s", Better: "higher", Kind: "measured"},
	{Name: "mapper.sam_bytes", Unit: "B", Better: "lower", Kind: "count"},
	// mapper: the pipeline as the program reports it (traced one-shot gpu run)
	{Name: "mapper.oneshot_seed_s", Unit: "s", Better: "lower", Kind: "reported"},
	{Name: "mapper.oneshot_prep_s", Unit: "s", Better: "lower", Kind: "reported"},
	{Name: "mapper.oneshot_filter_s", Unit: "s", Better: "lower", Kind: "reported"},
	{Name: "mapper.oneshot_verify_s", Unit: "s", Better: "lower", Kind: "reported"},
	{Name: "mapper.oneshot_other_s", Unit: "s", Better: "lower", Kind: "reported"},
	{Name: "mapper.oneshot_seed_share", Unit: "share", Better: "lower", Kind: "reported"},
	{Name: "mapper.oneshot_prep_share", Unit: "share", Better: "lower", Kind: "reported"},
	{Name: "mapper.oneshot_filter_share", Unit: "share", Better: "lower", Kind: "reported"},
	{Name: "mapper.oneshot_verify_share", Unit: "share", Better: "lower", Kind: "reported"},
	{Name: "mapper.oneshot_other_share", Unit: "share", Better: "lower", Kind: "reported"},
	{Name: "mapper.verification_pairs", Unit: "count", Better: "lower", Kind: "count"},
	{Name: "mapper.mappings", Unit: "count", Better: "higher", Kind: "count"},
	{Name: "mapper.mapped_reads", Unit: "count", Better: "higher", Kind: "count"},
	{Name: "mapper.stream_vs_oneshot", Unit: "ratio", Better: "lower", Kind: "derived"},
	{Name: "mapper.filter_payoff", Unit: "ratio", Better: "higher", Kind: "derived"},
	{Name: "mapper.oneshot_alloc_b_per_read", Unit: "B", Better: "lower", Kind: "measured"},
	{Name: "mapper.stream_alloc_b_per_read", Unit: "B", Better: "lower", Kind: "measured"},
	{Name: "mapper.file_alloc_b_per_read", Unit: "B", Better: "lower", Kind: "measured"},
	{Name: "mapper.oneshot_mallocs_per_read", Unit: "count", Better: "lower", Kind: "measured"},
	{Name: "mapper.heap_inuse_after_setup_mb", Unit: "MB", Better: "lower", Kind: "measured"},
	{Name: "mapper.oneshot_w2_speedup", Unit: "ratio", Better: "higher", Kind: "derived"},
	{Name: "mapper.stream_w2_speedup", Unit: "ratio", Better: "higher", Kind: "derived"},
	// metrics: hot-path counter deltas over the traced one-shot gpu run
	{Name: "metrics.filtrations", Unit: "count", Better: "lower", Kind: "count"},
	{Name: "metrics.seed_lookups", Unit: "count", Better: "lower", Kind: "count"},
	{Name: "metrics.contig_locates", Unit: "count", Better: "lower", Kind: "count"},
	// trace
	{Name: "trace.overhead_share", Unit: "share", Better: "lower", Kind: "derived"},
}
