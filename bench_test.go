package gatekeeper

// One benchmark per table and figure of the paper's evaluation section.
// Each bench executes the real code path behind that experiment (generated
// pairs through the kernel / engine / mapper) and reports measured pairs/s
// alongside the modelled paper-scale rate where applicable. `gkbench -exp
// <id>` prints the corresponding full table with paper reference values.

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/align"
	"repro/internal/cuda"
	"repro/internal/dna"
	"repro/internal/filter"
	"repro/internal/gkgpu"
	"repro/internal/mapper"
	"repro/internal/ref32"
	"repro/internal/simdata"
)

func benchRNG() *rand.Rand { return rand.New(rand.NewSource(42)) }

func benchPairs(b *testing.B, set string, n int) []gkgpu.Pair {
	b.Helper()
	p, err := simdata.Set(set)
	if err != nil {
		b.Fatal(err)
	}
	return simdata.ToEnginePairs(simdata.Generate(p, 42, n))
}

func benchEngine(b *testing.B, readLen, maxE, nDev int, enc gkgpu.EncodingActor) *gkgpu.Engine {
	b.Helper()
	eng, err := gkgpu.NewEngine(gkgpu.Config{
		ReadLen: readLen, MaxE: maxE, Encoding: enc, MaxBatchPairs: 1 << 14,
	}, cuda.NewUniformContext(nDev, cuda.GTX1080Ti()))
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(eng.Close)
	return eng
}

// BenchmarkTable1BatchSize regenerates Table 1's variable: the mapper's
// reads-per-batch setting, whose transfer amortization the modelled filter
// time reflects.
func BenchmarkTable1BatchSize(b *testing.B) {
	g := simdata.Genome(simdata.DefaultGenomeConfig(150_000))
	reads, err := simdata.SimulateReads(g, simdata.Illumina100, 400, 1)
	if err != nil {
		b.Fatal(err)
	}
	seqs := make([][]byte, len(reads))
	for i, r := range reads {
		seqs[i] = r.Seq
	}
	for _, batch := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("batch%d", batch), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				eng := benchEngine(b, 100, 5, 1, gkgpu.EncodeOnDevice)
				m, err := mapper.New(g, mapper.Config{
					ReadLen: 100, MaxE: 5, SeedLen: 9, MaxReadsPerBatch: batch, Filter: eng,
				})
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if _, _, err := m.MapReads(seqs, 5); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable2Throughput regenerates Table 2's variable: encoding actor
// and error threshold for the 100bp filtering workload.
func BenchmarkTable2Throughput(b *testing.B) {
	pairs := benchPairs(b, "set3", 4_000)
	for _, enc := range []gkgpu.EncodingActor{gkgpu.EncodeOnDevice, gkgpu.EncodeOnHost} {
		for _, e := range []int{2, 5} {
			b.Run(fmt.Sprintf("%v/e%d", enc, e), func(b *testing.B) {
				eng := benchEngine(b, 100, 5, 1, enc)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := eng.FilterPairs(pairs, e); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(len(pairs))*float64(b.N)/b.Elapsed().Seconds(), "pairs/s")
			})
		}
	}
}

// BenchmarkTable3WholeGenome regenerates Table 3's comparison: mapping with
// and without the pre-alignment filter.
func BenchmarkTable3WholeGenome(b *testing.B) {
	g := simdata.Genome(simdata.DefaultGenomeConfig(200_000))
	reads, err := simdata.SimulateReads(g, simdata.Illumina100, 500, 2)
	if err != nil {
		b.Fatal(err)
	}
	seqs := make([][]byte, len(reads))
	for i, r := range reads {
		seqs[i] = r.Seq
	}
	for _, withFilter := range []bool{false, true} {
		name := "nofilter"
		if withFilter {
			name = "gatekeeper-gpu"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				cfg := mapper.Config{ReadLen: 100, MaxE: 5, SeedLen: 9}
				if withFilter {
					cfg.Filter = benchEngine(b, 100, 5, 1, gkgpu.EncodeOnDevice)
				}
				m, err := mapper.New(g, cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if _, _, err := m.MapReads(seqs, 5); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable4Verification regenerates Table 4's quantity: verification
// cost on unfiltered vs filtered candidate streams. The plain rows go through
// the align.DistanceBanded wrapper (pooled verifier); the -verifier rows hold
// one align.Verifier the way a mapper worker does. Every pair here is its own
// read, so both prepare per pair — the mapper's amortized cost (one Prepare
// per read, many windows) is internal/align's "prepared" benchmark.
func BenchmarkTable4Verification(b *testing.B) {
	pairs := benchPairs(b, "set3", 3_000)
	kern := filter.NewKernel(filter.ModeGPU, 100, 5)
	var filtered []gkgpu.Pair
	for _, p := range pairs {
		if kern.Filter(p.Read, p.Ref, 5).Accept {
			filtered = append(filtered, p)
		}
	}
	wrapper := func(b *testing.B, ps []gkgpu.Pair) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, p := range ps {
				align.DistanceBanded(p.Read, p.Ref, 5)
			}
		}
		b.ReportMetric(float64(len(ps)), "pairs/op")
	}
	held := func(b *testing.B, ps []gkgpu.Pair) {
		var v align.Verifier
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, p := range ps {
				v.Prepare(p.Read)
				v.Distance(p.Ref, 5)
			}
		}
		b.ReportMetric(float64(len(ps)), "pairs/op")
	}
	b.Run("unfiltered", func(b *testing.B) { wrapper(b, pairs) })
	b.Run("filtered", func(b *testing.B) { wrapper(b, filtered) })
	b.Run("unfiltered-verifier", func(b *testing.B) { held(b, pairs) })
	b.Run("filtered-verifier", func(b *testing.B) { held(b, filtered) })
}

// BenchmarkTable5Overall regenerates Table 5's quantity: the full mapping
// pipeline (seed + filter + verify) with the filter in place.
func BenchmarkTable5Overall(b *testing.B) {
	g := simdata.Genome(simdata.DefaultGenomeConfig(200_000))
	reads, err := simdata.SimulateReads(g, simdata.Illumina100, 400, 3)
	if err != nil {
		b.Fatal(err)
	}
	seqs := make([][]byte, len(reads))
	for i, r := range reads {
		seqs[i] = r.Seq
	}
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		eng := benchEngine(b, 100, 5, 1, gkgpu.EncodeOnDevice)
		m, err := mapper.New(g, mapper.Config{ReadLen: 100, MaxE: 5, SeedLen: 9, Filter: eng})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, _, err := m.MapReads(seqs, 5); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable6Power regenerates Table 6's quantity: the nvprof-style
// power trace over batched kernels.
func BenchmarkTable6Power(b *testing.B) {
	m := cuda.DefaultCostModel()
	spec := cuda.GTX1080Ti()
	for i := 0; i < b.N; i++ {
		d := cuda.NewDevice(0, spec)
		for _, c := range []struct{ L, e int }{{100, 4}, {250, 10}} {
			w := cuda.Workload{Pairs: 1_000_000, ReadLen: c.L, E: c.e, DeviceEncoded: true}
			for batch := 0; batch < 100; batch++ {
				d.RecordKernel(m.KernelSeconds(spec, w)/100, m.Utilization(spec, w))
			}
		}
		if d.Power().AvgWatts() <= 0 {
			b.Fatal("power trace empty")
		}
	}
}

// BenchmarkKernelFusedVsRef32 times the fused 64-bit kernel against the
// retained 32-bit unfused chain (internal/ref32) on identical defined
// pairs — the reproducible record of this repo's word-widening + fusion
// speedup. Undefined ('N') pairs are dropped so both kernels run the same
// workload. `gkbench -json` writes the same comparison into a
// BENCH_<stamp>.json baseline.
func BenchmarkKernelFusedVsRef32(b *testing.B) {
	for _, c := range []struct {
		set  string
		L, e int
	}{{"set3", 100, 5}, {"set11", 250, 10}} {
		all := benchPairs(b, c.set, 1_000)
		var pairs []gkgpu.Pair
		for _, p := range all {
			if !dna.HasN(p.Read) && !dna.HasN(p.Ref) {
				pairs = append(pairs, p)
			}
		}
		b.Run(fmt.Sprintf("fused/%dbp-e%d", c.L, c.e), func(b *testing.B) {
			kern := filter.NewKernel(filter.ModeGPU, c.L, c.e)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, p := range pairs {
					kern.Filter(p.Read, p.Ref, c.e)
				}
			}
			b.ReportMetric(float64(len(pairs))*float64(b.N)/b.Elapsed().Seconds(), "pairs/s")
		})
		b.Run(fmt.Sprintf("ref32/%dbp-e%d", c.L, c.e), func(b *testing.B) {
			kern := ref32.NewKernel(true, c.L)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, p := range pairs {
					kern.Filter(p.Read, p.Ref, c.e)
				}
			}
			b.ReportMetric(float64(len(pairs))*float64(b.N)/b.Elapsed().Seconds(), "pairs/s")
		})
	}
}

// BenchmarkKernelFilterEncoded isolates the engine's launch-stage hot path:
// pre-encoded words through the fused kernel, no byte encoding. The allocs
// column is the zero-allocation guard in benchmark form (the test-form
// guard is TestFilterEncodedZeroAllocs).
func BenchmarkKernelFilterEncoded(b *testing.B) {
	all := benchPairs(b, "set3", 1_000)
	type encPair struct{ read, ref []uint64 }
	var enc []encPair
	for _, p := range all {
		re, err1 := dna.Encode(p.Read)
		fe, err2 := dna.Encode(p.Ref)
		if err1 != nil || err2 != nil {
			continue
		}
		enc = append(enc, encPair{re, fe})
	}
	kern := filter.NewKernel(filter.ModeGPU, 100, 5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range enc {
			kern.FilterEncoded(p.read, p.ref, 5)
		}
	}
	b.ReportMetric(float64(len(enc))*float64(b.N)/b.Elapsed().Seconds(), "pairs/s")
}

// BenchmarkFig4Accuracy regenerates Figure 4's hot path: GateKeeper-GPU
// kernel decisions across the threshold grid on Set 3 pairs.
func BenchmarkFig4Accuracy(b *testing.B) {
	pairs := benchPairs(b, "set3", 2_000)
	kern := filter.NewKernel(filter.ModeGPU, 100, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range pairs {
			kern.Filter(p.Read, p.Ref, 5)
		}
	}
	b.ReportMetric(float64(len(pairs))*float64(b.N)/b.Elapsed().Seconds(), "pairs/s")
}

// BenchmarkFig5Comparison regenerates Figure 5's comparison: every filter on
// the same Set 1 pairs.
func BenchmarkFig5Comparison(b *testing.B) {
	pairs := benchPairs(b, "set1", 300)
	for _, f := range filter.All() {
		b.Run(f.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, p := range pairs {
					f.Filter(p.Read, p.Ref, 5)
				}
			}
			b.ReportMetric(float64(len(pairs))*float64(b.N)/b.Elapsed().Seconds(), "pairs/s")
		})
	}
}

// BenchmarkFig6Encoding regenerates Figure 6's variable: the encoding actor.
func BenchmarkFig6Encoding(b *testing.B) {
	pairs := benchPairs(b, "set3", 4_000)
	for _, enc := range []gkgpu.EncodingActor{gkgpu.EncodeOnDevice, gkgpu.EncodeOnHost} {
		b.Run(enc.String(), func(b *testing.B) {
			eng := benchEngine(b, 100, 5, 1, enc)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.FilterPairs(pairs, 4); err != nil {
					b.Fatal(err)
				}
			}
			st := eng.Stats()
			b.ReportMetric(float64(st.Pairs)/st.KernelSeconds/1e6, "modelMpairs/s")
		})
	}
}

// BenchmarkFig7ReadLength regenerates Figure 7's variable: the read length.
func BenchmarkFig7ReadLength(b *testing.B) {
	for _, c := range []struct {
		set string
		L   int
	}{{"set3", 100}, {"set7", 150}, {"set11", 250}} {
		b.Run(fmt.Sprintf("%dbp", c.L), func(b *testing.B) {
			pairs := benchPairs(b, c.set, 1_000)
			kern := filter.NewKernel(filter.ModeGPU, c.L, 4)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, p := range pairs {
					kern.Filter(p.Read, p.Ref, 4)
				}
			}
			b.ReportMetric(float64(len(pairs))*float64(b.N)/b.Elapsed().Seconds(), "pairs/s")
		})
	}
}

// BenchmarkFig8MultiGPU regenerates Figure 8's variable: the device count.
func BenchmarkFig8MultiGPU(b *testing.B) {
	pairs := benchPairs(b, "set3", 4_000)
	for _, n := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("gpus%d", n), func(b *testing.B) {
			eng := benchEngine(b, 100, 2, n, gkgpu.EncodeOnHost)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.FilterPairs(pairs, 2); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(pairs))*float64(b.N)/b.Elapsed().Seconds(), "pairs/s")
		})
	}
}

// BenchmarkAblation measures the cost of each kernel design element in
// isolation (the `gkbench -exp ablation` experiment's variants).
func BenchmarkAblation(b *testing.B) {
	pairs := benchPairs(b, "set3", 1_000)
	variants := []struct {
		name string
		abl  filter.Ablation
	}{
		{"full", filter.Ablation{}},
		{"no-amendment", filter.Ablation{SkipAmendment: true}},
		{"run-counting", filter.Ablation{CountRuns: true}},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			kern := filter.NewKernel(filter.ModeGPU, 100, 5)
			kern.SetAblation(v.abl)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, p := range pairs {
					kern.Filter(p.Read, p.Ref, 5)
				}
			}
			b.ReportMetric(float64(len(pairs))*float64(b.N)/b.Elapsed().Seconds(), "pairs/s")
		})
	}
}

// BenchmarkGenASM measures the related-work Bitap filter next to the
// GateKeeper family (Section 2.3 extension).
func BenchmarkGenASM(b *testing.B) {
	pairs := benchPairs(b, "set1", 300)
	g, err := filter.New("genasm")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range pairs {
			g.Filter(p.Read, p.Ref, 5)
		}
	}
	b.ReportMetric(float64(len(pairs))*float64(b.N)/b.Elapsed().Seconds(), "pairs/s")
}

// BenchmarkCandidatePath compares the index-named filtering path (encoded
// reference in unified memory) against materialized pairs.
func BenchmarkCandidatePath(b *testing.B) {
	g := simdata.Genome(simdata.DefaultGenomeConfig(100_000))
	rng := benchRNG()
	var reads [][]byte
	var cands []gkgpu.Candidate
	var pairs []gkgpu.Pair
	for i := 0; i < 50; i++ {
		pos := rng.Intn(len(g) - 100)
		read := append([]byte(nil), g[pos:pos+100]...)
		reads = append(reads, read)
		for c := 0; c < 20; c++ {
			p := rng.Intn(len(g) - 100)
			cands = append(cands, gkgpu.Candidate{ReadID: int64(i), Pos: int64(p)})
			pairs = append(pairs, gkgpu.Pair{Read: read, Ref: g[p : p+100]})
		}
	}
	b.Run("candidates", func(b *testing.B) {
		eng := benchEngine(b, 100, 5, 1, gkgpu.EncodeOnHost)
		if err := eng.SetReference(g); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := eng.FilterCandidates(reads, cands, 5); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("pairs", func(b *testing.B) {
		eng := benchEngine(b, 100, 5, 1, gkgpu.EncodeOnHost)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := eng.FilterPairs(pairs, 5); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFigS12Threshold regenerates Sup. Figure S.12's variable: the
// error threshold, on the CPU baseline whose cost is threshold-linear.
func BenchmarkFigS12Threshold(b *testing.B) {
	pairs := benchPairs(b, "set11", 300)
	kern := filter.NewKernel(filter.ModeGPU, 250, 10)
	for _, e := range []int{0, 2, 4, 8, 10} {
		b.Run(fmt.Sprintf("e%d", e), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, p := range pairs {
					kern.Filter(p.Read, p.Ref, e)
				}
			}
			b.ReportMetric(float64(len(pairs))*float64(b.N)/b.Elapsed().Seconds(), "pairs/s")
		})
	}
}
