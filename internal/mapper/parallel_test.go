package mapper

import (
	"fmt"
	"math"
	"sync/atomic"
	"testing"

	"repro/internal/cuda"
	"repro/internal/gkgpu"
	"repro/internal/simdata"
)

// TestMapReadsWorkerWidthIdentity: the one-shot pipeline's worker pool is a
// schedule, not a decision input — MapReads must return byte-identical
// mappings and decision counters for any StreamWorkers setting, with and
// without a pre-alignment filter, traceback, and both-strand mapping.
func TestMapReadsWorkerWidthIdentity(t *testing.T) {
	g := testGenome(200_000)
	reads, err := simdata.SimulateReads(g, simdata.Illumina100, 120, 3)
	if err != nil {
		t.Fatal(err)
	}
	seqs := make([][]byte, len(reads))
	for i, r := range reads {
		seqs[i] = r.Seq
	}
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"plain", Config{ReadLen: 100, MaxE: 5}},
		{"traceback-bothstrands", Config{ReadLen: 100, MaxE: 5, Traceback: true, BothStrands: true}},
		{"cpu-filter", Config{ReadLen: 100, MaxE: 5}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(workers int) ([]Mapping, Stats) {
				cfg := tc.cfg
				cfg.StreamWorkers = workers
				if tc.name == "cpu-filter" {
					eng, err := gkgpu.NewCPUEngine(100, 5, 12, gkgpu.Setup1(), cuda.DefaultCostModel())
					if err != nil {
						t.Fatal(err)
					}
					cfg.Filter = eng
				}
				m, err := New(g, cfg)
				if err != nil {
					t.Fatal(err)
				}
				mappings, st, err := m.MapReads(seqs, 5)
				if err != nil {
					t.Fatal(err)
				}
				return mappings, st
			}
			want, wantSt := run(1)
			mustBeStrictlyOrdered(t, want, "workers=1")
			// Every verified pair is settled by exactly one of the verifier's
			// two stages, and which one depends on the pair alone.
			if wantSt.WavefrontPairs == 0 || wantSt.HandedOverPairs == 0 ||
				wantSt.WavefrontPairs+wantSt.HandedOverPairs != wantSt.VerificationPairs {
				t.Fatalf("%d verified = %d on the wavefront + %d handed over: the run does not say how it verified",
					wantSt.VerificationPairs, wantSt.WavefrontPairs, wantSt.HandedOverPairs)
			}
			for _, workers := range []int{2, 4, 0} { // 0 = GOMAXPROCS
				got, gotSt := run(workers)
				if len(got) != len(want) {
					t.Fatalf("workers=%d: %d mappings, serial %d", workers, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("workers=%d mapping %d: %+v != %+v", workers, i, got[i], want[i])
					}
				}
				if gotSt.CandidatePairs != wantSt.CandidatePairs ||
					gotSt.VerificationPairs != wantSt.VerificationPairs ||
					gotSt.WavefrontPairs != wantSt.WavefrontPairs ||
					gotSt.HandedOverPairs != wantSt.HandedOverPairs ||
					gotSt.RejectedPairs != wantSt.RejectedPairs ||
					gotSt.UndefinedPairs != wantSt.UndefinedPairs ||
					gotSt.Mappings != wantSt.Mappings ||
					gotSt.MappedReads != wantSt.MappedReads {
					t.Fatalf("workers=%d counters diverge:\n got %+v\nwant %+v", workers, gotSt, wantSt)
				}
			}
		})
	}
}

// TestMapReadsUsesCandidatePathOnCPUEngine: the CPU baseline implements the
// index-named PreFilter contract — decisions (and therefore mappings) must
// match the GPU engine's.
func TestMapReadsUsesCandidatePathOnCPUEngine(t *testing.T) {
	g := testGenome(150_000)
	reads, err := simdata.SimulateReads(g, simdata.Illumina100, 80, 4)
	if err != nil {
		t.Fatal(err)
	}
	seqs := make([][]byte, len(reads))
	for i, r := range reads {
		seqs[i] = r.Seq
	}

	cpuEng, err := gkgpu.NewCPUEngine(100, 5, 12, gkgpu.Setup1(), cuda.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	mCPU, err := New(g, Config{ReadLen: 100, MaxE: 5, Filter: cpuEng})
	if err != nil {
		t.Fatal(err)
	}
	gotCPU, stCPU, err := mCPU.MapReads(seqs, 5)
	if err != nil {
		t.Fatal(err)
	}

	gpuEng, err := gkgpu.NewEngine(gkgpu.Config{ReadLen: 100, MaxE: 5}, cuda.NewUniformContext(1, cuda.GTX1080Ti()))
	if err != nil {
		t.Fatal(err)
	}
	defer gpuEng.Close()
	mGPU, err := New(g, Config{ReadLen: 100, MaxE: 5, Filter: gpuEng})
	if err != nil {
		t.Fatal(err)
	}
	gotGPU, stGPU, err := mGPU.MapReads(seqs, 5)
	if err != nil {
		t.Fatal(err)
	}

	if len(gotCPU) != len(gotGPU) {
		t.Fatalf("CPU path %d mappings, GPU path %d", len(gotCPU), len(gotGPU))
	}
	for i := range gotGPU {
		if gotCPU[i] != gotGPU[i] {
			t.Fatalf("mapping %d: CPU %+v, GPU %+v", i, gotCPU[i], gotGPU[i])
		}
	}
	if stCPU.RejectedPairs != stGPU.RejectedPairs || stCPU.UndefinedPairs != stGPU.UndefinedPairs {
		t.Fatalf("filter counters diverge: CPU %+v, GPU %+v", stCPU, stGPU)
	}
}

// simulatedSeqs draws n Illumina-like 100 bp reads from g.
func simulatedSeqs(t *testing.T, g []byte, n int) [][]byte {
	t.Helper()
	reads, err := simdata.SimulateReads(g, simdata.Illumina100, n, 4)
	if err != nil {
		t.Fatal(err)
	}
	seqs := make([][]byte, len(reads))
	for i, r := range reads {
		seqs[i] = r.Seq
	}
	return seqs
}

// countingCPUFilter is a CPUEngine that counts which of its two filtering
// entry points the mapper calls.
type countingCPUFilter struct {
	*gkgpu.CPUEngine
	candCalls, pairCalls atomic.Int64
}

func (f *countingCPUFilter) FilterPairs(pairs []gkgpu.Pair, e int) ([]gkgpu.Result, error) {
	f.pairCalls.Add(1)
	return f.CPUEngine.FilterPairs(pairs, e)
}

func (f *countingCPUFilter) FilterCandidates(reads [][]byte, cands []gkgpu.Candidate, e int) ([]gkgpu.Result, error) {
	f.candCalls.Add(1)
	return f.CPUEngine.FilterCandidates(reads, cands, e)
}

// TestMapStreamUsesCandidatePathOnCPUEngine is the channel-fed twin: the core
// must hand a CPUEngine its candidates through FilterCandidates — never
// materialized pairs through FilterPairs — from MapReadStream as from
// MapReads, with mappings byte-identical to the no-filter run, whatever the
// pool width.
func TestMapStreamUsesCandidatePathOnCPUEngine(t *testing.T) {
	g := testGenome(150_000)
	seqs := simulatedSeqs(t, g, 120)
	base := Config{ReadLen: 100, MaxE: 5, BothStrands: true}
	plain, err := New(g, base)
	if err != nil {
		t.Fatal(err)
	}
	want, wantSt, err := plain.MapReads(seqs, 5)
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 4} {
		eng, err := gkgpu.NewCPUEngine(100, 5, 12, gkgpu.Setup1(), cuda.DefaultCostModel())
		if err != nil {
			t.Fatal(err)
		}
		f := &countingCPUFilter{CPUEngine: eng}
		cfg := base
		cfg.Filter, cfg.StreamWorkers = f, workers
		m, err := New(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, run := range []struct {
			name string
			do   func() ([]Mapping, Stats, error)
		}{
			{"MapReads", func() ([]Mapping, Stats, error) { return m.MapReads(seqs, 5) }},
			{"MapReadStream", func() ([]Mapping, Stats, error) { return m.MapReadStream(feedReads(seqs), 5) }},
		} {
			label := fmt.Sprintf("%s workers=%d", run.name, workers)
			f.candCalls.Store(0)
			got, st, err := run.do()
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if f.pairCalls.Load() != 0 || f.candCalls.Load() == 0 {
				t.Fatalf("%s: %d FilterPairs calls, %d FilterCandidates calls; want 0 and > 0",
					label, f.pairCalls.Load(), f.candCalls.Load())
			}
			mustEqualMappings(t, got, want, label)
			if st.CandidatePairs != wantSt.CandidatePairs || st.RejectedPairs == 0 ||
				st.RejectedPairs+st.VerificationPairs != st.CandidatePairs {
				t.Fatalf("%s: counters %+v against no-filter %+v", label, st, wantSt)
			}
		}
	}
}

// TestFilterModelIsPerRun: a run's modelled filter clocks are what that run
// added to the engine's lifetime counters, on both engine types and from
// the slice-fed and channel-fed entry points — a second run on the same
// mapper reports the same figures, not the running total.
func TestFilterModelIsPerRun(t *testing.T) {
	g := testGenome(150_000)
	seqs := simulatedSeqs(t, g, 80)
	cpuEng, err := gkgpu.NewCPUEngine(100, 5, 12, gkgpu.Setup1(), cuda.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	gpuEng, err := gkgpu.NewEngine(gkgpu.Config{ReadLen: 100, MaxE: 5}, cuda.NewUniformContext(1, cuda.GTX1080Ti()))
	if err != nil {
		t.Fatal(err)
	}
	defer gpuEng.Close()
	for _, tc := range []struct {
		name   string
		filter PreFilter
		stream bool
	}{
		{"cpu/MapReads", cpuEng, false},
		{"gpu/MapReads", gpuEng, false},
		{"cpu/MapReadStream", cpuEng, true},
		{"gpu/MapReadStream", gpuEng, true},
	} {
		m, err := New(g, Config{ReadLen: 100, MaxE: 5, Filter: tc.filter, StreamWorkers: 1})
		if err != nil {
			t.Fatal(err)
		}
		var runs [2]Stats
		for i := range runs {
			if tc.stream {
				_, runs[i], err = m.MapReadStream(feedReads(seqs), 5)
			} else {
				_, runs[i], err = m.MapReads(seqs, 5)
			}
			if err != nil {
				t.Fatalf("%s run %d: %v", tc.name, i, err)
			}
		}
		// Equal up to the rounding of (total after) - (total before).
		same := func(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Abs(a) }
		a, b := runs[0], runs[1]
		if a.FilterKernelModel <= 0 || a.FilterModelSeconds <= 0 {
			t.Fatalf("%s: first run reports no modelled filter time: %+v", tc.name, a)
		}
		if !same(a.FilterKernelModel, b.FilterKernelModel) || !same(a.FilterModelSeconds, b.FilterModelSeconds) ||
			!same(a.FilterPrepModel, b.FilterPrepModel) {
			t.Fatalf("%s: modelled clocks differ between two identical runs:\n first %g/%g/%g\nsecond %g/%g/%g",
				tc.name, a.FilterKernelModel, a.FilterModelSeconds, a.FilterPrepModel,
				b.FilterKernelModel, b.FilterModelSeconds, b.FilterPrepModel)
		}
	}
}
