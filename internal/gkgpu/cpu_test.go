package gkgpu

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/cuda"
	"repro/internal/dna"
	"repro/internal/filter"
	"repro/internal/lint"
)

func newTestCPUEngine(t *testing.T, cores int) *CPUEngine {
	t.Helper()
	c, err := NewCPUEngine(100, 5, cores, Setup1(), cuda.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestCPUEngineUndefinedStatsMatchGPU is the regression for the CPU
// baseline's undefined accounting: an N-containing pair must come back
// Undefined+Accept and increment Stats.Undefined identically on both
// engines (the CPU path used to report a plain accept on its error branch).
func TestCPUEngineUndefinedStatsMatchGPU(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	pairs, _ := makePairs(rng, 60, 100, 5)
	// Sprinkle undefined pairs: N in the read, N in the ref.
	for _, i := range []int{3, 17, 31} {
		pairs[i].Read = append([]byte(nil), pairs[i].Read...)
		pairs[i].Read[i%100] = 'N'
	}
	for _, i := range []int{8, 44} {
		pairs[i].Ref = append([]byte(nil), pairs[i].Ref...)
		pairs[i].Ref[i%100] = 'N'
	}

	gpu := newTestEngine(t, EncodeOnDevice, 1)
	cpu := newTestCPUEngine(t, 12)
	gotGPU, err := gpu.FilterPairs(pairs, 5)
	if err != nil {
		t.Fatal(err)
	}
	gotCPU, err := cpu.FilterPairs(pairs, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := range gotGPU {
		if gotGPU[i] != gotCPU[i] {
			t.Fatalf("pair %d: GPU %+v, CPU %+v", i, gotGPU[i], gotCPU[i])
		}
	}
	gs, cs := gpu.Stats(), cpu.Stats()
	if gs.Undefined != 5 || cs.Undefined != gs.Undefined {
		t.Fatalf("Stats.Undefined: GPU %d, CPU %d, want 5 on both", gs.Undefined, cs.Undefined)
	}
	if gs.Pairs != cs.Pairs || gs.Accepted != cs.Accepted || gs.Rejected != cs.Rejected {
		t.Fatalf("decision counters diverge: GPU %+v, CPU %+v", gs, cs)
	}
}

// TestCPUEngineWrongLengthPairUndefined pins the fixed error branch itself:
// where the GPU engine rejects a wrong-length pair up front, the CPU
// baseline keeps its slot defensively — and must count it as Undefined, not
// as a plain accept.
func TestCPUEngineWrongLengthPairUndefined(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	cpu := newTestCPUEngine(t, 2)
	good := dna.RandomSeq(rng, 100)
	res, err := cpu.FilterPairs([]Pair{
		{Read: good, Ref: good},
		{Read: dna.RandomSeq(rng, 90), Ref: good}, // wrong length: kernel error path
	}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !res[1].Accept || !res[1].Undefined {
		t.Fatalf("wrong-length pair = %+v, want Undefined+Accept", res[1])
	}
	s := cpu.Stats()
	if s.Undefined != 1 {
		t.Fatalf("Stats.Undefined = %d, want 1", s.Undefined)
	}
	if s.Accepted != 2 || s.Rejected != 0 {
		t.Fatalf("stats = %+v, want 2 accepted (1 defensive), 0 rejected", s)
	}
}

// TestCPUEngineCandidatesMatchGPU: the CPU baseline's index-named candidate
// path must make exactly the GPU engine's decisions — including N-touched
// windows and N-containing reads — and reject the same invalid inputs.
func TestCPUEngineCandidatesMatchGPU(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	genome := dna.RandomSeq(rng, 20_000)
	genome[7_040] = 'N'

	gpu := newTestEngine(t, EncodeOnHost, 2)
	cpu := newTestCPUEngine(t, 12)
	if err := gpu.SetReference(genome); err != nil {
		t.Fatal(err)
	}
	if err := cpu.SetReference(genome); err != nil {
		t.Fatal(err)
	}

	var reads [][]byte
	var cands []Candidate
	for i := 0; i < 30; i++ {
		pos := rng.Intn(len(genome) - 100)
		read := dna.MutateSubstitutions(rng, genome[pos:pos+100], rng.Intn(10))
		if i == 13 {
			read[50] = 'N'
		}
		reads = append(reads, read)
		for _, p := range []int{pos, rng.Intn(len(genome) - 100), 6_990} {
			cands = append(cands, Candidate{ReadID: int64(i), Pos: int64(p)})
		}
	}
	want, err := gpu.FilterCandidates(reads, cands, 5)
	if err != nil {
		t.Fatal(err)
	}
	got, err := cpu.FilterCandidates(reads, cands, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("candidate %d (read %d pos %d): CPU %+v, GPU %+v",
				i, cands[i].ReadID, cands[i].Pos, got[i], want[i])
		}
	}
	gs, cs := gpu.Stats(), cpu.Stats()
	if gs.Undefined != cs.Undefined || gs.Accepted != cs.Accepted || gs.Rejected != cs.Rejected {
		t.Fatalf("candidate stats diverge: GPU %+v, CPU %+v", gs, cs)
	}

	// Validation parity with the GPU engine.
	fresh := newTestCPUEngine(t, 2)
	if _, err := fresh.FilterCandidates(reads, cands, 5); err == nil {
		t.Fatal("FilterCandidates before SetReference succeeded")
	}
	if _, err := cpu.FilterCandidates(reads, []Candidate{{ReadID: -1, Pos: 0}}, 5); err == nil {
		t.Fatal("negative ReadID accepted")
	}
	if _, err := cpu.FilterCandidates(reads, []Candidate{{ReadID: 0, Pos: int64(len(genome) - 50)}}, 5); err == nil {
		t.Fatal("out-of-reference window accepted")
	}
	if _, err := cpu.FilterCandidates([][]byte{make([]byte, 40)}, nil, 5); err == nil {
		t.Fatal("wrong-length read accepted")
	}
	if _, err := cpu.FilterCandidates(reads, cands, 6); err == nil {
		t.Fatal("threshold beyond maxE accepted")
	}
}

// TestFilterCandidatesRejectsAlikeOnBothEngines runs every invalid
// FilterCandidates input through both engines: each must refuse the whole
// call, and in the same words — they share one prologue.
func TestFilterCandidatesRejectsAlikeOnBothEngines(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	genome := dna.RandomSeq(rng, 5_000)
	read := dna.RandomSeq(rng, 100)
	at := func(id, pos int64) []Candidate { return []Candidate{{ReadID: id, Pos: pos}} }
	for _, tc := range []struct {
		name      string
		loaded    bool // SetReference(genome) before the call
		reads     [][]byte
		cands     []Candidate
		threshold int
	}{
		{"threshold above compiled MaxE", true, [][]byte{read}, at(0, 0), 6},
		{"negative threshold", true, [][]byte{read}, at(0, 0), -1},
		{"short read", true, [][]byte{read, read[:50]}, at(0, 0), 5},
		{"read ID past the reads", true, [][]byte{read}, at(1, 0), 5},
		{"negative read ID", true, [][]byte{read}, at(-1, 0), 5},
		{"window before the reference", true, [][]byte{read}, at(0, -1), 5},
		{"window past the reference", true, [][]byte{read}, at(0, 4_901), 5},
		{"no reference", false, [][]byte{read}, at(0, 0), 5},
	} {
		gpu := newTestEngine(t, EncodeOnDevice, 1)
		cpu := newTestCPUEngine(t, 4)
		if tc.loaded {
			if err := gpu.SetReference(genome); err != nil {
				t.Fatal(err)
			}
			if err := cpu.SetReference(genome); err != nil {
				t.Fatal(err)
			}
		}
		_, gpuErr := gpu.FilterCandidates(tc.reads, tc.cands, tc.threshold)
		_, cpuErr := cpu.FilterCandidates(tc.reads, tc.cands, tc.threshold)
		if gpuErr == nil || cpuErr == nil {
			t.Fatalf("%s: accepted (gpu %v, cpu %v)", tc.name, gpuErr, cpuErr)
		}
		if gpuErr.Error() != cpuErr.Error() {
			t.Fatalf("%s: gpu says %q, cpu says %q", tc.name, gpuErr, cpuErr)
		}
		if gpu.Stats().Pairs != 0 || cpu.Stats().Pairs != 0 {
			t.Fatalf("%s: a refused call counted pairs", tc.name)
		}
	}
}

// TestCPUEngineWidthIdentity: the core count is a schedule, not a decision
// input — any width produces bit-identical results for pairs and candidates.
func TestCPUEngineWidthIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	pairs, _ := makePairs(rng, 300, 100, 5)
	serial := newTestCPUEngine(t, 1)
	want, err := serial.FilterPairs(pairs, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, cores := range []int{2, 3, 12} {
		eng := newTestCPUEngine(t, cores)
		got, err := eng.FilterPairs(pairs, 5)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("cores=%d pair %d: %+v != %+v", cores, i, got[i], want[i])
			}
		}
	}
}

// TestCPUEngineConcurrentCalls exercises the engine's concurrency contract
// (calls serialize on the internal mutex; persistent kernels are reused)
// under -race in CI.
func TestCPUEngineConcurrentCalls(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	pairs, _ := makePairs(rng, 120, 100, 5)
	eng := newTestCPUEngine(t, 4)
	want, err := eng.FilterPairs(pairs, 5)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				got, err := eng.FilterPairs(pairs, 5)
				if err != nil {
					t.Error(err)
					return
				}
				for i := range want {
					if got[i] != want[i] {
						t.Errorf("concurrent pair %d: %+v != %+v", i, got[i], want[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestCPUFilterRangeZeroAllocs guards the per-worker steady state of the
// pair path: one claimed block on a persistent kernel must not allocate.
func TestCPUFilterRangeZeroAllocs(t *testing.T) {
	if !lint.IsNoAlloc("repro/internal/gkgpu", "cpuFilterRange") {
		t.Fatal("cpuFilterRange is not in lint.NoAllocRegistry; static and runtime guards have drifted")
	}
	if raceEnabled {
		t.Skip("race instrumentation allocates; run without -race")
	}
	rng := rand.New(rand.NewSource(14))
	pairs, _ := makePairs(rng, 64, 100, 5)
	out := make([]Result, len(pairs))
	kern := filter.NewKernel(filter.ModeGPU, 100, 5)
	if allocs := testing.AllocsPerRun(200, func() {
		cpuFilterRange(kern, pairs, out, 5)
	}); allocs != 0 {
		t.Fatalf("cpuFilterRange allocated %.1f allocs/op, want 0", allocs)
	}
}

// TestCandidateRangeZeroAllocs guards the candidate path's steady state:
// the 'N' test reads the bitmap and the kernel (FilterPlanes, the plane entry
// point; TestFilterEncodedZeroAllocs guards it and the interleaved one
// directly) reads the read's planes and the reference window where they lie,
// so a claimed block (clean, N-window and N-read candidates alike) must not
// allocate.
func TestCandidateRangeZeroAllocs(t *testing.T) {
	for _, fn := range []string{"candidateRange", "packedRef.hasN", "readPlanes", "planeOff"} {
		if !lint.IsNoAlloc("repro/internal/gkgpu", fn) {
			t.Fatalf("%s is not in lint.NoAllocRegistry; static and runtime guards have drifted", fn)
		}
	}
	if !lint.IsNoAlloc("repro/internal/filter", "Kernel.FilterPlanes") || !lint.IsNoAlloc("repro/internal/bitvec", "Window") {
		t.Fatal("the plane kernel or its window read is not in lint.NoAllocRegistry; static and runtime guards have drifted")
	}
	if raceEnabled {
		t.Skip("race instrumentation allocates; run without -race")
	}
	rng := rand.New(rand.NewSource(15))
	genome := dna.RandomSeq(rng, 10_000)
	genome[5_000] = 'N'
	ref := packReference(genome)
	var reads [][]byte
	var cands []Candidate
	for i := 0; i < 32; i++ {
		pos := rng.Intn(len(genome) - 100)
		reads = append(reads, dna.MutateSubstitutions(rng, genome[pos:pos+100], rng.Intn(8)))
		cands = append(cands, Candidate{ReadID: int64(i), Pos: int64(pos)})
	}
	reads[7][3] = 'N'
	cands = append(cands, Candidate{ReadID: 0, Pos: 4_950})
	planeWords := bitvec.MaskWords(100)
	planes := make([]uint64, 2*len(reads)*planeWords)
	readHasN := make([]bool, len(reads))
	encodeReads(planes, readHasN, reads, planeWords)
	out := make([]Result, len(cands))
	kern := filter.NewKernel(filter.ModeGPU, 100, 5)
	if allocs := testing.AllocsPerRun(200, func() {
		candidateRange(kern, ref, planes, readHasN, cands, out, 5)
	}); allocs != 0 {
		t.Fatalf("candidateRange allocated %.1f allocs/op, want 0", allocs)
	}
	if !out[7].Undefined || !out[len(out)-1].Undefined || out[0].Undefined {
		t.Fatalf("undefined flags wrong: N read %+v, N window %+v, clean %+v", out[7], out[len(out)-1], out[0])
	}
}
