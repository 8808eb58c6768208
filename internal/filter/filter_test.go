package filter

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/align"
	"repro/internal/bitvec"
	"repro/internal/dna"
)

func TestNewByName(t *testing.T) {
	for _, name := range []string{"gatekeeper-gpu", "gatekeeper-fpga", "shd", "magnet", "shouji", "sneakysnake"} {
		f, err := New(name)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if f.Name() == "" {
			t.Fatalf("New(%q) has empty name", name)
		}
	}
	if _, err := New("nope"); err == nil {
		t.Fatal("unknown filter accepted")
	}
	if got := len(All()); got != 6 {
		t.Fatalf("All() returned %d filters, want 6", got)
	}
}

func TestAllFiltersAcceptExactMatch(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, L := range []int{100, 150, 250} {
		read := dna.RandomSeq(rng, L)
		ref := append([]byte(nil), read...)
		for _, f := range All() {
			for _, e := range []int{0, 2, 5} {
				d := f.Filter(read, ref, e)
				if !d.Accept {
					t.Errorf("%s rejected an exact match (L=%d, e=%d, est=%d)", f.Name(), L, e, d.Estimate)
				}
			}
		}
	}
}

func TestAllFiltersAcceptSubstitutionsWithinThreshold(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 30; trial++ {
		L := []int{100, 150, 250}[trial%3]
		e := 1 + rng.Intn(L/10)
		k := rng.Intn(e + 1)
		read := dna.RandomSeq(rng, L)
		ref := dna.MutateSubstitutions(rng, read, k)
		for _, f := range All() {
			d := f.Filter(read, ref, e)
			if !d.Accept {
				t.Errorf("%s falsely rejected %d substitutions at e=%d (L=%d, est=%d)",
					f.Name(), k, e, L, d.Estimate)
			}
		}
	}
}

func TestGateKeeperGPUAcceptsSingleIndel(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	gpu := NewGateKeeperGPU()
	for trial := 0; trial < 40; trial++ {
		L := 100
		read := dna.RandomSeq(rng, L)
		pos := rng.Intn(L)
		var refLong []byte
		if trial%2 == 0 {
			refLong = dna.ApplyEdits(read, []dna.Edit{{Pos: pos, Op: 'D'}})
		} else {
			refLong = dna.ApplyEdits(read, []dna.Edit{{Pos: pos, Op: 'I', Base: dna.Alphabet[rng.Intn(4)]}})
		}
		// Candidate segments are read-length windows; pad or trim to L as a
		// mapper would when extracting the segment.
		ref := make([]byte, L)
		copy(ref, refLong)
		for i := len(refLong); i < L; i++ {
			ref[i] = read[i] // mapper extends with the true downstream bases
		}
		e := 2
		if d := gpu.Filter(read, ref, e); !d.Accept {
			t.Errorf("GateKeeper-GPU rejected a single indel (trial=%d pos=%d est=%d)", trial, pos, d.Estimate)
		}
	}
}

func TestGateKeeperGPUNoFalseRejectsOnMapperProfilePairs(t *testing.T) {
	// The paper's core accuracy claim: "GateKeeper-GPU's false reject count
	// is always 0 for all data sets". Reproduce on mrFAST-profile pairs:
	// true-location candidates carrying subs+indels within the threshold.
	rng := rand.New(rand.NewSource(4))
	for _, L := range []int{100, 150, 250} {
		e := L / 20 // 5% threshold, the paper's mapping profile
		kern := NewKernel(ModeGPU, L, e)
		for trial := 0; trial < 400; trial++ {
			read := dna.RandomSeq(rng, L)
			nEdits := rng.Intn(e + 1)
			mutated := dna.ApplyEdits(read, dna.RandomEdits(rng, L, nEdits, 0.3))
			ref := make([]byte, L)
			n := copy(ref, mutated)
			for i := n; i < L; i++ {
				ref[i] = read[i]
			}
			trueDist := align.Distance(read, ref)
			if trueDist > e {
				continue // length-trim pushed it over; not a within-threshold pair
			}
			if d := kern.Filter(read, ref, e); !d.Accept {
				t.Fatalf("false reject: L=%d e=%d trial=%d trueDist=%d estimate=%d",
					L, e, trial, trueDist, d.Estimate)
			}
		}
	}
}

func TestGPUFalseAcceptsNeverExceedFPGAStatistically(t *testing.T) {
	// The GPU improvement forces the shift-vacated bits to 1, which
	// statistically can only surface additional edge errors. Run merging
	// makes the per-pair estimate non-monotone, but over a dataset the GPU
	// variant must produce no more false accepts than the FPGA original —
	// the mechanism behind "up to 52x less false accepts".
	rng := rand.New(rand.NewSource(5))
	L, e := 100, 5
	gpu := NewKernel(ModeGPU, L, e)
	fpga := NewKernel(ModeFPGA, L, e)
	gpuFA, fpgaFA := 0, 0
	for trial := 0; trial < 600; trial++ {
		read := dna.RandomSeq(rng, L)
		var ref []byte
		if trial%3 == 0 {
			ref = dna.RandomSeq(rng, L)
		} else {
			ref = dna.MutateSubstitutions(rng, read, 3+rng.Intn(17))
		}
		if align.Distance(read, ref) <= e {
			continue
		}
		if gpu.Filter(read, ref, e).Accept {
			gpuFA++
		}
		if fpga.Filter(read, ref, e).Accept {
			fpgaFA++
		}
	}
	if gpuFA > fpgaFA {
		t.Fatalf("GPU false accepts (%d) exceed FPGA false accepts (%d)", gpuFA, fpgaFA)
	}
}

func TestFPGAMissesEdgeMismatchesFigure2(t *testing.T) {
	// Deterministic Figure 2/3 scenario. The read is a homopolymer; the
	// candidate carries e isolated interior mismatches plus two mismatches
	// at each edge (true distance e+4 > e). In the original GateKeeper the
	// shift-vacated zeros erase the edge errors from the final AND, so it
	// falsely accepts; GateKeeper-GPU's forced leading/trailing 1s keep
	// them visible and reject the pair.
	L, e := 100, 5
	read := make([]byte, L)
	for i := range read {
		read[i] = 'A'
	}
	ref := append([]byte(nil), read...)
	interior := []int{20, 30, 40, 50, 60}
	for _, p := range interior {
		ref[p] = 'C'
	}
	for _, p := range []int{0, 1, L - 2, L - 1} {
		ref[p] = 'C'
	}
	if d := align.Distance(read, ref); d != e+4 {
		t.Fatalf("construction error: distance %d, want %d", d, e+4)
	}
	gpu := NewKernel(ModeGPU, L, e)
	fpga := NewKernel(ModeFPGA, L, e)
	// The assertions below pin exact estimate values; the default kernel may
	// seal an accept early with a coarser (<= e) estimate.
	gpu.SetExactEstimate(true)
	fpga.SetExactEstimate(true)
	df := fpga.Filter(read, ref, e)
	dg := gpu.Filter(read, ref, e)
	if !df.Accept {
		t.Errorf("FPGA mode should falsely accept the Figure 2 pair (est=%d)", df.Estimate)
	}
	if dg.Accept {
		t.Errorf("GPU mode should reject the Figure 2 pair (est=%d)", dg.Estimate)
	}
	if df.Estimate != e {
		t.Errorf("FPGA estimate = %d, want %d (edge errors erased)", df.Estimate, e)
	}
	if dg.Estimate != e+2 {
		t.Errorf("GPU estimate = %d, want %d (one run per edge)", dg.Estimate, e+2)
	}
}

func TestFPGASaturatesAtHighThresholds(t *testing.T) {
	// Sup. Tables S.8/S.10: at high error thresholds on high-edit data,
	// GateKeeper-FPGA/SHD accept everything while GateKeeper-GPU keeps
	// rejecting some dissimilar pairs.
	rng := rand.New(rand.NewSource(7))
	L := 100
	e := 10 // 10% of read length, the paper's maximum
	gpu := NewKernel(ModeGPU, L, e)
	fpga := NewKernel(ModeFPGA, L, e)
	gpuRejects, fpgaRejects := 0, 0
	const pairs = 300
	for i := 0; i < pairs; i++ {
		read := dna.RandomSeq(rng, L)
		ref := dna.RandomSeq(rng, L) // thoroughly dissimilar
		if !gpu.Filter(read, ref, e).Accept {
			gpuRejects++
		}
		if !fpga.Filter(read, ref, e).Accept {
			fpgaRejects++
		}
	}
	if gpuRejects <= fpgaRejects {
		t.Errorf("expected GPU to out-reject FPGA at high e: gpu=%d fpga=%d", gpuRejects, fpgaRejects)
	}
	if gpuRejects == 0 {
		t.Error("GateKeeper-GPU rejected nothing at e=10; filtering should still function")
	}
}

func TestSneakySnakeLowerBoundsEditDistance(t *testing.T) {
	// SneakySnake's estimate provably lower-bounds the true edit distance,
	// hence zero false rejects by construction.
	rng := rand.New(rand.NewSource(8))
	ss := NewSneakySnake()
	for trial := 0; trial < 300; trial++ {
		L := 50 + rng.Intn(100)
		read := dna.RandomSeq(rng, L)
		var ref []byte
		if trial%4 == 0 {
			ref = dna.RandomSeq(rng, L)
		} else {
			mutated := dna.ApplyEdits(read, dna.RandomEdits(rng, L, rng.Intn(10), 0.4))
			ref = make([]byte, L)
			n := copy(ref, mutated)
			for i := n; i < L; i++ {
				ref[i] = dna.Alphabet[rng.Intn(4)]
			}
		}
		e := rng.Intn(12)
		d := ss.Filter(read, ref, e)
		trueDist := align.Distance(read, ref)
		if d.Estimate > trueDist {
			t.Fatalf("SneakySnake estimate %d exceeds true distance %d (trial %d)", d.Estimate, trueDist, trial)
		}
		if trueDist <= e && !d.Accept {
			t.Fatalf("SneakySnake false reject: trueDist=%d e=%d", trueDist, e)
		}
	}
}

func TestShoujiAcceptsWithinThresholdSubs(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	sh := NewShouji()
	for trial := 0; trial < 50; trial++ {
		L := 100
		e := 1 + rng.Intn(10)
		k := rng.Intn(e + 1)
		read := dna.RandomSeq(rng, L)
		ref := dna.MutateSubstitutions(rng, read, k)
		if d := sh.Filter(read, ref, e); !d.Accept {
			t.Fatalf("Shouji rejected %d subs at e=%d (est=%d)", k, e, d.Estimate)
		}
	}
}

func TestFilterAccuracyOrdering(t *testing.T) {
	// Figure 5 ordering on a random low-edit dataset: false accepts of
	// SneakySnake <= Shouji <= GateKeeper-GPU <= GateKeeper-FPGA == SHD.
	rng := rand.New(rand.NewSource(10))
	L, e := 100, 5
	filters := []Filter{NewSneakySnake(), NewShouji(), NewGateKeeperGPU(), NewGateKeeperFPGA(), NewSHD()}
	fa := make([]int, len(filters))
	const pairs = 400
	for i := 0; i < pairs; i++ {
		read := dna.RandomSeq(rng, L)
		// Mix: near-threshold pairs that stress every filter.
		k := 3 + rng.Intn(12)
		mutated := dna.ApplyEdits(read, dna.RandomEdits(rng, L, k, 0.3))
		ref := make([]byte, L)
		n := copy(ref, mutated)
		for j := n; j < L; j++ {
			ref[j] = dna.Alphabet[rng.Intn(4)]
		}
		if align.Distance(read, ref) <= e {
			continue // only count pairs Edlib rejects
		}
		for fi, f := range filters {
			if f.Filter(read, ref, e).Accept {
				fa[fi]++
			}
		}
	}
	// SneakySnake should be the most accurate, FPGA/SHD identical and worst
	// of the bitvector family.
	if fa[4] != fa[3] {
		t.Errorf("SHD (%d) and GateKeeper-FPGA (%d) diverged; they share one algorithm", fa[4], fa[3])
	}
	if fa[2] > fa[3] {
		t.Errorf("GateKeeper-GPU false accepts (%d) exceed FPGA (%d)", fa[2], fa[3])
	}
	if fa[0] > fa[2] {
		t.Errorf("SneakySnake false accepts (%d) exceed GateKeeper-GPU (%d)", fa[0], fa[2])
	}
}

func TestUndefinedPairsBypassGateKeeper(t *testing.T) {
	kern := NewKernel(ModeGPU, 100, 5)
	read := make([]byte, 100)
	ref := make([]byte, 100)
	for i := range read {
		read[i], ref[i] = 'A', 'T' // would certainly be rejected
	}
	read[50] = 'N'
	d := kern.Filter(read, ref, 5)
	if !d.Accept || !d.Undefined {
		t.Fatalf("N-containing pair not passed through: %+v", d)
	}
	read[50] = 'A'
	ref[50] = 'N'
	d = kern.Filter(read, ref, 5)
	if !d.Accept || !d.Undefined {
		t.Fatalf("N in reference not passed through: %+v", d)
	}
}

func TestKernelGeometryErrors(t *testing.T) {
	kern := NewKernel(ModeGPU, 100, 5)
	read := make([]byte, 100)
	for i := range read {
		read[i] = 'A'
	}
	if _, err := kern.FilterChecked(read[:50], read, 5); err == nil {
		t.Fatal("short read accepted")
	}
	if _, err := kern.FilterChecked(read, read, 6); err == nil {
		t.Fatal("e beyond maxE accepted")
	}
	if _, err := kern.FilterChecked(read, read, -1); err == nil {
		t.Fatal("negative e accepted")
	}
	if _, err := kern.FilterChecked(read, read, 5); err != nil {
		t.Fatalf("valid call failed: %v", err)
	}
	if kern.ReadLen() != 100 || kern.MaxE() != 5 || kern.Mode() != ModeGPU {
		t.Fatal("kernel accessors wrong")
	}
}

func TestKernelExactMatchAtEZero(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	kern := NewKernel(ModeGPU, 100, 5)
	read := dna.RandomSeq(rng, 100)
	if d := kern.Filter(read, read, 0); !d.Accept || d.Estimate != 0 {
		t.Fatalf("exact match at e=0: %+v", d)
	}
	ref := dna.MutateSubstitutions(rng, read, 1)
	if d := kern.Filter(read, ref, 0); d.Accept {
		t.Fatalf("mismatch accepted at e=0: %+v", d)
	}
}

func TestGateKeeperNoFalseAcceptsAtEZero(t *testing.T) {
	// At e=0 the filter is a pure XOR comparison, so false accepts are
	// impossible for defined pairs (Table S.2 row e=0).
	rng := rand.New(rand.NewSource(12))
	kern := NewKernel(ModeGPU, 100, 0)
	for trial := 0; trial < 200; trial++ {
		read := dna.RandomSeq(rng, 100)
		ref := dna.MutateSubstitutions(rng, read, rng.Intn(3))
		wantAccept := align.Distance(read, ref) == 0
		if got := kern.Filter(read, ref, 0).Accept; got != wantAccept {
			t.Fatalf("e=0 decision %v, want %v", got, wantAccept)
		}
	}
}

func TestGateKeeperConvenienceWrapperGeometryCache(t *testing.T) {
	g := NewGateKeeperGPU()
	rng := rand.New(rand.NewSource(13))
	// Different lengths and thresholds through one wrapper.
	for _, L := range []int{50, 100, 150} {
		read := dna.RandomSeq(rng, L)
		for _, e := range []int{0, 2, 4} {
			if d := g.Filter(read, read, e); !d.Accept {
				t.Fatalf("wrapper rejected exact match at L=%d e=%d", L, e)
			}
		}
	}
}

func TestMagnetEstimateZeroOnExact(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	m := NewMAGNET()
	read := dna.RandomSeq(rng, 120)
	d := m.Filter(read, read, 3)
	if !d.Accept || d.Estimate != 0 {
		t.Fatalf("MAGNET exact: %+v", d)
	}
}

func TestMagnetRejectsDissimilar(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	m := NewMAGNET()
	rejects := 0
	for i := 0; i < 50; i++ {
		a := dna.RandomSeq(rng, 100)
		b := dna.RandomSeq(rng, 100)
		if !m.Filter(a, b, 5).Accept {
			rejects++
		}
	}
	if rejects < 45 {
		t.Fatalf("MAGNET rejected only %d/50 random pairs", rejects)
	}
}

func TestBaselinesRejectLengthMismatch(t *testing.T) {
	for _, f := range []Filter{NewMAGNET(), NewShouji(), NewSneakySnake()} {
		if f.Filter([]byte("ACGT"), []byte("ACG"), 2).Accept {
			t.Errorf("%s accepted a length mismatch", f.Name())
		}
	}
}

func TestBaselinesEmptyInput(t *testing.T) {
	for _, f := range []Filter{NewMAGNET(), NewShouji(), NewSneakySnake()} {
		if !f.Filter(nil, nil, 0).Accept {
			t.Errorf("%s rejected the empty pair", f.Name())
		}
	}
}

func TestNeighborhoodMap(t *testing.T) {
	read := []byte("ACGT")
	ref := []byte("AGGT")
	masks := neighborhood(read, ref, 1)
	if len(masks) != 3 {
		t.Fatalf("got %d masks", len(masks))
	}
	main := masks[1] // d = 0
	want := []bool{false, true, false, false}
	for i := range want {
		if main[i] != want[i] {
			t.Fatalf("main diagonal bit %d = %v", i, main[i])
		}
	}
	// d=+1: ref position i vs read position i-1; position 0 vacated.
	if !masks[2][0] {
		t.Fatal("vacated position should mismatch")
	}
}

func TestNeighborhoodMasksMatchBoolOracle(t *testing.T) {
	// The packed diagonal masks MAGNET scans must agree bit for bit with
	// the bool neighborhood, and the word-at-a-time longest-zero-run scan
	// must agree with the per-entry oracle on every diagonal and interval —
	// a packing bug here would only move MAGNET's accept rate, which the
	// differential suite merely bounds.
	rng := rand.New(rand.NewSource(20))
	for trial := 0; trial < 80; trial++ {
		L := 1 + rng.Intn(200)
		e := rng.Intn(8)
		read := dna.RandomSeq(rng, L)
		var ref []byte
		if trial%2 == 0 {
			ref = dna.MutateSubstitutions(rng, read, rng.Intn(L+1))
		} else {
			ref = dna.RandomSeq(rng, L)
		}
		if trial%7 == 0 {
			ref[rng.Intn(L)] = 'N' // byte-equality semantics: N matches N only
		}
		boolMasks := neighborhood(read, ref, e)
		packed := neighborhoodMasks(read, ref, e)
		if len(boolMasks) != len(packed) {
			t.Fatalf("mask count %d vs %d", len(packed), len(boolMasks))
		}
		for d := range boolMasks {
			for i := 0; i < L; i++ {
				if bit := packed[d][i/64]>>uint(i%64)&1 == 1; bit != boolMasks[d][i] {
					t.Fatalf("trial=%d L=%d e=%d diagonal=%d bit %d: packed=%v bool=%v",
						trial, L, e, d, i, bit, boolMasks[d][i])
				}
			}
			lo := rng.Intn(L + 1)
			hi := lo + rng.Intn(L+1-lo)
			gs, gl := bitvec.LongestZeroRun(packed[d], lo, hi)
			ws, wl := longestZeroRunBool(boolMasks[d], lo, hi)
			if gs != ws || gl != wl {
				t.Fatalf("trial=%d diagonal=%d [%d,%d): packed run (%d,%d) vs bool (%d,%d)",
					trial, d, lo, hi, gs, gl, ws, wl)
			}
		}
	}
}

func TestEstimateTracksEditDistanceLoosely(t *testing.T) {
	// For substitution-only pairs the GateKeeper estimate equals the
	// Hamming distance exactly when mismatches are isolated.
	rng := rand.New(rand.NewSource(16))
	kern := NewKernel(ModeGPU, 100, 10)
	for trial := 0; trial < 50; trial++ {
		read := dna.RandomSeq(rng, 100)
		k := rng.Intn(8)
		ref := dna.MutateSubstitutions(rng, read, k)
		d := kern.Filter(read, ref, 10)
		if d.Estimate > 2*k+2 {
			t.Fatalf("estimate %d wildly above %d substitutions", d.Estimate, k)
		}
		if d.Estimate < 0 {
			t.Fatal("negative estimate")
		}
	}
}

// TestGateKeeperWrapperConcurrent is the -race regression for the formerly
// unguarded gateKeeper kernel cache: many goroutines hammer ONE wrapper with
// mixed read lengths (growing the length-keyed cache) and growing thresholds
// (forcing GrowMaxE on cached kernels) at once.
func TestGateKeeperWrapperConcurrent(t *testing.T) {
	g := NewGateKeeperGPU()
	lengths := []int{33, 64, 100, 150, 250}
	var wg sync.WaitGroup
	for worker := 0; worker < 8; worker++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for iter := 0; iter < 40; iter++ {
				L := lengths[iter%len(lengths)]
				e := 1 + iter%12 // climbs past earlier maxE values → GrowMaxE
				read := dna.RandomSeq(rng, L)
				if d := g.Filter(read, read, e); !d.Accept || d.Estimate != 0 {
					t.Errorf("identical pair (L=%d e=%d) rejected: %+v", L, e, d)
					return
				}
				far := dna.RandomSeq(rng, L)
				g.Filter(read, far, e)
			}
		}(int64(worker))
	}
	wg.Wait()
}
