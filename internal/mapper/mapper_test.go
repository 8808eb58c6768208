package mapper

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/cuda"
	"repro/internal/dna"
	"repro/internal/gkgpu"
	"repro/internal/simdata"
)

func testGenome(n int) []byte {
	cfg := simdata.DefaultGenomeConfig(n)
	cfg.NRate = 0.0001
	return simdata.Genome(cfg)
}

func TestIndexLookupFindsEveryPosition(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ref := dna.RandomSeq(rng, 5000)
	idx, err := NewIndex(ref, 13)
	if err != nil {
		t.Fatal(err)
	}
	for _, pos := range []int{0, 1, 100, 2500, 5000 - 13} {
		hits := idx.Lookup(ref[pos : pos+13])
		found := false
		for _, h := range hits {
			if int(h) == pos {
				found = true
			}
		}
		if !found {
			t.Fatalf("position %d not found by its own k-mer", pos)
		}
	}
	if idx.K() != 13 {
		t.Fatal("K accessor")
	}
	if idx.DistinctKmers() == 0 {
		t.Fatal("no k-mers indexed")
	}
}

func TestIndexSkipsN(t *testing.T) {
	ref := []byte(strings.Repeat("ACGT", 10) + "N" + strings.Repeat("ACGT", 10))
	idx, err := NewIndex(ref, 8)
	if err != nil {
		t.Fatal(err)
	}
	// Windows overlapping the N must not be indexed: looking up a window
	// that would span it finds only clean copies.
	if hits := idx.Lookup([]byte("NACGTACG")); hits != nil {
		t.Fatal("lookup with N returned hits")
	}
}

func TestIndexValidation(t *testing.T) {
	if _, err := NewIndex([]byte("ACGT"), 13); err == nil {
		t.Fatal("reference shorter than seed accepted")
	}
	if _, err := NewIndex(make([]byte, 100), 7); err == nil {
		t.Fatal("seed length below 8 accepted")
	}
	if _, err := NewIndex(make([]byte, 100), 17); err == nil {
		t.Fatal("seed length above 16 accepted")
	}
}

func TestMapperFindsTrueLocations(t *testing.T) {
	g := testGenome(300_000)
	reads, err := simdata.SimulateReads(g, simdata.Illumina100, 150, 2)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(g, Config{ReadLen: 100, MaxE: 5})
	if err != nil {
		t.Fatal(err)
	}
	seqs := make([][]byte, len(reads))
	for i, r := range reads {
		seqs[i] = r.Seq
	}
	mappings, st, err := m.MapReads(seqs, 5)
	if err != nil {
		t.Fatal(err)
	}
	if st.Reads != 150 {
		t.Fatalf("Reads = %d", st.Reads)
	}
	// Every read whose true window is within threshold must be mapped at
	// (or very near) its origin.
	byRead := map[int][]Mapping{}
	for _, mp := range mappings {
		byRead[mp.ReadID] = append(byRead[mp.ReadID], mp)
	}
	missed := 0
	for i, r := range reads {
		if dna.HasN(r.Seq) {
			continue
		}
		found := false
		for _, mp := range byRead[i] {
			if abs(mp.Pos-r.TruePos) <= 5 {
				found = true
			}
		}
		if !found {
			missed++
		}
	}
	if missed > 8 { // a few reads legitimately exceed the threshold
		t.Errorf("%d/150 reads not mapped near their origin", missed)
	}
	if st.Mappings == 0 || st.MappedReads == 0 || st.CandidatePairs == 0 {
		t.Fatalf("counters empty: %+v", st)
	}
	if st.VerificationPairs != st.CandidatePairs {
		t.Fatal("without a filter, every candidate must be verified")
	}
}

func TestMapperWithGPUFilterSameMappings(t *testing.T) {
	// The headline integration claim (Table 3): with GateKeeper-GPU the
	// mapper reports the same mappings while verifying far fewer pairs.
	g := testGenome(200_000)
	reads, err := simdata.SimulateReads(g, simdata.Illumina100, 120, 3)
	if err != nil {
		t.Fatal(err)
	}
	seqs := make([][]byte, len(reads))
	for i, r := range reads {
		seqs[i] = r.Seq
	}

	plain, err := New(g, Config{ReadLen: 100, MaxE: 5})
	if err != nil {
		t.Fatal(err)
	}
	baseMappings, baseStats, err := plain.MapReads(seqs, 5)
	if err != nil {
		t.Fatal(err)
	}

	ctx := cuda.NewUniformContext(1, cuda.GTX1080Ti())
	eng, err := gkgpu.NewEngine(gkgpu.Config{ReadLen: 100, MaxE: 5, MaxBatchPairs: 4096}, ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	filtered, err := New(g, Config{ReadLen: 100, MaxE: 5, Filter: eng})
	if err != nil {
		t.Fatal(err)
	}
	filtMappings, filtStats, err := filtered.MapReads(seqs, 5)
	if err != nil {
		t.Fatal(err)
	}

	if len(filtMappings) != len(baseMappings) {
		t.Fatalf("filter changed mapping count: %d vs %d", len(filtMappings), len(baseMappings))
	}
	for i := range filtMappings {
		if filtMappings[i] != baseMappings[i] {
			t.Fatalf("mapping %d differs: %+v vs %+v", i, filtMappings[i], baseMappings[i])
		}
	}
	if filtStats.VerificationPairs >= baseStats.VerificationPairs {
		t.Fatalf("filter did not reduce verification pairs: %d vs %d",
			filtStats.VerificationPairs, baseStats.VerificationPairs)
	}
	if filtStats.RejectedPairs == 0 {
		t.Fatal("filter rejected nothing")
	}
	if filtStats.RejectedPairs+filtStats.VerificationPairs != filtStats.CandidatePairs {
		t.Fatal("candidate accounting does not add up")
	}
	if filtStats.Reduction() <= 0 {
		t.Fatal("reduction not positive")
	}
	if filtStats.FilterKernelModel <= 0 || filtStats.FilterModelSeconds <= 0 {
		t.Fatal("modelled filter times not captured")
	}
}

func TestMapperBatchingInvariance(t *testing.T) {
	g := testGenome(120_000)
	reads, err := simdata.SimulateReads(g, simdata.Illumina100, 60, 4)
	if err != nil {
		t.Fatal(err)
	}
	seqs := make([][]byte, len(reads))
	for i, r := range reads {
		seqs[i] = r.Seq
	}
	var prev []Mapping
	for _, batch := range []int{7, 25, 1000} {
		m, err := New(g, Config{ReadLen: 100, MaxE: 4, MaxReadsPerBatch: batch})
		if err != nil {
			t.Fatal(err)
		}
		mappings, _, err := m.MapReads(seqs, 4)
		if err != nil {
			t.Fatal(err)
		}
		if prev != nil {
			if len(mappings) != len(prev) {
				t.Fatalf("batch=%d changed mapping count", batch)
			}
			for i := range mappings {
				if mappings[i] != prev[i] {
					t.Fatalf("batch=%d mapping %d differs", batch, i)
				}
			}
		}
		prev = mappings
	}
}

func TestMapperValidation(t *testing.T) {
	g := testGenome(50_000)
	if _, err := New(g, Config{ReadLen: 0, MaxE: 2}); err == nil {
		t.Fatal("zero read length accepted")
	}
	if _, err := New(g, Config{ReadLen: 100, MaxE: 100}); err == nil {
		t.Fatal("e >= L accepted")
	}
	if _, err := New(g, Config{ReadLen: 10, MaxE: 2, SeedLen: 13}); err == nil {
		t.Fatal("seed longer than read accepted")
	}
	if _, err := New(g, Config{ReadLen: 100, MaxE: 3, MaxReadsPerBatch: -5}); err == nil {
		t.Fatal("negative slab size accepted")
	}
	m, err := New(g, Config{ReadLen: 100, MaxE: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.MapReads([][]byte{make([]byte, 50)}, 3); err == nil {
		t.Fatal("wrong-length read accepted")
	}
	if _, _, err := m.MapReads(nil, 4); err == nil {
		t.Fatal("threshold above MaxE accepted")
	}
}

func TestMapperExactReadsAtEZero(t *testing.T) {
	g := testGenome(80_000)
	rng := rand.New(rand.NewSource(5))
	var seqs [][]byte
	var truth []int
	for i := 0; i < 40; i++ {
		pos := rng.Intn(len(g) - 100)
		window := g[pos : pos+100]
		if dna.HasN(window) {
			continue
		}
		seqs = append(seqs, append([]byte(nil), window...))
		truth = append(truth, pos)
	}
	m, err := New(g, Config{ReadLen: 100, MaxE: 2})
	if err != nil {
		t.Fatal(err)
	}
	mappings, st, err := m.MapReads(seqs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.MappedReads != int64(len(seqs)) {
		t.Fatalf("only %d/%d exact reads mapped", st.MappedReads, len(seqs))
	}
	for _, mp := range mappings {
		if mp.Distance != 0 {
			t.Fatalf("exact read mapped with distance %d", mp.Distance)
		}
	}
	_ = truth
}

func TestMapperBothStrands(t *testing.T) {
	g := testGenome(100_000)
	rng := rand.New(rand.NewSource(9))
	// Half the reads come from the reverse strand.
	var seqs [][]byte
	var wantReverse []bool
	for i := 0; i < 40; i++ {
		pos := rng.Intn(len(g) - 100)
		window := g[pos : pos+100]
		if dna.HasN(window) {
			continue
		}
		read := dna.MutateSubstitutions(rng, window, 2)
		if i%2 == 1 {
			read = dna.ReverseComplement(read)
			wantReverse = append(wantReverse, true)
		} else {
			wantReverse = append(wantReverse, false)
		}
		seqs = append(seqs, read)
	}

	// Forward-only mapping misses the reverse-strand reads.
	fwd, err := New(g, Config{ReadLen: 100, MaxE: 4})
	if err != nil {
		t.Fatal(err)
	}
	_, fwdStats, err := fwd.MapReads(seqs, 4)
	if err != nil {
		t.Fatal(err)
	}

	both, err := New(g, Config{ReadLen: 100, MaxE: 4, BothStrands: true})
	if err != nil {
		t.Fatal(err)
	}
	mappings, bothStats, err := both.MapReads(seqs, 4)
	if err != nil {
		t.Fatal(err)
	}
	if bothStats.MappedReads != int64(len(seqs)) {
		t.Fatalf("both-strand mapping mapped %d/%d reads", bothStats.MappedReads, len(seqs))
	}
	if fwdStats.MappedReads >= bothStats.MappedReads {
		t.Fatalf("forward-only (%d) should map fewer reads than both-strand (%d)",
			fwdStats.MappedReads, bothStats.MappedReads)
	}
	// Reverse-origin reads must carry Reverse mappings.
	byRead := map[int]bool{}
	for _, mp := range mappings {
		if mp.Reverse {
			byRead[mp.ReadID] = true
		}
	}
	for i, rev := range wantReverse {
		if rev && !byRead[i] {
			t.Errorf("read %d from the reverse strand has no reverse mapping", i)
		}
	}
}

func TestMapperBothStrandsWithGPUFilter(t *testing.T) {
	g := testGenome(60_000)
	rng := rand.New(rand.NewSource(10))
	var seqs [][]byte
	for i := 0; i < 20; i++ {
		pos := rng.Intn(len(g) - 100)
		window := g[pos : pos+100]
		if dna.HasN(window) {
			continue
		}
		read := dna.MutateSubstitutions(rng, window, 2)
		if i%2 == 1 {
			read = dna.ReverseComplement(read)
		}
		seqs = append(seqs, read)
	}
	ctx := cuda.NewUniformContext(1, cuda.GTX1080Ti())
	eng, err := gkgpu.NewEngine(gkgpu.Config{ReadLen: 100, MaxE: 4, MaxBatchPairs: 4096}, ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	m, err := New(g, Config{ReadLen: 100, MaxE: 4, BothStrands: true, Filter: eng})
	if err != nil {
		t.Fatal(err)
	}
	_, st, err := m.MapReads(seqs, 4)
	if err != nil {
		t.Fatal(err)
	}
	if st.MappedReads != int64(len(seqs)) {
		t.Fatalf("filtered both-strand mapping mapped %d/%d reads", st.MappedReads, len(seqs))
	}
}

func TestSAMReverseFlag(t *testing.T) {
	reads := [][]byte{[]byte("ACGTACGT")}
	mappings := []Mapping{{ReadID: 0, Pos: 10, Distance: 0, Reverse: true}}
	var buf bytes.Buffer
	if err := WriteSAM(&buf, SingleContig("chr", make([]byte, 100)), nil, reads, mappings); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "read0\t16\tchr") {
		t.Fatalf("reverse flag missing:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "ACGTACGT") { // palindromic revcomp here
		t.Fatal("sequence missing")
	}
}

func TestMapperTracebackCIGAR(t *testing.T) {
	g := testGenome(80_000)
	reads, err := simdata.SimulateReads(g, simdata.Illumina100, 40, 6)
	if err != nil {
		t.Fatal(err)
	}
	seqs := make([][]byte, len(reads))
	for i, r := range reads {
		seqs[i] = r.Seq
	}
	m, err := New(g, Config{ReadLen: 100, MaxE: 4, Traceback: true})
	if err != nil {
		t.Fatal(err)
	}
	mappings, _, err := m.MapReads(seqs, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(mappings) == 0 {
		t.Fatal("no mappings")
	}
	for _, mp := range mappings {
		if mp.CIGAR == "" {
			t.Fatalf("mapping without CIGAR: %+v", mp)
		}
		if mp.Distance == 0 && mp.CIGAR != "100M" {
			t.Fatalf("exact mapping with CIGAR %s", mp.CIGAR)
		}
	}
	// Distances must agree with the non-traceback run.
	plain, err := New(g, Config{ReadLen: 100, MaxE: 4})
	if err != nil {
		t.Fatal(err)
	}
	plainMappings, _, err := plain.MapReads(seqs, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(plainMappings) != len(mappings) {
		t.Fatalf("traceback changed mapping count: %d vs %d", len(mappings), len(plainMappings))
	}
	for i := range mappings {
		if mappings[i].Distance != plainMappings[i].Distance ||
			mappings[i].Pos != plainMappings[i].Pos {
			t.Fatalf("traceback changed mapping %d", i)
		}
	}
}

func TestWriteSAM(t *testing.T) {
	reads := [][]byte{[]byte("ACGTACGT")}
	mappings := []Mapping{{ReadID: 0, Pos: 41, Distance: 2}}
	chrSim := SingleContig("chrSim", make([]byte, 1000))
	var buf bytes.Buffer
	if err := WriteSAM(&buf, chrSim, nil, reads, mappings); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"@SQ\tSN:chrSim\tLN:1000", "read0\t0\tchrSim\t42\t255\t8M", "NM:i:2"} {
		if !strings.Contains(out, want) {
			t.Fatalf("SAM output missing %q:\n%s", want, out)
		}
	}
	if err := WriteSAM(&buf, chrSim, nil, reads, []Mapping{{ReadID: 5}}); err == nil {
		t.Fatal("dangling read ID accepted")
	}
	if err := WriteSAM(&buf, chrSim, nil, reads, []Mapping{{ReadID: 0, Contig: 3}}); err == nil {
		t.Fatal("dangling contig index accepted")
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
