package filter

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/align"
	"repro/internal/bitvec"
	"repro/internal/dna"
	"repro/internal/ref32"
)

// FuzzKernelFilterEncoded drives the improved GateKeeper kernel with
// arbitrary sequence pairs and thresholds. The fuzzed invariants are the
// kernel's load-bearing guarantees: it must never panic for any geometry
// the engine can configure, and it must never falsely reject — a pair
// whose exact edit distance is within threshold always passes to
// verification (the paper's Section 5.1 invariant, here pushed beyond the
// curated datasets onto adversarial inputs). The raw-byte FilterChecked
// path, the interleaved adapter and the plane core (against a window embedded
// in a longer reference, the engines' form) must agree, and the block kernel
// must stay bit-identical to the retained 32-bit unfused chain
// (internal/ref32), itself equal to the per-character model Trace renders
// (charModel): same decision always, same estimate in exact-estimate mode,
// and a sealed estimate on the right side of the exact one — an accept's in
// [exact, e], a reject's in (e, exact].
func FuzzKernelFilterEncoded(f *testing.F) {
	f.Add([]byte("ACGTACGTACGTACGTACGT"), []byte("ACGTACGTACGAACGTACGT"), uint8(2))
	f.Add([]byte("AAAAAAAAAAAAAAAAA"), []byte("TTTTTTTTTTTTTTTTT"), uint8(0))
	f.Add([]byte("ACACACACACACACACACACACACACACACAC"), []byte("CACACACACACACACACACACACACACACACA"), uint8(5))
	f.Add([]byte{0x00, 0xFF, 0x7F, 0x80, 0x01}, []byte{0xFF, 0x00, 0x80, 0x7F, 0x02}, uint8(9))
	// Block seams: a read one column past one, two and five 56-column
	// payloads, differing in the seam's guard columns; testdata/fuzz holds
	// more.
	for _, L := range []int{57, 113, 281} {
		read := bytes.Repeat([]byte("ACGGTCAT"), L/8+1)[:L]
		ref := append([]byte(nil), read...)
		for seam := blockCols; seam < L; seam += blockCols {
			ref[seam-1], ref[seam] = 'T', 'A'
		}
		f.Add(read, ref, uint8(L/20))
	}
	f.Fuzz(func(t *testing.T, rawRead, rawRef []byte, e8 uint8) {
		L := len(rawRead)
		if len(rawRef) < L {
			L = len(rawRef)
		}
		if L == 0 {
			return
		}
		if L > 300 {
			L = 300 // beyond the paper's longest reads; keeps iterations fast
		}
		// Map arbitrary bytes onto the alphabet so the pair is well formed;
		// the encoding layer's own 'N' handling is FuzzDNAEncodeRoundTrip's
		// business.
		read := make([]byte, L)
		ref := make([]byte, L)
		for i := 0; i < L; i++ {
			read[i] = dna.Alphabet[rawRead[i]&3]
			ref[i] = dna.Alphabet[rawRef[i]&3]
		}
		e := int(e8) % (L + 1)

		kern := NewKernel(ModeGPU, L, e)
		readEnc, err := dna.Encode(read)
		if err != nil {
			t.Fatal(err)
		}
		refEnc, err := dna.Encode(ref)
		if err != nil {
			t.Fatal(err)
		}
		est, accept := kern.FilterEncoded(readEnc, refEnc, e)
		if est < 0 {
			t.Fatalf("negative estimate %d", est)
		}
		if d := align.Distance(read, ref); d <= e && !accept {
			t.Fatalf("false reject: L=%d e=%d true distance %d estimate %d", L, e, d, est)
		}
		checked, err := kern.FilterChecked(read, ref, e)
		if err != nil {
			t.Fatalf("FilterChecked rejected kernel geometry: %v", err)
		}
		if checked.Accept != accept || checked.Estimate != est {
			t.Fatalf("raw-byte path drifted from encoded path: %+v vs est=%d accept=%v",
				checked, est, accept)
		}
		// The plane core where the engines call it: the window embedded in a
		// longer reference whose neighbouring bases the fuzzer also picks.
		rng := rand.New(rand.NewSource(int64(L)<<8 | int64(e8)))
		pw := bitvec.MaskWords(L)
		readLo, readHi := make([]uint64, pw), make([]uint64, pw)
		dna.TryEncodePlanes(readLo, readHi, read)
		refLo, refHi, off := embedded(rng, ref)
		if estP, accP := kern.FilterPlanes(readLo, readHi, refLo, refHi, off, e); estP != est || accP != accept {
			t.Fatalf("plane path (est=%d acc=%v, off=%d) drifted from encoded path (est=%d acc=%v)",
				estP, accP, off, est, accept)
		}

		// Differential against the retained 32-bit reference chain: the
		// default kernel's sealed decision must match, and the exact-mode
		// kernel must reproduce the estimate bit for bit.
		r32 := ref32.NewKernel(true, L)
		est32, acc32 := r32.Filter(read, ref, e)
		if acc32 != accept {
			t.Fatalf("64-bit decision %v diverged from 32-bit reference %v (L=%d e=%d est=%d est32=%d)",
				accept, acc32, L, e, est, est32)
		}
		if m := charModel(ModeGPU, read, ref, e); m.accept != acc32 || m.estimate != est32 {
			t.Fatalf("per-character model (est=%d acc=%v) diverged from 32-bit reference (est=%d acc=%v), L=%d e=%d",
				m.estimate, m.accept, est32, acc32, L, e)
		}
		exact := NewKernel(ModeGPU, L, e)
		exact.SetExactEstimate(true)
		estX, accX := exact.FilterEncoded(readEnc, refEnc, e)
		if accX != acc32 || estX != est32 {
			t.Fatalf("exact 64-bit (est=%d acc=%v) diverged from 32-bit reference (est=%d acc=%v), L=%d e=%d",
				estX, accX, est32, acc32, L, e)
		}
		checkSealed(t, est, accept, est32, e)
	})
}
