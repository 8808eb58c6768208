package filter

import (
	"math/rand"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/dna"
	"repro/internal/ref32"
)

// embedded places ref as a window inside a longer random reference, encoded
// as resident planes (a zero word at each end), so FilterPlanes reads real
// neighbouring bases through its guard columns and beyond the window's end —
// the bits the kernel must mask out. It returns the planes and the window's
// bit offset in them.
func embedded(rng *rand.Rand, ref []byte) (lo, hi []uint64, off int) {
	before, after := rng.Intn(130), rng.Intn(130)
	long := append(append(dna.RandomSeq(rng, before), ref...), dna.RandomSeq(rng, after)...)
	n := bitvec.MaskWords(len(long))
	lo, hi = make([]uint64, n+2), make([]uint64, n+2)
	dna.TryEncodePlanes(lo[1:], hi[1:], long)
	return lo, hi, before + bitvec.CharsPerMaskWord
}

// filterEveryWay runs one pair through the kernel's three entry points — the
// raw bytes (FilterChecked), the interleaved adapter (FilterEncoded) and the
// plane core against a window embedded in a longer reference — and requires
// one answer.
func filterEveryWay(t *testing.T, rng *rand.Rand, kern *Kernel, read, ref []byte, e int) (int, bool) {
	t.Helper()
	d := kern.Filter(read, ref, e)
	readEnc, _ := dna.Encode(read)
	refEnc, _ := dna.Encode(ref)
	if est, acc := kern.FilterEncoded(readEnc, refEnc, e); est != d.Estimate || acc != d.Accept {
		t.Fatalf("L=%d e=%d: FilterEncoded (est=%d acc=%v) vs FilterChecked (est=%d acc=%v)\nread=%s\nref =%s",
			len(read), e, est, acc, d.Estimate, d.Accept, read, ref)
	}
	pw := bitvec.MaskWords(len(read))
	readLo, readHi := make([]uint64, pw), make([]uint64, pw)
	dna.TryEncodePlanes(readLo, readHi, read)
	refLo, refHi, off := embedded(rng, ref)
	if est, acc := kern.FilterPlanes(readLo, readHi, refLo, refHi, off, e); est != d.Estimate || acc != d.Accept {
		t.Fatalf("L=%d e=%d off=%d: FilterPlanes (est=%d acc=%v) vs FilterChecked (est=%d acc=%v)\nread=%s\nref =%s",
			len(read), e, off, est, acc, d.Estimate, d.Accept, read, ref)
	}
	return d.Estimate, d.Accept
}

// checkSealed asserts the sealed-estimate contract of the default kernel
// against the exact estimate: an accept's estimate lies in [exact, e], a
// reject's is a lower bound in (e, exact].
func checkSealed(t *testing.T, est int, accept bool, exact, e int) {
	t.Helper()
	if accept && (est < exact || est > e) {
		t.Fatalf("sealed accept estimate %d outside [exact=%d, e=%d]", est, exact, e)
	}
	if !accept && (est <= e || est > exact) {
		t.Fatalf("sealed reject estimate %d outside (e=%d, exact=%d]", est, e, exact)
	}
}

// blockSeamPair builds the trial-th pair of a geometry: pairs within, at and
// beyond the threshold, with the differences steered onto the places the
// block kernel can get wrong — the first and last columns (edge spans), the
// columns either side of each 56-column seam (guards), and long indel-shifted
// stretches (shifts that cross a word and a block).
func blockSeamPair(rng *rand.Rand, L, e, trial int) (read, ref []byte) {
	read = dna.RandomSeq(rng, L)
	switch trial % 6 {
	case 0: // substitutions on and around every block seam
		ref = append([]byte(nil), read...)
		for seam := blockCols; seam < L; seam += blockCols {
			for _, c := range []int{seam - 3, seam - 1, seam, seam + 2} {
				if c < L && rng.Intn(2) == 0 {
					ref[c] = dna.Alphabet[rng.Intn(4)]
				}
			}
		}
	case 1: // an indel near the start: everything after it is shifted
		ref = fitLength(rng, dna.ApplyEdits(read, dna.RandomEdits(rng, min(L, 8), 1+rng.Intn(e+1), 1)), L)
	case 2: // scattered edits, about the threshold
		ref = fitLength(rng, dna.ApplyEdits(read, dna.RandomEdits(rng, L, rng.Intn(e+3), 0.5)), L)
	case 3: // differences in the first and last e columns only
		ref = append([]byte(nil), read...)
		for c := 0; c < min(e, L); c++ {
			if rng.Intn(2) == 0 {
				ref[c] = dna.Alphabet[rng.Intn(4)]
			}
			if rng.Intn(2) == 0 {
				ref[L-1-c] = dna.Alphabet[rng.Intn(4)]
			}
		}
	case 4:
		ref = dna.MutateSubstitutions(rng, read, rng.Intn(L/4+1))
	default:
		ref = dna.RandomSeq(rng, L)
	}
	return read, ref
}

// fitLength trims or pads (with random bases) seq to n bases.
func fitLength(rng *rand.Rand, seq []byte, n int) []byte {
	out := make([]byte, n)
	for i := copy(out, seq); i < n; i++ {
		out[i] = dna.Alphabet[rng.Intn(4)]
	}
	return out
}

// TestBlockGeometryIdentity walks the block kernel's geometry — read lengths
// on both sides of every word and block boundary, thresholds whose shifts
// stay inside a block, cross one, and exceed it, edge spans wider than a
// block — and holds kernel = charModel = ref32: the decision always, the
// estimate in exact mode, in both modes and under both ablations, on all
// three entry points.
func TestBlockGeometryIdentity(t *testing.T) {
	lengths := []int{1, 2, 3, 4, 5, 6, 7, 8, 55, 56, 57, 59, 60, 61, 63, 64, 65,
		111, 112, 113, 128, 167, 168, 169, 250, 300}
	rng := rand.New(rand.NewSource(15))
	for _, L := range lengths {
		seen := map[int]bool{}
		for _, e := range []int{0, 1, 3, 4, 5, 59, 60, 61, L / 10, L} {
			if e > L || seen[e] {
				continue
			}
			seen[e] = true
			for _, mode := range []Mode{ModeGPU, ModeFPGA} {
				for _, abl := range []Ablation{{}, {SkipAmendment: true}, {CountRuns: true}} {
					exact := NewKernel(mode, L, e)
					exact.SetExactEstimate(true)
					exact.SetAblation(abl)
					def := NewKernel(mode, L, e)
					def.SetAblation(abl)
					r32 := ref32.NewKernel(mode == ModeGPU, L)
					r32.SkipAmendment, r32.CountRuns = abl.SkipAmendment, abl.CountRuns
					for trial := 0; trial < 12; trial++ {
						read, ref := blockSeamPair(rng, L, e, trial)
						wantEst, wantAccept := r32.Filter(read, ref, e)
						if abl == (Ablation{}) {
							if m := charModel(mode, read, ref, e); m.estimate != wantEst || m.accept != wantAccept {
								t.Fatalf("L=%d e=%d mode=%v: charModel (est=%d acc=%v) vs ref32 (est=%d acc=%v)",
									L, e, mode, m.estimate, m.accept, wantEst, wantAccept)
							}
						}
						if est, acc := filterEveryWay(t, rng, exact, read, ref, e); est != wantEst || acc != wantAccept {
							t.Fatalf("L=%d e=%d mode=%v abl=%+v: exact kernel (est=%d acc=%v) vs ref32 (est=%d acc=%v)\nread=%s\nref =%s",
								L, e, mode, abl, est, acc, wantEst, wantAccept, read, ref)
						}
						est, acc := filterEveryWay(t, rng, def, read, ref, e)
						if acc != wantAccept {
							t.Fatalf("L=%d e=%d mode=%v abl=%+v: sealed decision %v, want %v\nread=%s\nref =%s",
								L, e, mode, abl, acc, wantAccept, read, ref)
						}
						if abl.CountRuns {
							if est != wantEst { // run counting takes no early exit
								t.Fatalf("L=%d e=%d: CountRuns estimate %d, want %d", L, e, est, wantEst)
							}
						} else {
							checkSealed(t, est, acc, wantEst, e)
						}
					}
				}
			}
		}
	}
}
