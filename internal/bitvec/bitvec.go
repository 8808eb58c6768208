// Package bitvec holds the word-level primitives of the GateKeeper-GPU
// kernel. The FPGA original manipulates one arbitrarily long register per
// sequence; a GPU (and this Go port) instead holds an array of machine words,
// so a shifted comparison must carry bits between adjacent array elements
// (paper Section 3.4: "logical shift operations produce incorrect bits between
// array's elements. For correcting these bits, we apply carry-bit transfers").
// Here that correction is Window's: 64 columns at any bit offset, stitched
// from the two words they straddle — nothing is shifted as a whole vector.
//
// Where the paper's CUDA kernel uses 32-bit words, this port uses 64-bit
// words: word width is the central throughput lever of the bit-parallel
// design. The original 32-bit layout, with its whole-vector carry-transfer
// shifts, is preserved in internal/ref32 as the differential reference model
// the property and fuzz tests compare against.
//
// What is here:
//
//   - bit planes: a sequence as two bit vectors, the low and the high bit of
//     each base's 2-bit code, 64 bases per word (dna.TryEncodePlanes' layout).
//     This is what the filtration kernel computes in and what a loaded
//     reference keeps resident: a raw mismatch word is one XOR per plane and
//     one OR, and a candidate window or a shifted read is a 64-column Window
//     (WindowZero for a plane with nothing around it) read at a bit offset.
//   - the interleaved transfer format: 2 bits per base, 32 bases per word
//     (dna.Encode's layout), which the host-encoded path moves between
//     buffers. Deinterleave turns it into planes; nothing computes in it.
//   - word-level counters over a character mask (1 bit per base, 64 bases per
//     word — a plane-domain XOR/OR result): CountWindowsWord and CountRunsLUT
//     for the kernel's estimate, LongestZeroRun for MAGNET's extraction.
//
// Bit order is little-endian throughout: base i of a plane or a mask lives at
// bit i%64 of word i/64; base i of an encoded vector at bits [2i mod 64,
// 2i mod 64 + 1] of word i/32.
//
// There are no whole-mask operations: the kernel amends, edge-forces and ANDs
// a 56-column block inside one register (an amended bit depends on the raw
// bits at columns i-3 … i+3 and no others, hence four guard columns on each
// side), and the readable form of the algorithm is filter.Trace's
// per-character model, which needs no words at all.
package bitvec

import "math/bits"

// CharsPerEncodedWord is the number of bases per encoded 64-bit word.
const CharsPerEncodedWord = 32

// CharsPerMaskWord is the number of bases per mask word.
const CharsPerMaskWord = 64

// EncodedWords returns the number of encoded words for n bases.
//
//gk:noalloc
func EncodedWords(n int) int { return (n + CharsPerEncodedWord - 1) / CharsPerEncodedWord }

// MaskWords returns the number of mask words — equally, of words per bit
// plane — for n bases.
//
//gk:noalloc
func MaskWords(n int) int { return (n + CharsPerMaskWord - 1) / CharsPerMaskWord }

// Window returns the 64 columns of plane p that start at bit offset off,
// stitched from the two words they straddle. The caller guarantees that word
// off/64+1 exists — resident planes carry a zero word at each end for exactly
// this — so the read is two loads and three shifts with no range test. This
// is how a filtration pulls its candidate reference segment out of the
// encoded reference in place ("each thread executes a single comparison,
// starting with extracting the relevant reference segment based on the
// index", Section 3.5): block by block, never as a copy.
//
//gk:noalloc
func Window(p []uint64, off int) uint64 {
	j, k := off>>6, uint(off&63)
	return p[j]>>k | p[j+1]<<1<<(63-k)
}

// WindowZero is Window for a plane with nothing around it: off may be any
// integer, and every column outside p reads as zero. The kernel reads the
// shifted read through it, so a shift brings in zeros from beyond either end
// of the read exactly as ref32's carry-transfer shifts do.
//
//gk:noalloc
func WindowZero(p []uint64, off int) uint64 {
	j, k := off>>6, uint(off&63)
	var lo, hi uint64
	if uint(j) < uint(len(p)) {
		lo = p[j]
	}
	if uint(j+1) < uint(len(p)) {
		hi = p[j+1]
	}
	return lo>>k | hi<<1<<(63-k)
}

// Deinterleave splits an encoded vector (2 bits per base, 32 bases per word)
// into its two bit planes (64 bases per word): lo takes the even bits, hi the
// odd ones. lo and hi must each hold MaskWords(32*len(enc)) words or fewer;
// encoded words beyond enc read as zero.
//
//gk:noalloc
func Deinterleave(lo, hi, enc []uint64) {
	for m := range lo {
		a := enc[2*m]
		var b uint64
		if 2*m+1 < len(enc) {
			b = enc[2*m+1]
		}
		lo[m] = extractEven(a) | extractEven(b)<<32
		hi[m] = extractEven(a>>1) | extractEven(b>>1)<<32
	}
}

// extractEven compresses the 32 even-indexed bits of x (bits 0,2,4,...,62)
// into the low 32 bits of the result, preserving order.
//
//gk:noalloc
func extractEven(x uint64) uint64 {
	x &= 0x5555555555555555
	x = (x | x>>1) & 0x3333333333333333
	x = (x | x>>2) & 0x0F0F0F0F0F0F0F0F
	x = (x | x>>4) & 0x00FF00FF00FF00FF
	x = (x | x>>8) & 0x0000FFFF0000FFFF
	x = (x | x>>16) & 0x00000000FFFFFFFF
	return x
}

// CountRuns returns the number of maximal runs of consecutive 1s within the
// first n positions, using the run-start identity popcount(m &^ (m << 1)).
// No filtration calls it: it is the independent expected value CountRunsLUT's
// tests compare against.
func CountRuns(mask []uint64, n int) int {
	total := 0
	var prevTop uint64 // bit 63 of the previous word
	full := n / 64
	for i := 0; i < full; i++ {
		m := mask[i]
		starts := m &^ (m<<1 | prevTop)
		total += bits.OnesCount64(starts)
		prevTop = m >> 63
	}
	if rem := uint(n % 64); rem != 0 {
		m := mask[full] & ((uint64(1) << rem) - 1)
		starts := m &^ (m<<1 | prevTop)
		total += bits.OnesCount64(starts)
	}
	return total
}

// lutRunStarts[prev][nibble] is the number of 1-runs beginning inside the
// 4-bit window given whether the bit preceding the window was set. It is the
// look-up table the hardware kernel walks ("the errors are counted by
// following a window approach with a look-up table").
var lutRunStarts [2][16]uint8

func init() {
	for prev := 0; prev < 2; prev++ {
		for nib := 0; nib < 16; nib++ {
			count := 0
			p := prev
			for b := 0; b < 4; b++ {
				cur := (nib >> uint(b)) & 1
				if cur == 1 && p == 0 {
					count++
				}
				p = cur
			}
			lutRunStarts[prev][nib] = uint8(count)
		}
	}
}

// CountRunsLUT is the hardware-faithful windowed error counter: it walks the
// mask in 4-bit windows consulting a LUT with a one-bit carry (whether the
// previous window ended inside a run). It must agree with CountRuns — the
// property tests assert this for every input.
//
//gk:noalloc
func CountRunsLUT(mask []uint64, n int) int {
	total := 0
	prev := 0
	for pos := 0; pos < n; pos += 4 {
		w := mask[pos/64]
		nib := int(w>>uint(pos%64)) & 0xF
		width := n - pos
		if width < 4 {
			nib &= (1 << uint(width)) - 1
		}
		total += int(lutRunStarts[prev][nib])
		if width >= 4 {
			prev = (nib >> 3) & 1
		} else {
			prev = (nib >> uint(width-1)) & 1
		}
	}
	return total
}

// CountWindowsWord returns the number of 4-bit windows of one mask word that
// contain at least one set bit. It is the GateKeeper error counter, a word at
// a time: the final bitvector is walked in non-overlapping 4-bit windows and
// each window containing at least one 1 counts as one error ("the errors are
// counted by following a window approach with a look-up table"). Isolated
// mismatches cost exactly one error each, while the dense 1-regions a
// dissimilar pair produces cost ~n/4 errors — which is what keeps the filter
// discriminating at high error thresholds (Section 5.1's "filtering still
// continues to serve"). A word holds 16 aligned windows, a kernel block's
// payload 14, so a whole mask's count is the sum of its words' counts.
//
//gk:noalloc
func CountWindowsWord(w uint64) int {
	t := w | w>>1
	t |= t >> 2
	t &= 0x1111111111111111
	return bits.OnesCount64(t)
}

// LongestZeroRun returns the start and length of the longest run of 0s
// within positions [lo, hi) of the mask; MAGNET's extraction step builds on
// this primitive. If the interval contains no zeros it returns (lo, 0).
//
// The scan is word-at-a-time: each 64-bit chunk is consumed by jumping over
// whole runs with trailing-zero counts instead of testing bits one by one,
// so a chunk costs one iteration per run transition rather than one per
// base. Runs crossing chunk boundaries are stitched by the open-run carry.
func LongestZeroRun(mask []uint64, lo, hi int) (start, length int) {
	bestStart, bestLen := lo, 0
	curStart, curLen := lo, 0
	for i := lo; i < hi; {
		w := i >> 6
		b := uint(i & 63)
		x := mask[w] >> b // bit p of x = mask position i+p
		n := 64 - int(b)  // valid bits in this chunk
		if i+n > hi {
			n = hi - i
		}
		pos := 0
		for pos < n {
			if (x>>uint(pos))&1 == 0 {
				z := bits.TrailingZeros64(x >> uint(pos)) // zero-run length (64 when chunk tail is all zeros)
				if z > n-pos {
					z = n - pos
				}
				if curLen == 0 {
					curStart = i + pos
				}
				curLen += z
				if curLen > bestLen {
					bestStart, bestLen = curStart, curLen
				}
				pos += z
			} else {
				o := bits.TrailingZeros64(^(x >> uint(pos))) // one-run length
				if o > n-pos {
					o = n - pos
				}
				curLen = 0
				pos += o
			}
		}
		i += n
	}
	return bestStart, bestLen
}
