// Package bitvec implements the word-array bitvector machinery of the
// GateKeeper-GPU kernel. The FPGA original manipulates one arbitrarily long
// register per sequence; a GPU (and this Go port) instead holds an array of
// machine words, so every bitwise shift must transfer carry bits between
// adjacent array elements (paper Section 3.4: "logical shift operations
// produce incorrect bits between array's elements. For correcting these
// bits, we apply carry-bit transfers"). In the plane kernel that correction is
// Window's: 64 columns at any bit offset, stitched from the two words they
// straddle.
//
// Where the paper's CUDA kernel uses 32-bit words, this port uses 64-bit
// words: word width is the central throughput lever of the bit-parallel
// design. The original 32-bit layout is preserved in internal/ref32 as the
// differential reference model the property and fuzz tests compare against.
//
// Three representations appear here:
//
//   - bit planes: a sequence as two bit vectors, the low and the high bit of
//     each base's 2-bit code, 64 bases per word (dna.TryEncodePlanes' layout).
//     This is what the filtration kernel computes in and what a loaded
//     reference keeps resident: a raw mismatch word is one XOR per plane and
//     one OR, and a candidate window or a shifted read is a 64-column Window
//     read at a bit offset — nothing is shifted, extracted or collapsed.
//   - encoded vectors: 2 bits per base interleaved, 32 bases per word
//     (dna.Encode's layout): the host-encoded pipeline's transfer format.
//     Deinterleave turns one into planes; the carry-transfer shifts, XorInto
//     and Collapse work in this domain for the mask trace.
//   - character masks: 1 bit per base, 64 bases per word — a plane-domain
//     XOR/OR result, or an encoded-domain XOR collapsed pair by pair with OR
//     ("every two-bit is combined with bitwise OR to simplify the
//     differences").
//
// Bit order is little-endian throughout: base i of a plane or a mask lives at
// bit i%64 of word i/64; base i of an encoded vector at bits [2i mod 64,
// 2i mod 64 + 1] of word i/32. Carry-transfer semantics are unchanged from
// the 32-bit layout — a shift by k characters moves 2k bits through the
// array, pulling the bits the per-word shift pushed out of each neighbouring
// element — there are simply half as many element boundaries to correct.
//
// Amendment is local: an amended bit depends on the raw bits at columns
// i-3 … i+3 and no others (pass 1 reads one column to each side; pass 2 reads
// pass-1 bits up to two columns away). Amend works on whole masks; the kernel
// relies on the same bound to amend a 56-column block inside one register
// with four guard columns on each side.
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

// ShiftCharsUp writes into dst the encoded vector src shifted k characters
// towards higher positions (dst base i = src base i-k; the k lowest bases are
// vacated as zeros). This is the "deletion" shift of the GateKeeper loop.
// dst and src must have equal length; aliasing dst==src is not supported.
func ShiftCharsUp(dst, src []uint64, k int) {
	shiftBitsUp(dst, src, uint(2*k))
}

// ShiftCharsDown writes into dst the encoded vector src shifted k characters
// towards lower positions (dst base i = src base i+k; the k highest bases are
// vacated as zeros). This is the "insertion" shift of the GateKeeper loop.
func ShiftCharsDown(dst, src []uint64, k int) {
	shiftBitsDown(dst, src, uint(2*k))
}

// shiftBitsUp performs a little-endian left shift by n bits across the word
// array, applying the carry-bit transfer from each lower word into its upper
// neighbour — one carry operation per word boundary, exactly the correction
// the paper describes for the GPU port.
func shiftBitsUp(dst, src []uint64, n uint) {
	wordShift := int(n / 64)
	bitShift := n % 64
	for i := len(dst) - 1; i >= 0; i-- {
		var w uint64
		if j := i - wordShift; j >= 0 {
			w = src[j] << bitShift
			// Carry-bit transfer: pull the bits that the per-word shift
			// pushed out of the previous array element.
			if bitShift != 0 && j-1 >= 0 {
				w |= src[j-1] >> (64 - bitShift)
			}
		}
		dst[i] = w
	}
}

// shiftBitsDown performs a little-endian right shift by n bits across the
// word array with carry-bit transfers from each upper word into its lower
// neighbour.
func shiftBitsDown(dst, src []uint64, n uint) {
	wordShift := int(n / 64)
	bitShift := n % 64
	for i := 0; i < len(dst); i++ {
		var w uint64
		if j := i + wordShift; j < len(src) {
			w = src[j] >> bitShift
			if bitShift != 0 && j+1 < len(src) {
				w |= src[j+1] << (64 - bitShift)
			}
		}
		dst[i] = w
	}
}

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
// of the read exactly as the carry-transfer shifts did.
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

// XorInto writes a^b into dst; all three slices must have equal length.
func XorInto(dst, a, b []uint64) {
	for i := range dst {
		dst[i] = a[i] ^ b[i]
	}
}

// AndInto writes a&b into dst.
func AndInto(dst, a, b []uint64) {
	for i := range dst {
		dst[i] = a[i] & b[i]
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

// CollapsePair reduces two adjacent encoded-domain XOR words (2 bits per
// base, 64 bases total) to one character-mask word: mask bit i = OR of the
// two bits encoding base i. lo carries bases 0-31 of the mask word, hi bases
// 32-63. This is the single-word primitive behind Collapse.
func CollapsePair(lo, hi uint64) uint64 {
	return extractEven(lo|lo>>1) | extractEven(hi|hi>>1)<<32
}

// Collapse reduces an encoded-domain XOR result (2 bits per base) to a
// character mask (1 bit per base). dst must have MaskWords(n) words for
// n = 32*len(src) bases.
func Collapse(dst, src []uint64) {
	for m := range dst {
		lo2 := 2 * m
		var low, high uint64
		if lo2 < len(src) {
			low = src[lo2]
		}
		if lo2+1 < len(src) {
			high = src[lo2+1]
		}
		dst[m] = CollapsePair(low, high)
	}
}

// SetLeadingOnes forces the k lowest mask bits to 1. GateKeeper-GPU applies
// this to each k-shifted deletion mask so the positions vacated by the shift
// read as potential errors instead of silently matching (the Figure 2
// accuracy fix).
func SetLeadingOnes(mask []uint64, k int) {
	for i := 0; i < len(mask) && k > 0; i++ {
		if k >= 64 {
			mask[i] = ^uint64(0)
			k -= 64
			continue
		}
		mask[i] |= (uint64(1) << uint(k)) - 1
		return
	}
}

// SetTrailingOnes forces the k highest in-range mask bits to 1 for a mask of
// n bases — the insertion-mask counterpart of SetLeadingOnes.
func SetTrailingOnes(mask []uint64, n, k int) {
	if k > n {
		k = n
	}
	for pos := n - k; pos < n; {
		w := pos / 64
		b := uint(pos % 64)
		// Set bits [b, min(64, b + remaining)) of word w in one OR.
		remaining := n - pos
		width := 64 - int(b)
		if width > remaining {
			width = remaining
		}
		var m uint64
		if width >= 64 {
			m = ^uint64(0)
		} else {
			m = ((uint64(1) << uint(width)) - 1) << b
		}
		mask[w] |= m
		pos += width
	}
}

// ClearLeading zeroes the k lowest mask bits. SHD and the original
// GateKeeper explicitly zero the region a shift vacates, which is exactly
// the accuracy flaw Figure 2 illustrates: those zeros dominate the final AND
// and hide genuine edge mismatches.
func ClearLeading(mask []uint64, k int) {
	for i := 0; i < len(mask) && k > 0; i++ {
		if k >= 64 {
			mask[i] = 0
			k -= 64
			continue
		}
		mask[i] &^= (uint64(1) << uint(k)) - 1
		return
	}
}

// ClearTrailing zeroes the k highest in-range mask bits for a mask of n
// bases — the insertion-mask counterpart of ClearLeading.
func ClearTrailing(mask []uint64, n, k int) {
	if k > n {
		k = n
	}
	for pos := n - k; pos < n; {
		w := pos / 64
		b := uint(pos % 64)
		remaining := n - pos
		width := 64 - int(b)
		if width > remaining {
			width = remaining
		}
		var m uint64
		if width >= 64 {
			m = ^uint64(0)
		} else {
			m = ((uint64(1) << uint(width)) - 1) << b
		}
		mask[w] &^= m
		pos += width
	}
}

// ClearTail zeroes every mask bit at position >= n so padding never leaks
// into amendment or error counting.
func ClearTail(mask []uint64, n int) {
	w := n / 64
	b := uint(n % 64)
	if w < len(mask) && b != 0 {
		mask[w] &= (uint64(1) << b) - 1
		w++
	}
	for ; w < len(mask); w++ {
		mask[w] = 0
	}
}

// Amend turns short streaks of 0s (length 1 or 2) that are flanked by 1s
// into 1s, writing the result to dst. The hardware performs this with 4-bit
// LUT windows; the effect is identical: without amendment the final AND
// across masks would let a dominant 0 in one mask hide a genuine mismatch
// signalled by every other mask.
//
// The kernel performs this same amendment per block, in a register; this
// slice form remains for the trace path and as the oracle its tests check
// against.
func Amend(dst, src []uint64, n int) {
	up1 := make([]uint64, len(src))
	dn1 := make([]uint64, len(src))
	dn2 := make([]uint64, len(src))
	// Pass 1: fill isolated single zeros: bit i set when src[i-1] and
	// src[i+1] are both 1.
	shiftBitsUp(up1, src, 1)
	shiftBitsDown(dn1, src, 1)
	for i := range dst {
		dst[i] = src[i] | (up1[i] & dn1[i])
	}
	// Pass 2: fill double zeros: positions i and i+1 are zero with 1s at
	// i-1 and i+2. pair bit i = dst[i-1] & dst[i+2].
	shiftBitsUp(up1, dst, 1)
	shiftBitsDown(dn2, dst, 2)
	for i := range dn1 {
		dn1[i] = up1[i] & dn2[i] // pair start positions
	}
	shiftBitsUp(dn2, dn1, 1) // second position of each pair
	for i := range dst {
		dst[i] |= dn1[i] | dn2[i]
	}
	ClearTail(dst, n)
}

// CountRuns returns the number of maximal runs of consecutive 1s within the
// first n positions, using the run-start identity popcount(m &^ (m << 1)).
// Each run approximates one edit after amendment, which is how the kernel
// estimates the edit distance.
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
// contain at least one set bit — CountWindowsLUT's per-word kernel, exposed
// for the filtration loop (a word holds 16 aligned windows, a kernel block's
// payload 14, so the whole-mask count is the sum of per-word counts).
//
//gk:noalloc
func CountWindowsWord(w uint64) int {
	t := w | w>>1
	t |= t >> 2
	t &= 0x1111111111111111
	return bits.OnesCount64(t)
}

// CountWindowsLUT is the GateKeeper error counter: the final bitvector is
// walked in non-overlapping 4-bit windows and each window containing at
// least one 1 counts as one error ("the errors are counted by following a
// window approach with a look-up table"). Isolated mismatches cost exactly
// one error each, while the dense 1-regions a dissimilar pair produces cost
// ~n/4 errors — which is what keeps the filter discriminating at high
// error thresholds (Section 5.1's "filtering still continues to serve").
func CountWindowsLUT(mask []uint64, n int) int {
	total := 0
	full := n / 64
	for i := 0; i < full; i++ {
		total += CountWindowsWord(mask[i])
	}
	if rem := uint(n % 64); rem != 0 {
		total += CountWindowsWord(mask[full] & ((uint64(1) << rem) - 1))
	}
	return total
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

// Bit reports whether mask bit i is set.
func Bit(mask []uint64, i int) bool {
	return mask[i/64]>>(uint(i%64))&1 == 1
}

// String renders the first n bits of a mask as a '0'/'1' string, position 0
// first — handy for tests and the worked Figure 2/3 examples.
func String(mask []uint64, n int) string {
	out := make([]byte, n)
	for i := 0; i < n; i++ {
		if Bit(mask, i) {
			out[i] = '1'
		} else {
			out[i] = '0'
		}
	}
	return string(out)
}
