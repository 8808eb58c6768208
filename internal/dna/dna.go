// Package dna provides DNA sequence primitives shared by every layer of the
// GateKeeper-GPU reproduction: 2-bit base encoding with the paper's code
// assignment (A=00, C=01, G=10, T=11), detection of unknown base calls
// ('N'), and small sequence utilities.
//
// The paper's CUDA kernel packs 16 bases per 32-bit word ("a 16-character
// window is encoded into an unsigned integer"). This port packs 32 bases
// per 64-bit word instead: word width is the throughput lever of the
// bit-parallel design, and doubling it halves both the word count of every
// bitvector operation and the number of carry-bit transfers per shift. The
// 32-bit layout is retained verbatim in internal/ref32 as the differential
// reference model. The filtration kernel itself computes on the same codes
// split into two bit planes, 64 bases per word (TryEncodePlanes).
package dna

import (
	"fmt"
	"math/bits"
)

// Base codes used by the 2-bit encoding (Section 3.3 of the paper).
const (
	CodeA = 0b00
	CodeC = 0b01
	CodeG = 0b10
	CodeT = 0b11
)

// BasesPerWord is the number of 2-bit encoded bases that fit in one 64-bit
// word: a 100bp read is represented as four words (the paper's 32-bit
// layout needed seven).
const BasesPerWord = 32

// Alphabet is the set of bases GateKeeper recognizes, in code order.
var Alphabet = [4]byte{'A', 'C', 'G', 'T'}

// codeTable maps an ASCII byte to its 2-bit code, or 0xFF for anything the
// filter does not recognize (including 'N').
var codeTable [256]byte

// complementTable maps an ASCII byte to its upper-case Watson-Crick
// complement, or 'N' for anything that is not a base.
var complementTable [256]byte

func init() {
	for i := range codeTable {
		codeTable[i] = 0xFF
		complementTable[i] = 'N'
	}
	for code, b := range Alphabet {
		codeTable[b] = byte(code)
		codeTable[b+'a'-'A'] = byte(code)
		complementTable[b] = Alphabet[3-code] // A<->T, C<->G: codes sum to 3
		complementTable[b+'a'-'A'] = Alphabet[3-code]
	}
}

// Code returns the 2-bit code for base b and whether b is a recognized base.
//
//gk:noalloc
func Code(b byte) (byte, bool) {
	c := codeTable[b]
	return c, c != 0xFF
}

// IsACGT reports whether b is one of the four recognized bases (either case).
//
//gk:noalloc
func IsACGT(b byte) bool { return codeTable[b] != 0xFF }

// HasN reports whether seq contains any unrecognized base call. Pairs with
// such bases are "undefined" in the paper's terms and bypass filtration.
func HasN(seq []byte) bool {
	for _, b := range seq {
		if codeTable[b] == 0xFF {
			return true
		}
	}
	return false
}

// WordsFor returns the number of 64-bit words needed to encode n bases.
//
//gk:noalloc
func WordsFor(n int) int { return (n + BasesPerWord - 1) / BasesPerWord }

// Encode packs seq into 2-bit codes, 32 bases per word. Base i occupies bits
// [2i mod 64, 2i mod 64 + 1] of word i/32 (little-endian within the word, so
// base 0 is the least significant pair of word 0). It returns an error if the
// sequence contains an unrecognized base; callers that must tolerate 'N'
// should check HasN first and route the pair around the filter, as
// GateKeeper-GPU does.
func Encode(seq []byte) ([]uint64, error) {
	words := make([]uint64, WordsFor(len(seq)))
	if err := EncodeInto(words, seq); err != nil {
		return nil, err
	}
	return words, nil
}

// EncodeInto is Encode writing into a caller-provided word buffer, which must
// hold at least WordsFor(len(seq)) words. Unused high bits of the final word
// are zeroed.
func EncodeInto(words []uint64, seq []byte) error {
	n := WordsFor(len(seq))
	if len(words) < n {
		return fmt.Errorf("dna: word buffer too small: have %d, need %d", len(words), n)
	}
	if i := TryEncodeInto(words, seq); i >= 0 {
		return fmt.Errorf("dna: unrecognized base %q at position %d", seq[i], i)
	}
	return nil
}

// TryEncodeInto is the hot-path form of EncodeInto: it packs seq into words
// (which must hold WordsFor(len(seq)) words) and returns -1 on success or
// the position of the first unrecognized base. It allocates nothing either
// way — an unknown base ('N') is the routine undefined-pair case, not an
// error worth constructing — and accumulates each 32-base window in a
// register before the single word store.
//
//gk:noalloc
func TryEncodeInto(words []uint64, seq []byte) int {
	n := WordsFor(len(seq))
	for wi := 0; wi < n; wi++ {
		lo := wi * BasesPerWord
		hi := lo + BasesPerWord
		if hi > len(seq) {
			hi = len(seq)
		}
		var w uint64
		for i := lo; i < hi; i++ {
			c := codeTable[seq[i]]
			if c == 0xFF {
				return i
			}
			w |= uint64(c) << uint((i-lo)*2)
		}
		words[wi] = w
	}
	return -1
}

// BasesPerPlaneWord is the number of bases one word of a bit plane holds.
const BasesPerPlaneWord = 64

// TryEncodePlanes is TryEncodeInto for the bit-plane layout the filtration
// kernel computes in: base i's low code bit goes to bit i%64 of lo[i/64] and
// its high code bit to the same bit of hi, so a sequence is two bit vectors
// of 64 bases per word. lo and hi must each hold (len(seq)+63)/64 words; the
// unused high bits of the final words are zeroed. The return is TryEncodeInto's:
// -1, or the position of the first unrecognized base (the words written up to
// there are garbage).
//
// Bases are taken eight at a time, as the eight bytes of one register, with
// no table and no per-base branch: bits 1 and 2 of an ASCII base give its code
// (A 0x41, C 0x43, G 0x47, T 0x54: code = b>>1 ^ b>>2, either case),
// unknownBytes tests all eight bytes at once, and one multiplication per plane
// gathers the eight low (or high) code bits into a byte of the plane word.
//
//gk:noalloc
func TryEncodePlanes(lo, hi []uint64, seq []byte) int {
	const gather = 0x0102040810204080 // moves bit 8j to bit 56+j, j = 0..7, with no carries
	for wi := 0; wi*BasesPerPlaneWord < len(seq); wi++ {
		word := seq[wi*BasesPerPlaneWord : min((wi+1)*BasesPerPlaneWord, len(seq))]
		var l, h uint64
		for g := 0; g < len(word); g += 8 {
			var v uint64
			if w := word[g:]; len(w) >= 8 {
				v = uint64(w[0]) | uint64(w[1])<<8 | uint64(w[2])<<16 | uint64(w[3])<<24 |
					uint64(w[4])<<32 | uint64(w[5])<<40 | uint64(w[6])<<48 | uint64(w[7])<<56
			} else {
				v = byteOnes * 'A' // beyond the last base: code 0
				for j, b := range w {
					v ^= uint64(b^'A') << uint(8*j)
				}
			}
			if unknown := unknownBytes(v); unknown != 0 {
				return wi*BasesPerPlaneWord + g + bits.TrailingZeros64(unknown)/8
			}
			codes := v>>1 ^ v>>2 // bits 0 and 1 of each byte: that base's code
			l |= ((codes & byteOnes) * gather >> 56) << uint(g)
			h |= ((codes >> 1 & byteOnes) * gather >> 56) << uint(g)
		}
		lo[wi], hi[wi] = l, h
	}
	return -1
}

// byteOnes has bit 0 of every byte set: byteOnes*c is the byte c eight times.
const byteOnes = 0x0101010101010101

// unknownBytes returns bit 7 of every byte of v that is not one of ACGTacgt
// (codeTable's recognized set), and zero when all eight are bases. With the
// case bit cleared a base equals one of four values, so the byte XORed with
// each is zero for exactly one of them; (z&0x7F + 0x7F) | z has bit 7 set
// exactly when byte z is non-zero, and never carries into the next byte.
//
//gk:noalloc
func unknownBytes(v uint64) uint64 {
	const low7, top = byteOnes * 0x7F, byteOnes * 0x80
	u := v &^ (byteOnes * 0x20)
	a, c, g, t := u^byteOnes*'A', u^byteOnes*'C', u^byteOnes*'G', u^byteOnes*'T'
	return ((a&low7 + low7) | a) & ((c&low7 + low7) | c) & ((g&low7 + low7) | g) & ((t&low7 + low7) | t) & top
}

// Decode expands n bases from the packed representation produced by Encode.
func Decode(words []uint64, n int) []byte {
	seq := make([]byte, n)
	for i := 0; i < n; i++ {
		code := (words[i/BasesPerWord] >> uint((i%BasesPerWord)*2)) & 0b11
		seq[i] = Alphabet[code]
	}
	return seq
}

// ReverseComplement returns the reverse complement of seq as a new slice.
func ReverseComplement(seq []byte) []byte {
	out := make([]byte, len(seq))
	ReverseComplementInto(out, seq)
	return out
}

// ReverseComplementInto writes the reverse complement of seq into dst, which
// must be as long as seq and must not overlap it.
func ReverseComplementInto(dst, seq []byte) {
	dst = dst[:len(seq)]
	for i, b := range seq {
		dst[len(seq)-1-i] = complementTable[b]
	}
}

// Upper normalizes a sequence to upper case in place and returns it.
func Upper(seq []byte) []byte {
	for i, b := range seq {
		if b >= 'a' && b <= 'z' {
			seq[i] = b - 'a' + 'A'
		}
	}
	return seq
}

// CountMismatches returns the Hamming distance between two equal-length
// sequences, treating unknown bases as mismatches against everything.
func CountMismatches(a, b []byte) (int, error) {
	if len(a) != len(b) {
		return 0, fmt.Errorf("dna: length mismatch %d vs %d", len(a), len(b))
	}
	n := 0
	for i := range a {
		ca, okA := Code(a[i])
		cb, okB := Code(b[i])
		if !okA || !okB || ca != cb {
			n++
		}
	}
	return n, nil
}

// Validate returns an error describing the first unrecognized base in seq,
// or nil if every base is one of ACGT (either case).
func Validate(seq []byte) error {
	for i, b := range seq {
		if codeTable[b] == 0xFF {
			return fmt.Errorf("dna: unrecognized base %q at position %d", b, i)
		}
	}
	return nil
}
