package dna

import (
	"bytes"
	"testing"
)

// FuzzDNAEncodeRoundTrip drives the 2-bit codec with arbitrary byte
// sequences: encoding must reject exactly the sequences containing unknown
// base calls (the 'N' handling every pipeline layer leans on), and for
// clean sequences Decode and BaseAt must invert Encode up to case
// normalization — the packing contract the kernel's word arithmetic
// assumes.
func FuzzDNAEncodeRoundTrip(f *testing.F) {
	f.Add([]byte("ACGT"))
	f.Add([]byte("acgtACGT"))
	f.Add([]byte("ACGTNACGT"))
	f.Add([]byte(""))
	f.Add([]byte("TTTTTTTTTTTTTTTTT")) // crosses a word boundary
	f.Add([]byte("ACGTXacgt"))
	f.Fuzz(func(t *testing.T, seq []byte) {
		if len(seq) > 4096 {
			seq = seq[:4096]
		}
		hasN := HasN(seq)
		if (Validate(seq) == nil) == hasN {
			t.Fatalf("Validate and HasN disagree on %q", seq)
		}
		words, err := Encode(seq)
		if hasN {
			if err == nil {
				t.Fatalf("Encode accepted a sequence with an unknown base: %q", seq)
			}
			return
		}
		if err != nil {
			t.Fatalf("Encode rejected a clean sequence %q: %v", seq, err)
		}
		if len(words) != WordsFor(len(seq)) {
			t.Fatalf("Encode produced %d words for %d bases, want %d",
				len(words), len(seq), WordsFor(len(seq)))
		}
		want := Upper(append([]byte(nil), seq...))
		if got := Decode(words, len(seq)); !bytes.Equal(got, want) {
			t.Fatalf("round trip: got %q, want %q", got, want)
		}
		for i := range want {
			if BaseAt(words, i) != want[i] {
				t.Fatalf("BaseAt(%d) = %c, want %c", i, BaseAt(words, i), want[i])
			}
		}
		// EncodeInto must agree with Encode and zero the tail bits it does
		// not use, so buffers can be reused across sequences.
		buf := make([]uint64, WordsFor(len(seq))+2)
		for i := range buf {
			buf[i] = ^uint64(0)
		}
		if err := EncodeInto(buf, seq); err != nil {
			t.Fatalf("EncodeInto rejected a clean sequence: %v", err)
		}
		for i, w := range words {
			if buf[i] != w {
				t.Fatalf("EncodeInto word %d = %#x, Encode word = %#x", i, buf[i], w)
			}
		}
	})
}

// FuzzEncodePlanes holds the plane encoder to the interleaved one: for any
// byte sequence TryEncodePlanes returns what TryEncodeInto returns (-1, or the
// first unknown base's position), and on a clean sequence bit i of the low
// and high plane are the two bits TryEncodeInto put at base i — with every
// bit beyond the last base zero, whatever the buffers held before.
func FuzzEncodePlanes(f *testing.F) {
	f.Add([]byte("ACGT"))
	f.Add([]byte("acgtACGTn"))
	f.Add([]byte(""))
	f.Add(bytes.Repeat([]byte("GATTACA"), 10))            // 70 bases: crosses a plane word
	f.Add(append(bytes.Repeat([]byte("TG"), 32), 'N'))    // the unknown base opens the second word
	f.Add(append(bytes.Repeat([]byte("C"), 63), "XA"...)) // ... or closes the first
	f.Fuzz(func(t *testing.T, seq []byte) {
		if len(seq) > 4096 {
			seq = seq[:4096]
		}
		words := make([]uint64, WordsFor(len(seq)))
		planeWords := (len(seq) + BasesPerPlaneWord - 1) / BasesPerPlaneWord
		lo, hi := make([]uint64, planeWords), make([]uint64, planeWords)
		for i := range lo {
			lo[i], hi[i] = ^uint64(0), ^uint64(0)
		}
		want := TryEncodeInto(words, seq)
		if got := TryEncodePlanes(lo, hi, seq); got != want {
			t.Fatalf("TryEncodePlanes = %d, TryEncodeInto = %d on %q", got, want, seq)
		}
		if want >= 0 {
			return // the buffers are garbage by contract
		}
		for i := 0; i < planeWords*BasesPerPlaneWord; i++ {
			var code uint64
			if i < len(seq) {
				code = words[i/BasesPerWord] >> uint(i%BasesPerWord*2) & 3
			}
			l := lo[i/BasesPerPlaneWord] >> uint(i%BasesPerPlaneWord) & 1
			h := hi[i/BasesPerPlaneWord] >> uint(i%BasesPerPlaneWord) & 1
			if l != code&1 || h != code>>1 {
				t.Fatalf("base %d of %q: planes hold %d/%d, interleaved code is %02b", i, seq, l, h, code)
			}
		}
	})
}
