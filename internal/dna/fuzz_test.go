package dna

import (
	"bytes"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// FuzzDNAEncodeRoundTrip drives the 2-bit codec with arbitrary byte
// sequences: encoding must reject exactly the sequences containing unknown
// base calls (the 'N' handling every pipeline layer leans on), and for
// clean sequences Decode must invert Encode up to case
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

// lineNumbered is the position every text-decoder error must open with.
var lineNumbered = regexp.MustCompile(`^dna: fast[aq] line ([0-9]+): `)

// checkLineNumbered fails unless err names a line of data (or the one just
// past its end, where a truncated record is noticed).
func checkLineNumbered(t *testing.T, err error, data []byte) {
	t.Helper()
	m := lineNumbered.FindStringSubmatch(err.Error())
	if m == nil {
		t.Fatalf("error without a line number: %v", err)
	}
	lines := bytes.Count(data, []byte("\n")) + 1
	if n, _ := strconv.Atoi(m[1]); n < 1 || n > lines {
		t.Fatalf("error names line %d of %d: %v", n, lines, err)
	}
}

// FuzzFASTQScanner feeds the incremental FASTQ decoder arbitrary bytes — the
// read file is the one input of a mapping run nobody generated. It must never
// panic; a refusal names a line of the input and is final; and whatever it
// accepts is well-framed (non-empty sequence, one quality per base) and
// survives WriteFASTQ → ReadFASTQ unchanged.
func FuzzFASTQScanner(f *testing.F) {
	f.Add([]byte("@r1\nACGT\n+\nIIII\n"))
	f.Add([]byte("\n\n@r1 desc\r\nACGTN\r\n+r1\r\n!!!!!\r\n\n@r2\nA\n+\nI"))
	f.Add([]byte("@r1\nACGT\nACGT\n+\nIIIIIIII\n")) // wrapped sequence
	f.Add([]byte("@r1\nACGT\n+\nIII\n"))            // short quality
	f.Add([]byte("@r1\nACGT\n\n+\nIIII\n"))         // blank inside a record
	f.Add([]byte("@r1\nACGT\n+\n"))                 // truncated
	f.Add([]byte("r1\nACGT\n+\nIIII\n"))            // no '@'
	f.Add([]byte("@\n@\n+\n@\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		s := NewFASTQScanner(bytes.NewReader(data))
		var recs []Record
		for s.Scan() {
			rec := s.Record()
			if len(rec.Seq) == 0 || len(rec.Qual) != len(rec.Seq) {
				t.Fatalf("accepted an ill-framed record: %+v", rec)
			}
			recs = append(recs, rec)
		}
		if err := s.Err(); err != nil {
			checkLineNumbered(t, err, data)
			if s.Scan() || s.Err() != err {
				t.Fatalf("Scan went on after %v", err)
			}
			return
		}
		var buf bytes.Buffer
		if err := WriteFASTQ(&buf, recs); err != nil {
			t.Fatal(err)
		}
		again, err := ReadFASTQ(&buf)
		if err != nil || !reflect.DeepEqual(again, recs) {
			t.Fatalf("round trip: %+v (%v), first read %+v", again, err, recs)
		}
	})
}

// FuzzReadFASTA does the same for the reference reader: no panic, a refusal
// names a line, and every accepted record survives WriteFASTA → ReadFASTA —
// the reader refuses the sequence bytes ('>', blanks, anything outside
// printable ASCII) that the writer's 70-column wrap could put at the head of
// a line.
func FuzzReadFASTA(f *testing.F) {
	f.Add([]byte(">chr1 Homo sapiens\nACGT\nACGT\n>chr2\nNNNN\n"))
	f.Add([]byte("\n>a\tb  c \r\n\r\nAC\r\n  GT  \n>\n>empty\n"))
	f.Add([]byte("ACGT\n>late\n")) // sequence before header
	f.Add([]byte(">long\n" + strings.Repeat("ACGTACGTAC", 15)))
	f.Add([]byte(">>x y\n>z"))
	f.Add([]byte(">a\n" + strings.Repeat("A", 70) + ">b\n")) // '>' where the wrap would start a line
	f.Add([]byte(">a\n" + strings.Repeat("A", 70) + " C\n")) // a blank there
	f.Add([]byte(">a\nAC\x00GT\n>b\nAC\xffGT\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := ReadFASTA(bytes.NewReader(data))
		if err != nil {
			checkLineNumbered(t, err, data)
			return
		}
		var buf bytes.Buffer
		if err := WriteFASTA(&buf, recs); err != nil {
			t.Fatal(err)
		}
		again, err := ReadFASTA(&buf)
		if err != nil || !reflect.DeepEqual(again, recs) {
			t.Fatalf("round trip: %+v (%v), first read %+v", again, err, recs)
		}
	})
}
