package dna

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestCodeTable(t *testing.T) {
	cases := []struct {
		b    byte
		code byte
		ok   bool
	}{
		{'A', CodeA, true}, {'C', CodeC, true}, {'G', CodeG, true}, {'T', CodeT, true},
		{'a', CodeA, true}, {'c', CodeC, true}, {'g', CodeG, true}, {'t', CodeT, true},
		{'N', 0xFF, false}, {'n', 0xFF, false}, {'-', 0xFF, false}, {0, 0xFF, false},
	}
	for _, c := range cases {
		code, ok := Code(c.b)
		if ok != c.ok {
			t.Errorf("Code(%q) ok = %v, want %v", c.b, ok, c.ok)
		}
		if ok && code != c.code {
			t.Errorf("Code(%q) = %d, want %d", c.b, code, c.code)
		}
	}
}

func TestHasN(t *testing.T) {
	if HasN([]byte("ACGTACGT")) {
		t.Error("HasN reported N in a clean sequence")
	}
	if !HasN([]byte("ACGNACGT")) {
		t.Error("HasN missed an N")
	}
	if !HasN([]byte("acgxn")) {
		t.Error("HasN missed a lowercase unknown")
	}
	if HasN(nil) {
		t.Error("HasN on empty sequence")
	}
}

func TestWordsFor(t *testing.T) {
	cases := map[int]int{0: 0, 1: 1, 31: 1, 32: 1, 33: 2, 64: 2, 100: 4, 150: 5, 250: 8, 300: 10}
	for n, want := range cases {
		if got := WordsFor(n); got != want {
			t.Errorf("WordsFor(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 15, 16, 17, 31, 32, 33, 100, 150, 250, 300} {
		seq := RandomSeq(rng, n)
		words, err := Encode(seq)
		if err != nil {
			t.Fatalf("Encode(len=%d): %v", n, err)
		}
		if len(words) != WordsFor(n) {
			t.Fatalf("Encode(len=%d) produced %d words, want %d", n, len(words), WordsFor(n))
		}
		back := Decode(words, n)
		if !bytes.Equal(back, seq) {
			t.Fatalf("round trip failed for n=%d: %q != %q", n, back, seq)
		}
	}
}

func TestEncodeKnownWord(t *testing.T) {
	// "ACGT" -> codes 00,01,10,11 little-endian pairs: 11 10 01 00 = 0xE4.
	words, err := Encode([]byte("ACGT"))
	if err != nil {
		t.Fatal(err)
	}
	if words[0] != 0xE4 {
		t.Fatalf("Encode(ACGT) = %#x, want 0xE4", words[0])
	}
}

func TestEncodeRejectsN(t *testing.T) {
	if _, err := Encode([]byte("ACNGT")); err == nil {
		t.Fatal("Encode accepted an N")
	}
	if err := Validate([]byte("ACGTN")); err == nil {
		t.Fatal("Validate accepted an N")
	}
	if err := Validate([]byte("acgt")); err != nil {
		t.Fatalf("Validate rejected lowercase: %v", err)
	}
}

func TestEncodeIntoBufferTooSmall(t *testing.T) {
	buf := make([]uint64, 1)
	if err := EncodeInto(buf, []byte(strings.Repeat("A", 33))); err == nil {
		t.Fatal("EncodeInto accepted an undersized buffer")
	}
}

func TestEncodeIntoZeroesStaleBits(t *testing.T) {
	buf := []uint64{^uint64(0), ^uint64(0)}
	if err := EncodeInto(buf, []byte("AAAA")); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 0 {
		t.Fatalf("stale bits survived: %#x", buf[0])
	}
}

func TestReverseComplement(t *testing.T) {
	got := ReverseComplement([]byte("ACGTT"))
	if string(got) != "AACGT" {
		t.Fatalf("ReverseComplement = %s, want AACGT", got)
	}
	// Involution property.
	rng := rand.New(rand.NewSource(2))
	seq := RandomSeq(rng, 101)
	if !bytes.Equal(ReverseComplement(ReverseComplement(seq)), seq) {
		t.Fatal("reverse complement is not an involution")
	}
}

// TestComplementTable pins the lookup table to the per-byte switch it
// replaced, for every byte value (an unknown base complements to 'N').
func TestComplementTable(t *testing.T) {
	all := make([]byte, 256)
	for i := range all {
		all[i] = byte(i)
	}
	rc := ReverseComplement(all)
	for i, b := range all {
		var want byte
		switch b {
		case 'A', 'a':
			want = 'T'
		case 'C', 'c':
			want = 'G'
		case 'G', 'g':
			want = 'C'
		case 'T', 't':
			want = 'A'
		default:
			want = 'N'
		}
		if got := rc[255-i]; got != want {
			t.Errorf("ReverseComplement placed %q for byte %#x, want %q", got, b, want)
		}
	}
}

func TestUpper(t *testing.T) {
	got := Upper([]byte("acGt"))
	if string(got) != "ACGT" {
		t.Fatalf("Upper = %s", got)
	}
}

func TestCountMismatches(t *testing.T) {
	n, err := CountMismatches([]byte("ACGT"), []byte("ACGA"))
	if err != nil || n != 1 {
		t.Fatalf("CountMismatches = %d, %v; want 1, nil", n, err)
	}
	n, err = CountMismatches([]byte("ACNT"), []byte("ACNT"))
	if err != nil || n != 1 {
		t.Fatalf("N should mismatch everything: got %d, %v", n, err)
	}
	if _, err := CountMismatches([]byte("AC"), []byte("ACG")); err == nil {
		t.Fatal("length mismatch not detected")
	}
}

func TestMutateSubstitutionsCount(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	seq := RandomSeq(rng, 100)
	for _, k := range []int{0, 1, 5, 40, 100} {
		mut := MutateSubstitutions(rng, seq, k)
		n, err := CountMismatches(seq, mut)
		if err != nil {
			t.Fatal(err)
		}
		if n != k {
			t.Fatalf("MutateSubstitutions(k=%d) produced %d mismatches", k, n)
		}
	}
}

func TestApplyEditsSubstitution(t *testing.T) {
	out := ApplyEdits([]byte("ACGT"), []Edit{{Pos: 1, Op: 'X', Base: 'T'}})
	if string(out) != "ATGT" {
		t.Fatalf("substitution: got %s", out)
	}
}

func TestApplyEditsInsertionDeletion(t *testing.T) {
	out := ApplyEdits([]byte("ACGT"), []Edit{{Pos: 2, Op: 'I', Base: 'T'}})
	if string(out) != "ACTGT" {
		t.Fatalf("insertion: got %s", out)
	}
	out = ApplyEdits([]byte("ACGT"), []Edit{{Pos: 2, Op: 'D'}})
	if string(out) != "ACT" {
		t.Fatalf("deletion: got %s", out)
	}
	out = ApplyEdits([]byte("ACGT"), []Edit{{Pos: 4, Op: 'I', Base: 'A'}})
	if string(out) != "ACGTA" {
		t.Fatalf("append insertion: got %s", out)
	}
}

func TestRandomEditsSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	edits := RandomEdits(rng, 100, 10, 0.5)
	if len(edits) != 10 {
		t.Fatalf("RandomEdits produced %d edits, want 10", len(edits))
	}
	for i := 1; i < len(edits); i++ {
		if edits[i].Pos < edits[i-1].Pos {
			t.Fatal("edits not sorted by position")
		}
	}
}

func TestRandomEditsSubsOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	edits := RandomEdits(rng, 50, 8, 0)
	for _, e := range edits {
		if e.Op != 'X' {
			t.Fatalf("indelFrac=0 produced op %c", e.Op)
		}
	}
}

func TestSprinkleN(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	seq := RandomSeq(rng, 1000)
	n := SprinkleN(rng, seq, 0.05)
	if n == 0 {
		t.Fatal("SprinkleN placed no Ns at 5% rate over 1000 bases")
	}
	count := 0
	for _, b := range seq {
		if b == 'N' {
			count++
		}
	}
	if count != n {
		t.Fatalf("SprinkleN reported %d but placed %d", n, count)
	}
}

func TestEncodeDecodeQuick(t *testing.T) {
	f := func(raw []byte) bool {
		if len(raw) == 0 {
			return true
		}
		seq := make([]byte, len(raw))
		for i, b := range raw {
			seq[i] = Alphabet[int(b)%4]
		}
		words, err := Encode(seq)
		if err != nil {
			return false
		}
		return bytes.Equal(Decode(words, len(seq)), seq)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestFASTARoundTrip(t *testing.T) {
	recs := []Record{
		{Name: "chr1", Seq: bytes.Repeat([]byte("ACGT"), 40)},
		{Name: "chr2", Desc: "Homo sapiens description", Seq: []byte("GGGTTT")},
	}
	var buf bytes.Buffer
	if err := WriteFASTA(&buf, recs); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFASTA(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 {
		t.Fatalf("got %d records", len(back))
	}
	for i := range recs {
		if back[i].Name != recs[i].Name || back[i].Desc != recs[i].Desc ||
			!bytes.Equal(back[i].Seq, recs[i].Seq) {
			t.Fatalf("record %d mismatch: %+v vs %+v", i, back[i], recs[i])
		}
	}
	// A described header never leaks whitespace into the id: Name is the
	// first word, the remainder is kept as the description.
	if back[1].Name != "chr2" || back[1].Desc != "Homo sapiens description" {
		t.Fatalf("header not split at first whitespace: %+v", back[1])
	}
}

func TestFASTAErrors(t *testing.T) {
	if _, err := ReadFASTA(strings.NewReader("ACGT\n")); err == nil {
		t.Fatal("sequence before header accepted")
	}
	recs, err := ReadFASTA(strings.NewReader(">x\n\nAC\nGT\n"))
	if err != nil {
		t.Fatal(err)
	}
	if string(recs[0].Seq) != "ACGT" {
		t.Fatalf("wrapped read = %s", recs[0].Seq)
	}
	// A sequence byte the writer's wrap could turn into a header or lose is
	// refused where it stands; the line's own trimmed ends are not part of it.
	for _, tc := range []struct{ in, want string }{
		{">x\nAC>GT\n", "dna: fasta line 2: "},
		{">x\nACGT\n\nAC GT\n", "dna: fasta line 4: "},
		{">x\nAC\tGT\n", "dna: fasta line 2: "},
		{">x\nACGT\n>y\nAC\x00GT\n", "dna: fasta line 4: "},
		{">x\nAC\xffGT", "dna: fasta line 2: "},
		{">x\nAC\x7fGT\n", "dna: fasta line 2: "},
	} {
		if _, err := ReadFASTA(strings.NewReader(tc.in)); err == nil || !strings.HasPrefix(err.Error(), tc.want) {
			t.Errorf("ReadFASTA(%q): %v, want an error opening with %q", tc.in, err, tc.want)
		}
	}
	if recs, err := ReadFASTA(strings.NewReader(">x\n \tACGT*-n \r\n")); err != nil || string(recs[0].Seq) != "ACGT*-n" {
		t.Errorf("trimmed ends and printable symbols: %+v, %v", recs, err)
	}
}

func TestFASTQRoundTrip(t *testing.T) {
	recs := []Record{
		{Name: "r1", Seq: []byte("ACGTACGT"), Qual: []byte("IIIIIIII")},
		{Name: "r2", Seq: []byte("TTTT")},
	}
	var buf bytes.Buffer
	if err := WriteFASTQ(&buf, recs); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFASTQ(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 {
		t.Fatalf("got %d records", len(back))
	}
	if back[0].Name != "r1" || string(back[0].Seq) != "ACGTACGT" {
		t.Fatalf("record 0 = %+v", back[0])
	}
	if string(back[1].Qual) != "IIII" {
		t.Fatalf("synthesized quality = %s", back[1].Qual)
	}
}

func TestFASTQErrors(t *testing.T) {
	if _, err := ReadFASTQ(strings.NewReader("r1\nACGT\n+\nIIII\n")); err == nil {
		t.Fatal("missing @ accepted")
	}
	if _, err := ReadFASTQ(strings.NewReader("@r1\nACGT\n+\nII\n")); err == nil {
		t.Fatal("quality length mismatch accepted")
	}
	if _, err := ReadFASTQ(strings.NewReader("@r1\nACGT\n")); err == nil {
		t.Fatal("truncated record accepted")
	}
}
