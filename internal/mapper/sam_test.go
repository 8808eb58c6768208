package mapper

import (
	"bufio"
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"repro/internal/dna"
)

func TestWriteSAMThreadsNames(t *testing.T) {
	reads := [][]byte{[]byte("ACGTACGT"), []byte("TTTTAAAA")}
	mappings := []Mapping{
		{ReadID: 0, Pos: 10, Distance: 1},
		{ReadID: 1, Pos: 50, Distance: 0},
	}
	var buf bytes.Buffer
	// Names with a description: QNAME is the id up to the first whitespace.
	names := []string{"SRR001.1 descriptive text", "SRR001.2\ttabbed"}
	if err := WriteSAM(&buf, SingleContig("chr", make([]byte, 1000)), names, reads, mappings); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "SRR001.1\t0\tchr\t11") {
		t.Fatalf("first QNAME not threaded/truncated:\n%s", out)
	}
	if !strings.Contains(out, "SRR001.2\t0\tchr\t51") {
		t.Fatalf("second QNAME not threaded/truncated:\n%s", out)
	}
	if strings.Contains(out, "descriptive") || strings.Contains(out, "tabbed") {
		t.Fatalf("description leaked into QNAME:\n%s", out)
	}

	// Short or empty names fall back to read%d (simulated read sets).
	buf.Reset()
	if err := WriteSAM(&buf, SingleContig("chr", make([]byte, 1000)), []string{""}, reads, mappings); err != nil {
		t.Fatal(err)
	}
	out = buf.String()
	if !strings.Contains(out, "read0\t0") || !strings.Contains(out, "read1\t0") {
		t.Fatalf("fallback QNAMEs missing:\n%s", out)
	}
}

func TestWritePairedSAMGolden(t *testing.T) {
	// Two hand-built concordant pairs over a tiny reference: pair 0 is the
	// usual forward-strand fragment (R1 left, forward), pair 1 a
	// reverse-strand fragment (both mate queries mapped reversed, R2's
	// window leftmost). Sequences are chosen non-palindromic so orientation
	// mistakes change the output.
	pairs := []ReadPair{
		{R1: []byte("AACC"), R2: []byte("GGTT")}, // revcomp(R2) = AACC
		{R1: []byte("ACGG"), R2: []byte("TTCA")}, // revcomp(R2) = TGAA
	}
	names := []string{"frag.1/1 pos=10", "frag.2"}
	resolved := []PairMapping{
		{
			PairID: 0,
			Mate1:  Mapping{ReadID: 0, Pos: 10, Distance: 1},
			Mate2:  Mapping{ReadID: 1, Pos: 26, Distance: 0},
			Insert: 20,
		},
		{
			PairID: 1,
			Mate1:  Mapping{ReadID: 2, Pos: 58, Distance: 0, Reverse: true},
			Mate2:  Mapping{ReadID: 3, Pos: 40, Distance: 2, Reverse: true},
			Insert: 22,
		},
	}
	var buf bytes.Buffer
	if err := WritePairedSAM(&buf, SingleContig("chrT", make([]byte, 100)), names, pairs, resolved); err != nil {
		t.Fatal(err)
	}
	want := strings.Join([]string{
		"@HD\tVN:1.6\tSO:unsorted",
		"@SQ\tSN:chrT\tLN:100",
		"@PG\tID:gatekeeper-gpu-repro\tPN:gkmap",
		// Forward fragment: R1 99 (paired|proper|mate-rev|first), leftmost,
		// TLEN +20; R2 147 (paired|proper|rev|last), SEQ revcomp(GGTT)=AACC.
		"frag.1\t99\tchrT\t11\t255\t4M\t=\t27\t20\tAACC\t*\tNM:i:1",
		"frag.1\t147\tchrT\t27\t255\t4M\t=\t11\t-20\tAACC\t*\tNM:i:0",
		// Reverse fragment: R1 83 (paired|proper|rev|first), rightmost,
		// TLEN -22, SEQ revcomp(ACGG)=CCGT; R2 163 (paired|proper|mate-rev|
		// last), leftmost, TLEN +22, SEQ as sequenced.
		"frag.2\t83\tchrT\t59\t255\t4M\t=\t41\t-22\tCCGT\t*\tNM:i:0",
		"frag.2\t163\tchrT\t41\t255\t4M\t=\t59\t22\tTTCA\t*\tNM:i:2",
		"",
	}, "\n")
	if got := buf.String(); got != want {
		t.Fatalf("paired SAM drifted:\n--- got ---\n%s--- want ---\n%s", got, want)
	}

	// Dangling pair IDs are rejected, as WriteSAM rejects dangling reads.
	if err := WritePairedSAM(&buf, SingleContig("chrT", make([]byte, 100)), nil, pairs, []PairMapping{{PairID: 7}}); err == nil {
		t.Fatal("dangling pair ID accepted")
	}
}

func TestWritePairedSAMFlagInvariants(t *testing.T) {
	// Across both fragment orientations: exactly one record carries 0x40
	// and one 0x80, strand and mate-strand bits mirror each other, and both
	// records claim paired+proper.
	pairs := []ReadPair{{R1: []byte("AACC"), R2: []byte("GGTT")}}
	for _, reverse := range []bool{false, true} {
		resolved := []PairMapping{{
			Mate1:  Mapping{Pos: 5, Reverse: reverse},
			Mate2:  Mapping{Pos: 20, Reverse: reverse},
			Insert: 19,
		}}
		var buf bytes.Buffer
		if err := WritePairedSAM(&buf, SingleContig("c", make([]byte, 50)), nil, pairs, resolved); err != nil {
			t.Fatal(err)
		}
		var flags []int
		for _, line := range strings.Split(buf.String(), "\n") {
			if line == "" || strings.HasPrefix(line, "@") {
				continue
			}
			cols := strings.Split(line, "\t")
			f, err := strconv.Atoi(cols[1])
			if err != nil {
				t.Fatalf("flag column %q: %v", cols[1], err)
			}
			flags = append(flags, f)
		}
		if len(flags) != 2 {
			t.Fatalf("reverse=%v: %d records", reverse, len(flags))
		}
		f1, f2 := flags[0], flags[1]
		if f1&0x1 == 0 || f1&0x2 == 0 || f2&0x1 == 0 || f2&0x2 == 0 {
			t.Fatalf("reverse=%v: paired/proper missing: %d %d", reverse, f1, f2)
		}
		if f1&0x40 == 0 || f1&0x80 != 0 || f2&0x80 == 0 || f2&0x40 != 0 {
			t.Fatalf("reverse=%v: first/last bits wrong: %d %d", reverse, f1, f2)
		}
		if (f1&0x10 != 0) != (f2&0x20 != 0) || (f2&0x10 != 0) != (f1&0x20 != 0) {
			t.Fatalf("reverse=%v: strand/mate-strand mismatch: %d %d", reverse, f1, f2)
		}
		if (f1&0x10 != 0) == (f2&0x10 != 0) {
			t.Fatalf("reverse=%v: FR mates must align on opposite strands: %d %d", reverse, f1, f2)
		}
	}
}

// TestSAMWriterMatchesFprintf holds the record-append helper to the line the
// writers used to format through fmt, verb for verb, and its QNAME rule to
// the one they used to apply: SAM bytes may not move.
func TestSAMWriterMatchesFprintf(t *testing.T) {
	names := []string{"SRR1.1 desc", "", " leading", "\ttab", "frag/1", "/1", "x/1\tdesc", "plain"}
	for id := 0; id < len(names)+2; id++ {
		want := fmt.Sprintf("read%d", id)
		if id < len(names) {
			name := names[id]
			if i := strings.IndexAny(name, " \t"); i >= 0 {
				name = name[:i]
			}
			if name != "" {
				want = name
			}
		}
		var sw samWriter
		sw.setQName(names, id, "read")
		if string(sw.qname) != want {
			t.Errorf("QNAME of record %d: got %q, want %q", id, sw.qname, want)
		}
	}

	recs := []samRecord{
		{flag: 0, rname: "chr1", pos: 1, rnext: "*", seq: []byte("ACGTN"), nm: 0},
		{flag: 16, rname: "chr1", pos: 1234567, rnext: "*", seq: []byte("AACCGGTTN"), revComp: true, nm: 3},
		{flag: 99, rname: "c", pos: 11, cigar: "3M1I2M1D4M", rnext: "=", pnext: 27, tlen: 20, seq: []byte("AACCAACCAA"), nm: 2},
		{flag: 147, rname: "c", pos: 27, rnext: "other", pnext: 11, tlen: -20, seq: []byte("GGTT"), revComp: true, nm: 15},
		{flag: 0, rname: "", pos: 0, rnext: "*", seq: nil, nm: 0},
	}
	var got, want bytes.Buffer
	sw := samWriter{bw: bufio.NewWriter(&got)}
	sw.setQName([]string{"q"}, 0, "read")
	for _, r := range recs {
		if err := sw.write(r); err != nil {
			t.Fatal(err)
		}
		seq, cigar := r.seq, r.cigar
		if r.revComp {
			seq = dna.ReverseComplement(seq)
		}
		if cigar == "" {
			cigar = fmt.Sprintf("%dM", len(seq))
		}
		fmt.Fprintf(&want, "%s\t%d\t%s\t%d\t255\t%s\t%s\t%d\t%d\t%s\t*\tNM:i:%d\n",
			"q", r.flag, r.rname, r.pos, cigar, r.rnext, r.pnext, r.tlen, seq, r.nm)
	}
	if err := sw.bw.Flush(); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Fatalf("record bytes drifted:\n--- got ---\n%s--- want ---\n%s", got.String(), want.String())
	}
}
