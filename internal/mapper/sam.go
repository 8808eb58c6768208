package mapper

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/dna"
)

// samWriter renders alignment records into one reused line buffer: a record
// costs appends into storage the last one left behind, not a trip through
// fmt's verbs and an allocation per field.
type samWriter struct {
	bw    *bufio.Writer
	qname []byte // the current record's (or pair's) QNAME
	line  []byte
}

// setQName makes record id's QNAME current: its FASTQ name up to the first
// whitespace (SAM QNAMEs cannot contain it; FASTQ headers often carry a
// description after the id), or fallback followed by id when names does not
// cover the record or nothing remains of its name.
func (w *samWriter) setQName(names []string, id int, fallback string) {
	w.qname = w.qname[:0]
	if id < len(names) {
		name := names[id]
		if i := strings.IndexAny(name, " \t"); i >= 0 {
			name = name[:i]
		}
		w.qname = append(w.qname, name...)
	}
	if len(w.qname) == 0 {
		w.qname = strconv.AppendInt(append(w.qname, fallback...), int64(id), 10)
	}
}

// samRecord is what one alignment line says beyond its QNAME. Positions are
// as printed, 1-based; an unpaired record has rnext "*" and zero pnext/tlen.
type samRecord struct {
	flag        int
	rname       string
	pos         int
	cigar       string // empty: the whole read matches, <len>M
	rnext       string
	pnext, tlen int
	seq         []byte
	revComp     bool // SEQ is seq's reverse complement
	nm          int
}

// write emits one record under the current QNAME.
func (w *samWriter) write(r samRecord) error {
	b := append(w.line[:0], w.qname...)
	b = strconv.AppendInt(append(b, '\t'), int64(r.flag), 10)
	b = append(append(b, '\t'), r.rname...)
	b = strconv.AppendInt(append(b, '\t'), int64(r.pos), 10)
	b = append(b, "\t255\t"...)
	if r.cigar == "" {
		b = append(strconv.AppendInt(b, int64(len(r.seq)), 10), 'M')
	} else {
		b = append(b, r.cigar...)
	}
	b = append(append(b, '\t'), r.rnext...)
	b = strconv.AppendInt(append(b, '\t'), int64(r.pnext), 10)
	b = strconv.AppendInt(append(b, '\t'), int64(r.tlen), 10)
	b = append(b, '\t')
	seq := len(b)
	b = append(b, r.seq...)
	if r.revComp {
		dna.ReverseComplementInto(b[seq:], r.seq)
	}
	b = strconv.AppendInt(append(b, "\t*\tNM:i:"...), int64(r.nm), 10)
	b = append(b, '\n')
	w.line = b
	_, err := w.bw.Write(b)
	return err
}

// writeSAMHeader emits @HD, one @SQ per contig (in reference order), and @PG.
func writeSAMHeader(bw *bufio.Writer, ref *Reference) error {
	if _, err := bw.WriteString("@HD\tVN:1.6\tSO:unsorted\n"); err != nil {
		return err
	}
	for _, c := range ref.Contigs() {
		if _, err := fmt.Fprintf(bw, "@SQ\tSN:%s\tLN:%d\n", c.Name, c.Len); err != nil {
			return err
		}
	}
	_, err := bw.WriteString("@PG\tID:gatekeeper-gpu-repro\tPN:gkmap\n")
	return err
}

// contigName resolves a mapping's RNAME, range-checking the contig index.
func contigName(ref *Reference, contig int) (string, error) {
	if contig < 0 || contig >= ref.NumContigs() {
		return "", fmt.Errorf("mapper: mapping references contig %d of %d", contig, ref.NumContigs())
	}
	return ref.Contig(contig).Name, nil
}

// WriteSAM emits mappings as minimal SAM records against a multi-contig
// reference (header with one @SQ per contig, one line per mapping with the
// mapping's contig as RNAME and its contig-relative 1-based POS, NM tag
// carrying the verified edit distance), enough for downstream tooling to
// consume the reproduction's output. names carries the reads' FASTQ names
// for the QNAME column (truncated at the first whitespace); a nil or short
// names slice falls back to read%d for the uncovered reads, which is how
// simulated read sets are written.
func WriteSAM(w io.Writer, ref *Reference, names []string, reads [][]byte, mappings []Mapping) error {
	sw := samWriter{bw: bufio.NewWriter(w)}
	if err := writeSAMHeader(sw.bw, ref); err != nil {
		return err
	}
	for _, m := range mappings {
		if m.ReadID < 0 || m.ReadID >= len(reads) {
			return fmt.Errorf("mapper: mapping references read %d of %d", m.ReadID, len(reads))
		}
		rname, err := contigName(ref, m.Contig)
		if err != nil {
			return err
		}
		flag := 0
		if m.Reverse {
			flag = 16 // SAM reverse-strand flag; SEQ is the aligned orientation
		}
		sw.setQName(names, m.ReadID, "read")
		if err := sw.write(samRecord{flag: flag, rname: rname, pos: m.Pos + 1, cigar: m.CIGAR, rnext: "*",
			seq: reads[m.ReadID], revComp: m.Reverse, nm: m.Distance}); err != nil {
			return err
		}
	}
	return sw.bw.Flush()
}

// WritePairedSAM emits resolved concordant pairs as standard paired-end SAM:
// two records per PairMapping sharing one QNAME, with the paired flags
// (0x1 paired, 0x2 proper, 0x10/0x20 strand and mate strand, 0x40/0x80
// first/last in pair), RNEXT '=' for a same-contig mate (every concordant
// pair; the mate's contig name would be emitted otherwise), PNEXT pointing
// at the mate, and TLEN signed positive on the leftmost record. SEQ is the
// aligned orientation (R2 of a forward-strand fragment prints
// reverse-complemented with 0x10 set, exactly as mappers emit FR
// libraries). names carries the pairs' FASTQ names (pair%d fallback); pairs
// supplies the mate sequences.
func WritePairedSAM(w io.Writer, ref *Reference, names []string, pairs []ReadPair, resolved []PairMapping) error {
	sw := samWriter{bw: bufio.NewWriter(w)}
	if err := writeSAMHeader(sw.bw, ref); err != nil {
		return err
	}
	for _, pm := range resolved {
		if pm.PairID < 0 || pm.PairID >= len(pairs) {
			return fmt.Errorf("mapper: pair mapping references pair %d of %d", pm.PairID, len(pairs))
		}
		rname1, err := contigName(ref, pm.Mate1.Contig)
		if err != nil {
			return err
		}
		rname2, err := contigName(ref, pm.Mate2.Contig)
		if err != nil {
			return err
		}
		// Concordant mates share a contig, so RNEXT collapses to '='; keep
		// the general form so a future discordant emitter stays correct.
		rnext1, rnext2 := "=", "="
		if pm.Mate1.Contig != pm.Mate2.Contig {
			rnext1, rnext2 = rname2, rname1
		}
		// Both records share one QNAME; drop R1's legacy mate suffix.
		sw.setQName(names, pm.PairID, "pair")
		if n := len(sw.qname); n > 2 && string(sw.qname[n-2:]) == "/1" {
			sw.qname = sw.qname[:n-2]
		}
		const paired, proper = 0x1, 0x2
		f1 := paired | proper | 0x40
		f2 := paired | proper | 0x80
		if pm.Mate1.Reverse {
			f1 |= 0x10
			f2 |= 0x20
		}
		if !pm.Mate2.Reverse { // original R2 is reverse-complemented in the alignment
			f2 |= 0x10
			f1 |= 0x20
		}
		tlen1, tlen2 := pm.Insert, -pm.Insert
		if pm.Mate2.Pos < pm.Mate1.Pos {
			tlen1, tlen2 = -pm.Insert, pm.Insert
		}
		// Aligned-orientation sequences. Mate1's query is R1 itself; Mate2's
		// query is the reverse complement of R2, so the R2 record prints
		// revcomp(R2) when that query mapped forward (the usual FR case) and
		// R2 as sequenced when it mapped reversed (opposite-strand fragment).
		p := pairs[pm.PairID]
		if err := sw.write(samRecord{flag: f1, rname: rname1, pos: pm.Mate1.Pos + 1, cigar: pm.Mate1.CIGAR,
			rnext: rnext1, pnext: pm.Mate2.Pos + 1, tlen: tlen1,
			seq: p.R1, revComp: pm.Mate1.Reverse, nm: pm.Mate1.Distance}); err != nil {
			return err
		}
		if err := sw.write(samRecord{flag: f2, rname: rname2, pos: pm.Mate2.Pos + 1, cigar: pm.Mate2.CIGAR,
			rnext: rnext2, pnext: pm.Mate1.Pos + 1, tlen: tlen2,
			seq: p.R2, revComp: !pm.Mate2.Reverse, nm: pm.Mate2.Distance}); err != nil {
			return err
		}
	}
	return sw.bw.Flush()
}
