package dna

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
)

// Record is a named sequence parsed from FASTA or FASTQ input. For FASTA
// records Name is the header's first whitespace-delimited word (the sequence
// id downstream formats like SAM require) and Desc the remainder of the
// header, so a described header (">chr1 Homo sapiens") never leaks whitespace
// into an identifier. FASTQ names keep the whole header in Name, as before.
type Record struct {
	Name string
	Desc string // FASTA header description (text after the id), "" otherwise
	Seq  []byte
	Qual []byte // nil for FASTA
}

// fastaBufSize is ReadFASTA's internal read-buffer size. Lines longer than
// the buffer — an unwrapped chromosome-scale sequence line, say — are
// consumed in buffer-sized chunks, so no line-length cap exists.
const fastaBufSize = 1 << 16

// ReadFASTA parses all records from a FASTA stream. It tolerates wrapped
// sequence lines and blank lines, and imposes no limit on line length (an
// unwrapped chromosome on a single line is read in chunks). Headers are
// split at the first whitespace into Record.Name and Record.Desc. A sequence
// line, between its trimmed ends, holds printable ASCII other than '>' and
// the blank — anything else is refused, so every accepted record survives
// WriteFASTA's wrap.
func ReadFASTA(r io.Reader) ([]Record, error) {
	br := bufio.NewReaderSize(r, fastaBufSize)
	var recs []Record
	var cur *Record
	var scratch []byte // one line, reused across lines
	line := 0
	for {
		b, err := readLine(br, scratch[:0])
		if b == nil && err == io.EOF {
			return recs, nil
		}
		if err != nil && err != io.EOF {
			return nil, fmt.Errorf("dna: fasta scan: %w", err)
		}
		scratch = b
		line++
		b = bytes.TrimSpace(b)
		if len(b) == 0 {
			continue
		}
		if b[0] == '>' {
			name, desc := splitHeader(bytes.TrimSpace(b[1:]))
			recs = append(recs, Record{Name: name, Desc: desc})
			cur = &recs[len(recs)-1]
			continue
		}
		if cur == nil {
			return nil, fmt.Errorf("dna: fasta line %d: sequence before header", line)
		}
		// WriteFASTA wraps a sequence anywhere: a '>' could come back as a
		// header and a blank be trimmed away, so neither may enter one.
		for _, c := range b {
			if c <= ' ' || c >= 0x7f || c == '>' {
				return nil, fmt.Errorf("dna: fasta line %d: byte %q in a sequence line", line, c)
			}
		}
		cur.Seq = append(cur.Seq, b...)
	}
}

// readLine appends one input line (without its terminator) to buf, growing
// buf as needed — unlike a bufio.Scanner there is no maximum line length.
// At end of input it returns (nil, io.EOF) when no bytes remain, or the
// final unterminated line with io.EOF.
func readLine(br *bufio.Reader, buf []byte) ([]byte, error) {
	read := false
	for {
		chunk, err := br.ReadSlice('\n')
		if len(chunk) > 0 {
			read = true
			if chunk[len(chunk)-1] == '\n' {
				return append(buf, chunk[:len(chunk)-1]...), nil
			}
			buf = append(buf, chunk...)
		}
		switch err {
		case nil:
			return buf, nil
		case bufio.ErrBufferFull:
			continue // long line: keep consuming chunks
		case io.EOF:
			if !read {
				return nil, io.EOF
			}
			return buf, io.EOF
		default:
			return nil, err
		}
	}
}

// splitHeader splits a FASTA header (after '>') into the id and description.
func splitHeader(h []byte) (name, desc string) {
	if i := bytes.IndexAny(h, " \t"); i >= 0 {
		return string(h[:i]), string(bytes.TrimSpace(h[i+1:]))
	}
	return string(h), ""
}

// WriteFASTA writes records in FASTA format with 70-column wrapping. A
// record's description, when present, follows the id on the header line, so
// ReadFASTA round-trips both fields.
func WriteFASTA(w io.Writer, recs []Record) error {
	fw := NewFASTAWriter(w)
	for _, rec := range recs {
		if err := fw.Begin(rec.Name, rec.Desc); err != nil {
			return err
		}
		if err := fw.Append(rec.Seq); err != nil {
			return err
		}
	}
	return fw.Flush()
}

// FASTAWriter writes FASTA incrementally with the same 70-column wrapping
// as WriteFASTA (which runs on top of it): Begin opens a record's header,
// any number of Append calls stream its sequence in arbitrary chunks, and
// Flush closes the last record. A record's bytes never need to exist in one
// slice, so a generator (gksim's genome mode) can emit a multi-gigabase
// contig in constant memory.
type FASTAWriter struct {
	bw  *bufio.Writer
	col int // bases already on the current sequence line
}

// NewFASTAWriter returns a writer emitting to w.
func NewFASTAWriter(w io.Writer) *FASTAWriter {
	return &FASTAWriter{bw: bufio.NewWriter(w)}
}

// Begin starts a record: it terminates the previous record's final partial
// line, then writes the ">name desc" header.
func (fw *FASTAWriter) Begin(name, desc string) error {
	if err := fw.breakLine(); err != nil {
		return err
	}
	hdr := name
	if desc != "" {
		hdr += " " + desc
	}
	_, err := fmt.Fprintf(fw.bw, ">%s\n", hdr)
	return err
}

// Append streams sequence bases into the current record, wrapping lines at
// 70 columns across chunk boundaries.
func (fw *FASTAWriter) Append(seq []byte) error {
	for len(seq) > 0 {
		room := 70 - fw.col
		if room > len(seq) {
			room = len(seq)
		}
		if _, err := fw.bw.Write(seq[:room]); err != nil {
			return err
		}
		fw.col += room
		seq = seq[room:]
		if fw.col == 70 {
			if err := fw.bw.WriteByte('\n'); err != nil {
				return err
			}
			fw.col = 0
		}
	}
	return nil
}

func (fw *FASTAWriter) breakLine() error {
	if fw.col == 0 {
		return nil
	}
	fw.col = 0
	return fw.bw.WriteByte('\n')
}

// Flush terminates the final record's last line and flushes buffered
// output. The writer is reusable afterwards (the next Begin starts cleanly).
func (fw *FASTAWriter) Flush() error {
	if err := fw.breakLine(); err != nil {
		return err
	}
	return fw.bw.Flush()
}

// FASTQScanner decodes FASTQ records incrementally from a stream: one
// strict 4-line record per Scan call, with no full-file buffering, so a
// read set can flow straight into a mapping pipeline without ever being
// materialized. Blank lines are tolerated between records only; inside a
// record every line must be present and non-blank, the third line must be
// the '+' separator, and the quality string must match the sequence length
// — a mis-framed file (e.g. wrapped sequence lines) fails with a
// line-numbered error instead of silently pairing the wrong quality with a
// sequence. CRLF line endings are accepted.
type FASTQScanner struct {
	sc   *bufio.Scanner
	line int // 1-based number of the last line consumed
	rec  Record
	err  error
}

// NewFASTQScanner wraps a reader for incremental FASTQ decoding.
func NewFASTQScanner(r io.Reader) *FASTQScanner {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<26)
	return &FASTQScanner{sc: sc}
}

// Scan advances to the next record, returning false at end of input or on
// the first malformed record; Err distinguishes the two.
func (s *FASTQScanner) Scan() bool {
	if s.err != nil {
		return false
	}
	// Skip blank lines between records (never inside them).
	var hdr []byte
	for {
		if !s.sc.Scan() {
			if err := s.sc.Err(); err != nil {
				s.err = fmt.Errorf("dna: fastq line %d: read failed: %w", s.line+1, err)
			}
			return false
		}
		s.line++
		hdr = bytes.TrimSpace(s.sc.Bytes())
		if len(hdr) > 0 {
			break
		}
	}
	if hdr[0] != '@' {
		s.err = fmt.Errorf("dna: fastq line %d: expected '@', got %q", s.line, hdr[0])
		return false
	}
	rec := Record{Name: string(hdr[1:])}
	seq, ok := s.recordLine("sequence")
	if !ok {
		return false
	}
	rec.Seq = append([]byte(nil), seq...)
	sep, ok := s.recordLine("'+'")
	if !ok {
		return false
	}
	if sep[0] != '+' {
		s.err = fmt.Errorf("dna: fastq line %d: expected '+' separator, got %q (wrapped sequence lines are not supported)",
			s.line, sep[0])
		return false
	}
	qual, ok := s.recordLine("quality")
	if !ok {
		return false
	}
	rec.Qual = append([]byte(nil), qual...)
	if len(rec.Qual) != len(rec.Seq) {
		s.err = fmt.Errorf("dna: fastq line %d: quality length %d != sequence length %d",
			s.line, len(rec.Qual), len(rec.Seq))
		return false
	}
	s.rec = rec
	return true
}

// recordLine consumes one in-record line, which must exist and be non-blank.
func (s *FASTQScanner) recordLine(what string) ([]byte, bool) {
	if !s.sc.Scan() {
		if err := s.sc.Err(); err != nil {
			s.err = fmt.Errorf("dna: fastq line %d: read failed: %w", s.line+1, err)
		} else {
			s.err = fmt.Errorf("dna: fastq line %d: truncated record (missing %s)", s.line, what)
		}
		return nil, false
	}
	s.line++
	b := bytes.TrimSpace(s.sc.Bytes())
	if len(b) == 0 {
		s.err = fmt.Errorf("dna: fastq line %d: blank %s line inside record", s.line, what)
		return nil, false
	}
	return b, true
}

// Record returns the record produced by the last successful Scan. Its
// buffers are freshly allocated per record and may be retained.
func (s *FASTQScanner) Record() Record { return s.rec }

// Err returns the terminal decode error, nil at clean end of input.
func (s *FASTQScanner) Err() error { return s.err }

// Line returns the number of input lines consumed so far.
func (s *FASTQScanner) Line() int { return s.line }

// ReadFASTQ parses all records from a FASTQ stream (strict 4-line records).
// It shares the framing rules of FASTQScanner, which it delegates to.
func ReadFASTQ(r io.Reader) ([]Record, error) {
	s := NewFASTQScanner(r)
	var recs []Record
	for s.Scan() {
		recs = append(recs, s.Record())
	}
	if err := s.Err(); err != nil {
		return nil, err
	}
	return recs, nil
}

// WriteFASTQ writes records in FASTQ format, synthesizing a constant quality
// string when a record has none.
func WriteFASTQ(w io.Writer, recs []Record) error {
	bw := bufio.NewWriter(w)
	for _, rec := range recs {
		qual := rec.Qual
		if qual == nil {
			qual = bytes.Repeat([]byte{'I'}, len(rec.Seq))
		}
		if _, err := fmt.Fprintf(bw, "@%s\n%s\n+\n%s\n", rec.Name, rec.Seq, qual); err != nil {
			return err
		}
	}
	return bw.Flush()
}
