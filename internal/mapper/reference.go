package mapper

import (
	"fmt"
	"strings"

	"repro/internal/dna"
	"repro/internal/metrics"
)

// Contig is one named sequence of a multi-contig reference: a chromosome,
// scaffold, or plasmid of a whole-genome FASTA. Its bases live at
// [Off, Off+Len) of the Reference's concatenated sequence.
type Contig struct {
	Name string
	Desc string // FASTA header description, "" when none
	Off  int    // offset into the concatenated sequence
	Len  int
}

// End returns the offset one past the contig's last base.
//
//gk:noalloc
func (c Contig) End() int { return c.Off + c.Len }

// Reference is a multi-contig reference genome: the contigs' bases
// concatenated back to back (no separator bytes, so a single-contig
// Reference is bit-identical to the flat []byte the mapper historically
// took), plus the name/offset/length table that maps a concatenated-sequence
// position back to (contig, contig-relative position). Whole-genome
// references are multi-contig by construction; every boundary-sensitive
// stage of the mapper — k-mer indexing, candidate generation, paired-end
// concordance, SAM emission — consults this table so no window ever
// straddles two contigs.
type Reference struct {
	seq     []byte
	contigs []Contig
}

// NewReference builds a Reference from FASTA records, in record order.
// Contig names are the records' ids; a name still carrying whitespace (a
// hand-built record with the full header in Name) is split at the first
// whitespace so identifiers stay SAM-legal. Names must be non-empty and
// unique; empty contigs are rejected (SAM requires LN >= 1).
func NewReference(recs []dna.Record) (*Reference, error) {
	if len(recs) == 0 {
		return nil, fmt.Errorf("mapper: reference has no contigs")
	}
	r := &Reference{contigs: make([]Contig, 0, len(recs))}
	seen := make(map[string]bool, len(recs))
	total := 0
	for _, rec := range recs {
		total += len(rec.Seq)
	}
	r.seq = make([]byte, 0, total)
	for i, rec := range recs {
		name, desc := rec.Name, rec.Desc
		if j := strings.IndexAny(name, " \t"); j >= 0 {
			d := strings.TrimSpace(name[j+1:])
			name = name[:j]
			if desc == "" {
				desc = d
			}
		}
		if name == "" {
			return nil, fmt.Errorf("mapper: contig %d has no name", i)
		}
		if seen[name] {
			return nil, fmt.Errorf("mapper: duplicate contig name %q", name)
		}
		seen[name] = true
		if len(rec.Seq) == 0 {
			return nil, fmt.Errorf("mapper: contig %q is empty", name)
		}
		r.contigs = append(r.contigs, Contig{Name: name, Desc: desc, Off: len(r.seq), Len: len(rec.Seq)})
		r.seq = append(r.seq, rec.Seq...)
	}
	return r, nil
}

// SingleContig wraps one flat sequence as a single-contig Reference — the
// shape every pre-multi-contig caller used implicitly.
func SingleContig(name string, seq []byte) *Reference {
	if name == "" {
		name = "ref"
	}
	return &Reference{seq: seq, contigs: []Contig{{Name: name, Off: 0, Len: len(seq)}}}
}

// Seq returns the concatenated sequence. Positions produced by the index and
// the candidate stages address this slice.
func (r *Reference) Seq() []byte { return r.seq }

// Len returns the total base count across contigs.
func (r *Reference) Len() int { return len(r.seq) }

// NumContigs returns the contig count.
func (r *Reference) NumContigs() int { return len(r.contigs) }

// Contigs returns the contig table in reference order (read-only).
func (r *Reference) Contigs() []Contig { return r.contigs }

// Contig returns contig i.
func (r *Reference) Contig(i int) Contig { return r.contigs[i] }

// ContigSeq returns contig i's bases as a subslice of the concatenated
// sequence — the sanctioned way to walk one contig without touching global
// offsets.
func (r *Reference) ContigSeq(i int) []byte {
	c := r.contigs[i]
	return r.seq[c.Off:c.End()]
}

// ContigOff returns contig i's global offset in the concatenated sequence —
// the sanctioned way to translate a contig-relative position into the global
// coordinate space (the index build places global positions from it).
//
//gk:noalloc
func (r *Reference) ContigOff(i int) int { return r.contigs[i].Off }

// ContigOf returns the index of the contig containing concatenated position
// pos, or -1 when pos is outside the reference. Allocation-free (hot path:
// every candidate's boundary check goes through here).
//
//gk:noalloc
func (r *Reference) ContigOf(pos int) int {
	if pos < 0 || pos >= len(r.seq) {
		return -1
	}
	if len(r.contigs) == 1 {
		return 0
	}
	// First contig starting after pos, minus one.
	lo, hi := 0, len(r.contigs)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if r.contigs[m].Off <= pos {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo - 1
}

// Locate translates a concatenated position into (contig index,
// contig-relative position). pos must be inside the reference. One call is
// one metrics.ContigLocates count.
//
//gk:noalloc
func (r *Reference) Locate(pos int) (contig, rel int) {
	metrics.ContigLocates.Inc()
	return r.locate(pos)
}

// locate is Locate without the count, for the verify loop, which counts a
// block's lookups at once.
//
//gk:noalloc
func (r *Reference) locate(pos int) (contig, rel int) {
	c := r.ContigOf(pos)
	if c < 0 {
		panic(fmt.Sprintf("mapper: position %d outside reference of length %d", pos, len(r.seq))) //gk:allow noalloc: cold panic path, unreachable for in-range positions
	}
	return c, pos - r.contigs[c].Off
}

// WindowContig returns the contig index wholly containing the n-base window
// starting at concatenated position pos, or -1 when the window is out of
// range or straddles a contig boundary — the check that keeps cross-boundary
// candidates out of verification.
//
//gk:noalloc
func (r *Reference) WindowContig(pos, n int) int {
	c := r.ContigOf(pos)
	if c < 0 || pos+n > r.contigs[c].End() {
		return -1
	}
	return c
}

// LookupContig returns the index of the named contig, or -1. Linear: the
// contig table is small (chromosome-count sized) and kept in FASTA order.
func (r *Reference) LookupContig(name string) int {
	for i, c := range r.contigs {
		if c.Name == name {
			return i
		}
	}
	return -1
}
