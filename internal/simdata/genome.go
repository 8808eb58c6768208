package simdata

import (
	"fmt"
	"math/rand"

	"repro/internal/dna"
)

// GenomeConfig controls synthetic reference generation. Real genomes are
// highly repetitive — the reason seeding yields many candidate locations per
// read (Section 1) — so the generator plants duplicated segments with small
// divergence on top of a random backbone.
type GenomeConfig struct {
	Length     int
	RepeatFrac float64 // fraction of the genome covered by repeat copies
	RepeatLen  int     // length of each repeat unit
	RepeatDiv  float64 // per-base divergence between repeat copies
	NRate      float64 // unknown base rate (assembly gaps)
	Seed       int64
}

// DefaultGenomeConfig returns a laptop-scale human-like profile.
func DefaultGenomeConfig(length int) GenomeConfig {
	return GenomeConfig{
		Length:     length,
		RepeatFrac: 0.3,
		RepeatLen:  600,
		RepeatDiv:  0.02,
		NRate:      0.0002,
		Seed:       42,
	}
}

// Genome synthesizes a reference sequence per the config.
func Genome(cfg GenomeConfig) []byte {
	rng := rand.New(rand.NewSource(cfg.Seed))
	g := dna.RandomSeq(rng, cfg.Length)
	if cfg.RepeatLen > 0 && cfg.RepeatFrac > 0 && cfg.Length > 2*cfg.RepeatLen {
		// Pick a handful of source units and stamp diverged copies.
		copies := int(float64(cfg.Length) * cfg.RepeatFrac / float64(cfg.RepeatLen))
		nUnits := copies/4 + 1
		units := make([][]byte, nUnits)
		for i := range units {
			start := rng.Intn(cfg.Length - cfg.RepeatLen)
			units[i] = append([]byte(nil), g[start:start+cfg.RepeatLen]...)
		}
		for c := 0; c < copies; c++ {
			u := units[rng.Intn(nUnits)]
			dst := rng.Intn(cfg.Length - cfg.RepeatLen)
			for i, b := range u {
				if rng.Float64() < cfg.RepeatDiv {
					g[dst+i] = dna.Alphabet[rng.Intn(4)]
				} else {
					g[dst+i] = b
				}
			}
		}
	}
	if cfg.NRate > 0 {
		dna.SprinkleN(rng, g, cfg.NRate)
	}
	return g
}

// genomeChunk is StreamGenome's generation granularity. Large enough that
// per-chunk bookkeeping vanishes against base generation, small enough that
// peak memory stays trivial next to any downstream consumer.
const genomeChunk = 1 << 20

// StreamGenome synthesizes a reference with the same statistical profile as
// Genome — random backbone, diverged copies of a shared repeat library,
// sprinkled 'N's — but generates it chunk by chunk into emit, so a contig
// is never materialized: peak memory is one chunk plus the repeat-unit
// library however large cfg.Length is. That is what lets gksim emit
// genome-scale (multi-gigabase) references without OOM. Deterministic for a
// given config; the chunked repeat placement means the byte stream differs
// from Genome's for the same seed (both are draws from the same profile —
// nothing may pin the two generators to each other). emit may retain
// nothing: the chunk is reused.
func StreamGenome(cfg GenomeConfig, emit func(chunk []byte) error) error {
	rng := rand.New(rand.NewSource(cfg.Seed))
	doRepeats := cfg.RepeatLen > 0 && cfg.RepeatFrac > 0 && cfg.Length > 2*cfg.RepeatLen
	var units [][]byte
	if doRepeats {
		copies := int(float64(cfg.Length) * cfg.RepeatFrac / float64(cfg.RepeatLen))
		nUnits := copies/4 + 1
		// Cap the library: its point is shared sequence between distant
		// sites, and a few thousand units already gives every downstream
		// seed plenty of multi-hit k-mers; an uncapped library would grow
		// O(Length) and defeat the constant-memory contract.
		if nUnits > 4096 {
			nUnits = 4096
		}
		units = make([][]byte, nUnits)
		for i := range units {
			units[i] = dna.RandomSeq(rng, cfg.RepeatLen)
		}
	}
	buf := make([]byte, genomeChunk)
	carry := 0.0 // fractional repeat copies owed across chunk boundaries
	for off := 0; off < cfg.Length; off += genomeChunk {
		n := cfg.Length - off
		if n > genomeChunk {
			n = genomeChunk
		}
		chunk := buf[:n]
		dna.FillRandom(rng, chunk)
		if doRepeats && n > cfg.RepeatLen {
			carry += float64(n) * cfg.RepeatFrac / float64(cfg.RepeatLen)
			copies := int(carry)
			carry -= float64(copies)
			for c := 0; c < copies; c++ {
				u := units[rng.Intn(len(units))]
				dst := rng.Intn(n - len(u) + 1)
				for i, b := range u {
					if rng.Float64() < cfg.RepeatDiv {
						chunk[dst+i] = dna.Alphabet[rng.Intn(4)]
					} else {
						chunk[dst+i] = b
					}
				}
			}
		}
		if cfg.NRate > 0 {
			dna.SprinkleN(rng, chunk, cfg.NRate)
		}
		if err := emit(chunk); err != nil {
			return err
		}
	}
	return nil
}

// ReadProfile is a Mason-like read simulation profile.
type ReadProfile struct {
	Name    string
	Length  int
	SubRate float64
	InsRate float64
	DelRate float64
	NRate   float64
}

// Profiles from the whole-genome evaluation (Sup. Table S.1).
var (
	// SimSet1 mirrors "sim set 1": 300bp simulated reads with a rich
	// deletion profile.
	SimSet1 = ReadProfile{Name: "sim set 1 (300bp rich-deletion)", Length: 300,
		SubRate: 0.01, InsRate: 0.001, DelRate: 0.02, NRate: 0}
	// SimSet2 mirrors "sim set 2": 150bp simulated reads with a low indel
	// profile.
	SimSet2 = ReadProfile{Name: "sim set 2 (150bp low-indel)", Length: 150,
		SubRate: 0.008, InsRate: 0.0005, DelRate: 0.0005, NRate: 0}
	// Illumina100 mirrors the real 100bp sets (ERR240727_1-like error rates).
	Illumina100 = ReadProfile{Name: "real-profile 100bp", Length: 100,
		SubRate: 0.01, InsRate: 0.0002, DelRate: 0.0002, NRate: 0.0005}
	// Illumina50 mirrors SRR20784572 (50bp).
	Illumina50 = ReadProfile{Name: "real-profile 50bp", Length: 50,
		SubRate: 0.008, InsRate: 0.0002, DelRate: 0.0002, NRate: 0.0005}
	// Illumina250 mirrors SRR826471_1 (250bp).
	Illumina250 = ReadProfile{Name: "real-profile 250bp", Length: 250,
		SubRate: 0.015, InsRate: 0.0005, DelRate: 0.0005, NRate: 0.001}
)

// SimRead is a simulated read with its true origin for accuracy accounting.
type SimRead struct {
	Seq     []byte
	TruePos int
}

// SimulateReads samples n reads uniformly from the genome and applies the
// profile's errors, Mason-style. Reads overlapping assembly gaps keep their
// 'N's (the mapper and filter must cope, exactly as with real data). The
// genome must be longer than a read: start positions are drawn from
// [0, len(genome)-Length).
func SimulateReads(genome []byte, profile ReadProfile, n int, seed int64) ([]SimRead, error) {
	if n < 0 {
		return nil, fmt.Errorf("simdata: negative read count %d", n)
	}
	if len(genome) <= profile.Length {
		return nil, fmt.Errorf("simdata: genome (%d) not longer than read length (%d)", len(genome), profile.Length)
	}
	rng := rand.New(rand.NewSource(seed))
	reads := make([]SimRead, n)
	for i := range reads {
		pos := rng.Intn(len(genome) - profile.Length)
		reads[i] = SimRead{Seq: simulateFrom(rng, genome, pos, profile), TruePos: pos}
	}
	return reads, nil
}

// simulateFrom sequences one read from the forward-strand window starting at
// pos: copy the window, apply the profile's errors, and restore the profile
// length (sequencers emit fixed-length reads).
func simulateFrom(rng *rand.Rand, genome []byte, pos int, profile ReadProfile) []byte {
	seq := append([]byte(nil), genome[pos:pos+profile.Length]...)
	var edits []dna.Edit
	for p := 0; p < len(seq); p++ {
		r := rng.Float64()
		switch {
		case r < profile.SubRate:
			edits = append(edits, dna.Edit{Pos: p, Op: 'X', Base: dna.Alphabet[rng.Intn(4)]})
		case r < profile.SubRate+profile.InsRate:
			edits = append(edits, dna.Edit{Pos: p, Op: 'I', Base: dna.Alphabet[rng.Intn(4)]})
		case r < profile.SubRate+profile.InsRate+profile.DelRate:
			edits = append(edits, dna.Edit{Pos: p, Op: 'D'})
		}
	}
	seq = dna.ApplyEdits(seq, edits)
	for len(seq) < profile.Length {
		ext := pos + profile.Length + (len(seq) - profile.Length)
		if ext < len(genome) {
			seq = append(seq, genome[ext])
		} else {
			seq = append(seq, dna.Alphabet[rng.Intn(4)])
		}
	}
	seq = seq[:profile.Length]
	if profile.NRate > 0 {
		dna.SprinkleN(rng, seq, profile.NRate)
	}
	return seq
}

// SimReadPair is one simulated mate pair from an FR paired-end library. R1
// reads the fragment's left end on the forward strand; R2 reads its right
// end on the reverse strand, so R2.Seq is reverse-complement oriented and
// R2.TruePos is the forward-strand offset of the window where the reverse
// complement of R2.Seq maps. Insert is the true fragment (outer) length.
type SimReadPair struct {
	R1, R2 SimRead
	Insert int
}

// SimulatePairs samples n FR mate pairs: a fragment start uniform over the
// genome, a fragment length drawn from a normal distribution with the given
// mean and standard deviation (clamped to [read length, genome length]),
// and profile errors applied to each mate independently, Mason-style.
func SimulatePairs(genome []byte, profile ReadProfile, n, insertMean, insertStd int, seed int64) ([]SimReadPair, error) {
	if n < 0 {
		return nil, fmt.Errorf("simdata: negative pair count %d", n)
	}
	if len(genome) < profile.Length {
		return nil, fmt.Errorf("simdata: genome (%d) shorter than read length (%d)", len(genome), profile.Length)
	}
	if insertMean < profile.Length {
		return nil, fmt.Errorf("simdata: mean insert %d below read length %d", insertMean, profile.Length)
	}
	rng := rand.New(rand.NewSource(seed))
	pairs := make([]SimReadPair, n)
	for i := range pairs {
		insert := insertMean
		if insertStd > 0 {
			insert = int(rng.NormFloat64()*float64(insertStd)) + insertMean
		}
		if insert < profile.Length {
			insert = profile.Length
		}
		if insert > len(genome) {
			insert = len(genome)
		}
		pos := 0
		if len(genome) > insert {
			pos = rng.Intn(len(genome) - insert)
		}
		matePos := pos + insert - profile.Length
		r2 := simulateFrom(rng, genome, matePos, profile)
		pairs[i] = SimReadPair{
			R1:     SimRead{Seq: simulateFrom(rng, genome, pos, profile), TruePos: pos},
			R2:     SimRead{Seq: dna.ReverseComplement(r2), TruePos: matePos},
			Insert: insert,
		}
	}
	return pairs, nil
}
