// Command gksim synthesizes evaluation data: reference genomes (FASTA),
// Mason-like read sets (FASTQ), and read/candidate pair files (TSV) from
// the paper's dataset profiles.
//
// Usage:
//
//	gksim -mode genome -length 1000000 -out ref.fa
//	gksim -mode genome -length 300000 -contigs 3 -out genome.fa
//	gksim -mode reads -length 500000 -n 10000 -profile illumina100 -out reads.fq
//	gksim -mode reads -ref genome.fa -n 10000 -out reads.fq
//	gksim -mode paired-reads -length 500000 -n 5000 -insert-mean 400 -out r1.fq -out2 r2.fq
//	gksim -mode pairs -set set3 -n 30000 -out pairs.tsv
//
// genome mode emits chr1..chrN when -contigs > 1; reads and paired-reads
// modes accept -ref to draw reads from an existing (possibly multi-contig)
// FASTA instead of simulating a fresh genome — reads are sampled per
// contig, proportional to contig length, and never straddle a boundary.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"

	"repro/internal/dna"
	"repro/internal/simdata"
)

func main() {
	var (
		mode    = flag.String("mode", "pairs", "what to generate: genome, reads, paired-reads, or pairs")
		length  = flag.Int("length", 1_000_000, "genome length (genome/reads modes)")
		contigs = flag.Int("contigs", 1, "contig count for genome mode (chr1..chrN splitting -length)")
		refFile = flag.String("ref", "", "draw reads from this FASTA instead of simulating a genome (reads/paired-reads modes)")
		n       = flag.Int("n", 10_000, "number of reads or pairs")
		profile = flag.String("profile", "illumina100", "read profile: illumina50, illumina100, illumina250, simset1, simset2")
		setName = flag.String("set", "set3", "pair-set profile (pairs mode)")
		out     = flag.String("out", "", "output path (default stdout)")
		out2    = flag.String("out2", "", "mate output path (paired-reads mode, required)")
		insMean = flag.Int("insert-mean", 400, "mean fragment length (paired-reads mode)")
		insStd  = flag.Int("insert-std", 40, "fragment length std dev (paired-reads mode)")
		seed    = flag.Int64("seed", 42, "generation seed")
	)
	flag.Parse()
	if *n < 0 {
		fatal(fmt.Errorf("-n %d: negative count", *n))
	}

	w := os.Stdout
	if *out != "" {
		fh, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer func() {
			// A written artifact: close errors are the last chance to hear
			// about a failed flush.
			if err := fh.Close(); err != nil {
				fatal(err)
			}
		}()
		w = fh
	}

	switch *mode {
	case "genome":
		// One record per contig, chr1..chrN, each an independently seeded
		// simulated sequence splitting -length evenly — the multi-contig
		// reference shape gkmap's file mode consumes. -contigs 1 keeps the
		// historical single "chrSim" record. Contigs stream straight to the
		// output (simdata.StreamGenome chunks into dna.FASTAWriter), so
		// emitting a multi-gigabase reference for the genome-scale
		// experiments costs constant memory instead of OOMing on
		// materialized contigs.
		if *contigs < 1 {
			fatal(fmt.Errorf("-contigs %d", *contigs))
		}
		per := *length / *contigs
		if per < 1 {
			fatal(fmt.Errorf("-length %d too small for %d contigs", *length, *contigs))
		}
		fw := dna.NewFASTAWriter(w)
		for i := 0; i < *contigs; i++ {
			cfg := simdata.DefaultGenomeConfig(per)
			cfg.Seed = *seed + int64(i)
			name, desc := fmt.Sprintf("chr%d", i+1), fmt.Sprintf("simulated contig %d/%d", i+1, *contigs)
			if *contigs == 1 {
				name, desc = "chrSim", ""
			}
			if err := fw.Begin(name, desc); err != nil {
				fatal(err)
			}
			if err := simdata.StreamGenome(cfg, fw.Append); err != nil {
				fatal(err)
			}
		}
		if err := fw.Flush(); err != nil {
			fatal(err)
		}
	case "reads":
		rp, err := readProfile(*profile)
		if err != nil {
			fatal(err)
		}
		var recs []dna.Record
		idx := 0
		for _, src := range readSources(*refFile, *length, *seed, *n, rp.Length+1) {
			reads, err := simdata.SimulateReads(src.seq, rp, src.n, *seed+1+src.ord)
			if err != nil {
				fatal(err)
			}
			for _, r := range reads {
				recs = append(recs, dna.Record{
					Name: fmt.Sprintf("read%d %spos=%d", idx, src.chrTag, r.TruePos),
					Seq:  r.Seq,
				})
				idx++
			}
		}
		if err := dna.WriteFASTQ(w, recs); err != nil {
			fatal(err)
		}
	case "paired-reads":
		// Two FASTQ files (R1/R2, as sequenced: R2 reverse-complement
		// oriented) from one simulated FR library — the input shape
		// `gkmap -paired -reads-file r1.fq -reads2 r2.fq` consumes.
		if *out2 == "" {
			fatal(fmt.Errorf("paired-reads mode needs -out2 for the mate file"))
		}
		rp, err := readProfile(*profile)
		if err != nil {
			fatal(err)
		}
		var r1, r2 []dna.Record
		idx := 0
		for _, src := range readSources(*refFile, *length, *seed, *n, rp.Length+1) {
			simPairs, err := simdata.SimulatePairs(src.seq, rp, src.n, *insMean, *insStd, *seed+1+src.ord)
			if err != nil {
				fatal(err)
			}
			for _, p := range simPairs {
				r1 = append(r1, dna.Record{
					Name: fmt.Sprintf("pair%d/1 %spos=%d", idx, src.chrTag, p.R1.TruePos),
					Seq:  p.R1.Seq,
				})
				r2 = append(r2, dna.Record{
					Name: fmt.Sprintf("pair%d/2 %spos=%d", idx, src.chrTag, p.R2.TruePos),
					Seq:  p.R2.Seq,
				})
				idx++
			}
		}
		if err := dna.WriteFASTQ(w, r1); err != nil {
			fatal(err)
		}
		fh2, err := os.Create(*out2)
		if err != nil {
			fatal(err)
		}
		defer func() {
			if err := fh2.Close(); err != nil {
				fatal(err)
			}
		}()
		if err := dna.WriteFASTQ(fh2, r2); err != nil {
			fatal(err)
		}
	case "pairs":
		p, err := simdata.Set(*setName)
		if err != nil {
			fatal(err)
		}
		bw := bufio.NewWriter(w)
		fmt.Fprintf(bw, "# %s, %d pairs, seed %d\n", p.Name, *n, *seed)
		for _, pc := range simdata.Generate(p, *seed, *n) {
			fmt.Fprintf(bw, "%s\t%s\n", pc.Read, pc.Ref)
		}
		if err := bw.Flush(); err != nil {
			fatal(err)
		}
	default:
		fatal(fmt.Errorf("unknown mode %q", *mode))
	}
}

// readSource is one sequence reads are sampled from: the lone simulated
// genome historically, or one contig of a -ref FASTA.
type readSource struct {
	seq    []byte
	n      int    // reads (or pairs) to draw from this source
	ord    int64  // source ordinal, offsets the per-source seed
	chrTag string // "chr=<name> " for -ref contigs, "" otherwise
}

// readSources resolves where reads come from. Without -ref, one simulated
// genome of the given length (the historical behavior, read names
// unchanged). With -ref, each FASTA contig long enough to hold a read
// (minLen bases; shorter scaffolds are skipped with a note) is a source
// and exactly n reads are split proportionally to contig length; when n
// allows (n >= usable contigs) every contig contributes at least one read,
// funded by trimming the largest allocations, so -n is always honored and
// no simulated read ever straddles a contig boundary.
func readSources(refFile string, length int, seed int64, n, minLen int) []readSource {
	if refFile == "" {
		cfg := simdata.DefaultGenomeConfig(length)
		cfg.Seed = seed
		return []readSource{{seq: simdata.Genome(cfg), n: n}}
	}
	f, err := os.Open(refFile)
	if err != nil {
		fatal(err)
	}
	defer func() { _ = f.Close() }() //gk:allow errcheck: read-only input; read errors surface via ReadFASTA
	recs, err := dna.ReadFASTA(f)
	if err != nil {
		fatal(err)
	}
	total := 0
	usable := recs[:0]
	for _, rec := range recs {
		if len(rec.Seq) < minLen {
			fmt.Fprintf(os.Stderr, "gksim: skipping contig %s (%d bases, too short to sample a %d-base read)\n",
				rec.Name, len(rec.Seq), minLen-1)
			continue
		}
		usable = append(usable, rec)
		total += len(rec.Seq)
	}
	if len(usable) == 0 {
		fatal(fmt.Errorf("%s has no contig of at least %d bases", refFile, minLen))
	}
	var sources []readSource
	assigned := 0
	for i, rec := range usable {
		ni := n * len(rec.Seq) / total
		assigned += ni
		sources = append(sources, readSource{
			seq:    rec.Seq,
			n:      ni,
			ord:    int64(i),
			chrTag: fmt.Sprintf("chr=%s ", rec.Name),
		})
	}
	// The proportional floors leave a rounding remainder; it lands on the
	// last contig, so the total is exactly n.
	sources[len(sources)-1].n += n - assigned
	// When n allows, every contig contributes at least one read — funded by
	// the largest allocation, so the total stays exactly n.
	if n >= len(sources) {
		for i := range sources {
			if sources[i].n > 0 {
				continue
			}
			big := 0
			for j := range sources {
				if sources[j].n > sources[big].n {
					big = j
				}
			}
			sources[big].n--
			sources[i].n++
		}
	}
	return sources
}

func readProfile(name string) (simdata.ReadProfile, error) {
	switch name {
	case "illumina50":
		return simdata.Illumina50, nil
	case "illumina100":
		return simdata.Illumina100, nil
	case "illumina250":
		return simdata.Illumina250, nil
	case "simset1":
		return simdata.SimSet1, nil
	case "simset2":
		return simdata.SimSet2, nil
	default:
		return simdata.ReadProfile{}, fmt.Errorf("unknown read profile %q", name)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "gksim: %v\n", err)
	os.Exit(1)
}
