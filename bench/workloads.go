package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"

	"repro/internal/dna"
	"repro/internal/mapper"
	"repro/internal/simdata"
)

// workload is one seeded input set. The four below differ in which layer
// carries the wall (see README.md for the measurements behind each Why), so
// every optimisation has a workload that exercises it and one that should
// not move. Read counts give a cycle of 1.3-1.6 s at width 1, so a 20 s run
// fits 12-15 best-of-N reps; long_indel keeps a 2.6 s cycle
// because its spread across seeds comes from its inputs (600 reads sample
// the genome's repeats thinly), not from the clock, and fewer reads would
// widen it.
type workload struct {
	Name        string
	Why         string
	GenomeLen   int
	Reads       int // at -scale 1
	Profile     simdata.ReadProfile
	E           int
	SeedLen     int // 0 = mapper.DefaultSeedLen
	BothStrands bool
}

var workloads = []workload{
	{
		Name:      "sim_default",
		Why:       "gkmap -sim profile: 2.7 candidates/read, 19% rejected; verification is 72-80% of the wall, so a verifier change shows here and a filter change does not",
		GenomeLen: 2_000_000, Reads: 7_500, Profile: simdata.Illumina100, E: 5,
	},
	{
		Name:      "repeat_rich",
		Why:       "whole-genome harness profile: 11.6 candidates/read, 75% rejected; filter and seeding carry the wall and filter-on beats filter-off (the paper's Tables 4-5 case)",
		GenomeLen: 400_000, Reads: 6_000, Profile: simdata.Illumina100, E: 5, SeedLen: 9,
	},
	{
		Name:      "long_indel",
		Why:       "300 bp indel-rich reads at e=15: 35 candidates/read, 31 masks x 10 words per kernel call, 31-wide DP band; a 100bp-shaped fast path that costs long reads shows here",
		GenomeLen: 400_000, Reads: 600, Profile: simdata.SimSet1, E: 15, SeedLen: 9,
	},
	{
		Name:      "short_exact",
		Why:       "50 bp reads at e=1 on both strands: cheap kernel and DP, so seeding, revcomp, sorting, channel hops, decode and SAM write carry the wall; per-read overhead shows here",
		GenomeLen: 2_000_000, Reads: 30_000, Profile: simdata.Illumina50, E: 1, BothStrands: true,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// inputs is everything generated from (workload, seed, scale). The program
// under test sees only genome, seqs and fastq; sim keeps the true origins
// for the recall metric.
type inputs struct {
	wl     workload
	genome []byte
	ref    *mapper.Reference
	sim    []simdata.SimRead
	seqs   [][]byte
	fastq  []byte
	sha    string // sha256 over genome and FASTQ bytes
}

func generate(wl workload, seed int64, scale float64) (*inputs, error) {
	n := int(math.Round(float64(wl.Reads) * scale))
	if n < 1 {
		n = 1
	}
	gcfg := simdata.DefaultGenomeConfig(wl.GenomeLen)
	gcfg.Seed = seed
	genome := simdata.Genome(gcfg)
	sim, err := simdata.SimulateReads(genome, wl.Profile, n, seed+1)
	if err != nil {
		return nil, fmt.Errorf("workload %s: %w", wl.Name, err)
	}
	in := &inputs{wl: wl, genome: genome, ref: mapper.SingleContig("chrSim", genome), sim: sim}
	recs := make([]dna.Record, n)
	qual := bytes.Repeat([]byte{'I'}, wl.Profile.Length)
	for i, r := range sim {
		in.seqs = append(in.seqs, r.Seq)
		recs[i] = dna.Record{Name: fmt.Sprintf("r%d", i), Seq: r.Seq, Qual: qual}
	}
	var fq bytes.Buffer
	if err := dna.WriteFASTQ(&fq, recs); err != nil {
		return nil, fmt.Errorf("workload %s: encoding FASTQ: %w", wl.Name, err)
	}
	in.fastq = fq.Bytes()
	sum := sha256.Sum256(append(append([]byte(nil), genome...), in.fastq...))
	in.sha = hex.EncodeToString(sum[:])
	return in, nil
}
