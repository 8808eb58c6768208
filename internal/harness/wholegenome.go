package harness

import (
	"fmt"

	"repro/internal/cuda"
	"repro/internal/dna"
	"repro/internal/gkgpu"
	"repro/internal/mapper"
	"repro/internal/metrics"
	"repro/internal/simdata"
)

// wgRun is one end-to-end mapping execution with its stats.
type wgRun struct {
	mappings int
	stats    mapper.Stats
}

// runWholeGenome maps simulated reads against a simulated genome, optionally
// with a GateKeeper-GPU engine between seeding and verification.
func runWholeGenome(o Options, profile simdata.ReadProfile, genomeLen, nReads, e, batch int,
	withFilter bool, ss setupSpec) (wgRun, error) {

	cfg := simdata.DefaultGenomeConfig(genomeLen)
	cfg.Seed = o.Seed
	genome := simdata.Genome(cfg)
	reads, err := simdata.SimulateReads(genome, profile, nReads, o.Seed+1)
	if err != nil {
		return wgRun{}, err
	}
	seqs := make([][]byte, len(reads))
	for i, r := range reads {
		seqs[i] = r.Seq
	}

	// Short seeds approximate mrFAST's candidate noisiness: 12-mers against
	// a 3 Gbp genome produce many spurious hits per read; on a laptop-scale
	// genome the same collision density needs a shorter seed.
	mcfg := mapper.Config{ReadLen: profile.Length, MaxE: e, MaxReadsPerBatch: batch, SeedLen: 9}
	var eng *gkgpu.Engine
	if withFilter {
		eng, err = gkgpu.NewEngine(gkgpu.Config{
			ReadLen: profile.Length, MaxE: e, Encoding: gkgpu.EncodeOnDevice,
			Setup: ss.setup, MaxBatchPairs: 1 << 15,
		}, cuda.NewUniformContext(1, ss.spec))
		if err != nil {
			return wgRun{}, err
		}
		defer eng.Close()
		mcfg.Filter = eng
	}
	m, err := mapper.New(genome, mcfg)
	if err != nil {
		return wgRun{}, err
	}
	mappings, stats, err := m.MapReads(seqs, e)
	if err != nil {
		return wgRun{}, err
	}
	return wgRun{mappings: len(mappings), stats: stats}, nil
}

func init() {
	register(Experiment{
		ID:       "table1",
		PaperRef: "Table 1",
		Title:    "Effect of the maximum number of reads per batch on time",
		Run:      runTable1,
	})
	register(Experiment{
		ID:       "table3",
		PaperRef: "Table 3",
		Title:    "Whole-genome mapping information with pre-alignment filtering (100bp)",
		Run:      runTable3,
	})
	register(Experiment{
		ID:       "table4",
		PaperRef: "Table 4",
		Title:    "Theoretical vs achieved speedup in verification (100bp, e=5)",
		Run:      runTable4,
	})
	register(Experiment{
		ID:       "table5",
		PaperRef: "Table 5",
		Title:    "Speedup of mrFAST-style mapping with pre-alignment filters (100bp, e=5)",
		Run:      runTable5,
	})
	register(Experiment{
		ID:       "tables24",
		PaperRef: "Sup. Table S.24",
		Title:    "Whole-genome mapping on sim set 1 (300bp rich-deletion, e=15)",
		Run:      func(o Options) error { return runSimSet(o, simdata.SimSet1, 15, 0.97, "0.13h vs 0.04h (slowdown)") },
	})
	register(Experiment{
		ID:       "tables25",
		PaperRef: "Sup. Table S.25",
		Title:    "Whole-genome mapping on sim set 2 (150bp low-indel, e=8)",
		Run:      func(o Options) error { return runSimSet(o, simdata.SimSet2, 8, 0.90, "3.0-3.4x filtering+DP speedup") },
	})
	register(Experiment{
		ID:       "tables26",
		PaperRef: "Sup. Table S.26",
		Title:    "Mapping information on additional real-profile sets (e=0, e=1)",
		Run:      runTable26,
	})
	register(Experiment{
		ID:       "multicontig",
		PaperRef: "Section 4.5 (whole-genome, multi-chromosome reference)",
		Title:    "Multi-contig mapping: per-contig breakdown and boundary safety",
		Run:      runMultiContig,
	})
}

func absInt(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// runMultiContig maps per-contig simulated reads against a multi-contig
// reference — the shape of the paper's real whole-genome evaluation, where
// hg38's chromosomes load as one reference — with GateKeeper-GPU filtering,
// and reports the per-contig breakdown. Shape checks: every contig receives
// its own reads back (contig-relative coordinates near the planted origin),
// no mapping window leaves its contig, and reads drawn across a junction
// stay unmapped.
func runMultiContig(o Options) error {
	contigLens := []int{250_000, 150_000, 100_000}
	nReads := o.scaled(1_800)
	profile := simdata.Illumina100
	e := 5

	var recs []dna.Record
	for i, n := range contigLens {
		cfg := simdata.DefaultGenomeConfig(n)
		cfg.Seed = o.Seed + int64(i)
		recs = append(recs, dna.Record{Name: fmt.Sprintf("chr%d", i+1), Seq: simdata.Genome(cfg)})
	}
	ref, err := mapper.NewReference(recs)
	if err != nil {
		return err
	}

	// Per-contig reads, proportional to length, plus one junction-straddling
	// read per boundary (half the tail of one contig, half the head of the
	// next — a flat concatenated reference would map these).
	type origin struct{ contig, pos int }
	var seqs [][]byte
	var truth []origin
	total := ref.Len()
	for ci, c := range ref.Contigs() {
		n := nReads * c.Len / total
		reads, err := simdata.SimulateReads(ref.ContigSeq(ci), profile, n, o.Seed+10+int64(ci))
		if err != nil {
			return err
		}
		for _, r := range reads {
			seqs = append(seqs, r.Seq)
			truth = append(truth, origin{contig: ci, pos: r.TruePos})
		}
	}
	firstJunction := len(seqs)
	for ci := 0; ci+1 < ref.NumContigs(); ci++ {
		// A junction-straddling read: the tail of one contig glued to the
		// head of the next — bytes identical to a read lifted across the
		// boundary of the concatenated sequence, built without global
		// coordinates.
		tail := ref.ContigSeq(ci)
		head := ref.ContigSeq(ci + 1)
		read := append([]byte(nil), tail[len(tail)-profile.Length/2:]...)
		read = append(read, head[:profile.Length/2]...)
		seqs = append(seqs, read)
		truth = append(truth, origin{contig: -1})
	}

	eng, err := gkgpu.NewEngine(gkgpu.Config{
		ReadLen: profile.Length, MaxE: e, Encoding: gkgpu.EncodeOnDevice,
		Setup: setup1().setup, MaxBatchPairs: 1 << 15,
	}, cuda.NewUniformContext(1, setup1().spec))
	if err != nil {
		return err
	}
	defer eng.Close()
	m, err := mapper.NewFromReference(ref, mapper.Config{
		ReadLen: profile.Length, MaxE: e, SeedLen: 9, Filter: eng,
	})
	if err != nil {
		return err
	}
	mappings, stats, err := m.MapReads(seqs, e)
	if err != nil {
		return err
	}

	perContig := make([]int64, ref.NumContigs())
	perContigReads := make([]map[int]bool, ref.NumContigs())
	for i := range perContigReads {
		perContigReads[i] = map[int]bool{}
	}
	nearOrigin := map[int]bool{}
	junctionMapped := 0
	for _, mp := range mappings {
		c := ref.Contig(mp.Contig)
		if mp.Pos < 0 || mp.Pos+profile.Length > c.Len {
			return fmt.Errorf("mapping window leaves contig %s: %+v", c.Name, mp)
		}
		perContig[mp.Contig]++
		perContigReads[mp.Contig][mp.ReadID] = true
		tr := truth[mp.ReadID]
		if tr.contig == -1 {
			junctionMapped++
		} else if mp.Contig == tr.contig && absInt(mp.Pos-tr.pos) <= e {
			nearOrigin[mp.ReadID] = true
		}
	}
	if junctionMapped > 0 {
		return fmt.Errorf("%d junction-straddling reads mapped — boundary leak", junctionMapped)
	}

	tb := metrics.NewTable("contig", "length", "reads drawn", "mappings", "mapped reads")
	drawn := make([]int64, ref.NumContigs())
	for _, tr := range truth[:firstJunction] {
		drawn[tr.contig]++
	}
	for ci, c := range ref.Contigs() {
		tb.Add(c.Name, metrics.FmtInt(int64(c.Len)), metrics.FmtInt(drawn[ci]),
			metrics.FmtInt(perContig[ci]), metrics.FmtInt(int64(len(perContigReads[ci]))))
	}
	fmt.Fprint(o.Out, tb.String())
	fmt.Fprintf(o.Out, "\nreads: %s  mappings: %s  candidate reduction: %s\n",
		metrics.FmtInt(stats.Reads), metrics.FmtInt(stats.Mappings), metrics.FmtPct(stats.Reduction()))
	fmt.Fprintf(o.Out, "reads mapped near their planted origin (contig-relative): %d/%d\n",
		len(nearOrigin), firstJunction)
	fmt.Fprintf(o.Out, "junction-straddling reads mapped: 0/%d (boundary-aware candidates)\n",
		len(seqs)-firstJunction)
	fmt.Fprintln(o.Out, "\nShape checks: every contig maps its own reads with contig-relative")
	fmt.Fprintln(o.Out, "coordinates; no verified window leaves its contig; junction reads stay unmapped.")
	return nil
}

func runTable1(o Options) error {
	paper := map[int][4]float64{ // batch -> paper overall/encode/kernel/filter (s, host-encoded column)
		100: {3041.52, 109.54, 102.55, 212.17}, 1000: {1446.58, 105.99, 92.72, 114.61},
		10000: {1325.95, 109.14, 80.37, 92.99}, 100000: {1275.66, 103.13, 77.45, 88.96},
	}
	nReads := o.scaled(2_000)
	tb := metrics.NewTable("max reads/batch", "overall wall (s)", "prep model (s)",
		"kernel model (s)", "filter model (s)", "paper overall/kernel/filter")
	for _, batch := range []int{100, 1000, 10000, 100000} {
		r, err := runWholeGenome(o, simdata.Illumina100, 300_000, nReads, 5, batch, true, setup1())
		if err != nil {
			return err
		}
		p := paper[batch]
		tb.Add(fmt.Sprintf("%d", batch),
			fmt.Sprintf("%.3f", r.stats.TotalSeconds),
			fmt.Sprintf("%.4f", r.stats.FilterPrepModel),
			fmt.Sprintf("%.4f", r.stats.FilterKernelModel),
			fmt.Sprintf("%.4f", r.stats.FilterModelSeconds),
			fmt.Sprintf("%.0f/%.0f/%.0f", p[0], p[2], p[3]))
	}
	fmt.Fprint(o.Out, tb.String())
	fmt.Fprintln(o.Out, "\nShape check: larger batches monotonically shrink kernel and filter time")
	fmt.Fprintln(o.Out, "(fewer host-device transfers), flattening out by 100,000 reads per batch.")
	return nil
}

func runTable3(o Options) error {
	nReads := o.scaled(2_500)
	tb := metrics.NewTable("config", "e", "Mappings", "Mapped reads",
		"Verification pairs", "Rejected (reduction)", "paper reduction")
	paperReduction := map[int]string{0: "94%", 5: "90%"}
	for _, e := range []int{0, 5} {
		base, err := runWholeGenome(o, simdata.Illumina100, 400_000, nReads, e, 100_000, false, setup1())
		if err != nil {
			return err
		}
		filt, err := runWholeGenome(o, simdata.Illumina100, 400_000, nReads, e, 100_000, true, setup1())
		if err != nil {
			return err
		}
		if filt.mappings != base.mappings {
			return fmt.Errorf("filter changed mapping count at e=%d: %d vs %d (paper: identical at e=0, ~equal at e=5)",
				e, filt.mappings, base.mappings)
		}
		tb.Add("No Filter", fmt.Sprintf("%d", e),
			metrics.FmtInt(base.stats.Mappings), metrics.FmtInt(base.stats.MappedReads),
			metrics.FmtInt(base.stats.VerificationPairs), "NA", "")
		tb.Add("GateKeeper-GPU", fmt.Sprintf("%d", e),
			metrics.FmtInt(filt.stats.Mappings), metrics.FmtInt(filt.stats.MappedReads),
			metrics.FmtInt(filt.stats.VerificationPairs),
			fmt.Sprintf("%s (%.0f%%)", metrics.FmtInt(filt.stats.RejectedPairs), 100*filt.stats.Reduction()),
			paperReduction[e])
	}
	fmt.Fprint(o.Out, tb.String())
	fmt.Fprintln(o.Out, "\nShape checks: identical mappings and mapped reads with and without the filter;")
	fmt.Fprintln(o.Out, "large reduction in pairs entering verification at both thresholds.")
	return nil
}

func runTable4(o Options) error {
	nReads := o.scaled(2_500)
	base, err := runWholeGenome(o, simdata.Illumina100, 400_000, nReads, 5, 100_000, false, setup1())
	if err != nil {
		return err
	}
	filt, err := runWholeGenome(o, simdata.Illumina100, 400_000, nReads, 5, 100_000, true, setup1())
	if err != nil {
		return err
	}
	theoretical := float64(base.stats.VerificationPairs) / float64(filt.stats.VerificationPairs)
	achieved := metrics.Speedup(base.stats.VerifySeconds, filt.stats.VerifySeconds)
	tb := metrics.NewTable("quantity", "measured", "paper (Setup 1)")
	tb.Add("candidate reduction", metrics.FmtPct(filt.stats.Reduction()), "90%")
	tb.Add("theoretical DP speedup", fmt.Sprintf("%.1fx", theoretical), "10.6x")
	tb.Add("achieved DP speedup", fmt.Sprintf("%.1fx", achieved), "3.7x")
	fmt.Fprint(o.Out, tb.String())
	fmt.Fprintln(o.Out, "\nShape check: achieved speedup is well below theoretical — the surviving")
	fmt.Fprintln(o.Out, "pairs are the similar ones, whose verification cannot terminate early.")
	return nil
}

func runTable5(o Options) error {
	nReads := o.scaled(2_500)
	tb := metrics.NewTable("setup", "measured host filt+DP", "measured host overall",
		"modelled device filt+DP", "kernel model (s)", "paper filt+DP", "paper overall")
	paper := map[string][2]string{
		"Setup 1": {"2.9x", "1.3-1.4x"},
		"Setup 2": {"1.6-1.7x", "1.2x"},
	}
	for _, ss := range []setupSpec{setup1(), setup2()} {
		base, err := runWholeGenome(o, simdata.Illumina100, 400_000, nReads, 5, 100_000, false, ss)
		if err != nil {
			return err
		}
		filt, err := runWholeGenome(o, simdata.Illumina100, 400_000, nReads, 5, 100_000, true, ss)
		if err != nil {
			return err
		}
		// Measured host: wall clocks of this machine only, the simulated
		// kernel's host execution included. Modelled device: the paper's
		// accounting ("for filtering time, we consider the kernel time"),
		// where the device filters off the host's critical path in the
		// modelled kernel time shown beside it, so the DP stage shrinks by
		// the verification-pair ratio. No modelled clock is added to, or
		// divided by, a wall clock; a faster verifier moves only the
		// measured columns.
		hostFiltDP := metrics.Speedup(base.stats.VerifySeconds,
			filt.stats.FilterWallSeconds+filt.stats.VerifySeconds)
		hostOverall := metrics.Speedup(base.stats.TotalSeconds, filt.stats.TotalSeconds)
		deviceFiltDP := float64(base.stats.VerificationPairs) / float64(max(filt.stats.VerificationPairs, 1))
		p := paper[ss.setup.Name]
		tb.Add(ss.setup.Name,
			fmt.Sprintf("%.1fx", hostFiltDP), fmt.Sprintf("%.1fx", hostOverall),
			fmt.Sprintf("%.1fx", deviceFiltDP), fmt.Sprintf("%.4f", filt.stats.FilterKernelModel),
			p[0], p[1])
	}
	fmt.Fprint(o.Out, tb.String())
	fmt.Fprintln(o.Out, "\nmeasured host: wall/wall on this machine, where the simulated kernel runs on the CPU;")
	fmt.Fprintln(o.Out, "modelled device: verification-pair ratio, the device's modelled kernel time listed, not added.")
	fmt.Fprintln(o.Out, "Paper also reports GateKeeper-FPGA at 41x (Setup-independent, FPGA platform);")
	fmt.Fprintln(o.Out, "shape check: modelled-device speedup > 1; the measured-host columns say whether a")
	fmt.Fprintln(o.Out, "host-executed filter pays for itself against this host's verifier.")
	return nil
}

func runSimSet(o Options, profile simdata.ReadProfile, e int, paperReduction float64, paperNote string) error {
	nReads := o.scaled(800)
	genomeLen := 400_000
	base, err := runWholeGenome(o, profile, genomeLen, nReads, e, 100_000, false, setup1())
	if err != nil {
		return err
	}
	filt, err := runWholeGenome(o, profile, genomeLen, nReads, e, 100_000, true, setup1())
	if err != nil {
		return err
	}
	tb := metrics.NewTable("config", "Mappings", "Verification pairs", "Rejected (reduction)",
		"measured host filt+DP (s)", "modelled device kernel (s)")
	tb.Add("No Filter", metrics.FmtInt(base.stats.Mappings),
		metrics.FmtInt(base.stats.VerificationPairs), "NA",
		fmt.Sprintf("%.3f", base.stats.VerifySeconds), "NA")
	tb.Add("GateKeeper-GPU", metrics.FmtInt(filt.stats.Mappings),
		metrics.FmtInt(filt.stats.VerificationPairs),
		fmt.Sprintf("%s (%.0f%%)", metrics.FmtInt(filt.stats.RejectedPairs), 100*filt.stats.Reduction()),
		fmt.Sprintf("%.3f", filt.stats.FilterWallSeconds+filt.stats.VerifySeconds),
		fmt.Sprintf("%.4f", filt.stats.FilterKernelModel))
	fmt.Fprint(o.Out, tb.String())
	fmt.Fprintf(o.Out, "\npaper: %.0f%% reduction; %s\n", 100*paperReduction, paperNote)
	if filt.mappings != base.mappings {
		fmt.Fprintf(o.Out, "note: mapping counts differ slightly (%d vs %d) — the paper observes the same on sim set 2\n",
			filt.mappings, base.mappings)
	}
	return nil
}

func runTable26(o Options) error {
	paper := []struct {
		name      string
		reduction string
	}{
		{"50bp e=0", "81%"}, {"50bp e=1", "83%"}, {"150bp e=0", "54%"}, {"250bp e=0", "72%"},
	}
	cases := []struct {
		profile simdata.ReadProfile
		e       int
	}{
		{simdata.Illumina50, 0}, {simdata.Illumina50, 1},
		{simdata.SimSet2, 0}, {simdata.Illumina250, 0},
	}
	nReads := o.scaled(1_200)
	tb := metrics.NewTable("dataset", "Mappings", "Mapped reads", "Verification pairs",
		"Rejected (reduction)", "paper reduction")
	for i, c := range cases {
		filt, err := runWholeGenome(o, c.profile, 300_000, nReads, c.e, 100_000, true, setup1())
		if err != nil {
			return err
		}
		tb.Add(fmt.Sprintf("%dbp e=%d", c.profile.Length, c.e),
			metrics.FmtInt(filt.stats.Mappings), metrics.FmtInt(filt.stats.MappedReads),
			metrics.FmtInt(filt.stats.VerificationPairs),
			fmt.Sprintf("%s (%.0f%%)", metrics.FmtInt(filt.stats.RejectedPairs), 100*filt.stats.Reduction()),
			paper[i].reduction)
	}
	fmt.Fprint(o.Out, tb.String())
	fmt.Fprintln(o.Out, "\nShape check: substantial reduction at e=0 across lengths; reduction depends on")
	fmt.Fprintln(o.Out, "how many repeat-driven candidates the genome produces, as in the paper's real sets.")
	return nil
}
