// Command gkfilter runs pre-alignment filters on read/candidate pairs and
// reports accuracy against the exact edit distance.
//
// Pairs come either from a registered dataset profile (-set) or from a TSV
// file (-pairs) with one "read<TAB>reference" pair per line.
//
// With -stream, pairs run through the GateKeeper-GPU engine
// (Engine.FilterStream: batches collected off a channel and filtered in
// synchronized rounds on -gpus simulated devices) instead of the per-pair
// filter loop, and the engine's modelled clocks — those of the double-buffered
// device — are reported next to the accuracy numbers.
//
// Usage:
//
//	gkfilter -set set3 -n 10000 -e 5
//	gkfilter -set set1 -n 5000 -e 2 -filter sneakysnake
//	gkfilter -pairs pairs.tsv -e 4 -v
//	gkfilter -set set3 -n 100000 -e 5 -stream -gpus 4 -encoding host
//	gkfilter -set set3 -n 50000 -e 5 -stream -gpus 2 -fault-rate 0.05 -fault-die 3
//
// -fault-rate/-fault-seed/-fault-die inject deterministic device faults into
// a -stream run: the engine retries, quarantines dying devices and re-runs
// their share on the survivors, so decisions stay bit-identical while any
// device survives; with none left the run exits non-zero with the classified
// fault taxonomy after draining its input.
package main

import (
	"bufio"
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"

	"repro/internal/align"
	"repro/internal/cuda"
	"repro/internal/filter"
	"repro/internal/gkgpu"
	"repro/internal/metrics"
	"repro/internal/simdata"
)

func main() {
	var (
		setName    = flag.String("set", "set3", "dataset profile (set1..set12, minimap2, bwamem)")
		pairsFile  = flag.String("pairs", "", "TSV file of read<TAB>reference pairs (overrides -set)")
		n          = flag.Int("n", 10_000, "number of pairs to generate from -set")
		e          = flag.Int("e", 5, "error threshold")
		filterName = flag.String("filter", "gatekeeper-gpu", "filter to run")
		seed       = flag.Int64("seed", 42, "generation seed")
		verbose    = flag.Bool("v", false, "print one line per pair")
		stream     = flag.Bool("stream", false, "filter through the streaming engine instead of the per-pair loop")
		gpus       = flag.Int("gpus", 2, "simulated devices for -stream")
		encoding   = flag.String("encoding", "host", "encoding actor for -stream: host or device")
		faultRate  = flag.Float64("fault-rate", 0, "inject launch/transfer faults on every simulated GPU at this per-op probability (-stream only)")
		faultSeed  = flag.Int64("fault-seed", 0, "fault schedule seed (0 = derive from -seed)")
		faultDie   = flag.Int("fault-die", 0, "simulated GPU 0 dies at its Nth launch (0 = never; -stream only)")
	)
	flag.Parse()
	// Neither simdata.Generate nor Filter.Filter has an error to return, so
	// a negative count or threshold is refused here.
	if *n < 0 {
		fatal(fmt.Errorf("-n %d: negative pair count", *n))
	}
	if *e < 0 {
		fatal(fmt.Errorf("-e %d: negative error threshold", *e))
	}

	f, err := filter.New(*filterName)
	if err != nil {
		fatal(err)
	}
	if *verbose {
		// The verbose listing prints the estimate next to the true edit
		// distance; ask GateKeeper kernels for exhaustive estimates instead
		// of the default sealed bound. Decisions are identical.
		if ex, ok := f.(interface{ SetExactEstimate(bool) }); ok {
			ex.SetExactEstimate(true)
		}
	}

	var reads, refs [][]byte
	if *pairsFile != "" {
		reads, refs, err = loadPairs(*pairsFile)
		if err != nil {
			fatal(err)
		}
	} else {
		profile, err := simdata.Set(*setName)
		if err != nil {
			fatal(err)
		}
		for _, pc := range simdata.Generate(profile, *seed, *n) {
			reads = append(reads, pc.Read)
			refs = append(refs, pc.Ref)
		}
		fmt.Printf("# %s: %d pairs, e=%d, filter=%s\n", profile.Name, len(reads), *e, f.Name())
	}

	var c metrics.Confusion
	if *stream {
		// The stream path always runs the GateKeeper-GPU engine; refuse
		// other -filter values rather than mis-attribute its numbers.
		if *filterName != "gatekeeper-gpu" {
			fatal(fmt.Errorf("-stream runs the gatekeeper-gpu engine; it cannot run -filter %s", *filterName))
		}
		fseed := *faultSeed
		if fseed == 0 {
			fseed = *seed + 1000
		}
		results, err := streamFilter(reads, refs, *e, *gpus, *encoding, *verbose,
			fseed, *faultRate, *faultDie)
		if err != nil {
			fatal(err)
		}
		for i, r := range results {
			trueDist := align.Distance(reads[i], refs[i])
			c.Add(metrics.Outcome{TrueWithin: trueDist <= *e, Accept: r.Accept})
		}
	} else {
		for i := range reads {
			d := f.Filter(reads[i], refs[i], *e)
			trueDist := align.Distance(reads[i], refs[i])
			c.Add(metrics.Outcome{TrueWithin: trueDist <= *e, Accept: d.Accept})
			if *verbose {
				fmt.Printf("pair %d: accept=%v estimate=%d edlib=%d undefined=%v\n",
					i, d.Accept, d.Estimate, trueDist, d.Undefined)
			}
		}
	}

	fmt.Printf("pairs:         %s\n", metrics.FmtInt(c.Pairs))
	fmt.Printf("edlib accepts: %s  rejects: %s\n", metrics.FmtInt(c.EdlibAccepts), metrics.FmtInt(c.EdlibRejects))
	fmt.Printf("filter accepts:%s  rejects: %s\n", metrics.FmtInt(c.FilterAccepts), metrics.FmtInt(c.FilterRejects))
	fmt.Printf("false accepts: %s (rate %s)\n", metrics.FmtInt(c.FalseAccepts), metrics.FmtPct(c.FalseAcceptRate()))
	fmt.Printf("false rejects: %s\n", metrics.FmtInt(c.FalseRejects))
	fmt.Printf("true rejects:  %s (rate %s)\n", metrics.FmtInt(c.TrueRejects), metrics.FmtPct(c.TrueRejectRate()))
}

// streamFilter runs every pair through Engine.FilterStream in input order and
// reports the engine's modelled clocks. Injected faults (the -fault-* flags,
// as cuda.Context.InjectFaults takes them) are survived bit-identically while
// a device remains; a terminal failure surfaces as the classified taxonomy
// error after the input fully drains.
func streamFilter(reads, refs [][]byte, e, gpus int, encoding string, verbose bool,
	faultSeed int64, faultRate float64, faultDie int) ([]gkgpu.Result, error) {

	if len(reads) == 0 {
		return nil, nil
	}
	L := len(reads[0])
	for i := range reads {
		if len(reads[i]) != L || len(refs[i]) != L {
			return nil, fmt.Errorf("-stream needs uniform pair lengths; pair %d has %d/%d, want %d",
				i, len(reads[i]), len(refs[i]), L)
		}
	}
	var enc gkgpu.EncodingActor
	switch encoding {
	case "host":
		enc = gkgpu.EncodeOnHost
	case "device":
		enc = gkgpu.EncodeOnDevice
	default:
		return nil, fmt.Errorf("unknown encoding actor %q (want host or device)", encoding)
	}
	if gpus < 1 {
		return nil, fmt.Errorf("-gpus must be positive, got %d", gpus)
	}
	// Batch granularity (per device): small enough that the run takes more
	// than one batch, large enough to amortize launches.
	streamBatch := len(reads) / (2 * gpus)
	if streamBatch < 256 {
		streamBatch = 256
	}
	if streamBatch > 1<<16 {
		streamBatch = 1 << 16
	}
	cctx := cuda.NewUniformContext(gpus, cuda.GTX1080Ti())
	eng, err := gkgpu.NewEngine(gkgpu.Config{ReadLen: L, MaxE: e, Encoding: enc,
		MaxBatchPairs: 1 << 16, StreamBatchPairs: streamBatch}, cctx)
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	if err := cctx.InjectFaults(faultSeed, faultRate, faultDie); err != nil {
		return nil, err
	}

	in := make(chan gkgpu.Pair, 1024)
	out, err := eng.FilterStream(context.Background(), in, e)
	if err != nil {
		return nil, err
	}
	go func() {
		for i := range reads {
			in <- gkgpu.Pair{Read: reads[i], Ref: refs[i]}
		}
		close(in)
	}()
	results := make([]gkgpu.Result, 0, len(reads))
	for r := range out {
		if verbose {
			// The engine's estimate is the bound its decision was sealed at
			// (>= the exact windowed count on an accept, <= it on a reject);
			// the per-pair mode prints exact estimates.
			fmt.Printf("pair %d: accept=%v sealed-bound=%d undefined=%v\n",
				len(results), r.Accept, r.Estimate, r.Undefined)
		}
		results = append(results, r)
	}
	if err := eng.StreamErr(); err != nil {
		return nil, fmt.Errorf("stream aborted: %w", err)
	}
	if len(results) != len(reads) {
		return nil, fmt.Errorf("stream returned %d of %d results", len(results), len(reads))
	}
	st := eng.Stats()
	fmt.Printf("# stream: %d devices, %s-encoded, %d batches\n", gpus, enc, st.Batches)
	fmt.Printf("# modelled kernel %.4fs, filter %.4fs (%.1f M pairs/s); wall %.3fs\n",
		st.KernelSeconds, st.FilterSeconds,
		float64(st.Pairs)/st.FilterSeconds/1e6, st.WallSeconds)
	return results, nil
}

func loadPairs(path string) (reads, refs [][]byte, err error) {
	fh, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer func() { _ = fh.Close() }() //gk:allow errcheck: read-only input; scan errors surface via the scanner
	sc := bufio.NewScanner(fh)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	line := 0
	for sc.Scan() {
		line++
		b := bytes.TrimSpace(sc.Bytes())
		if len(b) == 0 || b[0] == '#' {
			continue
		}
		parts := bytes.Split(b, []byte("\t"))
		if len(parts) != 2 {
			return nil, nil, fmt.Errorf("%s:%d: want read<TAB>reference", path, line)
		}
		if len(parts[0]) != len(parts[1]) {
			return nil, nil, fmt.Errorf("%s:%d: unequal lengths %d/%d", path, line, len(parts[0]), len(parts[1]))
		}
		reads = append(reads, append([]byte(nil), parts[0]...))
		refs = append(refs, append([]byte(nil), parts[1]...))
	}
	return reads, refs, sc.Err()
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "gkfilter: %v\n", err)
	os.Exit(1)
}
