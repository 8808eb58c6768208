package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"sort"
	"time"

	"repro/internal/align"
	"repro/internal/dna"
	"repro/internal/filter"
	"repro/internal/gkgpu"
	"repro/internal/mapper"
	"repro/internal/metrics"
)

// metricSet is a bag of named values; min keeps the best (lowest) time seen
// for a name across rounds.
type metricSet map[string]float64

func (m metricSet) min(name string, v float64) {
	if old, ok := m[name]; !ok || v < old {
		m[name] = v
	}
}

// counters is a reading of the process-wide hot-path counters.
type counters struct{ Filtrations, SeedLookups, ContigLocates uint64 }

func readCounters() counters {
	return counters{metrics.Filtrations.Load(), metrics.SeedLookups.Load(), metrics.ContigLocates.Load()}
}

func (c counters) sub(d counters) counters {
	return counters{c.Filtrations - d.Filtrations, c.SeedLookups - d.SeedLookups, c.ContigLocates - d.ContigLocates}
}

// decisions tallies filter results the way mapper.Stats does: an undefined
// pair is accepted and counted under both.
type decisions struct{ accepted, rejected, undefined int64 }

func (d *decisions) add(r gkgpu.Result) {
	switch {
	case !r.Accept:
		d.rejected++
	case r.Undefined:
		d.undefined++
		d.accepted++
	default:
		d.accepted++
	}
}

// delta is the distance between a probe's decisions and what the program
// reported for the same workload.
func (d decisions) delta(st mapper.Stats) float64 {
	abs := func(x int64) int64 {
		if x < 0 {
			return -x
		}
		return x
	}
	return float64(abs(d.accepted-st.VerificationPairs) + abs(d.rejected-st.RejectedPairs) + abs(d.undefined-st.UndefinedPairs))
}

// sink keeps probe results alive so the compiler cannot drop the calls.
var sink int

// tracedPass is the per-layer measurement of one workload: the six
// configurations and one probe per layer, each inside a span recorded here
// around the layer's public functions, on the workload's own reads and
// candidates. Times keep the best of the rounds; counts are exact.
type tracedPass struct {
	r      *rig
	tr     *tracer
	parent int // the workload span

	best metricSet // best seconds by span name
	vals metricSet // the per-layer metrics

	stats     [nConfigs]mapper.Stats // as the program reported the traced runs
	counts    [nConfigs]counters
	defined   int // candidates without an 'N': the filter probes' pairs
	mapped    int // candidates that verify: the traceback probe's pairs
	attempted int64
	failed    int64
	firstErr  error
}

func (p *tracedPass) fail(what string, err error) {
	if err != nil && p.firstErr == nil {
		p.firstErr = fmt.Errorf("%s %s: %w", p.r.in.wl.Name, what, err)
	}
}

// span runs fn inside a span and keeps the span's time if it is the best yet
// for its name.
func (p *tracedPass) span(name string, fn func()) {
	id := p.tr.begin(p.parent, name, p.r.in.wl.Name)
	fn()
	p.best.min(name, p.tr.end(id))
}

// gated sends one run through the correctness gate.
func (p *tracedPass) gated(c config, out runOut) {
	p.attempted += int64(len(p.r.in.seqs))
	p.failed += int64(p.r.check(c, out))
	p.fail(configNames[c], out.err)
}

// allocated runs fn and returns the bytes and objects it allocated.
func allocated(fn func()) (bytes, mallocs float64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return float64(b.TotalAlloc - a.TotalAlloc), float64(b.Mallocs - a.Mallocs)
}

// configs runs every configuration once under a span, then the one-shot gpu
// configuration once more with no span around it: the gap between the two is
// what tracing costs.
func (p *tracedPass) configs() (fileOut runOut) {
	reads := float64(len(p.r.in.seqs))
	for c := config(0); c < nConfigs; c++ {
		runtime.GC()
		var out runOut
		before := readCounters()
		bytes, mallocs := allocated(func() {
			p.span("config:"+configNames[c], func() { out = p.r.run(c) })
		})
		p.counts[c] = readCounters().sub(before)
		p.gated(c, out)
		p.stats[c] = out.stats
		p.best.min("wall:"+configNames[c], out.wall)
		switch c {
		case oneshotGPU:
			p.vals["mapper.oneshot_alloc_b_per_read"] = bytes / reads
			p.vals["mapper.oneshot_mallocs_per_read"] = mallocs / reads
		case streamGPU:
			p.vals["mapper.stream_alloc_b_per_read"] = bytes / reads
		case fileSAM:
			p.vals["mapper.file_alloc_b_per_read"] = bytes / reads
			fileOut = out
		}
	}
	runtime.GC()
	out := p.r.run(oneshotGPU)
	p.gated(oneshotGPU, out)
	p.best.min("untraced:oneshot_gpu", out.wall)
	return fileOut
}

// seeding is the seed probe's output: the oriented queries MapReads builds
// (each read, then its reverse complement under BothStrands) and their
// candidates in query order.
type seeding struct {
	queries [][]byte
	cands   []gkgpu.Candidate
	perRead []int // candidates per read, both strands summed
	lookups int64
	hits    int64
}

// seed repeats the mapper's pigeonhole seeding from outside, through
// Index.Lookup and Reference.WindowContig: e+1 seeds at evenly spread
// offsets, each hit proposing the window that places the read at that
// offset, then sort and dedup per query. Its candidate count is compared
// with mapper.Stats (mapper.seed_probe_delta), so a later change to the
// mapper's seeding shows as a number here.
func (p *tracedPass) seed(queries [][]byte) seeding {
	in := p.r.in
	idx := p.r.gpu.Index()
	L, e, k, step := in.wl.Profile.Length, in.wl.E, idx.K(), idx.Step()
	nSeeds := max(1, min(e+1, L/k))
	perQuery := 1
	if in.wl.BothStrands {
		perQuery = 2
	}
	s := seeding{queries: queries, perRead: make([]int, len(in.seqs))}
	var pos []int64
	for qi, q := range queries {
		pos = pos[:0]
		for i := 0; i < nSeeds; i++ {
			off := 0
			if nSeeds > 1 {
				off = i * (L - k) / (nSeeds - 1)
			}
			for o := off; o < off+step && o+k <= L; o++ {
				s.lookups++
				for _, hit := range idx.Lookup(q[o : o+k]) {
					s.hits++
					if w := hit - int64(o); in.ref.WindowContig(int(w), L) >= 0 {
						pos = append(pos, w)
					}
				}
			}
		}
		sort.Slice(pos, func(i, j int) bool { return pos[i] < pos[j] })
		for i, w := range pos {
			if i > 0 && w == pos[i-1] {
				continue
			}
			s.cands = append(s.cands, gkgpu.Candidate{ReadID: int64(qi), Pos: w})
			s.perRead[qi/perQuery]++
		}
	}
	return s
}

// pair returns the bytes of one candidate: the query and its window.
func (s *seeding) pair(ref []byte, c gkgpu.Candidate, L int) (read, window []byte) {
	return s.queries[c.ReadID], ref[c.Pos : int(c.Pos)+L]
}

// probes runs one probe per layer. fileOut is the traced file_sam run, whose
// mappings the SAM probe writes again.
func (p *tracedPass) probes(fileOut runOut) {
	in := p.r.in
	L, e := in.wl.Profile.Length, in.wl.E
	v := p.vals

	// dna: FASTQ decode, 2-bit encode, reverse complement, over every read.
	p.span("dna.decode", func() {
		sc := dna.NewFASTQScanner(bytes.NewReader(in.fastq))
		for sc.Scan() {
			sink += len(sc.Record().Seq)
		}
		p.fail("dna.decode", sc.Err())
	})
	words := make([]uint64, dna.WordsFor(L))
	p.span("dna.encode", func() {
		for _, s := range in.seqs {
			sink += dna.TryEncodeInto(words, s)
		}
	})
	rcs := make([][]byte, len(in.seqs))
	p.span("dna.revcomp", func() {
		for i, s := range in.seqs {
			rcs[i] = dna.ReverseComplement(s)
		}
	})
	queries := in.seqs
	if in.wl.BothStrands {
		queries = make([][]byte, 0, 2*len(in.seqs))
		for i, s := range in.seqs {
			queries = append(queries, s, rcs[i])
		}
	}

	// mapper: index build, serialize and load through a buffer.
	var idx *mapper.Index
	p.span("mapper.index_build", func() {
		var err error
		idx, err = mapper.NewSteppedReferenceIndex(in.ref, p.r.gpu.Index().K(), p.r.gpu.Index().Step())
		p.fail("mapper.index_build", err)
	})
	if idx == nil {
		return
	}
	v["mapper.index_entries"] = float64(idx.Entries())
	var gkix bytes.Buffer
	p.span("mapper.index_serialize", func() { p.fail("mapper.index_serialize", idx.Serialize(&gkix)) })
	p.span("mapper.index_load", func() {
		_, err := mapper.LoadIndex(bytes.NewReader(gkix.Bytes()), in.ref)
		p.fail("mapper.index_load", err)
	})

	// mapper: seeding.
	var s seeding
	p.span("mapper.seed", func() { s = p.seed(queries) })
	v["mapper.seed_lookups"] = float64(s.lookups)
	v["mapper.seed_hits"] = float64(s.hits)
	v["mapper.candidates"] = float64(len(s.cands))
	per := s.perRead
	sort.Ints(per)
	v["mapper.cand_per_read_p50"] = float64(per[len(per)/2])
	v["mapper.cand_per_read_p99"] = float64(per[len(per)*99/100])
	v["mapper.cand_per_read_max"] = float64(per[len(per)-1])
	v["mapper.seed_probe_delta"] = float64(len(s.cands)) - float64(p.stats[oneshotGPU].CandidatePairs)

	// gkgpu: the three filtering entry points the mapper uses, on the
	// probe's candidates.
	var cpuRes, gpuRes []gkgpu.Result
	p.span("gkgpu.cpu_filter", func() {
		var err error
		cpuRes, err = p.r.cpuEng.FilterCandidates(s.queries, s.cands, e)
		p.fail("gkgpu.cpu_filter", err)
	})
	model := p.r.gpuEng.Stats()
	p.span("gkgpu.gpu_filter", func() {
		var err error
		gpuRes, err = p.r.gpuEng.FilterCandidates(s.queries, s.cands, e)
		p.fail("gkgpu.gpu_filter", err)
	})
	after := p.r.gpuEng.Stats()
	v["cuda.kernel_model_s"] = after.KernelSeconds - model.KernelSeconds
	v["cuda.filter_model_s"] = after.FilterSeconds - model.FilterSeconds
	v["cuda.hostprep_model_s"] = after.HostPrepSeconds - model.HostPrepSeconds
	var streamDec decisions
	p.span("gkgpu.gpu_stream_filter", func() {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		feed := make(chan gkgpu.StreamCandidate, feedDepth)
		out, err := p.r.gpuEng.FilterCandidateStream(ctx, feed, e)
		if err != nil {
			p.fail("gkgpu.gpu_stream_filter", err)
			return
		}
		fed := make(chan struct{})
		go func() {
			defer close(fed)
			defer close(feed)
			for _, c := range s.cands {
				select {
				case feed <- gkgpu.StreamCandidate{Read: s.queries[c.ReadID], Pos: c.Pos}:
				case <-ctx.Done():
					return
				}
			}
		}()
		for r := range out {
			streamDec.add(r)
		}
		cancel()
		<-fed
		p.fail("gkgpu.gpu_stream_filter", p.r.gpuEng.StreamErr())
	})
	streamed := p.r.gpuEng.Stats()
	v["gkgpu.stream_batches"] = float64(streamed.Batches - after.Batches)
	v["gkgpu.retries"] = float64(streamed.Retries - after.Retries)
	if len(gpuRes) != len(s.cands) || len(cpuRes) != len(s.cands) {
		return
	}
	var cpuDec, gpuDec decisions
	for i := range gpuRes {
		cpuDec.add(cpuRes[i])
		gpuDec.add(gpuRes[i])
	}
	v["gkgpu.accepted"] = float64(gpuDec.accepted)
	v["gkgpu.rejected"] = float64(gpuDec.rejected)
	v["gkgpu.undefined"] = float64(gpuDec.undefined)
	v["gkgpu.reduction_share"] = float64(gpuDec.rejected) / float64(max(len(s.cands), 1))
	v["gkgpu.filter_probe_delta"] = cpuDec.delta(p.stats[oneshotCPU]) + gpuDec.delta(p.stats[oneshotGPU]) +
		streamDec.delta(p.stats[streamGPU])

	// filter: the kernel on pre-encoded pairs against the same pairs as
	// bytes; the gap is per-candidate re-encoding. Pairs with an 'N' never
	// reach the kernel and are left out of both.
	ew := dna.WordsFor(L)
	enc := make([]uint64, 0, 2*ew*len(s.cands))
	var defined []gkgpu.Candidate
	for _, c := range s.cands {
		read, window := s.pair(in.genome, c, L)
		n := len(enc)
		enc = enc[:n+2*ew]
		if dna.TryEncodeInto(enc[n:n+ew], read) >= 0 || dna.TryEncodeInto(enc[n+ew:], window) >= 0 {
			enc = enc[:n]
			continue
		}
		defined = append(defined, c)
	}
	kern := filter.NewKernel(filter.ModeGPU, L, e)
	p.defined = len(defined)
	accepts := 0
	p.span("filter.kernel", func() {
		accepts = 0
		for i := range defined {
			n := 2 * ew * i
			if _, ok := kern.FilterEncoded(enc[n:n+ew], enc[n+ew:n+2*ew], e); ok {
				accepts++
			}
		}
	})
	v["filter.kernel_accept_share"] = float64(accepts) / float64(max(p.defined, 1))
	p.span("filter.checked", func() {
		for _, c := range defined {
			read, window := s.pair(in.genome, c, L)
			d, err := kern.FilterChecked(read, window, e)
			if err != nil {
				p.fail("filter.checked", err)
				return
			}
			sink += d.Estimate
		}
	})

	// align: the verifier over what the filter lets through, over every
	// candidate (what no-filter mapping pays), and traceback over the pairs
	// that map.
	var mapped []gkgpu.Candidate
	verifyPairs := 0
	verifyBytes, _ := allocated(func() {
		p.span("align.verify", func() {
			mapped, verifyPairs = mapped[:0], 0
			for i, c := range s.cands {
				if !gpuRes[i].Accept {
					continue
				}
				verifyPairs++
				read, window := s.pair(in.genome, c, L)
				if _, ok := align.DistanceBanded(read, window, e); ok {
					mapped = append(mapped, c)
				}
			}
		})
	})
	v["align.verify_pairs"] = float64(verifyPairs)
	v["align.verify_hit_share"] = float64(len(mapped)) / float64(max(verifyPairs, 1))
	v["align.verify_alloc_b_per_pair"] = verifyBytes / float64(max(verifyPairs, 1))
	p.span("align.verify_all", func() {
		for _, c := range s.cands {
			read, window := s.pair(in.genome, c, L)
			if d, ok := align.DistanceBanded(read, window, e); ok {
				sink += d
			}
		}
	})
	tbBytes, _ := allocated(func() {
		p.span("align.traceback", func() {
			for _, c := range mapped {
				read, window := s.pair(in.genome, c, L)
				if al, ok := align.Align(read, window, e); ok {
					sink += len(al.CIGARCompat())
				}
			}
		})
	})
	p.mapped = len(mapped)
	v["align.traceback_alloc_b_per_pair"] = tbBytes / float64(max(p.mapped, 1))

	// mapper: SAM formatting of the traced file_sam run's mappings.
	if fileOut.err == nil {
		hc := newHashCounter()
		p.span("mapper.sam_write", func() {
			p.fail("mapper.sam_write", mapper.WriteSAM(hc, in.ref, nil, in.seqs, fileOut.mappings))
		})
		v["mapper.sam_bytes"] = float64(hc.n)
	}
}

// width2 measures one-shot and streaming gpu mapping at GOMAXPROCS 2 (or 1
// on a one-CPU machine), on an engine built at that width, and restores the
// width afterwards. Width-2 walls are bimodal on a shared 2-vCPU machine,
// so they are per-layer numbers, never gates.
func (p *tracedPass) width2(reps int) {
	prev := runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))
	defer runtime.GOMAXPROCS(prev)
	m, eng, err := setupGPU(p.r.in, false)
	if err != nil {
		p.fail("width2 set-up", err)
		return
	}
	defer eng.Close()
	for i := 0; i < reps; i++ {
		for _, c := range []config{oneshotGPU, streamGPU} {
			runtime.GC()
			var out runOut
			p.span("width2:"+configNames[c], func() { out = p.r.runOn(m, c) })
			p.gated(c, out)
			p.best.min("wall2:"+configNames[c], out.wall)
		}
	}
}

// finish derives the per-layer metrics from the best times and the traced
// one-shot gpu run's own report.
func (p *tracedPass) finish() {
	in, b, v := p.r.in, p.best, p.vals
	reads := float64(len(in.seqs))
	bases := reads * float64(in.wl.Profile.Length)
	cands := v["mapper.candidates"]

	// A probe span "layer.x" is the metric "layer.x_s".
	for _, name := range []string{"dna.decode", "dna.encode", "dna.revcomp", "mapper.index_build",
		"mapper.index_serialize", "mapper.index_load", "mapper.seed", "gkgpu.cpu_filter", "gkgpu.gpu_filter",
		"gkgpu.gpu_stream_filter", "align.verify", "align.verify_all", "mapper.sam_write"} {
		v[name+"_s"] = b[name]
	}
	v["dna.decode_mb_per_s"] = float64(len(in.fastq)) / 1e6 / b["dna.decode"]
	v["dna.encode_mbases_per_s"] = bases / 1e6 / b["dna.encode"]
	v["gkgpu.cpu_filter_mpairs_per_s"] = cands / 1e6 / b["gkgpu.cpu_filter"]
	v["gkgpu.gpu_filter_mpairs_per_s"] = cands / 1e6 / b["gkgpu.gpu_filter"]
	v["filter.kernel_ns_per_pair"] = b["filter.kernel"] * 1e9 / float64(max(p.defined, 1))
	v["filter.checked_ns_per_pair"] = b["filter.checked"] * 1e9 / float64(max(p.defined, 1))
	v["align.verify_ns_per_pair"] = b["align.verify"] * 1e9 / max(v["align.verify_pairs"], 1)
	v["align.traceback_ns_per_pair"] = b["align.traceback"] * 1e9 / float64(max(p.mapped, 1))
	v["mapper.sam_mb_per_s"] = v["mapper.sam_bytes"] / 1e6 / b["mapper.sam_write"]

	st := p.stats[oneshotGPU]
	parts := map[string]float64{
		"seed": st.SeedSeconds, "prep": st.PreprocessSeconds,
		"filter": st.FilterWallSeconds, "verify": st.VerifySeconds,
	}
	parts["other"] = st.TotalSeconds - st.SeedSeconds - st.PreprocessSeconds - st.FilterWallSeconds - st.VerifySeconds
	for name, s := range parts {
		v["mapper.oneshot_"+name+"_s"] = s
		v["mapper.oneshot_"+name+"_share"] = s / st.TotalSeconds
	}
	v["mapper.verification_pairs"] = float64(st.VerificationPairs)
	v["mapper.mappings"] = float64(st.Mappings)
	v["mapper.mapped_reads"] = float64(st.MappedReads)
	v["mapper.stream_vs_oneshot"] = b["wall:stream_gpu"] / b["wall:oneshot_gpu"]
	v["mapper.filter_payoff"] = b["wall:oneshot_none"] / b["wall:oneshot_gpu"]
	v["mapper.heap_inuse_after_setup_mb"] = p.r.heapInuseMB
	v["mapper.oneshot_w2_speedup"] = b["wall:oneshot_gpu"] / b["wall2:oneshot_gpu"]
	v["mapper.stream_w2_speedup"] = b["wall:stream_gpu"] / b["wall2:stream_gpu"]
	v["metrics.filtrations"] = float64(p.counts[oneshotGPU].Filtrations)
	v["metrics.seed_lookups"] = float64(p.counts[oneshotGPU].SeedLookups)
	v["metrics.contig_locates"] = float64(p.counts[oneshotGPU].ContigLocates)
	v["trace.overhead_share"] = b["wall:oneshot_gpu"]/b["untraced:oneshot_gpu"] - 1
}

// traced makes the traced pass: rounds of (configurations, probes) with the
// width-2 runs after the first round. It makes `rounds` rounds, or when
// seconds > 0 as many as fit.
func (r *rig) traced(tr *tracer, parent, rounds, w2reps int, seconds float64) *tracedPass {
	p := &tracedPass{r: r, tr: tr, parent: parent, best: metricSet{}, vals: metricSet{}}
	start := time.Now()
	for n := 0; ; n++ {
		if seconds > 0 {
			if n >= 1 && time.Since(start).Seconds() >= seconds {
				break
			}
		} else if n >= rounds {
			break
		}
		p.probes(p.configs())
		if n == 0 {
			p.width2(w2reps)
		}
		if p.firstErr != nil {
			break
		}
	}
	p.finish()
	return p
}
