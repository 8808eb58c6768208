package harness

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/align"
	"repro/internal/dna"
	"repro/internal/filter"
	"repro/internal/mapper"
	"repro/internal/ref32"
	"repro/internal/simdata"
)

// BenchEntry is one micro-benchmark row of a machine-readable baseline.
type BenchEntry struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	PairsPerSec float64 `json:"pairs_per_s,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// BenchReport is the schema of a BENCH_<stamp>.json perf baseline: enough
// to compare kernels, filters, and the seed index across PRs without
// re-running the old code.
type BenchReport struct {
	Stamp     string `json:"stamp"`
	Label     string `json:"label,omitempty"`
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	CPUs      int    `json:"cpus"`
	// GOMAXPROCS is the scheduler width the capture actually ran at — the
	// number that makes two captures comparable. Zero in a decoded report
	// means a pre-convention capture of unknown width; CompareBaseline
	// treats any width mismatch as invalid for trajectory claims.
	GOMAXPROCS int `json:"gomaxprocs"`
	// BenchTime is the per-measurement budget of the testing runner
	// (captures at different budgets have different noise floors).
	BenchTime string `json:"benchtime"`

	// Kernels are single-pair filtration paths: the fused 64-bit kernel
	// (several geometries, pre-encoded and raw-byte) and the retained
	// 32-bit unfused chain (internal/ref32), whose ratio against the fused
	// kernel is the PR's claimed speedup, reproducible from the repo alone.
	Kernels []BenchEntry `json:"kernels"`
	// Filters are whole-Filter pairs/s for every implemented filter on one
	// standard dataset (set1, e=5), the Figure 5 hot loop.
	Filters []BenchEntry `json:"filters"`
	// Index covers the CSR seed index: build and lookup.
	Index []BenchEntry `json:"index"`
	// Verifier is the mapper's verification kernel at its steady state — one
	// Prepare, then Distance or Align per window — at the rig's two read
	// shapes, one row per kind of window: the wavefront settles some kinds
	// and hands others to the column pass, so no single row stands for it.
	Verifier []BenchEntry `json:"verifier,omitempty"`
}

// sections lists a report's rows in print order.
func (r BenchReport) sections() [][]BenchEntry {
	return [][]BenchEntry{r.Kernels, r.Filters, r.Index, r.Verifier}
}

// benchPairsPerSec converts a benchmark over `pairs` pairs per op into a rate.
func benchPairsPerSec(r testing.BenchmarkResult, pairs int) float64 {
	if r.T <= 0 {
		return 0
	}
	return float64(pairs) * float64(r.N) / r.T.Seconds()
}

func entry(name string, r testing.BenchmarkResult, pairs int) BenchEntry {
	e := BenchEntry{
		Name:        name,
		NsPerOp:     float64(r.NsPerOp()),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}
	if pairs > 0 {
		e.PairsPerSec = benchPairsPerSec(r, pairs)
	}
	return e
}

// RunBenchJSON runs the kernel/filter/index micro-benchmark suite and
// writes a BENCH_<stamp>.json baseline into dir (default "."), returning
// the path. It is the machinery behind `gkbench -json`; each measurement
// uses the testing package's benchmark runner, so rows are directly
// comparable with `go test -bench` output.
func RunBenchJSON(dir, label string, out io.Writer) (string, error) {
	if dir == "" {
		dir = "."
	}
	rep := BenchReport{
		Stamp:      time.Now().UTC().Format("20060102T150405Z"),
		Label:      label,
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		CPUs:       runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		BenchTime:  "1s", // the testing runner's default budget
	}

	// Kernel suite: the Figure 4/7 hot loop on generated dataset pairs.
	type geom struct {
		name string
		set  string
		L, e int
	}
	for _, g := range []geom{
		{"fused-L100-e5", "set3", 100, 5},
		{"fused-L250-e10", "set11", 250, 10},
	} {
		p, err := simdata.Set(g.set)
		if err != nil {
			return "", err
		}
		all := simdata.ToEnginePairs(simdata.Generate(p, 42, 1000))
		// Drop undefined ('N') pairs so both kernels run the same defined
		// workload: the fused kernel shortcuts them, the reference panics.
		pairs := all[:0]
		for _, pr := range all {
			if !dna.HasN(pr.Read) && !dna.HasN(pr.Ref) {
				pairs = append(pairs, pr)
			}
		}
		kern := filter.NewKernel(filter.ModeGPU, g.L, g.e)
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, pr := range pairs {
					kern.Filter(pr.Read, pr.Ref, g.e)
				}
			}
		})
		rep.Kernels = append(rep.Kernels, entry("kernel-"+g.name, r, len(pairs)))

		// The retained 32-bit unfused chain on the same pairs: the in-repo
		// pre-optimization reference.
		r32 := ref32.NewKernel(true, g.L)
		rr := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, pr := range pairs {
					r32.Filter(pr.Read, pr.Ref, g.e)
				}
			}
		})
		rep.Kernels = append(rep.Kernels, entry("kernel-ref32-"+g.name[6:], rr, len(pairs)))
	}

	// Pre-encoded path (what the engine's launch stage runs).
	{
		p, err := simdata.Set("set3")
		if err != nil {
			return "", err
		}
		pairs := simdata.ToEnginePairs(simdata.Generate(p, 42, 1000))
		type encPair struct{ read, ref []uint64 }
		enc := make([]encPair, 0, len(pairs))
		for _, pr := range pairs {
			re, err1 := dna.Encode(pr.Read)
			fe, err2 := dna.Encode(pr.Ref)
			if err1 != nil || err2 != nil {
				continue // undefined pairs bypass the encoded path
			}
			enc = append(enc, encPair{re, fe})
		}
		kern := filter.NewKernel(filter.ModeGPU, 100, 5)
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, pr := range enc {
					kern.FilterEncoded(pr.read, pr.ref, 5)
				}
			}
		})
		rep.Kernels = append(rep.Kernels, entry("kernel-fused-encoded-L100-e5", r, len(enc)))
	}

	// Per-filter pairs/s, Figure 5's loop on set1.
	{
		p, err := simdata.Set("set1")
		if err != nil {
			return "", err
		}
		pairs := simdata.ToEnginePairs(simdata.Generate(p, 42, 300))
		for _, f := range filter.All() {
			f := f
			r := testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					for _, pr := range pairs {
						f.Filter(pr.Read, pr.Ref, 5)
					}
				}
			})
			rep.Filters = append(rep.Filters, entry(f.Name(), r, len(pairs)))
		}
	}

	// CSR index: build rate and lookup latency.
	{
		rng := rand.New(rand.NewSource(42))
		ref := dna.RandomSeq(rng, 500_000)
		rb := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := mapper.NewIndex(ref, mapper.DefaultSeedLen); err != nil {
					b.Fatal(err)
				}
			}
		})
		rep.Index = append(rep.Index, entry("index-build-500k", rb, 0))

		idx, err := mapper.NewIndex(ref, mapper.DefaultSeedLen)
		if err != nil {
			return "", err
		}
		seeds := make([][]byte, 1024)
		for i := range seeds {
			p := rng.Intn(len(ref) - mapper.DefaultSeedLen)
			seeds[i] = ref[p : p+mapper.DefaultSeedLen]
		}
		var sink int
		rl := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sink += len(idx.Lookup(seeds[i&1023]))
			}
		})
		_ = sink
		rep.Index = append(rep.Index, entry("index-lookup", rl, 0))

		// GKIX serialization: raw-slab write rate and zero-copy load rate
		// over the same 500k index (PR 8's genome-scale startup path).
		var blob bytes.Buffer
		if err := idx.Serialize(&blob); err != nil {
			return "", err
		}
		rs := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var buf bytes.Buffer
				buf.Grow(blob.Len())
				if err := idx.Serialize(&buf); err != nil {
					b.Fatal(err)
				}
			}
		})
		rep.Index = append(rep.Index, entry("index-serialize-500k", rs, 0))

		refObj := mapper.SingleContig("", ref)
		data := blob.Bytes()
		ld := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := mapper.LoadIndex(bytes.NewReader(data), refObj); err != nil {
					b.Fatal(err)
				}
			}
		})
		rep.Index = append(rep.Index, entry("index-load-500k", ld, 0))
	}

	// Verifier: 64 windows of one kind against one prepared read, the way a
	// mapper worker meets a read's candidates. Read and window are equally
	// long, as the mapper's are: the read is the first L bases of an edited
	// copy of the window's locus.
	for _, g := range []struct{ L, e int }{{100, 5}, {300, 15}} {
		rng := rand.New(rand.NewSource(42))
		locus := dna.RandomSeq(rng, g.L+g.e)
		read := locus[:g.L]
		for _, kind := range []struct {
			name  string
			edits int // -1: an unrelated window
		}{{"hit-d1", 1}, {"hit-de", g.e}, {"near-miss", g.e + 3}, {"random-miss", -1}} {
			windows := make([][]byte, 64)
			for i := range windows {
				if kind.edits < 0 {
					windows[i] = dna.RandomSeq(rng, g.L)
					continue
				}
				windows[i] = dna.ApplyEdits(locus, dna.RandomEdits(rng, g.L, kind.edits, 0.3))[:g.L]
			}
			var v align.Verifier
			v.Prepare(read)
			for _, traceback := range []bool{false, true} {
				name := "verifier-distance"
				if traceback {
					name = "verifier-align"
				}
				r := testing.Benchmark(func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						for _, w := range windows {
							if traceback {
								v.Align(w, g.e)
							} else {
								v.Distance(w, g.e)
							}
						}
					}
				})
				rep.Verifier = append(rep.Verifier,
					entry(fmt.Sprintf("%s-L%d-e%d-%s", name, g.L, g.e, kind.name), r, len(windows)))
			}
		}
	}

	path := fmt.Sprintf("%s/BENCH_%s.json", dir, rep.Stamp)
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return "", err
	}
	if out != nil {
		fmt.Fprintf(out, "wrote %s (gomaxprocs=%d benchtime=%s)\n", path, rep.GOMAXPROCS, rep.BenchTime)
		for _, e := range append(rep.Kernels, rep.Verifier...) {
			fmt.Fprintf(out, "  %-40s %12.0f ns/op %12.0f pairs/s %4d allocs/op\n",
				e.Name, e.NsPerOp, e.PairsPerSec, e.AllocsPerOp)
		}
		for _, e := range rep.Index {
			fmt.Fprintf(out, "  %-40s %12.0f ns/op %4d allocs/op\n", e.Name, e.NsPerOp, e.AllocsPerOp)
		}
	}
	return path, nil
}

// LoadBenchReport decodes one BENCH_<stamp>.json capture.
func LoadBenchReport(path string) (BenchReport, error) {
	var rep BenchReport
	data, err := os.ReadFile(path)
	if err != nil {
		return rep, err
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		return rep, fmt.Errorf("harness: decoding %s: %w", path, err)
	}
	return rep, nil
}

// CompareBench prints cur's rows against a baseline capture, row by row,
// with the new/old throughput ratio. When the captures disagree on machine
// width (CPUs or GOMAXPROCS — a baseline predating the gomaxprocs field
// reports "unknown") the comparison is printed anyway but framed by a loud
// warning: rates measured at different widths are not a perf trajectory,
// which is exactly the apples-to-oranges mistake the pre-PR-7 captures made.
// Baseline rows the current suite no longer has are listed too, as retired
// rows, so a row cannot leave the trajectory unnoticed.
func CompareBench(baseline, cur BenchReport, out io.Writer) {
	crossWidth := baseline.CPUs != cur.CPUs || baseline.GOMAXPROCS != cur.GOMAXPROCS
	warn := func() {
		oldWidth := fmt.Sprintf("%d", baseline.GOMAXPROCS)
		if baseline.GOMAXPROCS == 0 {
			oldWidth = "unknown"
		}
		fmt.Fprintf(out, "WARNING: cross-width comparison: baseline %s ran on cpus=%d gomaxprocs=%s,\n",
			baseline.Stamp, baseline.CPUs, oldWidth)
		fmt.Fprintf(out, "WARNING: this capture on cpus=%d gomaxprocs=%d. Throughput ratios below are\n",
			cur.CPUs, cur.GOMAXPROCS)
		fmt.Fprintf(out, "WARNING: NOT comparable and must not be read as a perf trajectory.\n")
	}
	if crossWidth {
		fmt.Fprintln(out, "****************************************************************")
		warn()
		fmt.Fprintln(out, "****************************************************************")
	}
	old := make(map[string]BenchEntry)
	var oldNames []string // baseline order, for the retired rows
	for _, rows := range baseline.sections() {
		for _, e := range rows {
			old[e.Name] = e
			oldNames = append(oldNames, e.Name)
		}
	}
	fmt.Fprintf(out, "vs baseline %s (label %q):\n", baseline.Stamp, baseline.Label)
	for _, rows := range cur.sections() {
		for _, e := range rows {
			o, ok := old[e.Name]
			delete(old, e.Name)
			if !ok {
				fmt.Fprintf(out, "  %-40s %12.0f ns/op   (new row, no baseline)\n", e.Name, e.NsPerOp)
				continue
			}
			if e.PairsPerSec > 0 && o.PairsPerSec > 0 {
				fmt.Fprintf(out, "  %-40s %12.0f -> %12.0f pairs/s  (x%.2f)\n",
					e.Name, o.PairsPerSec, e.PairsPerSec, e.PairsPerSec/o.PairsPerSec)
			} else if o.NsPerOp > 0 {
				fmt.Fprintf(out, "  %-40s %12.0f -> %12.0f ns/op    (x%.2f)\n",
					e.Name, o.NsPerOp, e.NsPerOp, o.NsPerOp/e.NsPerOp)
			}
		}
	}
	for _, name := range oldNames {
		if o, ok := old[name]; ok {
			fmt.Fprintf(out, "  %-40s %12.0f ns/op   (retired row: in the baseline, not in this suite)\n", name, o.NsPerOp)
		}
	}
	if crossWidth {
		warn()
	}
}
