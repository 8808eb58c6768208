// Command gkrig is the repository's FASTQ -> SAM benchmark. One command
// generates seeded workloads in memory, maps each through six configurations
// of the mapper's public entry points at GOMAXPROCS 1, checks every output
// against the no-filter reference, prints every end-to-end metric by name
// with unit, direction and bound, and then makes a traced pass that times
// calls into each layer's public functions from outside. README.md has the
// metric and workload catalogue and the noise evidence behind the
// measurement rules.
//
// Usage:
//
//	go run ./bench                                   # all workloads, both passes
//	go run ./bench -workload repeat_rich -reps 12 -json out/run.json -trace-out out/spans.json
//	go run ./bench -selfcheck                        # two sets in one process, compared
//	bash bench/run.sh --workload sim_default --seed 7 --seconds 20 --trace 0
//
// The last form is the one BENCHMARK.json names: one workload, a time budget
// instead of a rep count, and a one-line JSON result as the last line.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"time"
)

type options struct {
	workloads []workload
	seed      int64
	reps      int
	scale     float64
	seconds   float64
	e2e       bool // make the end-to-end pass
	traced    bool // make the traced pass
	traceOut  string
	jsonOut   string
	selfcheck bool
}

func parseOptions(args []string, stderr io.Writer) (options, error) {
	fs := flag.NewFlagSet("gkrig", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		names     = fs.String("workload", "", "workload name[,name]; empty runs all: "+workloadNames())
		seed      = fs.Int64("seed", 42, "seed for genome and reads")
		reps      = fs.Int("reps", 20, "timed round-robin cycles per workload (best-of-N); ignored with -seconds")
		scale     = fs.Float64("scale", 1, "read-count multiplier")
		seconds   = fs.Float64("seconds", 0, "measure for this long instead of -reps cycles and print the one-line JSON result (one workload)")
		trace     = fs.Int("trace", -1, "0: end-to-end pass only; 1: traced per-layer pass only; -1: both")
		traceOut  = fs.String("trace-out", "", "write the traced pass's spans to this file")
		jsonOut   = fs.String("json", "", "write the run record and every metric to this file")
		selfcheck = fs.Bool("selfcheck", false, "run the full set twice and compare the two against the bounds")
	)
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}
	if fs.NArg() > 0 {
		return options{}, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	o := options{seed: *seed, reps: *reps, scale: *scale, seconds: *seconds,
		e2e: *trace != 1, traced: *trace != 0, traceOut: *traceOut, jsonOut: *jsonOut, selfcheck: *selfcheck}
	if *trace < -1 || *trace > 1 {
		return options{}, fmt.Errorf("-trace %d: want 0 or 1", *trace)
	}
	if o.reps < 1 || o.scale <= 0 || o.seconds < 0 {
		return options{}, errors.New("-reps must be at least 1, -scale positive, -seconds not negative")
	}
	if *names == "" {
		o.workloads = workloads
	} else {
		for _, n := range strings.Split(*names, ",") {
			wl, ok := findWorkload(n)
			if !ok {
				return options{}, fmt.Errorf("unknown workload %q (have %s)", n, workloadNames())
			}
			o.workloads = append(o.workloads, wl)
		}
	}
	if o.seconds > 0 && (len(o.workloads) != 1 || *trace < 0 || o.selfcheck) {
		return options{}, errors.New("-seconds wants one -workload, -trace 0 or 1, and no -selfcheck")
	}
	return o, nil
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.Name)
	}
	return strings.Join(names, ", ")
}

// metricRow is one emitted metric. For a timed end-to-end metric N, MinS,
// MedianS, Q1S and Q3S describe the walls of the timed reps behind Value.
type metricRow struct {
	metricDef
	Value   float64 `json:"value"`
	N       int     `json:"n,omitempty"`
	MinS    float64 `json:"min_s,omitempty"`
	MedianS float64 `json:"median_s,omitempty"`
	Q1S     float64 `json:"q1_s,omitempty"`
	Q3S     float64 `json:"q3_s,omitempty"`
}

type workloadReport struct {
	Name         string              `json:"name"`
	Why          string              `json:"why"`
	Reads        int                 `json:"reads"`
	ReadLen      int                 `json:"read_len"`
	E            int                 `json:"e"`
	InputSHA256  string              `json:"input_sha256"`
	EndToEnd     []metricRow         `json:"end_to_end,omitempty"`
	PerLayer     []metricRow         `json:"per_layer,omitempty"`
	OpsAttempted int64               `json:"ops_attempted"`
	OpsFailed    int64               `json:"ops_failed"`
	Counters     map[string]counters `json:"counters,omitempty"` // per configuration, traced pass
}

// runRecord says what was run and where, so two result files can be told
// apart before their numbers are compared.
type runRecord struct {
	Commit      string  `json:"commit"`
	GoVersion   string  `json:"go_version"`
	NProc       int     `json:"nproc"`
	GOMAXPROCS  int     `json:"gomaxprocs"` // the width every end-to-end metric ran at
	Width2      int     `json:"width2"`     // the width behind the *_w2_speedup metrics
	CPUModel    string  `json:"cpu_model"`
	Seed        int64   `json:"seed"`
	Scale       float64 `json:"scale"`
	Reps        int     `json:"reps"`
	Seconds     float64 `json:"seconds,omitempty"` // time budget, when given instead of reps
	WallSeconds float64 `json:"wall_seconds"`
}

type report struct {
	Run       runRecord        `json:"run"`
	Claim     *string          `json:"claim"` // always null: the rig measures and claims nothing
	Workloads []workloadReport `json:"workloads"`
}

func (r *report) failed() int64 {
	var n int64
	for _, w := range r.Workloads {
		n += w.OpsFailed
	}
	return n
}

// quartiles returns the three cut points of xs the way Python's
// statistics.quantiles(xs, n=4) does (the exclusive method).
func quartiles(xs []float64) (q1, median, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		d := i*(n+1) - 4*j
		return (s[j-1]*float64(4-d) + s[j]*float64(d)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// timedRow describes the walls behind a timed metric; the caller derives
// Value from the best of them.
func timedRow(def metricDef, walls []float64) metricRow {
	row := metricRow{metricDef: def, N: len(walls), MinS: slices.Min(walls)}
	row.Q1S, row.MedianS, row.Q3S = quartiles(walls)
	return row
}

func defByName(defs []metricDef, name string) metricDef {
	for _, d := range defs {
		if d.Name == name {
			return d
		}
	}
	panic("bench: metric " + name + " is not in the catalogue")
}

// runWorkload generates, sets up, measures and checks one workload.
func runWorkload(o options, wl workload, tr *tracer, runSpan int) (workloadReport, error) {
	in, err := generate(wl, o.seed, o.scale)
	if err != nil {
		return workloadReport{}, err
	}
	rep := workloadReport{Name: wl.Name, Why: wl.Why, Reads: len(in.seqs), ReadLen: wl.Profile.Length,
		E: wl.E, InputSHA256: in.sha}

	r, err := newRig(in)
	if err != nil {
		return rep, err
	}
	defer r.close()

	if o.e2e {
		res := r.measure(o.reps, o.seconds)
		if res.firstErr != nil {
			return rep, res.firstErr
		}
		rep.OpsAttempted += res.attempted
		rep.OpsFailed += res.failed
		setup := timedRow(defByName(endToEnd, "setup_s"), r.setupWalls)
		setup.Value = setup.MinS
		rep.EndToEnd = append(rep.EndToEnd, setup)
		for c := config(0); c < nConfigs; c++ {
			row := timedRow(defByName(endToEnd, c.metric()), res.walls[c])
			row.Value = float64(len(in.seqs)) / row.MinS
			rep.EndToEnd = append(rep.EndToEnd, row)
		}
		rep.EndToEnd = append(rep.EndToEnd, metricRow{metricDef: defByName(endToEnd, "recall"), Value: r.recall})
	}

	if o.traced {
		ws := tr.begin(runSpan, "workload:"+wl.Name, wl.Name)
		p := r.traced(tr, ws, min(3, o.reps), min(5, o.reps), o.seconds)
		tr.end(ws)
		if p.firstErr != nil {
			return rep, p.firstErr
		}
		rep.OpsAttempted += p.attempted
		rep.OpsFailed += p.failed
		for _, def := range perLayer {
			v, ok := p.vals[def.Name]
			if !ok {
				return rep, fmt.Errorf("workload %s: traced pass did not produce %s", wl.Name, def.Name)
			}
			rep.PerLayer = append(rep.PerLayer, metricRow{metricDef: def, Value: v})
		}
		rep.Counters = map[string]counters{}
		for c := config(0); c < nConfigs; c++ {
			rep.Counters[configNames[c]] = p.counts[c]
		}
	}
	return rep, nil
}

// runAll makes one full set of runs at width 1 and prints it.
func runAll(o options, w io.Writer) (*report, error) {
	start := time.Now()
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)

	rep := &report{Run: runRecord{
		Commit: commit(), GoVersion: runtime.Version(), NProc: runtime.NumCPU(), GOMAXPROCS: 1,
		Width2: min(runtime.NumCPU(), 2), CPUModel: cpuModel(), Seed: o.seed, Scale: o.scale,
		Reps: o.reps, Seconds: o.seconds,
	}}
	fmt.Fprintf(w, "gkrig  commit=%s  %s  nproc=%d  GOMAXPROCS=1  cpu=%q  seed=%d  scale=%g  reps=%d  seconds=%g\n",
		rep.Run.Commit, rep.Run.GoVersion, rep.Run.NProc, rep.Run.CPUModel, o.seed, o.scale, o.reps, o.seconds)

	tr := newTracer()
	runSpan := tr.begin(-1, "run", "")
	for _, wl := range o.workloads {
		wr, err := runWorkload(o, wl, tr, runSpan)
		if err != nil {
			return nil, err
		}
		printWorkload(w, wr)
		rep.Workloads = append(rep.Workloads, wr)
	}
	tr.end(runSpan)
	rep.Run.WallSeconds = time.Since(start).Seconds()
	fmt.Fprintf(w, "\nrun wall %.1f s  claim: none\n", rep.Run.WallSeconds)

	if o.traceOut != "" && o.traced {
		if err := tr.writeFile(o.traceOut); err != nil {
			return nil, fmt.Errorf("writing %s: %w", o.traceOut, err)
		}
	}
	if o.jsonOut != "" {
		b, err := json.MarshalIndent(rep, "", " ")
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(o.jsonOut, append(b, '\n'), 0o644); err != nil {
			return nil, fmt.Errorf("writing %s: %w", o.jsonOut, err)
		}
	}
	return rep, nil
}

func printWorkload(w io.Writer, wr workloadReport) {
	fmt.Fprintf(w, "\nworkload %s  reads=%d  L=%d  e=%d  input_sha256=%s\n  why: %s\n",
		wr.Name, wr.Reads, wr.ReadLen, wr.E, wr.InputSHA256[:16], wr.Why)
	if len(wr.EndToEnd) > 0 {
		fmt.Fprintf(w, "  %-28s %14s %-8s %-6s %5s %3s %9s %9s %9s %9s\n",
			"end-to-end (width 1)", "value", "unit", "better", "bound", "N", "min_s", "median_s", "q1_s", "q3_s")
		for _, m := range wr.EndToEnd {
			fmt.Fprintf(w, "  %-28s %14.6g %-8s %-6s %5.2f", m.Name, m.Value, m.Unit, m.Better, m.Bound)
			if m.N > 0 {
				fmt.Fprintf(w, " %3d %9.4f %9.4f %9.4f %9.4f", m.N, m.MinS, m.MedianS, m.Q1S, m.Q3S)
			}
			fmt.Fprintln(w)
		}
	}
	if len(wr.PerLayer) > 0 {
		fmt.Fprintf(w, "  %-34s %14s %-9s %-6s %s\n", "per-layer (traced pass)", "value", "unit", "better", "kind")
		for _, m := range wr.PerLayer {
			fmt.Fprintf(w, "  %-34s %14.6g %-9s %-6s %s\n", m.Name, m.Value, m.Unit, m.Better, m.Kind)
		}
	}
	fmt.Fprintf(w, "  ops_attempted %d\n  ops_failed    %d\n", wr.OpsAttempted, wr.OpsFailed)
}

// driverLine is the one-line result BENCHMARK.json's driver reads.
func driverLine(wr workloadReport) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{wr.OpsFailed == 0, wr.OpsAttempted, wr.OpsFailed, map[string]value{}}
	for _, m := range append(wr.EndToEnd, wr.PerLayer...) {
		out.Metrics[m.Name] = value{m.Value, m.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err) // only a NaN or Inf metric can do this, and those are bugs
	}
	return string(b)
}

// selfcheck compares two sets of runs of one process: end-to-end metrics
// against their bounds, counts and recall exactly. It returns how many
// disagree.
func selfcheck(w io.Writer, a, b *report) int {
	bad := 0
	fmt.Fprintf(w, "\nselfcheck: second set against first\n")
	for i, wa := range a.Workloads {
		wb := b.Workloads[i]
		if wa.InputSHA256 != wb.InputSHA256 || wa.OpsAttempted != wb.OpsAttempted || wa.OpsFailed != wb.OpsFailed {
			fmt.Fprintf(w, "  %-12s inputs or operation counts differ  DISAGREE\n", wa.Name)
			bad++
		}
		for j, ma := range wa.EndToEnd {
			mb := wb.EndToEnd[j]
			rel := mb.Value/ma.Value - 1
			worse := rel
			if ma.Better == "higher" {
				worse = -rel
			}
			verdict := "ok"
			if ma.Kind == "count" && ma.Value != mb.Value || worse > ma.Bound {
				verdict = "DISAGREE"
				bad++
			}
			fmt.Fprintf(w, "  %-12s %-28s %14.6g %14.6g  %+7.2f%%  bound %4.0f%%  %s\n",
				wa.Name, ma.Name, ma.Value, mb.Value, 100*rel, 100*ma.Bound, verdict)
		}
		for j, ma := range wa.PerLayer {
			if mb := wb.PerLayer[j]; ma.Kind == "count" && ma.Value != mb.Value {
				fmt.Fprintf(w, "  %-12s %-28s %14.6g %14.6g  count differs  DISAGREE\n", wa.Name, ma.Name, ma.Value, mb.Value)
				bad++
			}
		}
	}
	return bad
}

// commit is the source revision: what the build stamped, else what git says
// about the working directory, else "unknown" (the driver's checkout is not
// a repository).
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			if dirty {
				rev += "+dirty"
			}
			return rev
		}
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	return "unknown"
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return "unknown"
}

func main() {
	o, err := parseOptions(os.Args[1:], os.Stderr)
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			os.Exit(0)
		}
		fmt.Fprintln(os.Stderr, "gkrig:", err)
		os.Exit(2)
	}
	rep, err := runAll(o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gkrig:", err)
		os.Exit(1)
	}
	bad := 0
	if o.selfcheck {
		second, err := runAll(o, os.Stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "gkrig:", err)
			os.Exit(1)
		}
		bad = selfcheck(os.Stdout, rep, second)
		fmt.Printf("selfcheck: %d disagreements\n", bad)
	}
	if o.seconds > 0 {
		fmt.Println(driverLine(rep.Workloads[0]))
	}
	if rep.failed() > 0 || bad > 0 {
		os.Exit(1)
	}
}
