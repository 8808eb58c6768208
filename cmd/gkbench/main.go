// Command gkbench regenerates the paper's tables and figures. Each
// experiment prints measured values next to the paper's reference numbers.
//
// Usage:
//
//	gkbench -list                 # enumerate experiment IDs
//	gkbench -exp fig4             # run one experiment
//	gkbench -all                  # run everything
//	gkbench -exp table2 -scale 5  # 5x the default workload sizes
//	gkbench -json                 # write a BENCH_<stamp>.json perf baseline
//	gkbench -json -baseline FILE  # ...and compare against an older capture
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/harness"
)

func main() {
	var (
		exp      = flag.String("exp", "", "experiment ID to run (see -list)")
		all      = flag.Bool("all", false, "run every experiment")
		list     = flag.Bool("list", false, "list experiment IDs and exit")
		jsonOut  = flag.Bool("json", false, "run the kernel/filter/index micro-benchmarks and write BENCH_<stamp>.json")
		jsonDir  = flag.String("json-dir", ".", "directory for the -json baseline file")
		baseline = flag.String("baseline", "", "older BENCH_<stamp>.json to compare the -json capture against")
		benchTag = flag.String("label", "", "free-form label recorded in the -json baseline")
		scale    = flag.Float64("scale", 1.0, "workload scale factor (1.0 = quick laptop sizes)")
		seed     = flag.Int64("seed", 42, "dataset generation seed")
	)
	flag.Parse()

	if *list {
		for _, e := range harness.All() {
			fmt.Printf("%-12s %-32s %s\n", e.ID, e.PaperRef, e.Title)
		}
		return
	}
	if *jsonOut {
		if *all || *exp != "" {
			fmt.Fprintln(os.Stderr, "gkbench: -json conflicts with -exp/-all (it runs its own fixed micro-suite)")
			os.Exit(2)
		}
		if *scale != 1.0 || *seed != 42 {
			fmt.Fprintln(os.Stderr, "gkbench: -json ignores -scale/-seed; its workloads are fixed so baselines stay comparable")
			os.Exit(2)
		}
		path, err := harness.RunBenchJSON(*jsonDir, *benchTag, os.Stdout)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gkbench: %v\n", err)
			os.Exit(1)
		}
		if *baseline != "" {
			old, err := harness.LoadBenchReport(*baseline)
			if err != nil {
				fmt.Fprintf(os.Stderr, "gkbench: %v\n", err)
				os.Exit(1)
			}
			cur, err := harness.LoadBenchReport(path)
			if err != nil {
				fmt.Fprintf(os.Stderr, "gkbench: %v\n", err)
				os.Exit(1)
			}
			harness.CompareBench(old, cur, os.Stdout)
		}
		return
	}
	if *baseline != "" {
		fmt.Fprintln(os.Stderr, "gkbench: -baseline requires -json")
		os.Exit(2)
	}
	opts := harness.Options{Out: os.Stdout, Scale: *scale, Seed: *seed}
	switch {
	case *all:
		for _, id := range harness.IDs() {
			if err := harness.Run(id, opts); err != nil {
				fmt.Fprintf(os.Stderr, "gkbench: %v\n", err)
				os.Exit(1)
			}
		}
	case *exp != "":
		if err := harness.Run(*exp, opts); err != nil {
			fmt.Fprintf(os.Stderr, "gkbench: %v\n", err)
			os.Exit(1)
		}
	default:
		fmt.Fprintln(os.Stderr, "gkbench: nothing to do; use -exp ID, -all, or -list")
		os.Exit(2)
	}
}
