package harness

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// tinyOptions keeps test runtime low on small machines; Scale below the
// floor still produces statistically meaningful minimum sizes.
func tinyOptions(buf *bytes.Buffer) Options {
	return Options{Out: buf, Scale: 0.01, Seed: 7}
}

func TestRegistryComplete(t *testing.T) {
	// The experiment index is the registry itself (`gkbench -list` prints
	// IDs()); this list pins it so an experiment cannot drop out unnoticed.
	want := []string{
		"table1", "table2", "table3", "table4", "table5", "table6",
		"fig4", "fig4-150", "fig4-250", "fig-mm2", "fig-bwa",
		"fig5", "fig5-he100", "fig5-le150", "fig5-he150", "fig5-le250", "fig5-he250",
		"fig6", "fig6-150", "fig6-250", "fig7", "fig8", "figs12",
		"tables24", "tables25", "tables26", "occupancy", "ablation", "fig2",
		"streamingest", "multicontig", "genomescale",
		"chaos",
	}
	ids := IDs()
	have := map[string]bool{}
	for _, id := range ids {
		have[id] = true
	}
	for _, id := range want {
		if !have[id] {
			t.Errorf("experiment %s not registered", id)
		}
	}
	if len(ids) != len(want) {
		t.Errorf("registry has %d experiments, this test pins %d", len(ids), len(want))
	}
	for _, e := range All() {
		if e.PaperRef == "" || e.Title == "" || e.Run == nil {
			t.Errorf("experiment %s incompletely registered", e.ID)
		}
	}
}

func TestGetUnknown(t *testing.T) {
	if _, err := Get("nope"); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	var buf bytes.Buffer
	if err := Run("nope", Options{Out: &buf}); err == nil {
		t.Fatal("Run of unknown experiment accepted")
	}
}

func TestThresholdGrids(t *testing.T) {
	if got := thresholdsFor(100); len(got) != 11 || got[10] != 10 {
		t.Fatalf("100bp grid: %v", got)
	}
	if got := thresholdsFor(150); got[len(got)-1] != 15 {
		t.Fatalf("150bp grid: %v", got)
	}
	if got := thresholdsFor(250); got[len(got)-1] != 25 {
		t.Fatalf("250bp grid: %v", got)
	}
	if got := thresholdsFor(80); got[len(got)-1] != 8 {
		t.Fatalf("default grid: %v", got)
	}
}

func TestAccuracyExperimentRuns(t *testing.T) {
	var buf bytes.Buffer
	if err := Run("fig4", tinyOptions(&buf)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"False accepts", "paper FA rate", "zero false rejects"} {
		if !strings.Contains(out, want) {
			t.Fatalf("fig4 output missing %q:\n%s", want, out)
		}
	}
}

func TestComparisonExperimentRuns(t *testing.T) {
	var buf bytes.Buffer
	if err := Run("fig5", tinyOptions(&buf)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"GKGPU", "SnkSnake", "paper GKGPU"} {
		if !strings.Contains(out, want) {
			t.Fatalf("fig5 output missing %q", want)
		}
	}
}

func TestChaosExperimentRuns(t *testing.T) {
	var buf bytes.Buffer
	if err := Run("chaos", tinyOptions(&buf)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"fault rate", "redispatches", "bit-identical", "drained its producer", "taxonomy error"} {
		if !strings.Contains(out, want) {
			t.Fatalf("chaos output missing %q:\n%s", want, out)
		}
	}
}

func TestStreamIngestExperimentRuns(t *testing.T) {
	var buf bytes.Buffer
	if err := Run("streamingest", tinyOptions(&buf)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"materialized", "channel-fed", "byte-identical", "peak heap"} {
		if !strings.Contains(out, want) {
			t.Fatalf("streamingest output missing %q:\n%s", want, out)
		}
	}
}

func TestThroughputExperimentsRun(t *testing.T) {
	for _, id := range []string{"table2", "fig6", "fig7", "fig8", "figs12"} {
		var buf bytes.Buffer
		if err := Run(id, tinyOptions(&buf)); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if buf.Len() == 0 {
			t.Fatalf("%s produced no output", id)
		}
	}
}

func TestWholeGenomeExperimentsRun(t *testing.T) {
	for _, id := range []string{"table3", "table4", "table5"} {
		var buf bytes.Buffer
		if err := Run(id, tinyOptions(&buf)); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if !strings.Contains(buf.String(), "paper") {
			t.Fatalf("%s output missing paper reference", id)
		}
	}
}

func TestMultiContigExperimentRuns(t *testing.T) {
	var buf bytes.Buffer
	if err := Run("multicontig", tinyOptions(&buf)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"chr1", "chr2", "chr3", "junction-straddling reads mapped: 0/"} {
		if !strings.Contains(out, want) {
			t.Fatalf("multicontig output missing %q:\n%s", want, out)
		}
	}
}

func TestPowerAndOccupancyRun(t *testing.T) {
	for _, id := range []string{"table6", "occupancy"} {
		var buf bytes.Buffer
		if err := Run(id, tinyOptions(&buf)); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
	}
}

func TestSimSetExperimentsRun(t *testing.T) {
	for _, id := range []string{"tables25", "tables26"} {
		var buf bytes.Buffer
		if err := Run(id, tinyOptions(&buf)); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if !strings.Contains(buf.String(), "Rejected") {
			t.Fatalf("%s output missing reduction column", id)
		}
	}
}

func TestFig2AndAblationRun(t *testing.T) {
	var buf bytes.Buffer
	if err := Run("ablation", tinyOptions(&buf)); err != nil {
		t.Fatalf("ablation: %v", err)
	}
	// fig2 is `gkbench -exp fig2` (default scale and seed) byte for byte. The
	// golden is the output of the bit-parallel whole-mask Trace (PR 21's), an
	// implementation independent of the per-character model that prints it now.
	buf.Reset()
	if err := Run("fig2", Options{Out: &buf, Scale: 1.0, Seed: 42}); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/fig2.golden")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("fig2 output differs from testdata/fig2.golden:\n%s", buf.String())
	}
}

func TestOptionsScaling(t *testing.T) {
	o := Options{Scale: 0.5}
	o.applyDefaults()
	if got := o.scaled(1000); got != 500 {
		t.Fatalf("scaled(1000) at 0.5 = %d", got)
	}
	o = Options{Scale: 0.0001}
	o.applyDefaults()
	if got := o.scaled(1000); got != 50 {
		t.Fatalf("floor not applied: %d", got)
	}
	var defaulted Options
	defaulted.applyDefaults()
	if defaulted.Scale != 1.0 || defaulted.Seed == 0 {
		t.Fatal("defaults not applied")
	}
}

func TestGenomeScaleExperimentRuns(t *testing.T) {
	var buf bytes.Buffer
	if err := Run("genomescale", tinyOptions(&buf)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"BELOW the 2^31", "step=1", "step=16", "serialize:", "load:", "identical to in-memory: true"} {
		if !strings.Contains(out, want) {
			t.Fatalf("genomescale output missing %q:\n%s", want, out)
		}
	}
}

// TestCompareBenchListsRetiredRows: a baseline row the current suite dropped
// (the batch-fused rows, since PR 14) must be named in the comparison, beside
// the matched and the new rows — once, and not when it is still measured.
func TestCompareBenchListsRetiredRows(t *testing.T) {
	baseline := BenchReport{Stamp: "OLD", CPUs: 1, GOMAXPROCS: 1,
		Kernels: []BenchEntry{
			{Name: "kernel-fused-L100-e5", NsPerOp: 700, PairsPerSec: 1.4e6},
			{Name: "batch-fused-L100-e5-w1", NsPerOp: 650, PairsPerSec: 1.5e6},
		},
		Index: []BenchEntry{{Name: "index-lookup-500k", NsPerOp: 25}},
	}
	cur := BenchReport{Stamp: "NEW", CPUs: 1, GOMAXPROCS: 1,
		Kernels: []BenchEntry{
			{Name: "kernel-fused-L100-e5", NsPerOp: 300, PairsPerSec: 3.3e6},
			{Name: "kernel-planes-L100-e5", NsPerOp: 250, PairsPerSec: 4e6},
		},
		Index:    []BenchEntry{{Name: "index-lookup-500k", NsPerOp: 25}},
		Verifier: []BenchEntry{{Name: "verifier-distance-L100-e5-hit-d1", NsPerOp: 6000, PairsPerSec: 1e7}},
	}
	var out strings.Builder
	CompareBench(baseline, cur, &out)
	text := out.String()
	for row, want := range map[string]string{
		"kernel-fused-L100-e5":   "(x",
		"kernel-planes-L100-e5":  "new row",
		"batch-fused-L100-e5-w1": "retired row",
		"index-lookup-500k":      "(x",

		"verifier-distance-L100-e5-hit-d1": "new row", // the section added in PR 19 is compared too
	} {
		var line string
		for _, l := range strings.Split(text, "\n") {
			if strings.Contains(l, " "+row+" ") {
				if line != "" {
					t.Errorf("row %s reported twice:\n%s", row, text)
				}
				line = l
			}
		}
		if !strings.Contains(line, want) {
			t.Errorf("row %s: line %q does not say %q\n%s", row, line, want, text)
		}
	}
	if strings.Count(text, "retired row") != 1 {
		t.Errorf("want exactly one retired row:\n%s", text)
	}
}
