package main

import (
	"encoding/json"
	"errors"
	"io"
	"os"
	"regexp"
	"strings"
	"testing"
)

// benchmarkFile is BENCHMARK.json at the repository root: what the driver
// runs and which metrics it expects.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return bf
}

func allRows(wr workloadReport) []metricRow {
	return append(append([]metricRow(nil), wr.EndToEnd...), wr.PerLayer...)
}

// smokeWorkloads is what the smoke test runs: every workload, or under the
// race detector the ones with a small genome.
func smokeWorkloads() []workload {
	if !raceEnabled {
		return workloads
	}
	var small []workload
	for _, wl := range workloads {
		if wl.GenomeLen < 1_000_000 {
			small = append(small, wl)
		}
	}
	return small
}

func smoke(t *testing.T, seed int64) *report {
	t.Helper()
	rep, err := runAll(options{workloads: smokeWorkloads(), seed: seed, reps: 1, scale: 0.02, e2e: true, traced: true}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestRigEmitsTheBenchmark runs the whole rig twice at a fiftieth of the
// read count and holds it to BENCHMARK.json: every workload and metric named
// there is emitted exactly once per workload with the unit, direction and
// bound the file states, nothing fails the gate, and every count repeats.
func TestRigEmitsTheBenchmark(t *testing.T) {
	bf := loadBenchmarkFile(t)
	a, b := smoke(t, 42), smoke(t, 42)

	if len(bf.Workloads) != len(workloads) || len(a.Workloads) != len(smokeWorkloads()) {
		t.Fatalf("BENCHMARK.json names %d workloads, the rig has %d and ran %d", len(bf.Workloads), len(workloads), len(a.Workloads))
	}
	for i, wl := range workloads {
		if bf.Workloads[i].Name != wl.Name || bf.Workloads[i].Why != wl.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the rig %q (%q)", i, bf.Workloads[i].Name, bf.Workloads[i].Why, wl.Name, wl.Why)
		}
	}
	nameOK := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	for i, wr := range a.Workloads {
		emitted := map[string]metricRow{}
		for _, m := range allRows(wr) {
			if _, dup := emitted[m.Name]; dup {
				t.Errorf("%s: %s emitted twice", wr.Name, m.Name)
			}
			if !nameOK.MatchString(m.Name) {
				t.Errorf("%s: bad metric name %q", wr.Name, m.Name)
			}
			emitted[m.Name] = m
		}
		if want := len(bf.EndToEnd) + len(bf.PerLayer); len(emitted) != want {
			t.Errorf("%s: %d metrics emitted, BENCHMARK.json names %d", wr.Name, len(emitted), want)
		}
		for _, want := range bf.EndToEnd {
			got, ok := emitted[want.Name]
			if !ok || got.Unit != want.Unit || got.Better != want.Better || got.Bound != want.Bound {
				t.Errorf("%s: end-to-end %+v emitted as %+v (present=%v)", wr.Name, want, got.metricDef, ok)
			}
			if strings.HasSuffix(want.Name, "_reads_per_s") && got.N != 1 {
				t.Errorf("%s: %s reports N=%d timed reps, want 1", wr.Name, want.Name, got.N)
			}
		}
		for _, want := range bf.PerLayer {
			got, ok := emitted[want.Name]
			if !ok || got.Unit != want.Unit || got.Better != want.Better {
				t.Errorf("%s: per-layer %+v emitted as %+v (present=%v)", wr.Name, want, got.metricDef, ok)
			}
		}

		wb := b.Workloads[i]
		if wr.OpsFailed != 0 || wr.OpsAttempted == 0 {
			t.Errorf("%s: %d of %d operations failed", wr.Name, wr.OpsFailed, wr.OpsAttempted)
		}
		if wr.OpsAttempted != wb.OpsAttempted || wr.InputSHA256 != wb.InputSHA256 {
			t.Errorf("%s: second run attempted %d on input %s, first %d on %s", wr.Name, wb.OpsAttempted, wb.InputSHA256, wr.OpsAttempted, wr.InputSHA256)
		}
		second := allRows(wb)
		for j, m := range allRows(wr) {
			m2 := second[j]
			if m.Kind == "count" && m.Value != m2.Value {
				t.Errorf("%s: count %s read %v then %v", wr.Name, m.Name, m.Value, m2.Value)
			}
		}
		for _, name := range []string{"mapper.seed_probe_delta", "gkgpu.filter_probe_delta"} {
			if emitted[name].Value != 0 {
				t.Errorf("%s: %s = %v: a probe and the program disagree", wr.Name, name, emitted[name].Value)
			}
		}
	}
	if n := selfcheck(io.Discard, a, a); n != 0 {
		t.Errorf("selfcheck of a report against itself: %d disagreements", n)
	}

	var line struct {
		Correct   *bool
		Attempted *int64
		Failed    *int64
		Metrics   map[string]struct {
			Value float64
			Unit  string
		}
	}
	dec := json.NewDecoder(strings.NewReader(driverLine(a.Workloads[0])))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&line); err != nil || line.Correct == nil || !*line.Correct || line.Attempted == nil || line.Failed == nil {
		t.Errorf("driver line %+v: %v", line, err)
	}
	if len(line.Metrics) != len(bf.EndToEnd)+len(bf.PerLayer) {
		t.Errorf("driver line carries %d metrics", len(line.Metrics))
	}
}

func TestSeedChangesTheInput(t *testing.T) {
	for _, wl := range workloads {
		a, err := generate(wl, 42, 0.02)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := generate(wl, 42, 0.02)
		c, _ := generate(wl, 43, 0.02)
		if a.sha != b.sha {
			t.Errorf("%s: seed 42 gave %s then %s", wl.Name, a.sha, b.sha)
		}
		if a.sha == c.sha {
			t.Errorf("%s: seeds 42 and 43 gave the same input", wl.Name)
		}
	}
}

// TestGateTrips corrupts a correct run in each way the gate must notice.
func TestGateTrips(t *testing.T) {
	wl, _ := findWorkload("repeat_rich")
	in, err := generate(wl, 42, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	r, err := newRig(in)
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	for c := config(0); c < nConfigs; c++ {
		if n := r.check(c, r.run(c)); n != 0 {
			t.Fatalf("%s: %d reads fail the gate on an untouched run", configNames[c], n)
		}
	}
	good := r.run(fileSAM)
	if len(good.mappings) < 3 {
		t.Fatalf("only %d mappings to corrupt", len(good.mappings))
	}

	moved := good
	moved.mappings = append(moved.mappings[:0:0], good.mappings...)
	moved.mappings[1].Pos++
	if n := r.check(oneshotGPU, moved); n != 1 {
		t.Errorf("one moved mapping: %d reads failed, want 1", n)
	}
	dropped := good
	dropped.mappings = good.mappings[1:]
	if n := r.check(streamCPU, dropped); n != 1 {
		t.Errorf("one dropped mapping: %d reads failed, want 1", n)
	}
	erred := good
	erred.err = errors.New("boom")
	if n := r.check(oneshotNone, erred); n != len(in.seqs) {
		t.Errorf("an erring call: %d reads failed, want all %d", n, len(in.seqs))
	}
	if _, err := good.sam.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if n := r.check(fileSAM, good); n != 1 {
		t.Errorf("one extra SAM byte: %d operations failed, want 1", n)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v", q1, med, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	q1, med, q3 = quartiles([]float64{2, 1})
	if q1 != 0.75 || med != 1.5 || q3 != 2.25 {
		t.Errorf("quartiles(1, 2) = %v %v %v", q1, med, q3)
	}
}
