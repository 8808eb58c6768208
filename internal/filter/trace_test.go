package filter

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/dna"
	"repro/internal/ref32"
)

// TestTraceMatchesKernelDecision holds Trace = exact-estimate Kernel = ref32,
// decision and estimate, in both modes: on random pairs, on the block-seam
// geometries TestBlockGeometryIdentity sweeps, and on a lower-case pair
// (codes are compared, not bytes).
func TestTraceMatchesKernelDecision(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	check := func(read, ref []byte, e int) {
		t.Helper()
		L := len(read)
		for _, mode := range []Mode{ModeGPU, ModeFPGA} {
			tr, err := Trace(mode, read, ref, e)
			if err != nil {
				t.Fatal(err)
			}
			kern := NewKernel(mode, L, e)
			kern.SetExactEstimate(true) // Trace's estimate is always exhaustive
			d := kern.Filter(read, ref, e)
			if tr.Accept != d.Accept || tr.Estimate != d.Estimate {
				t.Fatalf("L=%d e=%d mode=%v: trace (est=%d acc=%v) != kernel (est=%d acc=%v)\nread=%s\nref =%s",
					L, e, mode, tr.Estimate, tr.Accept, d.Estimate, d.Accept, read, ref)
			}
			est32, acc32 := ref32.NewKernel(mode == ModeGPU, L).Filter(read, ref, e)
			if tr.Accept != acc32 || tr.Estimate != est32 {
				t.Fatalf("L=%d e=%d mode=%v: trace (est=%d acc=%v) != ref32 (est=%d acc=%v)\nread=%s\nref =%s",
					L, e, mode, tr.Estimate, tr.Accept, est32, acc32, read, ref)
			}
		}
	}
	for trial := 0; trial < 60; trial++ {
		L := 40 + rng.Intn(80)
		read := dna.RandomSeq(rng, L)
		check(read, dna.MutateSubstitutions(rng, read, rng.Intn(10)), rng.Intn(6))
	}
	for _, L := range []int{55, 56, 57, 63, 64, 65, 112, 113} {
		for _, e := range []int{0, 1, 4, L / 10, 60, L} {
			if e > L {
				continue
			}
			for trial := 0; trial < 6; trial++ {
				read, ref := blockSeamPair(rng, L, e, trial)
				check(read, ref, e)
			}
		}
	}
	read := dna.RandomSeq(rng, 100)
	ref := dna.MutateSubstitutions(rng, read, 4)
	check(bytes.ToLower(read), ref, 3)
	check(read, bytes.ToLower(ref), 3)
}

func TestTraceStructure(t *testing.T) {
	read := []byte("ACGTACGTACGTACGT")
	ref := []byte("ACGTACATACGTACGT")
	tr, err := Trace(ModeGPU, read, ref, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Steps) != 5 { // Hamming + 2 deletions + 2 insertions
		t.Fatalf("got %d steps, want 5", len(tr.Steps))
	}
	if tr.Steps[0].Name != "Hamming" || tr.Steps[0].Shift != 0 {
		t.Fatalf("first step: %+v", tr.Steps[0])
	}
	if tr.Steps[1].Shift != 1 || tr.Steps[2].Shift != -1 {
		t.Fatalf("shift order wrong: %+v %+v", tr.Steps[1], tr.Steps[2])
	}
	for _, s := range tr.Steps {
		if len(s.H) != 16 || len(s.A) != 16 {
			t.Fatalf("mask strings wrong length in %q", s.Name)
		}
	}
	// Hamming mask must flag exactly the one substitution.
	if strings.Count(tr.Steps[0].H, "1") != 1 {
		t.Fatalf("Hamming mask = %s", tr.Steps[0].H)
	}
	out := tr.Render()
	for _, want := range []string{"GateKeeper-GPU", "Hamming", "AND", "estimate="} {
		if !strings.Contains(out, want) {
			t.Fatalf("Render missing %q:\n%s", want, out)
		}
	}
}

func TestTraceFigure2EdgeScenario(t *testing.T) {
	// The Figure 2/3 demonstration: edge mismatches survive the AND in GPU
	// mode (forced 1s) and vanish in FPGA mode (vacated zeros).
	L, e := 40, 2
	read := []byte(strings.Repeat("A", L))
	ref := append([]byte(nil), read...)
	ref[0], ref[1] = 'C', 'C'
	ref[L-1], ref[L-2] = 'C', 'C'
	ref[20] = 'C'

	gpu, err := Trace(ModeGPU, read, ref, e)
	if err != nil {
		t.Fatal(err)
	}
	fpga, err := Trace(ModeFPGA, read, ref, e)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(gpu.Final, "11") || !strings.HasSuffix(gpu.Final, "11") {
		t.Fatalf("GPU final mask lost edge errors: %s", gpu.Final)
	}
	if !strings.HasPrefix(fpga.Final, "00") || !strings.HasSuffix(fpga.Final, "00") {
		t.Fatalf("FPGA final mask should erase edge errors: %s", fpga.Final)
	}
	if gpu.Estimate <= fpga.Estimate {
		t.Fatalf("GPU estimate %d should exceed FPGA %d here", gpu.Estimate, fpga.Estimate)
	}
}

func TestTraceErrors(t *testing.T) {
	if _, err := Trace(ModeGPU, []byte("ACG"), []byte("ACGT"), 1); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := Trace(ModeGPU, []byte("ACNT"), []byte("ACGT"), 1); err == nil {
		t.Fatal("N accepted in trace")
	}
	// A threshold no kernel geometry has is refused, as FilterChecked does.
	if _, err := Trace(ModeGPU, []byte("ACGT"), []byte("ACGT"), -1); err == nil {
		t.Fatal("negative threshold traced")
	}
	if _, err := Trace(ModeGPU, []byte("ACGT"), []byte("ACGT"), 5); err == nil {
		t.Fatal("threshold beyond the read length traced")
	}
}

func TestTraceExactMode(t *testing.T) {
	read := []byte("ACGTACGT")
	tr, err := Trace(ModeGPU, read, read, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Accept || tr.Estimate != 0 || len(tr.Steps) != 1 {
		t.Fatalf("exact trace: %+v", tr)
	}
}
