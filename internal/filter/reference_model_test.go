package filter

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dna"
	"repro/internal/ref32"
)

func TestKernelMatchesReferenceModelExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, L := range []int{17, 32, 33, 64, 65, 100, 150, 250} {
		for _, e := range []int{0, 1, 2, 5, L / 10} {
			for _, mode := range []Mode{ModeGPU, ModeFPGA} {
				exact := NewKernel(mode, L, e)
				exact.SetExactEstimate(true)
				kern := NewKernel(mode, L, e)
				ref32k := ref32.NewKernel(mode == ModeGPU, L)
				for trial := 0; trial < 25; trial++ {
					read := dna.RandomSeq(rng, L)
					var ref []byte
					switch trial % 3 {
					case 0:
						ref = dna.MutateSubstitutions(rng, read, rng.Intn(L/4+1))
					case 1:
						mutated := dna.ApplyEdits(read, dna.RandomEdits(rng, L, rng.Intn(e+3), 0.5))
						ref = make([]byte, L)
						c := copy(ref, mutated)
						for i := c; i < L; i++ {
							ref[i] = dna.Alphabet[rng.Intn(4)]
						}
					default:
						ref = dna.RandomSeq(rng, L)
					}
					model := charModel(mode, read, ref, e)
					wantEst, wantAccept := model.estimate, model.accept
					d := exact.Filter(read, ref, e)
					if d.Accept != wantAccept || d.Estimate != wantEst {
						t.Fatalf("L=%d e=%d mode=%v trial=%d: exact kernel (est=%d acc=%v) vs model (est=%d acc=%v)\nread=%s\nref =%s",
							L, e, mode, trial, d.Estimate, d.Accept, wantEst, wantAccept, read, ref)
					}
					// The retained 32-bit chain must agree bit for bit with
					// the exact-mode fused kernel.
					est32, acc32 := ref32k.Filter(read, ref, e)
					if acc32 != wantAccept || est32 != wantEst {
						t.Fatalf("L=%d e=%d mode=%v trial=%d: ref32 (est=%d acc=%v) vs model (est=%d acc=%v)",
							L, e, mode, trial, est32, acc32, wantEst, wantAccept)
					}
					// The default kernel may stop early either way, but its
					// decision is sealed by monotonicity: an accept's estimate
					// lies in [exact, e], a reject's is a lower bound in
					// (e, exact].
					dd := kern.Filter(read, ref, e)
					if dd.Accept != wantAccept {
						t.Fatalf("L=%d e=%d mode=%v trial=%d: sealed kernel decision %v, want %v",
							L, e, mode, trial, dd.Accept, wantAccept)
					}
					checkSealed(t, dd.Estimate, dd.Accept, wantEst, e)
				}
			}
		}
	}
}

func TestKernelMatchesReferenceModelQuick(t *testing.T) {
	kernGPU := NewKernel(ModeGPU, 64, 6)
	kernFPGA := NewKernel(ModeFPGA, 64, 6)
	kernGPU.SetExactEstimate(true)
	kernFPGA.SetExactEstimate(true)
	f := func(rawRead, rawRef [64]byte, eRaw uint8) bool {
		read := make([]byte, 64)
		ref := make([]byte, 64)
		for i := 0; i < 64; i++ {
			read[i] = dna.Alphabet[int(rawRead[i])%4]
			// Bias towards similarity so both branches of the decision are hit.
			if rawRef[i]%4 == 0 {
				ref[i] = dna.Alphabet[int(rawRef[i]/4)%4]
			} else {
				ref[i] = read[i]
			}
		}
		e := int(eRaw) % 7
		for _, tc := range []struct {
			kern *Kernel
			mode Mode
		}{{kernGPU, ModeGPU}, {kernFPGA, ModeFPGA}} {
			model := charModel(tc.mode, read, ref, e)
			wantEst, wantAccept := model.estimate, model.accept
			d := tc.kern.Filter(read, ref, e)
			if d.Accept != wantAccept || d.Estimate != wantEst {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// TestKernelMatchesRef32Property drives the block kernel and the retained
// 32-bit unfused chain (internal/ref32) with identical random pairs across
// geometries, ablations and both modes: exact-mode estimates and decisions
// must be bit-identical, and the default kernel's early exits must seal the
// same decisions.
func TestKernelMatchesRef32Property(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for _, L := range []int{1, 3, 16, 31, 32, 33, 63, 64, 65, 96, 100, 127, 128, 129, 250, 300} {
		for _, mode := range []Mode{ModeGPU, ModeFPGA} {
			for _, abl := range []Ablation{{}, {SkipAmendment: true}, {CountRuns: true}} {
				maxE := L
				if maxE > 20 {
					maxE = 20
				}
				exact := NewKernel(mode, L, maxE)
				exact.SetExactEstimate(true)
				exact.SetAblation(abl)
				def := NewKernel(mode, L, maxE)
				def.SetAblation(abl)
				r32 := ref32.NewKernel(mode == ModeGPU, L)
				r32.SkipAmendment = abl.SkipAmendment
				r32.CountRuns = abl.CountRuns
				for trial := 0; trial < 12; trial++ {
					read := dna.RandomSeq(rng, L)
					var ref []byte
					if trial%2 == 0 {
						ref = dna.MutateSubstitutions(rng, read, rng.Intn(L+1))
					} else {
						ref = dna.RandomSeq(rng, L)
					}
					e := rng.Intn(maxE + 1)
					wantEst, wantAccept := r32.Filter(read, ref, e)
					d := exact.Filter(read, ref, e)
					if d.Accept != wantAccept || d.Estimate != wantEst {
						t.Fatalf("L=%d e=%d mode=%v abl=%+v: fused exact (est=%d acc=%v) vs ref32 (est=%d acc=%v)\nread=%s\nref =%s",
							L, e, mode, abl, d.Estimate, d.Accept, wantEst, wantAccept, read, ref)
					}
					if dd := def.Filter(read, ref, e); dd.Accept != wantAccept {
						t.Fatalf("L=%d e=%d mode=%v abl=%+v: early-accept decision %v, want %v",
							L, e, mode, abl, dd.Accept, wantAccept)
					}
				}
			}
		}
	}
}
