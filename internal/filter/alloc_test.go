package filter

import (
	"math/rand"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/dna"
	"repro/internal/lint"
)

// TestFilterEncodedZeroAllocs is the kernel hot-path guard, over both kernel
// entry points the engines use: a filtration — accepted, rejected, sealed
// early or exhaustive — must not allocate, whether it arrives as planes
// (FilterPlanes, the candidate path) or interleaved (FilterEncoded, the
// adapter). The engine runs this once per candidate pair, so a single stray
// allocation multiplies by hundreds of millions at paper scale.
func TestFilterEncodedZeroAllocs(t *testing.T) {
	// The runtime guard and the static analyzer must cover the same
	// functions: if either drops out of the noalloc registry, this test is
	// guarding something gklint no longer checks.
	for _, fn := range []string{"Kernel.FilterEncoded", "Kernel.FilterPlanes"} {
		if !lint.IsNoAlloc("repro/internal/filter", fn) {
			t.Fatalf("%s is not in lint.NoAllocRegistry; static and runtime guards have drifted", fn)
		}
	}
	if raceEnabled {
		t.Skip("race instrumentation allocates; run without -race")
	}
	rng := rand.New(rand.NewSource(1))
	for _, tc := range []struct {
		name  string
		L, e  int
		exact bool
	}{
		{"L100-e5", 100, 5, false},
		{"L100-e5-exact", 100, 5, true},
		{"L250-e10", 250, 10, false},
		{"L33-e0", 33, 0, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			kern := NewKernel(ModeGPU, tc.L, tc.e)
			kern.SetExactEstimate(tc.exact)
			read := dna.RandomSeq(rng, tc.L)
			similar := dna.MutateSubstitutions(rng, read, tc.e/2)
			dissimilar := dna.RandomSeq(rng, tc.L)
			readEnc, _ := dna.Encode(read)
			simEnc, _ := dna.Encode(similar)
			disEnc, _ := dna.Encode(dissimilar)
			var est int
			var acc bool
			if allocs := testing.AllocsPerRun(500, func() {
				est, acc = kern.FilterEncoded(readEnc, simEnc, tc.e)
				est, acc = kern.FilterEncoded(readEnc, disEnc, tc.e)
			}); allocs != 0 {
				t.Fatalf("FilterEncoded allocated %.1f allocs/op, want 0", allocs)
			}
			pw := bitvec.MaskWords(tc.L)
			readLo, readHi := make([]uint64, pw), make([]uint64, pw)
			dna.TryEncodePlanes(readLo, readHi, read)
			simLo, simHi, simOff := embedded(rng, similar)
			disLo, disHi, disOff := embedded(rng, dissimilar)
			if allocs := testing.AllocsPerRun(500, func() {
				est, acc = kern.FilterPlanes(readLo, readHi, simLo, simHi, simOff, tc.e)
				est, acc = kern.FilterPlanes(readLo, readHi, disLo, disHi, disOff, tc.e)
			}); allocs != 0 {
				t.Fatalf("FilterPlanes allocated %.1f allocs/op, want 0", allocs)
			}
			_, _ = est, acc
		})
	}
}

// TestFilterCheckedZeroAllocs guards the raw-byte path too (encode into the
// kernel's plane buffers plus the filtration).
func TestFilterCheckedZeroAllocs(t *testing.T) {
	if !lint.IsNoAlloc("repro/internal/filter", "Kernel.FilterChecked") {
		t.Fatal("Kernel.FilterChecked is not in lint.NoAllocRegistry; static and runtime guards have drifted")
	}
	if raceEnabled {
		t.Skip("race instrumentation allocates; run without -race")
	}
	rng := rand.New(rand.NewSource(2))
	kern := NewKernel(ModeGPU, 100, 5)
	read := dna.RandomSeq(rng, 100)
	ref := dna.MutateSubstitutions(rng, read, 3)
	var d Decision
	if allocs := testing.AllocsPerRun(500, func() {
		d, _ = kern.FilterChecked(read, ref, 5)
	}); allocs != 0 {
		t.Fatalf("FilterChecked allocated %.1f allocs/op, want 0", allocs)
	}
	_ = d
}
