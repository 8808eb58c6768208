package gkgpu

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/cuda"
	"repro/internal/dna"
	"repro/internal/filter"
)

// checkedOracle is the packed candidate path's reference semantics: the
// kernel's own checked entry point on the ASCII bytes of each candidate.
func checkedOracle(kern *filter.Kernel, genome []byte, L int, reads [][]byte, cands []Candidate, e int) []Result {
	want := make([]Result, len(cands))
	for i, c := range cands {
		d, err := kern.FilterChecked(reads[c.ReadID], genome[c.Pos:int(c.Pos)+L], e)
		if err != nil {
			panic(err) // geometry is the test's own
		}
		want[i] = Result{Accept: d.Accept, Undefined: d.Undefined, Estimate: uint16(d.Estimate)}
	}
	return want
}

func requireSameResults(t *testing.T, label string, cands []Candidate, got, want []Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: candidate %d (read %d pos %d): got %+v, want %+v",
				label, i, cands[i].ReadID, cands[i].Pos, got[i], want[i])
		}
	}
}

// lowerSome lower-cases a random quarter of seq in place: case is not a
// decision input on any path.
func lowerSome(rng *rand.Rand, seq []byte) {
	for i := range seq {
		if rng.Intn(4) == 0 {
			seq[i] |= 0x20
		}
	}
}

// TestPackedCandidatesIdentity pins the packed candidate path to the ASCII
// semantics it replaced: CPUEngine.FilterCandidates must equal
// Kernel.FilterChecked on the window's bytes — Accept, Undefined and
// Estimate, with the early accept and with exact estimates — and equal
// Engine.FilterCandidates, over read lengths on and off the 64-base word
// size, every window phase, both reference ends (starts 0…3, whose guard
// columns read the leading pad word, and windows ending on the last base, in
// the last plane word and in the one before it, whose block reads run into
// the trailing pad), a reference that ends inside a plane word, lower-case
// bases, and an 'N' at, just inside and just outside each window edge and in
// the read.
func TestPackedCandidatesIdentity(t *testing.T) {
	for _, tc := range []struct{ L, e int }{{50, 2}, {100, 5}, {300, 15}} {
		t.Run(fmt.Sprintf("L%d", tc.L), func(t *testing.T) {
			L, e := tc.L, tc.e
			rng := rand.New(rand.NewSource(int64(L)))
			genome := dna.RandomSeq(rng, 64*90+37) // not a multiple of 64 (nor 32)
			lowerSome(rng, genome)
			const nAt = 3_000
			genome[nAt] = 'N'
			last := len(genome) - L

			var reads [][]byte
			var cands []Candidate
			// add names one read against its source window and a decoy.
			add := func(pos int, read []byte) {
				reads = append(reads, read)
				id := int64(len(reads) - 1)
				cands = append(cands, Candidate{ReadID: id, Pos: int64(pos)},
					Candidate{ReadID: id, Pos: int64(rng.Intn(last + 1))})
			}
			mutated := func(pos int) []byte {
				read := dna.MutateSubstitutions(rng, genome[pos:pos+L], rng.Intn(2*e+2))
				lowerSome(rng, read)
				return read
			}
			// Every phase of the window start inside a plane word, clear of
			// the N.
			for phase := 0; phase < 64; phase++ {
				add(640+phase, mutated(640+phase))
			}
			// Both ends of the reference: the first four starts, and windows
			// whose last base is the reference's last, lies in its last plane
			// word (bases 5760…5796), is the last of the word before it, or
			// lies inside that word.
			for pos := 0; pos <= 3; pos++ {
				add(pos, mutated(pos))
			}
			for _, end := range []int{len(genome), len(genome) - 1, 64*90 + 1, 64 * 90, 64*90 - 1, 64*89 + 1} {
				add(end-L, mutated(end-L))
			}
			// The N as the window's first base, its last, one before the
			// window and one after it. The reads are N-free copies of clean
			// sequence, so only the window decides.
			for _, pos := range []int{nAt, nAt - L + 1, nAt + 1, nAt - L} {
				add(pos, mutated(640))
			}
			// An N in the read, first and last base.
			for _, at := range []int{0, L - 1} {
				read := mutated(1_280)
				read[at] = 'n'
				add(1_280, read)
			}

			oracle := filter.NewKernel(filter.ModeGPU, L, e)
			want := checkedOracle(oracle, genome, L, reads, cands, e)
			var undefined, accepted, rejected int
			for _, r := range want {
				switch {
				case r.Undefined:
					undefined++
				case r.Accept:
					accepted++
				default:
					rejected++
				}
			}
			// N window first/last (2) + both N reads with both candidates (4);
			// a random decoy may add more.
			if undefined < 6 || accepted == 0 || rejected == 0 {
				t.Fatalf("table is not discriminating: %d undefined, %d accepted, %d rejected",
					undefined, accepted, rejected)
			}

			for _, cores := range []int{1, 12} {
				cpu, err := NewCPUEngine(L, e, cores, Setup1(), cuda.DefaultCostModel())
				if err != nil {
					t.Fatal(err)
				}
				if err := cpu.SetReference(genome); err != nil {
					t.Fatal(err)
				}
				got, err := cpu.FilterCandidates(reads, cands, e)
				if err != nil {
					t.Fatal(err)
				}
				requireSameResults(t, fmt.Sprintf("cores=%d vs FilterChecked", cores), cands, got, want)

				// Exact estimates: the warm call above built every kernel this
				// candidate count fans out to.
				oracle.SetExactEstimate(true)
				for _, k := range cpu.kernels {
					k.SetExactEstimate(true)
				}
				got, err = cpu.FilterCandidates(reads, cands, e)
				if err != nil {
					t.Fatal(err)
				}
				requireSameResults(t, fmt.Sprintf("cores=%d exact vs FilterChecked", cores), cands, got,
					checkedOracle(oracle, genome, L, reads, cands, e))
				oracle.SetExactEstimate(false)
			}

			gpu, err := NewEngine(Config{ReadLen: L, MaxE: e, MaxBatchPairs: 64},
				cuda.NewUniformContext(2, cuda.GTX1080Ti()))
			if err != nil {
				t.Fatal(err)
			}
			defer gpu.Close()
			if err := gpu.SetReference(genome); err != nil {
				t.Fatal(err)
			}
			got, err := gpu.FilterCandidates(reads, cands, e)
			if err != nil {
				t.Fatal(err)
			}
			requireSameResults(t, "Engine vs FilterChecked", cands, got, want)
		})
	}
}

// TestPackedCandidatesIdentityProperty is the randomized half: references of
// arbitrary length with 'N's and lower case sprinkled in, candidates anywhere,
// reads drawn from the reference (so 'N's arrive in reads too).
func TestPackedCandidatesIdentityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1313))
	for iter := 0; iter < 60; iter++ {
		L := []int{50, 100, 300}[iter%3]
		e := L / 20
		genome := dna.RandomSeq(rng, L+1+rng.Intn(3_000))
		lowerSome(rng, genome)
		for n := rng.Intn(4); n > 0; n-- {
			genome[rng.Intn(len(genome))] = "Nn-"[rng.Intn(3)]
		}
		var reads [][]byte
		var cands []Candidate
		for i := 0; i < 40; i++ {
			src := rng.Intn(len(genome) - L + 1)
			reads = append(reads, dna.MutateSubstitutions(rng, genome[src:src+L], rng.Intn(2*e+2)))
			for _, pos := range []int{src, rng.Intn(len(genome) - L + 1)} {
				cands = append(cands, Candidate{ReadID: int64(i), Pos: int64(pos)})
			}
		}
		cpu, err := NewCPUEngine(L, e, 12, Setup1(), cuda.DefaultCostModel())
		if err != nil {
			t.Fatal(err)
		}
		if err := cpu.SetReference(genome); err != nil {
			t.Fatal(err)
		}
		got, err := cpu.FilterCandidates(reads, cands, e)
		if err != nil {
			t.Fatal(err)
		}
		want := checkedOracle(filter.NewKernel(filter.ModeGPU, L, e), genome, L, reads, cands, e)
		requireSameResults(t, fmt.Sprintf("iter %d (L=%d, reference %d)", iter, L, len(genome)), cands, got, want)
	}
}

// FuzzPackedReference checks the packed reference against the bytes it was
// packed from, for any sequence, window and length: hasN is dna.HasN of the
// window; the planes are padded with a zero word at each end and every block
// read of the window decodes to its bases (an unknown base packs as code 0,
// which is 'A'); and a read filtered against the window where it lies — on
// the host engine and on the device engine — gets Kernel.FilterChecked's
// answer on the ASCII bytes.
func FuzzPackedReference(f *testing.F) {
	f.Add([]byte("ACGTACGTNACGTacgtn"), uint(3), uint(8))
	f.Add([]byte(strings.Repeat("ACGT", 40)+"N"+strings.Repeat("TTGA", 40)), uint(97), uint(64))
	f.Add([]byte(strings.Repeat("G", 129)), uint(128), uint(1))
	// Window starts 0…3 (the guard columns read the leading pad) and windows
	// ending on the last base, in the last plane word and in the one before
	// it (the block reads run into the trailing pad). start = pos mod
	// (len-L+1) and L = 1 + n mod len.
	long := []byte(strings.Repeat("GATTACAC", 25)) // 200 bases: plane words end at 64, 128, 192
	for start := uint(0); start <= 3; start++ {
		f.Add(long, start, uint(99))
	}
	for _, end := range []uint{200, 199, 193, 192, 191, 129} {
		f.Add(long, end-60, uint(59))
	}
	f.Fuzz(func(t *testing.T, raw []byte, pos, n uint) {
		if len(raw) == 0 {
			return
		}
		// Mostly bases (either case), now and then whatever byte came in.
		seq := make([]byte, len(raw))
		for i, b := range raw {
			seq[i] = b
			if b < 240 {
				seq[i] = "ACGTacgt"[b%8]
			}
		}
		L := 1 + int(n%uint(len(seq)))
		start := int(pos % uint(len(seq)-L+1))
		window := seq[start : start+L]

		p := packReference(seq)
		words := bitvec.MaskWords(len(seq))
		if p.length != len(seq) || len(p.lo) != words+2 || len(p.hi) != words+2 || len(p.nMask) != words {
			t.Fatalf("packed %d bases as length %d, %d+%d plane words, %d mask words",
				len(seq), p.length, len(p.lo), len(p.hi), len(p.nMask))
		}
		if p.lo[0]|p.hi[0]|p.lo[words+1]|p.hi[words+1] != 0 {
			t.Fatal("pad words are not zero")
		}
		if got, want := p.hasN(int64(start), L), dna.HasN(window); got != want {
			t.Fatalf("hasN(%d,%d) = %v, dna.HasN = %v (window %q)", start, L, got, want, window)
		}
		// Every 64-column read a kernel block makes of this window: 4 guard
		// columns before each 56-column payload.
		for base := -4; base < L; base += 56 {
			lo, hi := bitvec.Window(p.lo, planeOff(int64(start+base))), bitvec.Window(p.hi, planeOff(int64(start+base)))
			for c := 0; c < 64; c++ {
				var want byte // the pads beyond either end, and an unknown base, hold 0/0
				if i := start + base + c; i >= 0 && i < len(seq) {
					if code, ok := dna.Code(seq[i]); ok {
						want = code
					}
				}
				if got := byte(lo>>uint(c)&1 | hi>>uint(c)&1<<1); got != want {
					t.Fatalf("block read at window column %d: column %d holds code %d, want %d (window %q)",
						base, c, got, want, window)
				}
			}
		}

		// One read against the window, on both engines and on the bytes.
		read := slices.Clone(window)
		for i := int(pos % 7); i < L; i += 1 + int(n%11) {
			read[i] = "ACGT"[(pos+uint(i))%4]
		}
		e := L / 20
		want := checkedOracle(filter.NewKernel(filter.ModeGPU, L, e), seq, L, [][]byte{read}, []Candidate{{Pos: int64(start)}}, e)
		cpu, err := NewCPUEngine(L, e, 1, Setup1(), cuda.DefaultCostModel())
		if err != nil {
			t.Fatal(err)
		}
		gpu, err := NewEngine(Config{ReadLen: L, MaxE: e, MaxBatchPairs: 4}, cuda.NewUniformContext(1, cuda.GTX1080Ti()))
		if err != nil {
			t.Fatal(err)
		}
		defer gpu.Close()
		for name, eng := range map[string]interface {
			SetReference(seq []byte) error
			FilterCandidates(reads [][]byte, cands []Candidate, errThreshold int) ([]Result, error)
		}{"CPUEngine": cpu, "Engine": gpu} {
			if err := eng.SetReference(seq); err != nil {
				t.Fatal(err)
			}
			got, err := eng.FilterCandidates([][]byte{read}, []Candidate{{Pos: int64(start)}}, e)
			if err != nil {
				t.Fatal(err)
			}
			if got[0] != want[0] {
				t.Fatalf("%s: window [%d,%d) of %d: got %+v, FilterChecked on the bytes %+v (read %q window %q)",
					name, start, start+L, len(seq), got[0], want[0], read, window)
			}
		}
	})
}

// TestSetReferenceRacesFilterCandidates is the regression for the reference
// check made outside the engine's lock: with one goroutine swapping a long
// and a short reference and others filtering windows only the long one has,
// every call must either fail validation (the short reference was loaded) or
// return the long reference's decisions — never index past the loaded
// reference, which is what a check against the previous reference's length
// allowed. Run under -race, which also flags the unlocked read itself.
func TestSetReferenceRacesFilterCandidates(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	long := dna.RandomSeq(rng, 20_000)
	short := long[:3_000]
	var reads [][]byte
	var cands []Candidate
	for i := 0; i < 40; i++ {
		pos := 10_000 + rng.Intn(9_900)
		reads = append(reads, dna.MutateSubstitutions(rng, long[pos:pos+100], rng.Intn(10)))
		cands = append(cands, Candidate{ReadID: int64(i), Pos: int64(pos)})
	}
	want := checkedOracle(filter.NewKernel(filter.ModeGPU, 100, 5), long, 100, reads, cands, 5)

	type engine interface {
		SetReference(seq []byte) error
		FilterCandidates(reads [][]byte, cands []Candidate, errThreshold int) ([]Result, error)
	}
	for _, tc := range []struct {
		name string
		eng  engine
	}{
		{"gpu", newTestEngine(t, EncodeOnHost, 2)},
		{"cpu", newTestCPUEngine(t, 4)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.eng.SetReference(long); err != nil {
				t.Fatal(err)
			}
			stop := make(chan struct{})
			var wg sync.WaitGroup
			for g := 0; g < 3; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						got, err := tc.eng.FilterCandidates(reads, cands, 5)
						if err != nil {
							if !strings.Contains(err.Error(), "outside reference") {
								t.Errorf("FilterCandidates: %v", err)
								return
							}
							continue
						}
						if !slices.Equal(got, want) {
							t.Errorf("decisions drifted under reference reload")
							return
						}
					}
				}()
			}
			for i := 0; i < 150; i++ {
				seq := long
				if i%2 == 0 {
					seq = short
				}
				if err := tc.eng.SetReference(seq); err != nil {
					t.Error(err)
					break
				}
			}
			close(stop)
			wg.Wait()
		})
	}
}

// TestSetReferenceRacesFilterCandidateStream is the same regression for the
// candidate stream, whose nil check of the reference ran in the caller's
// goroutine before any lock was taken (-race flags it on the parent). The
// stream now looks at the reference under the engine's lock, batch by batch,
// so with one goroutine swapping a long and a short reference every answer is
// the long reference's decision or — its batch met the short one, which does
// not have the window — the defensive Undefined+Accept, and no stream fails.
func TestSetReferenceRacesFilterCandidateStream(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	long := dna.RandomSeq(rng, 20_000)
	short := long[:3_000]
	var reads [][]byte
	var cands []Candidate
	var scands []StreamCandidate
	for i := 0; i < 200; i++ {
		pos := 10_000 + rng.Intn(9_900)
		read := dna.MutateSubstitutions(rng, long[pos:pos+100], rng.Intn(10))
		reads = append(reads, read)
		cands = append(cands, Candidate{ReadID: int64(i), Pos: int64(pos)})
		scands = append(scands, StreamCandidate{Read: read, Pos: int64(pos)})
	}
	want := checkedOracle(filter.NewKernel(filter.ModeGPU, 100, 5), long, 100, reads, cands, 5)

	eng := newStreamEngine(t, EncodeOnHost, 2, 16)
	if err := eng.SetReference(long); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				in := make(chan StreamCandidate, len(scands))
				for _, c := range scands {
					in <- c
				}
				close(in)
				out, err := eng.FilterCandidateStream(context.Background(), in, 5)
				if err != nil {
					t.Error(err)
					return
				}
				i := 0
				for r := range out {
					if r != want[i] && r != (Result{Accept: true, Undefined: true}) {
						t.Errorf("candidate %d: %+v is neither %+v nor the defensive pass-through", i, r, want[i])
					}
					i++
				}
				if i != len(scands) {
					t.Errorf("stream answered %d of %d candidates: %v", i, len(scands), eng.StreamErr())
					return
				}
			}
		}()
	}
	for i := 0; i < 150; i++ {
		seq := long
		if i%2 == 0 {
			seq = short
		}
		if err := eng.SetReference(seq); err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	wg.Wait()
}
