package filter

import (
	"fmt"
	"sync"

	"repro/internal/bitvec"
	"repro/internal/dna"
	"repro/internal/metrics"
)

// Mode selects between the two GateKeeper algorithm variants the paper
// compares.
type Mode int

const (
	// ModeGPU is the improved algorithm of GateKeeper-GPU: after amendment,
	// the bits vacated by each shift (k leading characters of a k-deletion
	// mask, k trailing characters of a k-insertion mask) are forced to 1 so
	// the final AND cannot hide mismatches near the sequence edges
	// (Section 3.4, Figure 2). This is the accuracy contribution that yields
	// up to 52x fewer false accepts.
	ModeGPU Mode = iota
	// ModeFPGA reproduces the original GateKeeper bit-vector behaviour
	// (identical to SHD's, per the paper's comparison tables): vacated bits
	// stay 0 and dominate the AND, so edge errors can be missed and the
	// filter degenerates to accept-all at high error thresholds.
	ModeFPGA
)

// Ablation switches off individual design elements of the GateKeeper-GPU
// kernel so their contribution can be measured in isolation (the ablation
// experiments of DESIGN.md). The zero value is the full algorithm.
type Ablation struct {
	// SkipAmendment disables the short-zero-streak amendment; without it a
	// single chance match inside any of the 2e+1 masks zeroes the AND and
	// hides genuine mismatches, inflating false accepts.
	SkipAmendment bool
	// CountRuns replaces the windowed-LUT error counter with counting
	// maximal 1-runs. Runs undercount clustered mismatches, so the filter
	// stops discriminating at high error thresholds. Run counting is not
	// monotone under the progressive AND, so it also disables the
	// early-accept shortcut.
	CountRuns bool
}

// Kernel performs GateKeeper filtrations for one fixed read length and
// maximum error threshold. Mirroring the CUDA kernel, whose bitmask arrays
// live in a reserved per-thread stack frame sized at compile time ("read
// length and error threshold should be specified at compile time"), a Kernel
// pre-allocates every scratch buffer at construction and is therefore NOT
// safe for concurrent use; allocate one Kernel per worker, exactly as the
// GPU allocates one stack frame per thread.
//
// The core is a fused 64-bit pipeline: each of the 2e+1 masks is produced in
// a single traversal of the mask words — the character shift, XOR, 2-bit
// collapse, tail clear, amendment, edge forcing, and AND into the
// accumulated final mask all happen per word, with the amendment's
// neighbour dependencies carried through a three-word software pipeline
// instead of intermediate full-slice passes. The retained 32-bit unfused
// chain lives in internal/ref32; the differential tests require the two to
// make bit-identical decisions.
type Kernel struct {
	mode    Mode
	readLen int
	maxE    int
	ablate  Ablation
	exact   bool

	encWords  int    // encoded words per sequence
	maskWords int    // mask words per sequence
	tailMask  uint64 // valid-bit mask of the final mask word

	// Per-thread "stack frame": encoding buffers for the raw-byte path and
	// the accumulated AND of amended masks. The fused pipeline needs no
	// other scratch.
	readEnc, refEnc []uint64
	final           []uint64
}

// NewKernel builds a kernel for reads of length readLen filtered at error
// thresholds up to maxE. Larger thresholds return an error from
// FilterChecked; GrowMaxE raises the bound in place (scratch depends only on
// the read length).
func NewKernel(mode Mode, readLen, maxE int) *Kernel {
	ew := bitvec.EncodedWords(readLen)
	mw := bitvec.MaskWords(readLen)
	tail := ^uint64(0)
	if rem := readLen % 64; rem != 0 {
		tail = uint64(1)<<uint(rem) - 1
	}
	return &Kernel{
		mode:      mode,
		readLen:   readLen,
		maxE:      maxE,
		encWords:  ew,
		maskWords: mw,
		tailMask:  tail,
		readEnc:   make([]uint64, ew),
		refEnc:    make([]uint64, ew),
		final:     make([]uint64, mw),
	}
}

// SetAblation configures ablation switches; see Ablation. Call before the
// first filtration.
func (k *Kernel) SetAblation(a Ablation) { k.ablate = a }

// SetExactEstimate disables the early-accept shortcut so Estimate is always
// the exact windowed count of the fully ANDed mask, as the unfused chain
// computed it. The trace and ablation paths (and any caller comparing
// estimates rather than decisions) want this; the hot filtration path does
// not, because for an accepted pair only the decision is consumed.
func (k *Kernel) SetExactEstimate(exact bool) { k.exact = exact }

// ReadLen returns the configured read length.
//
//gk:noalloc
func (k *Kernel) ReadLen() int { return k.readLen }

// MaxE returns the configured maximum error threshold.
func (k *Kernel) MaxE() int { return k.maxE }

// GrowMaxE raises the maximum error threshold accepted by FilterChecked.
// Every scratch buffer is sized by read length alone, so growth allocates
// nothing.
func (k *Kernel) GrowMaxE(maxE int) {
	if maxE > k.maxE {
		k.maxE = maxE
	}
}

// Mode returns the algorithm variant.
func (k *Kernel) Mode() Mode { return k.mode }

// FilterEncoded runs one filtration on pre-encoded sequences (the
// host-encoded pipeline). Both slices must hold EncodedWords(readLen) words.
// It returns the approximated edit distance and the accept decision,
// allocating nothing.
//
// The final AND across masks only ever clears bits, so the windowed error
// count is non-increasing as masks accumulate: once the running estimate
// drops to <= e the accept decision is sealed and the remaining masks are
// skipped (the monotone early accept). On that path Estimate is the sealed
// running count — still <= e, but an upper bound on the exact final
// estimate; SetExactEstimate restores the exhaustive computation.
//
//gk:noalloc
func (k *Kernel) FilterEncoded(readEnc, refEnc []uint64, e int) (estimate int, accept bool) {
	metrics.Filtrations.Inc()
	L := k.readLen
	ew := k.encWords
	mw := k.maskWords

	if e == 0 {
		// Exact matching only: fused XOR + collapse + count, no masks kept.
		est := 0
		for m := 0; m < mw; m++ {
			j := 2 * m
			a := readEnc[j] ^ refEnc[j]
			var b uint64
			if j+1 < ew {
				b = readEnc[j+1] ^ refEnc[j+1]
			}
			w := bitvec.CollapsePair(a, b)
			if m == mw-1 {
				w &= k.tailMask
			}
			est += bitvec.CountWindowsWord(w)
		}
		return est, est == 0
	}

	early := !k.exact && !k.ablate.CountRuns

	// final := amend(Hamming mask), then AND in the 2e shifted masks. The
	// k-deletion and k-insertion masks of each shift are independent until
	// the final AND, so maskPassPair produces both lanes in one traversal
	// (shared reference loads, one loop's worth of pipeline bookkeeping);
	// AND is associative bit-by-bit, so folding outU & outD per word is
	// bit-identical to two sequential maskPass calls.
	k.maskPass(readEnc, refEnc, 0, true)
	if early {
		if est := k.windowEstimate(); est <= e {
			return est, true
		}
	}
	for shift := 1; shift <= e; shift++ {
		k.maskPassPair(readEnc, refEnc, shift) // deletion + insertion lanes
		if early {
			if est := k.windowEstimate(); est <= e {
				return est, true
			}
		}
	}

	estimate = k.countErrors(k.final, L)
	return estimate, estimate <= e
}

// windowEstimate is the windowed error count of the accumulated final mask
// (its tail is always clear, so whole-word counting is exact).
//
//gk:noalloc
func (k *Kernel) windowEstimate() int {
	est := 0
	for _, w := range k.final {
		est += bitvec.CountWindowsWord(w)
	}
	return est
}

// maskPass builds one amended, edge-forced mask — shift 0 for the Hamming
// mask, +k for the k-deletion mask, -k for the k-insertion mask — and folds
// it into k.final (direct store when init, AND otherwise), in one traversal
// of the mask words.
//
// Each mask word m collapses from encoded words 2m and 2m+1 of the shifted
// read XORed with the reference; the character shift is applied on the fly
// with its carry-bit transfer, so no shifted copy of the read is ever
// materialized. The amendment (fill 1-2 wide zero streaks flanked by 1s)
// needs raw-mask context up to two bits on either side of a word, which a
// three-word software pipeline provides: while word m is amended, word m+3's
// raw form is produced, reproducing internal/ref32's whole-array passes
// word by word.
//
//gk:noalloc
func (k *Kernel) maskPass(re, fe []uint64, shift int, init bool) {
	mw := k.maskWords
	ew := k.encWords
	L := k.readLen
	up := shift >= 0
	s := shift
	if s < 0 {
		s = -s
	}
	nbits := uint(2 * s) // character shift in bits
	ws := int(nbits >> 6)
	bs := nbits & 63

	// shifted returns encoded word j of the shifted read, carry-transferred
	// across word boundaries; out-of-range words are zero.
	shifted := func(j int) uint64 {
		if up {
			jj := j - ws
			if jj < 0 || jj >= ew {
				return 0
			}
			w := re[jj] << bs
			if bs != 0 && jj > 0 {
				w |= re[jj-1] >> (64 - bs)
			}
			return w
		}
		jj := j + ws
		if jj >= ew {
			return 0
		}
		w := re[jj] >> bs
		if bs != 0 && jj+1 < ew {
			w |= re[jj+1] << (64 - bs)
		}
		return w
	}

	// raw returns mask word m: shift, XOR, collapse, tail clear — fused.
	// Words at or beyond mw read as zero, which is exactly how the unfused
	// chain's shifts treat positions beyond the array.
	raw := func(m int) uint64 {
		if m >= mw {
			return 0
		}
		j := 2 * m
		a := shifted(j) ^ fe[j]
		var b uint64
		if j+1 < ew {
			b = shifted(j+1) ^ fe[j+1]
		}
		w := bitvec.CollapsePair(a, b)
		if m == mw-1 {
			w &= k.tailMask
		}
		return w
	}

	doAmend := !k.ablate.SkipAmendment
	// pass1 fills isolated single zeros of cur using one bit of neighbour
	// context on each side (amendment pass 1).
	pass1 := func(prev, cur, next uint64) uint64 {
		if !doAmend {
			return cur
		}
		return cur | ((cur<<1 | prev>>63) & (cur>>1 | next<<63))
	}

	gpu := k.mode == ModeGPU
	final := k.final

	// Pipeline state: r0..r2 = raw words m..m+2; p1p/p1m/p1n = pass-1 words
	// m-1..m+1; psPrev = pass-2 pair-start word m-1.
	r0, r1, r2 := raw(0), raw(1), raw(2)
	p1p := uint64(0)
	p1m := pass1(0, r0, r1)
	p1n := pass1(r0, r1, r2)
	var psPrev uint64

	for m := 0; m < mw; m++ {
		out := p1m
		if doAmend {
			// Amendment pass 2: fill double zeros. Pair starts where the
			// bit below and the bit two above are both set after pass 1.
			up1 := p1m<<1 | p1p>>63
			dn2 := p1m>>2 | p1n<<62
			ps := up1 & dn2
			out |= ps | ps<<1 | psPrev>>63
			psPrev = ps
		}
		if m == mw-1 {
			out &= k.tailMask
		}

		// Edge forcing: the positions the shift vacated. GPU mode forces
		// them to 1 (the Figure 2 accuracy fix); FPGA/SHD zeroes them.
		if s > 0 {
			if up {
				// Deletion mask: bits [0, s).
				if lo := m << 6; lo < s {
					n := s - lo
					var fm uint64
					if n >= 64 {
						fm = ^uint64(0)
					} else {
						fm = uint64(1)<<uint(n) - 1
					}
					if gpu {
						out |= fm
					} else {
						out &^= fm
					}
				}
			} else {
				// Insertion mask: bits [L-s, L).
				start := L - s
				if start < 0 {
					start = 0
				}
				if wlo := m << 6; wlo+64 > start {
					from := start - wlo
					if from < 0 {
						from = 0
					}
					to := L - wlo
					if to > 64 {
						to = 64
					}
					if to > from {
						width := to - from
						var fm uint64
						if width >= 64 {
							fm = ^uint64(0)
						} else {
							fm = uint64(1)<<uint(width) - 1
						}
						if gpu {
							out |= fm << uint(from)
						} else {
							out &^= fm << uint(from)
						}
					}
				}
			}
		}

		if init {
			final[m] = out
		} else {
			final[m] &= out
		}

		// Advance the pipeline one word.
		p1p, p1m = p1m, p1n
		r0, r1, r2 = r1, r2, raw(m+3)
		p1n = pass1(r0, r1, r2)
	}
}

// maskPassPair builds the s-deletion and s-insertion masks of one shift in a
// single traversal of the mask words and folds both into k.final. The two
// lanes are independent — they read the same reference words but shift the
// read in opposite directions — so producing them together unrolls the
// shift/XOR/collapse/amend/AND chain across two independent dependency
// chains per iteration (the superscalar win) and halves the loop and
// software-pipeline bookkeeping of two maskPass calls. Because the final
// AND is associative per bit, final[m] &= outU & outD is bit-identical to
// ANDing the lanes in sequence; the early-accept checkpoints in
// FilterEncoded sit after both lanes either way.
//
// s must be >= 1 (shift 0 is the Hamming init, maskPass's job).
//
//gk:noalloc
func (k *Kernel) maskPassPair(re, fe []uint64, s int) {
	mw := k.maskWords
	ew := k.encWords
	L := k.readLen
	nbits := uint(2 * s) // character shift in bits
	ws := int(nbits >> 6)
	bs := nbits & 63

	// shiftedU/shiftedD return encoded word j of the read shifted up
	// (deletion lane) and down (insertion lane), carry-transferred across
	// word boundaries; out-of-range words are zero.
	shiftedU := func(j int) uint64 {
		jj := j - ws
		if jj < 0 || jj >= ew {
			return 0
		}
		w := re[jj] << bs
		if bs != 0 && jj > 0 {
			w |= re[jj-1] >> (64 - bs)
		}
		return w
	}
	shiftedD := func(j int) uint64 {
		jj := j + ws
		if jj >= ew {
			return 0
		}
		w := re[jj] >> bs
		if bs != 0 && jj+1 < ew {
			w |= re[jj+1] << (64 - bs)
		}
		return w
	}

	// rawU/rawD are mask word m of each lane: shift, XOR, collapse, tail
	// clear — fused, as in maskPass.
	rawU := func(m int) uint64 {
		if m >= mw {
			return 0
		}
		j := 2 * m
		a := shiftedU(j) ^ fe[j]
		var b uint64
		if j+1 < ew {
			b = shiftedU(j+1) ^ fe[j+1]
		}
		w := bitvec.CollapsePair(a, b)
		if m == mw-1 {
			w &= k.tailMask
		}
		return w
	}
	rawD := func(m int) uint64 {
		if m >= mw {
			return 0
		}
		j := 2 * m
		a := shiftedD(j) ^ fe[j]
		var b uint64
		if j+1 < ew {
			b = shiftedD(j+1) ^ fe[j+1]
		}
		w := bitvec.CollapsePair(a, b)
		if m == mw-1 {
			w &= k.tailMask
		}
		return w
	}

	doAmend := !k.ablate.SkipAmendment
	pass1 := func(prev, cur, next uint64) uint64 {
		if !doAmend {
			return cur
		}
		return cur | ((cur<<1 | prev>>63) & (cur>>1 | next<<63))
	}

	gpu := k.mode == ModeGPU
	final := k.final

	// Two independent software pipelines, one per lane (see maskPass for the
	// stage layout).
	ru0, ru1, ru2 := rawU(0), rawU(1), rawU(2)
	rd0, rd1, rd2 := rawD(0), rawD(1), rawD(2)
	p1pU := uint64(0)
	p1mU := pass1(0, ru0, ru1)
	p1nU := pass1(ru0, ru1, ru2)
	p1pD := uint64(0)
	p1mD := pass1(0, rd0, rd1)
	p1nD := pass1(rd0, rd1, rd2)
	var psPrevU, psPrevD uint64

	for m := 0; m < mw; m++ {
		outU := p1mU
		outD := p1mD
		if doAmend {
			// Amendment pass 2 on both lanes: fill double zeros.
			up1 := p1mU<<1 | p1pU>>63
			dn2 := p1mU>>2 | p1nU<<62
			ps := up1 & dn2
			outU |= ps | ps<<1 | psPrevU>>63
			psPrevU = ps

			up1 = p1mD<<1 | p1pD>>63
			dn2 = p1mD>>2 | p1nD<<62
			ps = up1 & dn2
			outD |= ps | ps<<1 | psPrevD>>63
			psPrevD = ps
		}
		if m == mw-1 {
			outU &= k.tailMask
			outD &= k.tailMask
		}

		// Edge forcing, per lane: the deletion mask's vacated bits are
		// [0, s), the insertion mask's are [L-s, L). GPU mode forces them to
		// 1 (the Figure 2 accuracy fix); FPGA/SHD zeroes them.
		if lo := m << 6; lo < s {
			n := s - lo
			var fm uint64
			if n >= 64 {
				fm = ^uint64(0)
			} else {
				fm = uint64(1)<<uint(n) - 1
			}
			if gpu {
				outU |= fm
			} else {
				outU &^= fm
			}
		}
		start := L - s
		if start < 0 {
			start = 0
		}
		if wlo := m << 6; wlo+64 > start {
			from := start - wlo
			if from < 0 {
				from = 0
			}
			to := L - wlo
			if to > 64 {
				to = 64
			}
			if to > from {
				width := to - from
				var fm uint64
				if width >= 64 {
					fm = ^uint64(0)
				} else {
					fm = uint64(1)<<uint(width) - 1
				}
				if gpu {
					outD |= fm << uint(from)
				} else {
					outD &^= fm << uint(from)
				}
			}
		}

		final[m] &= outU & outD

		// Advance both pipelines one word.
		p1pU, p1mU = p1mU, p1nU
		ru0, ru1, ru2 = ru1, ru2, rawU(m+3)
		p1nU = pass1(ru0, ru1, ru2)

		p1pD, p1mD = p1mD, p1nD
		rd0, rd1, rd2 = rd1, rd2, rawD(m+3)
		p1nD = pass1(rd0, rd1, rd2)
	}
}

// countErrors applies the configured error counter.
//
//gk:noalloc
func (k *Kernel) countErrors(mask []uint64, n int) int {
	if k.ablate.CountRuns {
		return bitvec.CountRunsLUT(mask, n)
	}
	return bitvec.CountWindowsLUT(mask, n)
}

// Filter runs one filtration on raw sequences, encoding them first (the
// device-encoded pipeline: "the kernel performs the complete set of
// operations for a single filtration, starting with encoding the sequences
// if they are not encoded in the preprocessing stage"). Pairs containing
// unknown base calls bypass filtration as undefined.
func (k *Kernel) Filter(read, ref []byte, e int) Decision {
	d, err := k.FilterChecked(read, ref, e)
	if err != nil {
		panic(err) // programming error: caller violated the configured geometry
	}
	return d
}

// FilterChecked is Filter returning geometry violations as errors instead of
// panicking.
//
//gk:noalloc
func (k *Kernel) FilterChecked(read, ref []byte, e int) (Decision, error) {
	if len(read) != k.readLen || len(ref) != k.readLen {
		return Decision{}, fmt.Errorf("filter: kernel configured for length %d, got read=%d ref=%d", //gk:allow noalloc: cold geometry-violation path
			k.readLen, len(read), len(ref))
	}
	if e < 0 || e > k.maxE {
		return Decision{}, fmt.Errorf("filter: error threshold %d outside configured [0,%d]", e, k.maxE) //gk:allow noalloc: cold geometry-violation path
	}
	// Encoding doubles as the 'N' scan: an unrecognized base is exactly the
	// undefined-pair condition, so the sequences are walked once, not twice,
	// and no error value is constructed on the way.
	if dna.TryEncodeInto(k.readEnc, read) >= 0 || dna.TryEncodeInto(k.refEnc, ref) >= 0 {
		return Decision{Accept: true, Undefined: true}, nil
	}
	est, accept := k.FilterEncoded(k.readEnc, k.refEnc, e)
	return Decision{Accept: accept, Estimate: est}, nil
}

// gateKeeper adapts Kernel to the Filter interface for arbitrary lengths and
// thresholds by keeping a small cache of kernels keyed by read length — the
// only dimension scratch buffers depend on. A threshold above a cached
// kernel's bound grows the kernel in place (GrowMaxE) instead of building a
// fresh kernel with a fresh stack frame per distinct (length, e) pair.
//
// The wrapper is safe for concurrent use: a mutex guards the cache map, the
// in-place GrowMaxE, and the kernel itself (a Kernel is a per-thread stack
// frame, so filtrations through one wrapper serialize). It is the
// convenience path — hot loops should hold a Kernel per worker directly.
type gateKeeper struct {
	mode    Mode
	name    string
	mu      sync.Mutex
	exact   bool
	kernels map[int]*Kernel
}

// SetExactEstimate switches every kernel this wrapper creates (or has
// created) to exhaustive estimates — for estimate-reporting callers like
// `gkfilter -v`, where the default sealed upper bound would be printed next
// to the true edit distance. Decisions are identical either way.
func (g *gateKeeper) SetExactEstimate(exact bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.exact = exact
	for _, k := range g.kernels {
		k.SetExactEstimate(exact)
	}
}

// NewGateKeeperGPU returns the improved GateKeeper filter of the paper.
// The returned Filter is safe for concurrent use, but filtrations through
// one instance serialize on its internal mutex; machine-width callers
// should hold a Kernel per worker.
func NewGateKeeperGPU() Filter {
	return &gateKeeper{mode: ModeGPU, name: "GateKeeper-GPU", kernels: map[int]*Kernel{}}
}

// NewGateKeeperFPGA returns the original GateKeeper behaviour, used as the
// FPGA baseline in every comparison figure.
func NewGateKeeperFPGA() Filter {
	return &gateKeeper{mode: ModeFPGA, name: "GateKeeper-FPGA", kernels: map[int]*Kernel{}}
}

// NewSHD returns the Shifted Hamming Distance filter. SHD is the software
// ancestor of GateKeeper and produces identical decisions (the paper's
// comparison tables report identical false-accept counts for the two), so it
// shares the ModeFPGA kernel under its own name.
func NewSHD() Filter {
	return &gateKeeper{mode: ModeFPGA, name: "SHD", kernels: map[int]*Kernel{}}
}

func (g *gateKeeper) Name() string { return g.name }

func (g *gateKeeper) Filter(read, ref []byte, e int) Decision {
	g.mu.Lock()
	defer g.mu.Unlock()
	k := g.kernels[len(read)]
	if k == nil {
		k = NewKernel(g.mode, len(read), e)
		k.SetExactEstimate(g.exact)
		g.kernels[len(read)] = k
	} else {
		k.GrowMaxE(e)
	}
	return k.Filter(read, ref, e)
}
