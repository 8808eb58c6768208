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
// kernel so their contribution can be measured in isolation (the harness's
// "ablation" experiment, `gkbench -exp ablation`). The zero value is the full
// algorithm.
type Ablation struct {
	// SkipAmendment disables the short-zero-streak amendment; without it a
	// single chance match inside any of the 2e+1 masks zeroes the AND and
	// hides genuine mismatches, inflating false accepts.
	SkipAmendment bool
	// CountRuns replaces the windowed-LUT error counter with counting
	// maximal 1-runs. Runs undercount clustered mismatches, so the filter
	// stops discriminating at high error thresholds. Run counting is not
	// monotone under the progressive AND, so it also disables both early
	// exits.
	CountRuns bool
}

// Block geometry. A block is one 64-bit register holding guardCols guard
// columns, blockCols payload columns and guardCols more guard columns of a
// mask: block b's register bit i is mask column blockCols*b - guardCols + i.
// An amended bit depends on the raw bits at most three columns to either side
// of it (pass 1 looks one column each way, pass 2 at pass-1 bits up to two
// columns away), so with four guard columns every payload bit amends inside
// its own register, whatever the neighbouring blocks hold. Payloads start on
// multiples of four, so no 4-column counting window straddles two payloads
// and the per-block window counts sum to the whole mask's.
const (
	blockCols   = 56
	guardCols   = 4
	payloadMask = (uint64(1)<<blockCols - 1) << guardCols
)

// Kernel performs GateKeeper filtrations for one fixed read length and
// maximum error threshold. Mirroring the CUDA kernel, whose bitmask arrays
// live in a reserved per-thread stack frame sized at compile time ("read
// length and error threshold should be specified at compile time"), a Kernel
// pre-allocates every scratch buffer at construction and is therefore NOT
// safe for concurrent use; allocate one Kernel per worker, exactly as the
// GPU allocates one stack frame per thread.
//
// The core, FilterPlanes, computes on bit planes, block by block. A sequence
// is two bit vectors — the low and the high bit of each base's 2-bit code, 64
// bases per word — so a raw mismatch word is (read.lo ^ ref.lo) | (read.hi ^
// ref.hi): the hardware's one XOR + OR per base pair, with no 2-bit collapse
// anywhere. Each of the ceil(L/56) blocks is compared, amended (three
// shift/AND/OR lines on the register), edge-forced and ANDed entirely in
// registers; the shifted read and the reference window are read in place from
// their planes at the block's bit offset, so nothing is shifted, extracted or
// copied per mask. The retained 32-bit unfused chain lives in internal/ref32;
// the differential tests require the two to make bit-identical decisions.
type Kernel struct {
	mode    Mode
	readLen int
	maxE    int
	ablate  Ablation
	exact   bool

	// Per-thread "stack frame": one accumulated AND word per block, the
	// plane buffers FilterChecked and FilterEncoded fill before calling the
	// core (the reference pair with a zero word at each end, as resident
	// planes have), and the mask the run-counting ablation re-packs into.
	blocks         []uint64
	readLo, readHi []uint64
	refLo, refHi   []uint64
	runMask        []uint64
}

// NewKernel builds a kernel for reads of length readLen filtered at error
// thresholds up to maxE. Larger thresholds return an error from
// FilterChecked; GrowMaxE raises the bound in place (scratch depends only on
// the read length).
func NewKernel(mode Mode, readLen, maxE int) *Kernel {
	pw := bitvec.MaskWords(readLen)
	return &Kernel{
		mode:    mode,
		readLen: readLen,
		maxE:    maxE,
		blocks:  make([]uint64, (readLen+blockCols-1)/blockCols),
		readLo:  make([]uint64, pw),
		readHi:  make([]uint64, pw),
		refLo:   make([]uint64, pw+2),
		refHi:   make([]uint64, pw+2),
		runMask: make([]uint64, pw),
	}
}

// SetAblation configures ablation switches; see Ablation. Call before the
// first filtration.
func (k *Kernel) SetAblation(a Ablation) { k.ablate = a }

// SetExactEstimate disables both early exits so Estimate is always the exact
// windowed count of the fully ANDed mask, as the unfused chain computed it.
// The trace and ablation paths (and any caller comparing estimates rather
// than decisions) want this; the hot filtration path does not, because only
// the decision is consumed.
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

// span returns the register mask of bits [lo, hi), clamped to the word.
//
//gk:noalloc
func span(lo, hi int) uint64 {
	lo, hi = max(lo, 0), min(hi, 64)
	if lo >= hi {
		return 0
	}
	return ^uint64(0) >> uint(64-hi+lo) << uint(lo)
}

// amendWord fills the 1- and 2-wide zero streaks of a block register that
// are flanked by 1s: pass 1 sets a bit whose two neighbours are set, pass 2
// sets both bits of a pair whose outer neighbours are set after pass 1. Bits
// shifted in from outside the register are zero, which reaches the guard
// columns only (see the block geometry).
//
//gk:noalloc
func amendWord(r uint64) uint64 {
	p1 := r | (r<<1)&(r>>1)
	pair := (p1 << 1) & (p1 >> 2)
	return p1 | pair | pair<<1
}

// FilterPlanes runs one filtration on bit planes — the engines' candidate
// path. readLo/readHi are the read's planes (MaskWords(readLen) words each,
// zero beyond the last base); refLo/refHi are planes of the reference and off
// the bit offset in them of the candidate window's first base, so the window
// is read where it lies ("extracting the relevant reference segment based on
// the index", Section 3.5, done block by block). The reference planes must be
// addressable from bit off-4 through bit off+readLen+59: a zero word at each
// end of a resident plane guarantees that for every window inside it. It
// returns the approximated edit distance and the accept decision, allocating
// nothing.
//
// Order of work. The Hamming row is built over all blocks first. The 2e
// shifted lanes are then folded block-major: block b takes every shift before
// block b+1 takes any. The AND only ever clears bits, so a block's windowed
// count never rises, and the whole mask's count is the sum over blocks. Hence
// two seals, neither of which changes a decision: an accept as soon as
// (finished blocks + this block so far + the Hamming counts of the blocks not
// yet folded) is <= e, and a reject as soon as the finished blocks alone
// exceed e — most rejects are known after the first block, at a fraction of
// the 2e+1 full-length masks. A sealed accept's Estimate lies in [exact, e];
// a sealed reject's is a lower bound in (e, exact]. SetExactEstimate and the
// CountRuns ablation take neither exit.
//
//gk:noalloc
func (k *Kernel) FilterPlanes(readLo, readHi, refLo, refHi []uint64, off, e int) (estimate int, accept bool) {
	metrics.Filtrations.Inc()
	L := k.readLen
	amend := e > 0 && !k.ablate.SkipAmendment
	early := !k.exact && !k.ablate.CountRuns
	gpu := k.mode == ModeGPU
	blocks := k.blocks

	// The Hamming row. Columns outside [0, L) are masked out of the raw word
	// (the planes hold neighbouring reference bases there) and, with the
	// guards, out of the stored one.
	rest := 0
	for b := range blocks {
		base := b*blockCols - guardCols
		valid := span(-base, L-base)
		fLo, fHi := bitvec.Window(refLo, off+base), bitvec.Window(refHi, off+base)
		w := ((bitvec.WindowZero(readLo, base) ^ fLo) | (bitvec.WindowZero(readHi, base) ^ fHi)) & valid
		if amend {
			w = amendWord(w)
		}
		w &= payloadMask
		blocks[b] = w
		rest += bitvec.CountWindowsWord(w)
	}
	if e == 0 {
		return rest, rest == 0 // exact matching: the raw Hamming count
	}
	if early && rest <= e {
		return rest, true
	}

	// done is the final count of the finished blocks, rest the Hamming count
	// of the blocks not yet folded.
	done := 0
	for b, w := range blocks {
		rest -= bitvec.CountWindowsWord(w)
		base := b*blockCols - guardCols
		valid := span(-base, L-base)
		fLo, fHi := bitvec.Window(refLo, off+base), bitvec.Window(refHi, off+base)
		// A block that has reached zero stays zero: stop folding it.
		for s := 1; s <= e && w != 0; s++ {
			// Deletion lane: the read shifted s columns up. Insertion lane:
			// s columns down. Columns shifted in from beyond the read are
			// 0/0, an 'A', as a logical shift leaves them.
			del := ((bitvec.WindowZero(readLo, base-s) ^ fLo) | (bitvec.WindowZero(readHi, base-s) ^ fHi)) & valid
			ins := ((bitvec.WindowZero(readLo, base+s) ^ fLo) | (bitvec.WindowZero(readHi, base+s) ^ fHi)) & valid
			if amend {
				del, ins = amendWord(del), amendWord(ins)
			}
			// Edge forcing: the deletion lane's vacated columns are [0, s),
			// the insertion lane's [L-s, L). GPU mode forces them to 1 (the
			// Figure 2 accuracy fix); FPGA/SHD zeroes them.
			delEdge, insEdge := span(-base, s-base), span(max(L-s, 0)-base, L-base)
			if gpu {
				del |= delEdge
				ins |= insEdge
			} else {
				del &^= delEdge
				ins &^= insEdge
			}
			w &= del & ins
			if est := done + bitvec.CountWindowsWord(w) + rest; early && est <= e {
				return est, true
			}
		}
		blocks[b] = w
		done += bitvec.CountWindowsWord(w)
		if early && done > e {
			return done, false
		}
	}
	if k.ablate.CountRuns {
		done = k.countRuns()
	}
	return done, done <= e
}

// countRuns is the run-counting ablation's error counter: the finished
// blocks' payloads re-packed into mask words (payload b starts at column
// 56b) and walked by the hardware-faithful run counter.
//
//gk:noalloc
func (k *Kernel) countRuns() int {
	clear(k.runMask)
	for b, w := range k.blocks {
		p := w >> guardCols // guards are already clear
		word, bit := b*blockCols>>6, uint(b*blockCols&63)
		k.runMask[word] |= p << bit
		if spill := p >> 1 >> (63 - bit); spill != 0 {
			k.runMask[word+1] |= spill
		}
	}
	return bitvec.CountRunsLUT(k.runMask, k.readLen)
}

// FilterEncoded runs one filtration on pre-encoded, interleaved sequences
// (dna.Encode's layout, EncodedWords(readLen) words each: the host-encoded
// pipeline's transfer format). It is an adapter: both sequences are split
// into the kernel's plane buffers and handed to FilterPlanes, whose decision
// and estimate contract it shares — a sealed accept's estimate lies in
// [exact, e], a sealed reject's is a lower bound in (e, exact].
//
//gk:noalloc
func (k *Kernel) FilterEncoded(readEnc, refEnc []uint64, e int) (estimate int, accept bool) {
	bitvec.Deinterleave(k.refLo[1:len(k.refLo)-1], k.refHi[1:len(k.refHi)-1], refEnc)
	return k.FilterEncodedAt(readEnc, k.refLo, k.refHi, bitvec.CharsPerMaskWord, e)
}

// FilterEncodedAt is FilterEncoded against a window of resident reference
// planes (FilterPlanes' refLo/refHi/off): only the read arrives interleaved.
// The candidate stream's kernel uses it — reads cross the buffers in the
// host-encoded transfer format, the reference never moves.
//
//gk:noalloc
func (k *Kernel) FilterEncodedAt(readEnc, refLo, refHi []uint64, off, e int) (estimate int, accept bool) {
	bitvec.Deinterleave(k.readLo, k.readHi, readEnc)
	return k.FilterPlanes(k.readLo, k.readHi, refLo, refHi, off, e)
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
	if dna.TryEncodePlanes(k.readLo, k.readHi, read) >= 0 || dna.TryEncodePlanes(k.refLo[1:], k.refHi[1:], ref) >= 0 {
		return Decision{Accept: true, Undefined: true}, nil
	}
	est, accept := k.FilterPlanes(k.readLo, k.readHi, k.refLo, k.refHi, bitvec.CharsPerMaskWord, e)
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
// `gkfilter -v`, where the default sealed bound would be printed next
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
