package gkgpu

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/bitvec"
	"repro/internal/cuda"
	"repro/internal/dna"
	"repro/internal/filter"
	"repro/internal/par"
)

// Candidate names one filtration by indices instead of materialized
// sequences: read ReadID against the reference window starting at Pos. This
// is the paper's actual mrFAST integration — "Each thread executes a single
// comparison, starting with extracting the relevant reference segment based
// on the index" — and the reason unified memory fits the workload: the
// reference's designated segments are requested only on demand, and a read
// is copied to the device once for all of its candidate locations. IDs and
// positions are 64-bit so the candidate path addresses genome-scale
// (>2^31-base) references directly.
type Candidate struct {
	ReadID int64
	Pos    int64
}

// packedRef is the encoded reference both engines filter against, built once
// per SetReference (Section 3.5: the reference is encoded up front and every
// filtration extracts its window by index): the bases as two bit planes — the
// low and the high bit of each 2-bit code, 64 bases per word, the layout the
// kernel computes in — plus one bit per base marking unknown base calls. At
// 0.375 B/base it is what stays resident instead of the ASCII sequence.
type packedRef struct {
	length int
	// lo and hi hold the planes, each with one zero word before base 0 and
	// one after the last base: a kernel block reads 4 guard columns before its
	// window and up to 59 after it, and the pads keep those reads in range at
	// either end of the reference. An unknown base encodes as 0 and is told
	// apart by nMask alone. They are the two halves of planes, one allocation,
	// so a device maps both as one unified-memory buffer.
	planes, lo, hi []uint64
	// nMask has bit i%64 of word i/64 set when base i is not A/C/G/T
	// (either case): windows overlapping one bypass filtration as undefined.
	nMask []uint64
}

// planeOff is the bit offset of reference base pos in the padded planes.
//
//gk:noalloc
func planeOff(pos int64) int { return int(pos) + bitvec.CharsPerMaskWord }

// packGrain is how many 64-base words a packing worker claims at a time.
const packGrain = 1 << 10

// packReference encodes seq in one parallel walk (multithreaded, as the
// paper does with OpenMP). A worker's block is a run of whole 64-base words —
// one word of each plane and of nMask — so no two workers write the same word.
func packReference(seq []byte) *packedRef {
	words := bitvec.MaskWords(len(seq))
	planes := make([]uint64, 2*(words+2))
	p := &packedRef{
		length: len(seq),
		planes: planes,
		lo:     planes[:words+2],
		hi:     planes[words+2:],
		nMask:  make([]uint64, words),
	}
	par.For(cuda.MaxWorkers(words), words, packGrain, func(_, lo, hi int) {
		for wi := lo; wi < hi; wi++ {
			base := wi * bitvec.CharsPerMaskWord
			p.lo[wi+1], p.hi[wi+1], p.nMask[wi] = packWord(seq[base:min(base+bitvec.CharsPerMaskWord, len(seq))])
		}
	})
	return p
}

// packWord encodes up to 64 bases into one word of each plane and the bitmap
// of the unknown ones among them.
func packWord(bases []byte) (lo, hi, unknown uint64) {
	for i, b := range bases {
		code, ok := dna.Code(b)
		if !ok {
			unknown |= 1 << uint(i)
			continue
		}
		lo |= uint64(code&1) << uint(i)
		hi |= uint64(code>>1) << uint(i)
	}
	return lo, hi, unknown
}

// hasN reports whether the window [start, start+n) holds an unknown base:
// the two end words of nMask masked to the window, the ones between whole.
// The window must lie inside the reference with n > 0.
//
//gk:noalloc
func (p *packedRef) hasN(start int64, n int) bool {
	first, last := uint64(start), uint64(start)+uint64(n)-1
	lo, hi := first/bitvec.CharsPerMaskWord, last/bitvec.CharsPerMaskWord
	head := ^uint64(0) << (first % bitvec.CharsPerMaskWord)
	tail := ^uint64(0) >> (bitvec.CharsPerMaskWord - 1 - last%bitvec.CharsPerMaskWord)
	if lo == hi {
		return p.nMask[lo]&head&tail != 0
	}
	acc := p.nMask[lo]&head | p.nMask[hi]&tail
	for _, w := range p.nMask[lo+1 : hi] {
		acc |= w
	}
	return acc != 0
}

// encodeReads packs each read once into its slot of planes — planeWords words
// of the low plane, then planeWords of the high — "it is sufficient to copy a
// single read only once to GPU memory for its multiple candidate reference
// segments" — and records in hasN whether the read holds an unknown base (the
// encode walk doubles as the 'N' scan; such a read's slot is garbage and
// never filtered).
func encodeReads(planes []uint64, hasN []bool, reads [][]byte, planeWords int) {
	for i, r := range reads {
		lo, hi := readPlanes(planes, int64(i), planeWords)
		hasN[i] = dna.TryEncodePlanes(lo, hi, r) >= 0
	}
}

// readPlanes returns read id's two planes out of encodeReads' buffer.
//
//gk:noalloc
func readPlanes(planes []uint64, id int64, planeWords int) (lo, hi []uint64) {
	slot := planes[2*int(id)*planeWords:][:2*planeWords]
	return slot[:planeWords], slot[planeWords:]
}

// candidateScratch is an engine's reusable state for one FilterCandidates
// call: every read of the call encoded once (encodeReads' plane slots), and
// whether it holds an unknown base.
type candidateScratch struct {
	planes []uint64
	hasN   []bool
}

// prepare is the FilterCandidates prologue both engines run under their lock:
// check the call against the engine's compiled geometry and the loaded
// reference (nil before SetReference), then encode every read once, whatever
// its number of candidate locations.
func (s *candidateScratch) prepare(readLen, maxE int, ref *packedRef, reads [][]byte, cands []Candidate, errThreshold int) error {
	if errThreshold < 0 || errThreshold > maxE {
		return fmt.Errorf("gkgpu: threshold %d outside compiled [0,%d]", errThreshold, maxE)
	}
	for i, r := range reads {
		if len(r) != readLen {
			return fmt.Errorf("gkgpu: read %d has length %d; engine compiled for %d", i, len(r), readLen)
		}
	}
	if ref == nil {
		return fmt.Errorf("gkgpu: FilterCandidates before SetReference")
	}
	for i, c := range cands {
		if c.ReadID < 0 || int(c.ReadID) >= len(reads) {
			return fmt.Errorf("gkgpu: candidate %d references read %d of %d", i, c.ReadID, len(reads))
		}
		if c.Pos < 0 || int(c.Pos)+readLen > ref.length {
			return fmt.Errorf("gkgpu: candidate %d window [%d,%d) outside reference of %d",
				i, c.Pos, int(c.Pos)+readLen, ref.length)
		}
	}
	planeWords := bitvec.MaskWords(readLen)
	s.planes = slices.Grow(s.planes[:0], 2*len(reads)*planeWords)[:2*len(reads)*planeWords]
	s.hasN = slices.Grow(s.hasN[:0], len(reads))[:len(reads)]
	encodeReads(s.planes, s.hasN, reads, planeWords)
	return nil
}

// candidateRange is the candidate kernel body, one block of index-named
// candidates on one worker's kernel, whichever processor runs it: a candidate
// whose read (readHasN, set by the call's one encode walk) or reference window
// (ref's 'N' bitmap) holds an unknown base is Undefined+Accept without
// touching the kernel; any other is filtered where it lies — the read's planes
// in their slot of planes, the window at its bit offset in ref's (one copy,
// which the host and every device read through the one pointer).
//
//gk:noalloc
func candidateRange(kern *filter.Kernel, ref *packedRef, planes []uint64, readHasN []bool,
	cands []Candidate, out []Result, errThreshold int) {

	L := kern.ReadLen()
	planeWords := bitvec.MaskWords(L)
	for i := range cands {
		cd := cands[i]
		if readHasN[cd.ReadID] || ref.hasN(cd.Pos, L) {
			out[i] = Result{Accept: true, Undefined: true}
			continue
		}
		readLo, readHi := readPlanes(planes, cd.ReadID, planeWords)
		est, accept := kern.FilterPlanes(readLo, readHi, ref.lo, ref.hi, planeOff(cd.Pos), errThreshold)
		out[i] = Result{Accept: accept, Estimate: uint16(est)}
	}
}

// reference is the GPU engine's loaded reference: the packed form, one copy
// that every kernel reads in place, and each device's mapping of its planes —
// bufs[i] is what device i reserves for them and faults on moving them.
type reference struct {
	*packedRef
	bufs []*cuda.UMBuffer
}

// SetReference encodes seq once and maps its planes into every device's
// unified memory (read-mostly data: each device accounts for the copy the
// driver would keep on it), keeping the 'N' bitmap on the host. It must be
// called before FilterCandidates and may be called again to replace the
// reference; it waits for any in-progress filtering call or stream batch, so
// the old reference is never freed under a running kernel.
func (e *Engine) SetReference(seq []byte) error {
	if len(seq) < e.cfg.ReadLen {
		return fmt.Errorf("gkgpu: reference (%d) shorter than read length (%d)", len(seq), e.cfg.ReadLen)
	}
	// Packing touches no engine state, so it runs before runMu is taken;
	// the swap itself waits under runMu for the rounds that are running.
	ref := &reference{packedRef: packReference(seq)}
	e.runMu.Lock()
	defer e.runMu.Unlock()
	if len(e.states) == 0 {
		return fmt.Errorf("gkgpu: engine is closed")
	}
	e.clearReference()

	for _, st := range e.states {
		buf, err := st.dev.MapUnified(ref.planes)
		if err != nil {
			ref.free()
			return fmt.Errorf("gkgpu: reference buffer: %w", allocFault(st.dev, err))
		}
		if st.dev.Spec.SupportsPrefetch() {
			buf.Transfer() // the load-time prefetch; a Kepler pages the planes in at first touch
		}
		ref.bufs = append(ref.bufs, buf)
	}
	e.ref = ref
	return nil
}

// clearReference releases the current reference buffers, if any.
func (e *Engine) clearReference() {
	if e.ref != nil {
		e.ref.free()
		e.ref = nil
	}
}

func (r *reference) free() {
	for _, b := range r.bufs {
		b.Free()
	}
	r.bufs = nil
}

// FilterCandidates filters index-named candidates against the loaded
// reference. Each distinct read is encoded and copied to the device once,
// however many candidate locations it has; the kernel extracts each
// reference segment from the encoded reference by index. Results are
// returned in candidate order.
//
// Faults are the engine's one contract (runRounds): each device's launch is
// retried under Config.Fault, then the device quarantined and the round re-run
// on the survivors, bit-identically, the damage showing only in
// Stats.Retries/Redispatches/DevicesLost. When no device survives the call
// fails with the first classified DeviceFault wrapped in ErrStreamAborted, and
// later calls fail fast.
func (e *Engine) FilterCandidates(reads [][]byte, cands []Candidate, errThreshold int) ([]Result, error) {
	// As in FilterPairs, rounds run under runMu by design. The reference is
	// checked under it too: SetReference frees and replaces e.ref under
	// runMu, so a check made any earlier could pass against a reference that
	// is gone (or of another length) by the time the round runs.
	e.runMu.Lock()
	defer e.runMu.Unlock()
	if len(e.states) == 0 {
		return nil, fmt.Errorf("gkgpu: engine is closed")
	}
	var ref *packedRef
	if e.ref != nil {
		ref = e.ref.packedRef
	}
	if err := e.cand.prepare(e.cfg.ReadLen, e.cfg.MaxE, ref, reads, cands, errThreshold); err != nil {
		return nil, err
	}
	results := make([]Result, len(cands))
	err := e.runRounds(roundPlan{
		ctx: context.Background(), batch: -1,
		shape: e.candidateWorkload(errThreshold),
		// The kernel and filter clocks only: the reads are encoded once per
		// call (prepare), not per share, and this path has never charged the
		// preparation and transfer columns.
		clock: func(spec cuda.DeviceSpec, share cuda.Workload, nActive int) shareClock {
			c := e.sequentialClock(spec, share, nActive)
			return shareClock{kernel: c.kernel, filter: c.filter}
		},
		body: func(di int, st *deviceState, lo, hi int) error {
			chunk, out := cands[lo:hi], results[lo:hi]
			e.ref.bufs[di].Transfer() // the kernel touches the planes
			return st.launch(len(chunk), func(worker, lo, hi int) {
				candidateRange(st.kernels[worker], ref, e.cand.planes, e.cand.hasN,
					chunk[lo:hi], out[lo:hi], errThreshold)
			})
		},
	}, results)
	if err != nil {
		return nil, err
	}
	return results, nil
}

// candidateWorkload is the cost-model shape of the index-named paths: they
// ship encoded reads only (the reference is already device-resident), i.e.
// the host-encoded transfer profile, whatever the encoding actor.
func (e *Engine) candidateWorkload(errThreshold int) cuda.Workload {
	return cuda.Workload{ReadLen: e.cfg.ReadLen, E: errThreshold, DeviceEncoded: false}
}

// StreamCandidate names one streaming filtration against the loaded
// reference: the read sequence itself and the reference window offset.
// Unlike FilterCandidates' (ReadID, Pos) naming, the stream carries the read
// bytes directly — concurrent producers need no shared read numbering —
// while the reference side still comes from the unified-memory encoded
// reference, so a window's bases are never materialized on the host.
// Pos is 64-bit, matching Candidate.
type StreamCandidate struct {
	Read []byte
	Pos  int64
}

// FilterCandidateStream is FilterStream for index-named candidates: the
// mrFAST integration path (Section 3.5) fed by a channel. Candidates arriving
// on in are filtered against the reference loaded by SetReference, batch by
// batch as FilterStream's pairs are — the host packs a share's reads into a
// buffer set and the kernel extracts each reference segment from the
// device-resident planes — and results return in input order.
//
// Decisions are identical to FilterCandidates. Where FilterCandidates
// rejects a whole call for an out-of-range window or wrong-length read, a
// streaming candidate keeps its ordering slot and is reported as
// Undefined+Accept (the defensive pass-to-verification convention), exactly
// like a wrong-length pair on FilterStream. Cancellation, failure, and
// StreamErr semantics match FilterStream. The reference is looked at under
// the engine's lock, batch by batch, never here: a stream started before
// SetReference (or after a SetReference that failed) closes its result
// channel without a result, reports through StreamErr and drains in, as a
// stream on a closed engine does; SetReference may replace the reference
// between two batches of a running stream, and a candidate is then judged
// against the reference its batch ran on.
func (e *Engine) FilterCandidateStream(ctx context.Context, in <-chan StreamCandidate, errThreshold int) (<-chan Result, error) {
	if errThreshold < 0 || errThreshold > e.cfg.MaxE {
		return nil, fmt.Errorf("gkgpu: threshold %d outside compiled [0,%d]", errThreshold, e.cfg.MaxE)
	}
	out := make(chan Result, streamOutBuffer)
	go runStream(e, ctx, in, out, streamOps[StreamCandidate]{
		body: func(items []StreamCandidate, res []Result) shareBody {
			return func(di int, st *deviceState, lo, hi int) error {
				e.encodeCandidateChunk(&st.set, items[lo:hi])
				st.drawTransfers(st.set.readBuf)
				return e.launchCandidateBatch(st, di, items[lo:hi], errThreshold, res[lo:hi])
			}
		},
		shape:    e.candidateWorkload(errThreshold),
		needsRef: true,
	})
	return out, nil
}

// encodeCandidateChunk is the candidate stream's host-side encode stage:
// pack each candidate's read into the set's read buffer (2-bit interleaved,
// the host-encoded transfer format, written through the buffer's word view)
// and mark undefined or out-of-geometry candidates in the flag buffer. The
// set's reference buffer is untouched — the windows come from the
// engine-lifetime unified-memory reference.
func (e *Engine) encodeCandidateChunk(set *bufferSet, items []StreamCandidate) {
	n := len(items)
	L := e.cfg.ReadLen
	encWords := bitvec.EncodedWords(L)
	flags := set.flagBuf.Bytes()
	rb := set.readBuf.Words()
	ref := e.ref

	par.For(cuda.MaxWorkers(n), n, hostGrain, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			c := items[i]
			// Out-of-geometry candidates (FilterCandidates' validation
			// errors) and 'N'-touched candidates both flag undefined:
			// the former defensively, the latter by design.
			if len(c.Read) != L || c.Pos < 0 || int(c.Pos)+L > ref.length ||
				ref.hasN(c.Pos, L) || dna.TryEncodeInto(rb[i*encWords:][:encWords], c.Read) >= 0 {
				flags[i] = 1
				continue
			}
			flags[i] = 0
		}
	})
}

// launchCandidateBatch is the candidate stream's device-side stage: the
// kernel reads each packed read in place from the device's buffer set and its
// reference window in place from the reference's planes.
func (e *Engine) launchCandidateBatch(st *deviceState, devIdx int,
	items []StreamCandidate, errThreshold int, out []Result) error {

	if len(items) == 0 {
		return nil
	}
	encWords := bitvec.EncodedWords(e.cfg.ReadLen)
	flags := st.set.flagBuf.Bytes()
	rb := st.set.readBuf.Words()
	refLo, refHi := e.ref.lo, e.ref.hi
	e.ref.bufs[devIdx].Transfer() // the kernel touches the planes
	return st.launch(len(items), func(worker, lo, hi int) {
		kern := st.kernels[worker]
		for tid := lo; tid < hi; tid++ {
			if flags[tid] == 1 {
				out[tid] = Result{Accept: true, Undefined: true}
				continue
			}
			est, accept := kern.FilterEncodedAt(rb[tid*encWords:][:encWords],
				refLo, refHi, planeOff(items[tid].Pos), errThreshold)
			out[tid] = Result{Accept: accept, Estimate: uint16(est)}
		}
	})
}
