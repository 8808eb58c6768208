package gkgpu

import (
	"context"
	"encoding/binary"
	"fmt"
	"sync"
	"time"

	"repro/internal/bitvec"
	"repro/internal/cuda"
	"repro/internal/dna"
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
// filtration extracts its window by index): the bases as 2-bit codes, 32 per
// word, plus one bit per base marking unknown base calls. At 0.375 B/base it
// is what stays resident instead of the ASCII sequence.
type packedRef struct {
	length int
	// words holds the 2-bit codes (dna.Encode's layout); an unknown base
	// encodes as 0 and is told apart by nMask alone.
	words []uint64
	// nMask has bit i%64 of word i/64 set when base i is not A/C/G/T
	// (either case): windows overlapping one bypass filtration as undefined.
	nMask []uint64
}

// packReference encodes seq in one parallel walk (multithreaded, as the
// paper does with OpenMP). Worker chunks are cut on 64-base multiples — one
// nMask word, two code words — so no two workers ever write the same word.
func packReference(seq []byte) *packedRef {
	words, maskWords := bitvec.EncodedWords(len(seq)), bitvec.MaskWords(len(seq))
	p := &packedRef{length: len(seq), words: make([]uint64, words), nMask: make([]uint64, maskWords)}
	workers := cuda.MaxWorkers(maskWords)
	chunk := 2 * ((maskWords + workers - 1) / workers) // code words per worker
	var wg sync.WaitGroup
	for lo := 0; lo < words; lo += chunk {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for wi := lo; wi < hi; wi++ {
				codes, unknown := packWord(seq[wi*dna.BasesPerWord : min((wi+1)*dna.BasesPerWord, len(seq))])
				p.words[wi] = codes
				p.nMask[wi/2] |= unknown << uint(wi%2*dna.BasesPerWord)
			}
		}(lo, min(lo+chunk, words))
	}
	wg.Wait()
	return p
}

// packWord encodes up to 32 bases into one code word and the bitmap of the
// unknown ones among them.
func packWord(bases []byte) (codes, unknown uint64) {
	for i, b := range bases {
		code, ok := dna.Code(b)
		if !ok {
			unknown |= 1 << uint(i)
			continue
		}
		codes |= uint64(code) << uint(2*i)
	}
	return codes, unknown
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

// encodeReads packs each read once into its encWords-word slot of words —
// "it is sufficient to copy a single read only once to GPU memory for its
// multiple candidate reference segments" — and records in hasN whether the
// read holds an unknown base (the encode walk doubles as the 'N' scan; such
// a read's slot is garbage and never filtered).
func encodeReads(words []uint64, hasN []bool, reads [][]byte, encWords int) {
	for i, r := range reads {
		hasN[i] = dna.TryEncodeInto(words[i*encWords:(i+1)*encWords], r) >= 0
	}
}

// reference is the GPU engine's loaded reference: the packed form's length
// and 'N' bitmap on the host, and its code words in unified memory, one copy
// per device (the host-side words are dropped once the buffers are filled).
type reference struct {
	*packedRef
	bufs []*cuda.UMBuffer
}

// SetReference encodes seq and loads it into every device's unified memory,
// keeping the 'N' bitmap on the host. It must be called before
// FilterCandidates and may be called again to replace the reference; it
// waits for any in-progress filtering call or active stream, so the old
// reference is never freed under a running kernel.
func (e *Engine) SetReference(seq []byte) error {
	if len(seq) < e.cfg.ReadLen {
		return fmt.Errorf("gkgpu: reference (%d) shorter than read length (%d)", len(seq), e.cfg.ReadLen)
	}
	// Packing touches no engine state, so it runs before runMu is taken;
	// the swap itself waits under runMu for running rounds and streams.
	ref := &reference{packedRef: packReference(seq)}
	e.runMu.Lock()
	defer e.runMu.Unlock()
	if len(e.states) == 0 {
		return fmt.Errorf("gkgpu: engine is closed")
	}
	e.clearReference()

	for _, st := range e.states {
		buf, err := st.dev.AllocUnified(len(ref.words) * 8)
		if err != nil {
			ref.free()
			return fmt.Errorf("gkgpu: reference buffer: %w", allocFault(st.dev, err))
		}
		raw := buf.Bytes()
		for i, v := range ref.words {
			binary.LittleEndian.PutUint64(raw[i*8:], v)
		}
		buf.HostWrite(0, len(raw))
		buf.Advise(cuda.AdviseReadMostly)
		buf.PrefetchAsync(st.sets[0].streams[1])
		ref.bufs = append(ref.bufs, buf)
	}
	ref.words = nil // the unified-memory buffers are the engine's copy now
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
// The call is fault tolerant in the way a stream is: each device's launch
// runs under Config.Fault (launchWithRetry — bounded, backed-off retries, then
// quarantine), and a round that lost a device re-runs on the survivors.
// Results are a pure function of the candidates, so a re-run is bit-identical
// and the damage shows only in Stats.Retries/Redispatches/DevicesLost. When no
// device survives the call fails like a dead stream: the first classified
// DeviceFault wrapped in ErrStreamAborted, and later calls fail fast.
func (e *Engine) FilterCandidates(reads [][]byte, cands []Candidate, errThreshold int) ([]Result, error) {
	if errThreshold < 0 || errThreshold > e.cfg.MaxE {
		return nil, fmt.Errorf("gkgpu: threshold %d outside compiled [0,%d]", errThreshold, e.cfg.MaxE)
	}
	L := e.cfg.ReadLen
	for i, r := range reads {
		if len(r) != L {
			return nil, fmt.Errorf("gkgpu: read %d has length %d; engine compiled for %d", i, len(r), L)
		}
	}
	// As in FilterPairs, rounds run under runMu by design. The reference is
	// checked under it too: SetReference frees and replaces e.ref under
	// runMu, so a check made any earlier could pass against a reference that
	// is gone (or of another length) by the time the round runs.
	//gk:allow lockcheck: runMu intentionally serializes whole filtering rounds, including each round's wg.Wait
	e.runMu.Lock()
	defer e.runMu.Unlock()
	if len(e.states) == 0 {
		return nil, fmt.Errorf("gkgpu: engine is closed")
	}
	if e.ref == nil {
		return nil, fmt.Errorf("gkgpu: FilterCandidates before SetReference")
	}
	for i, c := range cands {
		if c.ReadID < 0 || int(c.ReadID) >= len(reads) {
			return nil, fmt.Errorf("gkgpu: candidate %d references read %d of %d", i, c.ReadID, len(reads))
		}
		if c.Pos < 0 || int(c.Pos)+L > e.ref.length {
			return nil, fmt.Errorf("gkgpu: candidate %d window [%d,%d) outside reference of %d",
				i, c.Pos, int(c.Pos)+L, e.ref.length)
		}
	}
	wallStart := time.Now()

	// Encode every read once, whatever its number of candidate locations.
	encWords := bitvec.EncodedWords(L)
	readWords := make([]uint64, len(reads)*encWords)
	readHasN := make([]bool, len(reads))
	encodeReads(readWords, readHasN, reads, encWords)

	results := make([]Result, len(cands))

	// Decisions, clocks and device telemetry accumulate locally and commit
	// only when the call succeeds; the fault counters commit either way, as a
	// dead stream's do.
	var acc, faults Stats
	var records []kernelRecord
	var firstFault error

	for off := 0; off < len(cands); {
		// The round is cut against the devices live now, so a re-run after a
		// quarantine fits the survivors.
		roundCap := e.liveRoundCap()
		if roundCap == 0 {
			if firstFault == nil { // every device was quarantined before this call
				firstFault = errAllQuarantined()
			}
			e.commitStats(faults)
			return nil, abortedBy(firstFault)
		}
		end := min(off+roundCap, len(cands))
		round := cands[off:end]
		// Timing model: the index path ships encoded reads only (the
		// reference is already device-resident), i.e. the host-encoded
		// transfer profile.
		w := cuda.Workload{Pairs: len(round), ReadLen: L, E: errThreshold, DeviceEncoded: false}
		shares := e.roundShares(len(round), w)
		var wg sync.WaitGroup
		type outcome struct {
			retries int64
			lost    bool // this launch quarantined the device
			err     error
		}
		outcomes := make([]outcome, len(e.states))
		lo := 0
		for di, st := range e.states {
			if shares[di] == 0 {
				continue
			}
			hi := lo + shares[di]
			wg.Add(1)
			go func(di int, st *deviceState, chunk []Candidate, out []Result) {
				defer wg.Done()
				o := &outcomes[di]
				o.retries, o.lost, o.err = e.launchWithRetry(context.Background(), st, -1, func() error {
					return e.runCandidateBatch(st, di, chunk, readWords, readHasN, errThreshold, out)
				})
			}(di, st, round[lo:hi], results[off+lo:off+hi])
			lo = hi
		}
		wg.Wait()
		failed := false
		for _, o := range outcomes {
			faults.Retries += o.retries
			if o.lost {
				faults.DevicesLost++
			}
			if o.err != nil {
				faults.Redispatches++
				failed = true
				if firstFault == nil {
					firstFault = o.err
				}
			}
		}
		if failed {
			continue // the same candidates again, on whoever is left
		}
		rc := e.modelRound(shares, w)
		acc.KernelSeconds += rc.kernel
		acc.FilterSeconds += rc.filter
		acc.Batches++
		records = append(records, rc.records...)
		off = end
	}

	acc.countDecisions(results)
	acc.WallSeconds = time.Since(wallStart).Seconds()
	for _, r := range records {
		r.dev.RecordKernel(r.kt, r.util)
	}
	acc.add(faults)
	e.commitStats(acc)
	return results, nil
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
// mrFAST integration path (Section 3.5) taken asynchronous. Candidates
// arriving on in are filtered against the reference loaded by SetReference,
// with each device running the same double-buffered encode/launch pipeline
// as FilterStream — the host pool packs reads into one buffer set while the
// kernel extracts reference segments for the other — and results return in
// input order.
//
// Decisions are identical to FilterCandidates. Where FilterCandidates
// rejects a whole call for an out-of-range window or wrong-length read, a
// streaming candidate keeps its ordering slot and is reported as
// Undefined+Accept (the defensive pass-to-verification convention), exactly
// like a wrong-length pair on FilterStream. Cancellation, failure, and
// StreamErr semantics match FilterStream. Do not call SetReference while a
// candidate stream is active (it would block until the stream drains).
func (e *Engine) FilterCandidateStream(ctx context.Context, in <-chan StreamCandidate, errThreshold int) (<-chan Result, error) {
	if e.ref == nil {
		return nil, fmt.Errorf("gkgpu: FilterCandidateStream before SetReference")
	}
	if errThreshold < 0 || errThreshold > e.cfg.MaxE {
		return nil, fmt.Errorf("gkgpu: threshold %d outside compiled [0,%d]", errThreshold, e.cfg.MaxE)
	}
	L := e.cfg.ReadLen
	out := make(chan Result, streamOutBuffer)
	go runStream(e, ctx, in, errThreshold, out, streamOps[StreamCandidate]{
		encode: e.encodeCandidateChunk,
		launch: e.launchCandidateBatch,
		workload: func(n, errThreshold int) cuda.Workload {
			// The index path ships encoded reads only (the reference is
			// already device-resident): the host-encoded transfer profile,
			// as in FilterCandidates.
			return cuda.Workload{Pairs: n, ReadLen: L, E: errThreshold, DeviceEncoded: false}
		},
	})
	return out, nil
}

// encodeCandidateChunk is the candidate stream's host-side encode stage:
// pack each candidate's read into the set's read buffer (2-bit, host
// encoded), mark undefined or out-of-geometry candidates in the flag
// buffer, and submit the prefetches. The reference buffer is untouched —
// it is the engine-lifetime unified-memory reference.
func (e *Engine) encodeCandidateChunk(st *deviceState, set *bufferSet, items []StreamCandidate) {
	n := len(items)
	L := e.cfg.ReadLen
	encWords := bitvec.EncodedWords(L)
	flags := set.flagBuf.Bytes()
	rb := set.readBuf.Bytes()
	ref := e.ref

	workers := len(st.encWords)
	if workers > n {
		workers = n
	}
	stride := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for wk := 0; wk < workers; wk++ {
		lo := wk * stride
		if lo >= n {
			break
		}
		hi := lo + stride
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(wk, lo, hi int) {
			defer wg.Done()
			words := st.encWords[wk]
			for i := lo; i < hi; i++ {
				c := items[i]
				// Out-of-geometry candidates (FilterCandidates' validation
				// errors) and 'N'-touched candidates both flag undefined:
				// the former defensively, the latter by design.
				if len(c.Read) != L || c.Pos < 0 || int(c.Pos)+L > ref.length ||
					ref.hasN(c.Pos, L) || dna.TryEncodeInto(words, c.Read) >= 0 {
					flags[i] = 1
					continue
				}
				for w, v := range words {
					binary.LittleEndian.PutUint64(rb[(i*encWords+w)*8:], v)
				}
				flags[i] = 0
			}
		}(wk, lo, hi)
	}
	wg.Wait()

	set.readBuf.HostWrite(0, n*encWords*8)
	set.flagBuf.HostWrite(0, n)
	set.readBuf.PrefetchAsync(set.streams[0])
	set.flagBuf.PrefetchAsync(set.streams[2])
	if !st.dev.Spec.SupportsPrefetch() {
		set.readBuf.DeviceTouch(0, set.readBuf.Len())
	}
}

// launchCandidateBatch is the candidate stream's device-side stage: the
// kernel reads each packed read from the buffer set and extracts its
// reference segment from the device-resident encoded reference by index, as
// runCandidateBatch does for the one-shot path.
func (e *Engine) launchCandidateBatch(st *deviceState, devIdx int, set *bufferSet,
	items []StreamCandidate, errThreshold int, out []Result) error {

	n := len(items)
	if n == 0 {
		return nil
	}
	L := e.cfg.ReadLen
	encWords := bitvec.EncodedWords(L)
	flags := set.flagBuf.Bytes()
	rb := set.readBuf.Bytes()
	refBuf := e.ref.bufs[devIdx]
	refRaw := refBuf.Bytes()
	refBuf.DeviceTouch(0, refBuf.Len()) // on-demand migration on Kepler

	lc := st.sys.Launch
	if need := (n + lc.ThreadsPerBlock - 1) / lc.ThreadsPerBlock; need < lc.Blocks {
		lc.Blocks = need
	}
	return st.dev.Launch(lc, n, func(worker, tid int) {
		if flags[tid] == 1 {
			out[tid] = Result{Accept: true, Undefined: true}
			return
		}
		rw := st.readWords[worker]
		base := tid * encWords * 8
		for w := 0; w < encWords; w++ {
			rw[w] = binary.LittleEndian.Uint64(rb[base+w*8:])
		}
		fw := st.refWords[worker]
		extractFromRaw(fw, refRaw, int(items[tid].Pos), L)
		est, accept := st.kernels[worker].FilterEncoded(rw, fw, errThreshold)
		out[tid] = Result{Accept: accept, Estimate: uint16(est)}
	})
}

// runCandidateBatch executes one device's share of an index-named round.
func (e *Engine) runCandidateBatch(st *deviceState, devIdx int, chunk []Candidate,
	readWords []uint64, readHasN []bool, errThreshold int, out []Result) error {

	n := len(chunk)
	if n == 0 {
		return nil
	}
	L := e.cfg.ReadLen
	encWords := bitvec.EncodedWords(L)
	refBuf := e.ref.bufs[devIdx]
	refRaw := refBuf.Bytes()
	refBuf.DeviceTouch(0, refBuf.Len()) // on-demand migration on Kepler

	lc := st.sys.Launch
	if need := (n + lc.ThreadsPerBlock - 1) / lc.ThreadsPerBlock; need < lc.Blocks {
		lc.Blocks = need
	}
	return st.dev.Launch(lc, n, func(worker, tid int) {
		c := chunk[tid]
		if readHasN[c.ReadID] || e.ref.hasN(c.Pos, L) {
			out[tid] = Result{Accept: true, Undefined: true}
			return
		}
		rw := readWords[int(c.ReadID)*encWords : (int(c.ReadID)+1)*encWords]
		// Extract the candidate segment from the unified-memory reference:
		// read the word span covering [Pos, Pos+L) and shift into place.
		fw := st.refWords[worker]
		extractFromRaw(fw, refRaw, int(c.Pos), L)
		est, accept := st.kernels[worker].FilterEncoded(rw, fw, errThreshold)
		out[tid] = Result{Accept: accept, Estimate: uint16(est)}
	})
}

// extractFromRaw is bitvec.ExtractChars reading directly from the little-
// endian byte image of the encoded reference in unified memory.
func extractFromRaw(dst []uint64, raw []byte, start, n int) {
	wordOff := start / dna.BasesPerWord
	bitOff := uint(start%dna.BasesPerWord) * 2
	outWords := bitvec.EncodedWords(n)
	totalWords := len(raw) / 8
	for i := 0; i < outWords; i++ {
		var w uint64
		if j := wordOff + i; j < totalWords {
			w = binary.LittleEndian.Uint64(raw[j*8:]) >> bitOff
			if bitOff != 0 && j+1 < totalWords {
				w |= binary.LittleEndian.Uint64(raw[(j+1)*8:]) << (64 - bitOff)
			}
		}
		dst[i] = w
	}
	if rem := n % dna.BasesPerWord; rem != 0 {
		dst[outWords-1] &= (uint64(1) << uint(2*rem)) - 1
	}
}
