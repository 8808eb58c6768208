package gkgpu

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bitvec"
	"repro/internal/cuda"
	"repro/internal/dna"
	"repro/internal/filter"
	"repro/internal/par"
)

// Stats accumulates the measurements of Section 4.3 across an engine's
// lifetime. KernelSeconds and FilterSeconds come from the calibrated cost
// model (the paper's CUDA-event and host-side clocks); WallSeconds is the
// real time this simulation spent, reported for transparency.
type Stats struct {
	Pairs     int64
	Accepted  int64
	Rejected  int64
	Undefined int64
	Batches   int64

	// Fault-recovery counters. Retries counts attempts of a device's share
	// of a round repeated after a transient fault, Redispatches counts shares
	// that failed for good and were run again in a re-cut round, DevicesLost
	// counts quarantine events. They (and the clocks, and Batches) are the
	// only Stats fields a faulty-but-survived call may change relative to a
	// fault-free run: decisions and decision counters stay bit-identical.
	Retries      int64
	Redispatches int64
	DevicesLost  int64

	KernelSeconds   float64 // modelled device time (max across devices per round)
	FilterSeconds   float64 // modelled end-to-end filtering time
	HostPrepSeconds float64 // modelled host encode/fill share of FilterSeconds
	TransferSeconds float64 // modelled PCIe share of FilterSeconds
	WallSeconds     float64
}

// RejectionRate returns rejected / total pairs.
func (s Stats) RejectionRate() float64 {
	if s.Pairs == 0 {
		return 0
	}
	return float64(s.Rejected) / float64(s.Pairs)
}

// add merges a locally accumulated Stats delta into s.
func (s *Stats) add(d Stats) {
	s.Pairs += d.Pairs
	s.Accepted += d.Accepted
	s.Rejected += d.Rejected
	s.Undefined += d.Undefined
	s.Batches += d.Batches
	s.Retries += d.Retries
	s.Redispatches += d.Redispatches
	s.DevicesLost += d.DevicesLost
	s.KernelSeconds += d.KernelSeconds
	s.FilterSeconds += d.FilterSeconds
	s.HostPrepSeconds += d.HostPrepSeconds
	s.TransferSeconds += d.TransferSeconds
	s.WallSeconds += d.WallSeconds
}

// bufferSet is a device's unified-memory input buffers: the sequences of a
// share of pairs in their transfer format and one undefined flag per pair.
// Each device holds one set, and a set belongs to one share of one round at a
// time: the share's body fills it and launches over it before returning.
// Results are not in it: a kernel thread writes its Result where the host
// reads it. The second set of the paper's double-buffered device, like the
// advice and the prefetch streams on the first, exists in the cost model only
// (pipelinedClock).
type bufferSet struct {
	readBuf *cuda.UMBuffer
	refBuf  *cuda.UMBuffer
	flagBuf *cuda.UMBuffer
}

func (s *bufferSet) free() {
	for _, b := range []*cuda.UMBuffer{s.readBuf, s.refBuf, s.flagBuf} {
		if b != nil {
			b.Free()
		}
	}
}

// deviceState is the per-device slice of the engine: its buffer set and one
// filter kernel per executor goroutine (the per-thread stack frames).
type deviceState struct {
	dev     *cuda.Device
	sys     SystemConfig
	set     bufferSet
	kernels []*filter.Kernel
	// down marks the device quarantined: permanently failed (device lost)
	// or repeatedly faulting. Quarantine outlives the call that imposed it;
	// every round is cut against the devices that are not down. It is set by
	// the device's own share of a round and read by QuarantinedDevices at any
	// time, hence atomic.
	down atomic.Bool
}

// launch runs fn over n logical threads on the device's configured geometry,
// with the grid cut down to what a ragged final batch needs.
func (st *deviceState) launch(n int, fn cuda.KernelFunc) error {
	lc := st.sys.Launch
	if need := (n + lc.ThreadsPerBlock - 1) / lc.ThreadsPerBlock; need < lc.Blocks {
		lc.Blocks = need
	}
	return st.dev.Launch(lc, n, fn)
}

// Engine is a GateKeeper-GPU instance bound to a context of simulated
// devices. One engine drives all its devices concurrently inside every
// filtering call. Engine methods are safe for concurrent use: Stats and
// ResetStats may be called at any time, and concurrent calls serialize on the
// device buffers — a one-shot call for its whole input, a stream for one
// batch at a time, so a stream waiting for input holds nothing. Many
// goroutines may produce into a single stream's input channel.
type Engine struct {
	cfg    Config
	ctx    *cuda.Context
	states []*deviceState
	ref    *reference // loaded by SetReference for the index-named path
	cand   candidateScratch

	// runMu serializes buffer ownership: one runRounds call — a one-shot
	// call's, or one stream batch's — at a time, and SetReference and Close
	// between them. statsMu guards the accumulated measurements, which are
	// committed only after a call's rounds complete without error, and the
	// last stream's terminal error.
	runMu     sync.Mutex
	statsMu   sync.Mutex
	stats     Stats
	streamErr error
}

// NewEngine configures buffers and kernels on every device of ctx for the
// given geometry, performing the paper's configuration and resource
// allocation stages. Each device receives one buffer set for a full batch
// (deliberately eager — allocation failures surface here, never mid-stream);
// the batch itself is sized for the double-buffered device the streams' clock
// models (Configure halves the memory budget), which configurations bounded
// by MaxBatchPairs, the common case, never notice.
func NewEngine(cfg Config, ctx *cuda.Context) (*Engine, error) {
	cfg.applyDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if ctx.NumDevices() == 0 {
		return nil, fmt.Errorf("gkgpu: context has no devices")
	}
	e := &Engine{cfg: cfg, ctx: ctx}
	for _, dev := range ctx.Devices() {
		sys := Configure(dev.Spec, cfg.ReadLen, cfg.MaxE, cfg.Encoding,
			cfg.ThreadsPerBlock, cfg.RegsPerThread, cfg.MaxBatchPairs)
		st := &deviceState{dev: dev, sys: sys}
		// A slot holds a sequence in its transfer format. The candidate
		// stream ships encoded reads whatever the encoding actor, so a
		// device-encoded slot holds at least the encoded form too (the
		// larger of the two only for reads under 8 bases).
		seqBytes := bitvec.EncodedWords(cfg.ReadLen) * 8
		if cfg.Encoding == EncodeOnDevice {
			seqBytes = max(cfg.ReadLen, seqBytes)
		}
		var err error
		if st.set, err = allocSet(dev, sys.BatchPairs, seqBytes); err != nil {
			e.Close()
			return nil, err
		}
		for range cuda.MaxWorkers(sys.BatchPairs) {
			st.kernels = append(st.kernels, filter.NewKernel(filter.ModeGPU, cfg.ReadLen, cfg.MaxE))
		}
		e.states = append(e.states, st)
	}
	return e, nil
}

// allocSet allocates a device's buffer set, or nothing.
func allocSet(dev *cuda.Device, batchPairs, seqBytes int) (set bufferSet, err error) {
	if set.readBuf, err = dev.AllocUnified(batchPairs * seqBytes); err != nil {
		return bufferSet{}, fmt.Errorf("gkgpu: read buffer: %w", allocFault(dev, err))
	}
	if set.refBuf, err = dev.AllocUnified(batchPairs * seqBytes); err != nil {
		set.free()
		return bufferSet{}, fmt.Errorf("gkgpu: reference buffer: %w", allocFault(dev, err))
	}
	if set.flagBuf, err = dev.AllocUnified(batchPairs); err != nil {
		set.free()
		return bufferSet{}, fmt.Errorf("gkgpu: flag buffer: %w", allocFault(dev, err))
	}
	return set, nil
}

// Close releases every unified-memory buffer. It waits for an in-progress
// one-shot call or stream batch to finish first, so buffers are never freed
// under a running kernel; a stream still open finds the engine closed at its
// next batch and ends as a failed stream does (StreamErr, input drained).
func (e *Engine) Close() {
	e.runMu.Lock()
	defer e.runMu.Unlock()
	e.clearReference()
	for _, st := range e.states {
		st.set.free()
	}
	e.states = nil
}

// Config returns the engine's (defaulted) configuration.
func (e *Engine) Config() Config { return e.cfg }

// SystemConfigs returns the per-device configuration results.
func (e *Engine) SystemConfigs() []SystemConfig {
	out := make([]SystemConfig, len(e.states))
	for i, st := range e.states {
		out[i] = st.sys
	}
	return out
}

// Stats returns the accumulated measurements.
func (e *Engine) Stats() Stats {
	e.statsMu.Lock()
	defer e.statsMu.Unlock()
	return e.stats
}

// ResetStats clears the accumulated measurements.
func (e *Engine) ResetStats() {
	e.statsMu.Lock()
	defer e.statsMu.Unlock()
	e.stats = Stats{}
}

// commitStats merges a runRounds call's delta.
func (e *Engine) commitStats(d Stats) {
	e.statsMu.Lock()
	defer e.statsMu.Unlock()
	e.stats.add(d)
}

// countDecisions folds a result slice into the Stats decision counters.
func (s *Stats) countDecisions(results []Result) {
	for i := range results {
		s.Pairs++
		switch {
		case results[i].Undefined:
			s.Undefined++
			s.Accepted++
		case results[i].Accept:
			s.Accepted++
		default:
			s.Rejected++
		}
	}
}

// kernelRecord is one device's modelled kernel execution, held back until a
// call's rounds have all succeeded and then folded into the device telemetry.
type kernelRecord struct {
	dev      *cuda.Device
	kt, util float64
}

// shareClock is the modelled timing of one device's share of a round; a
// round's clocks are the max of each over its devices — "kernel time
// represents the time of the device which takes the longest".
type shareClock struct {
	kernel, filter, prep, xfer float64
}

// sequentialClock is the one-shot calls' clock, the paper's measured
// pipeline: host preparation, transfer and kernel of a share charged one
// after the other, with the multi-GPU imbalance overhead of an nActive-device
// round, plus the launch and per-batch host overheads.
func (e *Engine) sequentialClock(spec cuda.DeviceSpec, share cuda.Workload, nActive int) shareClock {
	m := e.cfg.Model
	return shareClock{
		kernel: m.ShareKernelSeconds(spec, share, nActive) + m.PerLaunchSeconds,
		filter: m.ShareFilterSeconds(spec, share, nActive, e.cfg.Setup.HostFactor) + (m.PerLaunchSeconds + m.PerBatchHostSeconds),
		prep:   m.HostPrepSeconds(share, e.cfg.Setup.HostFactor),
		xfer:   m.TransferSeconds(spec, share),
	}
}

// pipelinedClock is a stream's clock, the paper's double-buffered device: the
// host encode of the next batch (spread over the modelled platform's encode
// pool, not the simulating machine's, so the clock reads the same anywhere)
// hides behind the transfer and kernel of this one, and a share costs the
// slower of the two stages instead of their sum. The second buffer set and
// the overlap are CostModel.PipelinedFilterSeconds' alone; the simulation
// runs a stream's rounds one after the other, on the one set a device holds,
// like any other call's.
func (e *Engine) pipelinedClock(spec cuda.DeviceSpec, share cuda.Workload, _ int) shareClock {
	m := e.cfg.Model
	encWorkers := max(e.cfg.Setup.EncodeWorkers, 1)
	return shareClock{
		kernel: m.KernelSeconds(spec, share) + m.PerLaunchSeconds,
		filter: m.PipelinedFilterSeconds(spec, share, encWorkers, e.cfg.Setup.HostFactor),
		prep:   m.HostPrepSeconds(share, e.cfg.Setup.HostFactor) / m.EncodePoolSpeedup(encWorkers),
		xfer:   m.TransferSeconds(spec, share),
	}
}

// workload returns the cost-model workload shape of the materialized-pair
// paths at the given threshold; runRounds fills in the pair counts.
func (e *Engine) workload(errThreshold int) cuda.Workload {
	return cuda.Workload{
		ReadLen:       e.cfg.ReadLen,
		E:             errThreshold,
		DeviceEncoded: e.cfg.Encoding == EncodeOnDevice,
	}
}

// roundShares splits a round of n pairs across the devices in proportion to
// each device's modelled filtration rate, capped by its batch capacity. For
// the paper's homogeneous contexts this degrades to the equal split of
// Section 3.1 ("the batch size is equal for all devices to ensure a fair
// workload"); a mixed Pascal/Kepler context hands the slower card
// proportionally fewer pairs so the round's critical path shrinks.
// Quarantined devices get zero weight, re-splitting the round across the
// survivors; callers guarantee at least one device is live.
func (e *Engine) roundShares(n int, w cuda.Workload) []int {
	nDev := len(e.states)
	shares := make([]int, nDev)
	if n <= 0 {
		return shares
	}
	weights := make([]float64, nDev)
	total := 0.0
	for i, st := range e.states {
		if st.down.Load() {
			continue
		}
		weights[i] = e.cfg.Model.PairRate(st.dev.Spec, w)
		total += weights[i]
	}
	// Largest-remainder apportionment keeps the split deterministic.
	type frac struct {
		i int
		f float64
	}
	fracs := make([]frac, nDev)
	assigned := 0
	for i := range shares {
		exact := float64(n) * weights[i] / total
		shares[i] = int(exact)
		assigned += shares[i]
		fracs[i] = frac{i, exact - float64(shares[i])}
	}
	sort.SliceStable(fracs, func(a, b int) bool { return fracs[a].f > fracs[b].f })
	for r := 0; r < n-assigned; r++ {
		shares[fracs[r%nDev].i]++
	}
	// Clamp to per-device capacity and push overflow to devices with spare
	// room; the caller guarantees n <= sum of capacities.
	overflow := 0
	for i, st := range e.states {
		if shares[i] > st.sys.BatchPairs {
			overflow += shares[i] - st.sys.BatchPairs
			shares[i] = st.sys.BatchPairs
		}
	}
	for i, st := range e.states {
		if overflow == 0 {
			break
		}
		if st.down.Load() {
			continue
		}
		if room := st.sys.BatchPairs - shares[i]; room > 0 {
			if room > overflow {
				room = overflow
			}
			shares[i] += room
			overflow -= room
		}
	}
	return shares
}

// liveRoundCap sums the batch capacities of non-quarantined devices: how
// many pairs one synchronized round can take.
func (e *Engine) liveRoundCap() int {
	cap := 0
	for _, st := range e.states {
		if st.down.Load() {
			continue
		}
		cap += st.sys.BatchPairs
	}
	return cap
}

// eachShare runs fn once for every device with a non-zero share of a round,
// all at once, handing it the device and the [lo, hi) of the round that is
// its share, and returns when every device has finished. These are the only
// goroutines the engine starts per call besides a kernel launch's executors.
func (e *Engine) eachShare(shares []int, fn func(di int, st *deviceState, lo, hi int)) {
	var wg sync.WaitGroup
	next := 0
	for di, st := range e.states {
		if shares[di] == 0 {
			continue
		}
		lo, hi := next, next+shares[di]
		next = hi
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(di, st, lo, hi)
		}()
	}
	wg.Wait()
}

// roundPlan is what an entry point hands runRounds: how its items are cut,
// clocked and run. Every filtering call is one — FilterPairs and
// FilterCandidates over their whole input, a stream over each batch it
// collects.
type roundPlan struct {
	// ctx interrupts the retry backoff and stops the loop after a failed
	// round; the one-shot calls pass context.Background().
	ctx context.Context
	// batch is the number a DeviceFault carries: a stream's batch sequence,
	// -1 on the one-shot calls.
	batch int
	// shape is the cost-model workload of the call; runRounds sets Pairs to
	// the round's and then to each share's size.
	shape cuda.Workload
	// clock models one device's share of a round nActive devices take part in.
	clock func(spec cuda.DeviceSpec, share cuda.Workload, nActive int) shareClock
	body  shareBody
}

// shareBody filters items [lo, hi) of a call on device di and writes their
// results. It runs under launchWithRetry, so it must be repeatable: the whole
// share again from its inputs, on this device or — after a quarantine, in a
// re-cut round — as part of another device's share.
type shareBody func(di int, st *deviceState, lo, hi int) error

// runRounds is the engine's one filtering loop; the caller holds runMu. It
// cuts len(results) items into synchronized rounds against the devices live
// now (liveRoundCap, roundShares), runs every share's body at once under the
// fault policy, and runs a round again — re-cut, so it fits the survivors —
// when a share failed: a decision is a pure function of its pair, so the
// re-run is bit-identical and a fault shows only in Stats.Retries /
// Redispatches / DevicesLost and the clocks. Each successful round charges
// the max of p.clock over its shares. Decisions, clocks and device telemetry
// are committed only when every item has been answered; the fault counters
// are committed either way. With no device left the error is the first
// classified fault wrapped in ErrStreamAborted (and every later call fails
// the same way at once); a cancelled ctx ends the loop after the round it
// interrupted with ctx's error wrapped likewise.
func (e *Engine) runRounds(p roundPlan, results []Result) error {
	wallStart := time.Now()
	var acc, faults Stats
	var records []kernelRecord
	var firstFault error
	type outcome struct {
		retries int64
		lost    bool // this share's failure quarantined the device
		err     error
	}
	outcomes := make([]outcome, len(e.states))

	for off := 0; off < len(results); {
		roundCap := e.liveRoundCap()
		if roundCap == 0 {
			if firstFault == nil { // every device was quarantined before this call
				firstFault = errAllQuarantined()
			}
			e.commitStats(faults)
			return abortedBy(firstFault)
		}
		end := min(off+roundCap, len(results))
		w := p.shape
		w.Pairs = end - off
		shares := e.roundShares(w.Pairs, w)
		clear(outcomes)
		e.eachShare(shares, func(di int, st *deviceState, lo, hi int) {
			o := &outcomes[di]
			o.retries, o.lost, o.err = e.launchWithRetry(p.ctx, st, p.batch, func() error {
				return p.body(di, st, off+lo, off+hi)
			})
		})
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
			if err := p.ctx.Err(); err != nil {
				e.commitStats(faults)
				return abortedBy(err)
			}
			continue // the same items again, on whoever is left
		}

		nActive := 0
		for _, n := range shares {
			if n > 0 {
				nActive++
			}
		}
		var rc shareClock
		for di, st := range e.states {
			if shares[di] == 0 {
				continue
			}
			ws := w
			ws.Pairs = shares[di]
			c := p.clock(st.dev.Spec, ws, nActive)
			rc.kernel = max(rc.kernel, c.kernel)
			rc.filter = max(rc.filter, c.filter)
			rc.prep = max(rc.prep, c.prep)
			rc.xfer = max(rc.xfer, c.xfer)
			records = append(records, kernelRecord{dev: st.dev, kt: c.kernel, util: e.cfg.Model.Utilization(st.dev.Spec, ws)})
		}
		acc.KernelSeconds += rc.kernel
		acc.FilterSeconds += rc.filter
		acc.HostPrepSeconds += rc.prep
		acc.TransferSeconds += rc.xfer
		acc.Batches++
		off = end
	}

	acc.countDecisions(results)
	acc.WallSeconds = time.Since(wallStart).Seconds()
	for _, r := range records {
		r.dev.RecordKernel(r.kt, r.util)
	}
	acc.add(faults)
	e.commitStats(acc)
	return nil
}

// launchWithRetry runs one share of a round (batch is the DeviceFault's batch
// number) under the engine's fault policy: transient failures retry with
// doubling, capped, ctx-interruptible backoff (the inputs are still in place,
// and an injected fault fires before any kernel thread runs, so a retry
// reproduces the share exactly). A lost device, exhausted attempts, or
// cancellation ends the loop with the classified fault; the first two also
// quarantine the device. It reports the retries made and whether this call
// was the one that quarantined the device, so the event is counted once.
func (e *Engine) launchWithRetry(ctx context.Context, st *deviceState, batch int,
	launch func() error) (retries int64, quarantined bool, err error) {

	pol := e.cfg.Fault
	backoff := pol.Backoff
	for attempt := 1; ; attempt++ {
		if st.down.Load() {
			return retries, false, classifyFault(st.dev.ID, batch, attempt-1, cuda.ErrDeviceLost)
		}
		err := launch()
		if err == nil {
			return retries, false, nil
		}
		fault := classifyFault(st.dev.ID, batch, attempt, err)
		if lost := errors.Is(err, cuda.ErrDeviceLost); lost || attempt >= pol.MaxAttempts {
			return retries, st.down.CompareAndSwap(false, true), fault
		}
		if ctx.Err() != nil {
			// Cancelled mid-round: no quarantine — the fault was transient
			// and the call is winding down anyway.
			return retries, false, fault
		}
		retries++
		t := time.NewTimer(backoff)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return retries, false, fault
		}
		backoff *= 2
		if backoff > pol.MaxBackoff {
			backoff = pol.MaxBackoff
		}
	}
}

// FilterPairs filters every pair at threshold e, batching across the
// context's devices as Section 3.1 describes, with the share of each device
// weighted by its modelled filtration rate. Results are returned in input
// order. The timing model is the paper's measured pipeline (encode, transfer
// and kernel charged sequentially per round). Faults are handled as
// everywhere in the engine (runRounds): retried, then the device quarantined
// and the round re-run on the survivors with bit-identical results; only with
// no device left does the call fail, with ErrStreamAborted wrapping the first
// classified fault.
func (e *Engine) FilterPairs(pairs []Pair, errThreshold int) ([]Result, error) {
	if errThreshold < 0 || errThreshold > e.cfg.MaxE {
		return nil, fmt.Errorf("gkgpu: threshold %d outside compiled [0,%d]", errThreshold, e.cfg.MaxE)
	}
	for i, p := range pairs {
		if len(p.Read) != e.cfg.ReadLen || len(p.Ref) != e.cfg.ReadLen {
			return nil, fmt.Errorf("gkgpu: pair %d has lengths %d/%d; engine compiled for %d",
				i, len(p.Read), len(p.Ref), e.cfg.ReadLen)
		}
	}
	// Rounds run under runMu by design: the devices are the contended
	// resource, and overlapping calls would interleave per-device batches.
	e.runMu.Lock()
	defer e.runMu.Unlock()
	if len(e.states) == 0 {
		return nil, fmt.Errorf("gkgpu: engine is closed")
	}
	results := make([]Result, len(pairs))
	err := e.runRounds(roundPlan{
		ctx: context.Background(), batch: -1,
		shape: e.workload(errThreshold), clock: e.sequentialClock,
		body: e.pairBody(pairs, results, errThreshold),
	}, results)
	if err != nil {
		return nil, err
	}
	return results, nil
}

// pairBody is the round body of the materialized-pair paths (FilterPairs, and
// FilterStream batch by batch): a device's share of pairs filled into its
// buffer set (preprocessing), moved to the device and filtered into results.
func (e *Engine) pairBody(pairs []Pair, results []Result, errThreshold int) shareBody {
	return func(_ int, st *deviceState, lo, hi int) error {
		e.encodeChunk(&st.set, pairs[lo:hi])
		st.drawTransfers(st.set.readBuf, st.set.refBuf)
		return e.launchPairs(st, errThreshold, results[lo:hi])
	}
}

// encodeChunk performs the preprocessing stage for one batch: filling the
// unified buffers on the host, fanned out across the machine. A
// device-encoded batch ships the ASCII bytes; a host-encoded one is packed
// straight into the buffers' word views, where the kernel reads it. A pair
// whose lengths do not match the compiled geometry is flagged undefined so
// the kernel skips it — FilterPairs rejects such pairs up front, but a stream
// must keep its slot to preserve ordering.
func (e *Engine) encodeChunk(set *bufferSet, chunk []Pair) {
	n := len(chunk)
	L := e.cfg.ReadLen
	encWords := bitvec.EncodedWords(L)
	deviceEncoded := e.cfg.Encoding == EncodeOnDevice
	flags := set.flagBuf.Bytes()
	rb, fb := set.readBuf.Bytes(), set.refBuf.Bytes()
	rw, fw := set.readBuf.Words(), set.refBuf.Words()

	par.For(cuda.MaxWorkers(n), n, hostGrain, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			p := chunk[i]
			switch {
			case len(p.Read) != L || len(p.Ref) != L:
				flags[i] = 1
			case deviceEncoded:
				copy(rb[i*L:], p.Read)
				copy(fb[i*L:], p.Ref)
				flags[i] = 0
			// Encoding doubles as the 'N' scan: an unrecognized base is the
			// undefined condition, so each sequence is walked once and no
			// error value is allocated.
			case dna.TryEncodeInto(rw[i*encWords:][:encWords], p.Read) >= 0 ||
				dna.TryEncodeInto(fw[i*encWords:][:encWords], p.Ref) >= 0:
				flags[i] = 1 // undefined: skip filtration in the kernel
			default:
				flags[i] = 0
			}
		}
	})
}

// drawTransfers draws the transfer faults of a share whose sequences lie in
// seqs, and is the engine's one statement of the prefetch-or-fault policy
// (the cost model charges the same policy, CostModel.TransferSeconds): a
// prefetching device submits a cudaMemPrefetchAsync for each sequence buffer
// and for the flags; on a Kepler the kernel's first touch pages in each
// sequence buffer, and the flag bytes ride along.
func (st *deviceState) drawTransfers(seqs ...*cuda.UMBuffer) {
	for _, b := range seqs {
		b.Transfer()
	}
	if st.dev.Spec.SupportsPrefetch() {
		st.set.flagBuf.Transfer()
	}
}

// launchPairs launches the filtration kernel over the device's filled buffer
// set: each thread reads its pair where encodeChunk left it and writes its
// result where the host reads it, through the shared pointer — the return of
// the launch is the batch's only synchronization point (Section 3.5).
func (e *Engine) launchPairs(st *deviceState, errThreshold int, out []Result) error {
	L := e.cfg.ReadLen
	encWords := bitvec.EncodedWords(L)
	flags := st.set.flagBuf.Bytes()
	rb, fb := st.set.readBuf.Bytes(), st.set.refBuf.Bytes()
	rw, fw := st.set.readBuf.Words(), st.set.refBuf.Words()
	return st.launch(len(out), func(worker, lo, hi int) {
		kern := st.kernels[worker]
		for tid := lo; tid < hi; tid++ {
			if flags[tid] == 1 {
				out[tid] = Result{Accept: true, Undefined: true}
			} else if e.cfg.Encoding == EncodeOnDevice {
				d, ferr := kern.FilterChecked(rb[tid*L:(tid+1)*L], fb[tid*L:(tid+1)*L], errThreshold)
				if ferr != nil {
					out[tid] = Result{Accept: true} // defensive: pass to verification
				} else {
					out[tid] = Result{Accept: d.Accept, Undefined: d.Undefined, Estimate: uint16(d.Estimate)}
				}
			} else {
				est, accept := kern.FilterEncoded(rw[tid*encWords:][:encWords], fw[tid*encWords:][:encWords], errThreshold)
				out[tid] = Result{Accept: accept, Estimate: uint16(est)}
			}
		}
	})
}
