package gkgpu

import (
	"context"
	"fmt"
	"slices"
	"time"

	"repro/internal/cuda"
)

// defaultStreamBatchPairs is the batch granularity when the configuration
// does not set one: large enough to amortize the per-launch overhead, small
// enough that a stream's first results come back quickly.
const defaultStreamBatchPairs = 1 << 14

// streamOutBuffer is the result channel's capacity: a consumer this far
// behind does not yet hold up the next batch, without unbounding memory.
const streamOutBuffer = 1 << 10

// streamLinger is how long an open batch waits for its producer before it is
// run partially filled. It trades a bounded latency for full batches: a
// saturating producer fills the batch long before the linger elapses, while a
// trickle stream still flushes promptly instead of paying the per-launch
// overhead on single-pair batches.
const streamLinger = 2 * time.Millisecond

// streamOps specializes a stream to one input type: body makes the round body
// that filters a batch's items into res; shape is the batch's cost-model
// workload; needsRef says the body reads the reference SetReference loads.
type streamOps[T any] struct {
	body     func(items []T, res []Result) shareBody
	shape    cuda.Workload
	needsRef bool
}

// FilterStream filters pairs arriving on in at the given threshold and
// returns a channel of results in input order (the order pairs are received
// from in, which many producer goroutines may feed concurrently). A stream is
// the one-shot round run batch by batch: one goroutine collects up to
// Config.StreamBatchPairs pairs per live device (the first awaited for as
// long as it takes, the rest until the batch is full or streamLinger has
// passed), filters the batch exactly as FilterPairs would — same rounds, same
// fault handling — and emits its results before it reads in again. So a slow
// consumer or a busy engine holds the producers back, and a stream waiting
// for input holds no device, and every batch reuses the one buffer set of each
// device. What differs from FilterPairs is the modelled clock: a stream is
// charged as the paper's double-buffered device (pipelinedClock), host encode
// hidden behind the kernel — an overlap the cost model has and the host does
// not act out.
//
// Decisions are identical to FilterPairs. Unlike FilterPairs, which rejects
// the whole call, a pair whose lengths do not match the compiled geometry is
// reported as Undefined+Accept (the engine's defensive pass-to-verification
// convention) so the stream keeps its ordering slot. Cancelling ctx closes
// the result channel after the batch in hand; results not yet emitted are
// dropped, and the producer is expected to stop on the same ctx. The channel
// closes when in is closed and every result has been emitted.
//
// Faults are the engine's one contract (runRounds): while a device survives,
// decisions, order and decision stats are bit-identical to a fault-free run.
// When none does — or the engine is closed under the stream — the stream
// ends: emission stops, the input channel is drained to its close so
// producers never block, and StreamErr returns the cause wrapped in
// ErrStreamAborted.
func (e *Engine) FilterStream(ctx context.Context, in <-chan Pair, errThreshold int) (<-chan Result, error) {
	if errThreshold < 0 || errThreshold > e.cfg.MaxE {
		return nil, fmt.Errorf("gkgpu: threshold %d outside compiled [0,%d]", errThreshold, e.cfg.MaxE)
	}
	out := make(chan Result, streamOutBuffer)
	go runStream(e, ctx, in, out, streamOps[Pair]{
		body: func(items []Pair, res []Result) shareBody {
			return e.pairBody(items, res, errThreshold)
		},
		shape: e.workload(errThreshold),
	})
	return out, nil
}

// StreamErr returns the terminal error of the most recently completed
// stream, or nil. A stream whose result channel closed before every input
// pair was answered either was cancelled (ctx) or failed; StreamErr
// distinguishes the two. A failure is the first classified DeviceFault,
// wrapped in ErrStreamAborted — errors.Is matches both the abort and the
// fault's taxonomy kind, and errors.As recovers the DeviceFault itself.
func (e *Engine) StreamErr() error {
	e.statsMu.Lock()
	defer e.statsMu.Unlock()
	return e.streamErr
}

func (e *Engine) setStreamErr(err error) {
	e.statsMu.Lock()
	e.streamErr = err
	e.statsMu.Unlock()
}

// streamBatchPairs resolves the batch granularity against the smallest live
// per-device capacity.
func (e *Engine) streamBatchPairs() int {
	minCap := 0
	for _, st := range e.states {
		if st.down.Load() {
			continue
		}
		if minCap == 0 || st.sys.BatchPairs < minCap {
			minCap = st.sys.BatchPairs
		}
	}
	b := e.cfg.StreamBatchPairs
	if b == 0 {
		b = defaultStreamBatchPairs
	}
	if minCap > 0 && b > minCap {
		b = minCap
	}
	return b
}

// streamReady is a stream's check before it collects a batch and again before
// it runs one (runMu is not held in between): the conditions a one-shot call
// reports as its error. The caller holds runMu.
func (e *Engine) streamReady(needsRef bool) error {
	switch {
	case len(e.states) == 0:
		return fmt.Errorf("%w: engine is closed", ErrStreamAborted)
	case needsRef && e.ref == nil:
		return fmt.Errorf("%w: candidate stream before SetReference", ErrStreamAborted)
	case e.liveStates() == 0:
		return abortedBy(errAllQuarantined())
	}
	return nil
}

// streamBatchCap is how many items a stream's next batch may hold: the batch
// granularity for every device live now, one round's worth.
func (e *Engine) streamBatchCap(needsRef bool) (int, error) {
	e.runMu.Lock()
	defer e.runMu.Unlock()
	if err := e.streamReady(needsRef); err != nil {
		return 0, err
	}
	return e.streamBatchPairs() * e.liveStates(), nil
}

// runStream is a stream's one goroutine: collect a batch, filter it, emit its
// results, until in closes, ctx is cancelled or the engine can filter no
// more; then record the stream's terminal error and, after a failure, drain
// in — a failed stream's producer may know nothing and must be unblocked
// until it closes the channel, whereas a cancelled one stops on the same ctx.
func runStream[T any](e *Engine, ctx context.Context, in <-chan T, out chan<- Result, ops streamOps[T]) {
	defer close(out)
	var items []T
	var res []Result
	var failure error
	for batch := 0; ; batch++ {
		limit, err := e.streamBatchCap(ops.needsRef)
		if err != nil {
			failure = err
			break
		}
		items = collectBatch(ctx, in, items[:0], limit)
		if len(items) == 0 || ctx.Err() != nil {
			break
		}
		res = slices.Grow(res[:0], len(items))[:len(items)]
		if err := filterBatch(e, ctx, batch, items, res, ops); err != nil {
			if ctx.Err() == nil {
				failure = err
			}
			break
		}
		if !emit(ctx, out, res) {
			break
		}
	}
	e.setStreamErr(failure)
	if failure != nil {
		for range in {
		}
	}
}

// collectBatch appends a stream's next batch to items, at most limit (> 0) of
// them. The first item is awaited for as long as it takes; after it the batch
// fills until it is full, in closes, ctx is cancelled, or streamLinger has
// passed and in has nothing ready. An item that is ready always wins over the
// timer, so a saturating producer — or a pre-filled channel — gets full
// batches however late this goroutine is scheduled, and the rounds a fault
// plan meets do not depend on the machine. Nothing appended means in is
// closed or ctx cancelled.
func collectBatch[T any](ctx context.Context, in <-chan T, items []T, limit int) []T {
	var linger <-chan time.Time // nil, so never ready, until the batch opens
	for len(items) < limit {
		if len(items) > 0 && linger == nil {
			t := time.NewTimer(streamLinger)
			defer t.Stop()
			linger = t.C
		}
		var it T
		var ok bool
		select {
		case it, ok = <-in:
		default:
			select {
			case it, ok = <-in:
			case <-linger:
				return items
			case <-ctx.Done():
				return items
			}
		}
		if !ok {
			return items
		}
		items = append(items, it)
	}
	return items
}

// filterBatch runs one stream batch as a one-shot call runs its input: under
// runMu, after the same checks, through runRounds — on the pipelined clock.
func filterBatch[T any](e *Engine, ctx context.Context, batch int, items []T, res []Result, ops streamOps[T]) error {
	e.runMu.Lock()
	defer e.runMu.Unlock()
	if err := e.streamReady(ops.needsRef); err != nil {
		return err
	}
	return e.runRounds(roundPlan{
		ctx: ctx, batch: batch,
		shape: ops.shape, clock: e.pipelinedClock,
		body: ops.body(items, res),
	}, res)
}

// emit sends a batch's results in order; false means ctx was cancelled first.
func emit(ctx context.Context, out chan<- Result, res []Result) bool {
	for _, r := range res {
		select {
		case out <- r:
		case <-ctx.Done():
			return false
		}
	}
	return true
}
