package gkgpu

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"repro/internal/cuda"
	"repro/internal/dna"
)

// newFaultStreamEngine builds a multi-device stream engine and hands the
// caller its cuda devices for fault-plan attachment.
func newFaultStreamEngine(t *testing.T, nDev, streamBatch int, pol FaultPolicy) (*Engine, *cuda.Context) {
	t.Helper()
	ctx := cuda.NewUniformContext(nDev, cuda.GTX1080Ti())
	cfg := Config{ReadLen: 100, MaxE: 5, Encoding: EncodeOnHost,
		MaxBatchPairs: 256, StreamBatchPairs: streamBatch, Fault: pol}
	eng, err := NewEngine(cfg, ctx)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	return eng, ctx
}

// decisionStats projects Stats onto the fields the fault-tolerance contract
// promises bit-identical under faults. Batches is excluded deliberately: a
// stream's linger timer may flush a partial batch and a re-cut round adds
// one, and clocks and retry counters are exactly what a faulty run is allowed
// to change.
type decisionStats struct {
	pairs, accepted, rejected, undefined int64
}

func decisionsOf(s Stats) decisionStats {
	return decisionStats{s.Pairs, s.Accepted, s.Rejected, s.Undefined}
}

func requireIdentical(t *testing.T, want, got []Result, label string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d results, want %d (loss or duplication)", label, len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: result %d = %+v, want %+v (divergence or reorder)", label, i, got[i], want[i])
		}
	}
}

func TestStreamRetriesTransientFault(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	pairs, _ := makePairs(rng, 600, 100, 5)

	clean := newStreamEngine(t, EncodeOnHost, 1, 64)
	want := drainStream(t, clean, pairs, 5)

	eng, cctx := newFaultStreamEngine(t, 1, 64, FaultPolicy{Backoff: 50 * time.Microsecond})
	cctx.Device(0).InjectFaults(cuda.NewFaultPlan(3).FailNth(cuda.OpLaunch, 2).FailNth(cuda.OpLaunch, 5))
	got := drainStream(t, eng, pairs, 5)
	if err := eng.StreamErr(); err != nil {
		t.Fatalf("transient faults became terminal: %v", err)
	}
	requireIdentical(t, want, got, "retried stream")

	s := eng.Stats()
	if s.Retries == 0 {
		t.Fatal("transient faults recovered without counting retries")
	}
	if s.DevicesLost != 0 || s.Redispatches != 0 {
		t.Fatalf("transient faults quarantined a device: %+v", s)
	}
	if d := decisionsOf(s); d != decisionsOf(clean.Stats()) {
		t.Fatalf("decision stats diverged: %+v vs %+v", d, decisionsOf(clean.Stats()))
	}
}

func TestStreamRedispatchOnDeviceDeath(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	pairs, _ := makePairs(rng, 2000, 100, 5)

	clean := newStreamEngine(t, EncodeOnHost, 2, 64)
	want := drainStream(t, clean, pairs, 5)

	// Every live device takes a share of every batch that has a pair for it,
	// so device 1 meets its third launch a few batches in, with a dozen still
	// to come.
	eng, cctx := newFaultStreamEngine(t, 2, 64, FaultPolicy{Backoff: 50 * time.Microsecond})
	cctx.Device(1).InjectFaults(cuda.NewFaultPlan(5).DieAtLaunch(3))
	got := drainStream(t, eng, pairs, 5)
	if err := eng.StreamErr(); err != nil {
		t.Fatalf("device death with a survivor became terminal: %v", err)
	}
	requireIdentical(t, want, got, "redispatched stream")

	s := eng.Stats()
	if s.DevicesLost != 1 {
		t.Fatalf("DevicesLost = %d, want 1", s.DevicesLost)
	}
	if s.Redispatches == 0 {
		t.Fatal("device died mid-stream but nothing redispatched")
	}
	if q := eng.QuarantinedDevices(); len(q) != 1 || q[0] != 1 {
		t.Fatalf("QuarantinedDevices = %v, want [1]", q)
	}
	if d, w := decisionsOf(s), decisionsOf(clean.Stats()); d != w {
		t.Fatalf("decision stats diverged: %+v vs %+v", d, w)
	}

	// The quarantine outlives the stream: the next stream runs entirely on
	// the survivor and still answers everything.
	again := drainStream(t, eng, pairs, 5)
	if err := eng.StreamErr(); err != nil {
		t.Fatalf("stream on quarantined engine: %v", err)
	}
	requireIdentical(t, want, again, "post-quarantine stream")
}

func TestStreamChaosIdentityUnderSeededFaults(t *testing.T) {
	// The tentpole identity sweep in miniature (the harness chaos experiment
	// runs the full grid): seeded per-op fault rates on every device of a
	// multi-device context, plus one mid-stream death, must not change a
	// single decision, the order, or the decision stats.
	rng := rand.New(rand.NewSource(73))
	pairs, _ := makePairs(rng, 3000, 100, 5)

	clean := newStreamEngine(t, EncodeOnHost, 3, 64)
	want := drainStream(t, clean, pairs, 5)
	wantDec := decisionsOf(clean.Stats())

	for _, seed := range []int64{1, 2, 3} {
		eng, cctx := newFaultStreamEngine(t, 3, 64, FaultPolicy{Backoff: 20 * time.Microsecond})
		for i := 0; i < 3; i++ {
			plan := cuda.NewFaultPlan(seed+int64(i)).
				WithRate(cuda.OpLaunch, 0.10).
				WithRate(cuda.OpTransfer, 0.05)
			if i == 2 {
				plan.DieAtLaunch(7)
			}
			cctx.Device(i).InjectFaults(plan)
		}
		got := drainStream(t, eng, pairs, 5)
		if err := eng.StreamErr(); err != nil {
			t.Fatalf("seed %d: chaos became terminal with survivors: %v", seed, err)
		}
		requireIdentical(t, want, got, "chaos stream")
		if d := decisionsOf(eng.Stats()); d != wantDec {
			t.Fatalf("seed %d: decision stats diverged: %+v vs %+v", seed, d, wantDec)
		}
	}
}

func TestStreamAllDevicesDeadDrainsProducer(t *testing.T) {
	// Satellite: terminal failure must (a) surface the first classified
	// fault through StreamErr under ErrStreamAborted, and (b) fully drain a
	// producer that knows nothing about the failure — plain blocking sends,
	// no ctx — instead of deadlocking it.
	rng := rand.New(rand.NewSource(74))
	pairs, _ := makePairs(rng, 4000, 100, 5)

	eng, cctx := newFaultStreamEngine(t, 2, 32, FaultPolicy{Backoff: 20 * time.Microsecond})
	cctx.Device(0).InjectFaults(cuda.NewFaultPlan(1).DieAtLaunch(2))
	cctx.Device(1).InjectFaults(cuda.NewFaultPlan(2).DieAtLaunch(3))

	in := make(chan Pair)
	out, err := eng.FilterStream(context.Background(), in, 5)
	if err != nil {
		t.Fatal(err)
	}
	produced := make(chan struct{})
	go func() {
		defer close(produced)
		for _, p := range pairs {
			in <- p // deliberately no select: the stream must drain us
		}
		close(in)
	}()
	for range out {
	}
	select {
	case <-produced:
	case <-time.After(30 * time.Second):
		t.Fatal("producer deadlocked after terminal stream failure")
	}

	serr := eng.StreamErr()
	if serr == nil {
		t.Fatal("all devices dead but StreamErr is nil")
	}
	if !errors.Is(serr, ErrStreamAborted) || !errors.Is(serr, ErrDeviceLost) {
		t.Fatalf("terminal error lacks taxonomy: %v", serr)
	}
	if !errors.Is(serr, cuda.ErrDeviceLost) {
		t.Fatalf("terminal error lost its cuda cause: %v", serr)
	}
	var df *DeviceFault
	if !errors.As(serr, &df) {
		t.Fatalf("StreamErr does not expose the first classified DeviceFault: %v", serr)
	}
	if df.Kind != ErrDeviceLost {
		t.Fatalf("first classified fault kind = %v, want ErrDeviceLost", df.Kind)
	}
	if s := eng.Stats(); s.DevicesLost != 2 {
		t.Fatalf("DevicesLost = %d, want 2", s.DevicesLost)
	}

	// A fresh stream on the fully quarantined engine fails fast with the
	// taxonomy error and still drains its input.
	in2 := make(chan Pair, 4)
	in2 <- pairs[0]
	close(in2)
	out2, err := eng.FilterStream(context.Background(), in2, 5)
	if err != nil {
		t.Fatal(err)
	}
	for range out2 {
		t.Fatal("quarantined engine emitted a result")
	}
	if err := eng.StreamErr(); !errors.Is(err, ErrDeviceLost) || !errors.Is(err, ErrStreamAborted) {
		t.Fatalf("quarantined-engine stream error: %v", err)
	}
}

func TestStreamTransferFaultTerminalWithoutRetry(t *testing.T) {
	// With retries disabled, an async transfer fault surfaces at the next
	// launch and classifies as ErrTransfer.
	rng := rand.New(rand.NewSource(75))
	pairs, _ := makePairs(rng, 300, 100, 5)

	eng, cctx := newFaultStreamEngine(t, 1, 64, FaultPolicy{MaxAttempts: 1})
	cctx.Device(0).InjectFaults(cuda.NewFaultPlan(1).FailNth(cuda.OpTransfer, 1))
	in := make(chan Pair)
	out, err := eng.FilterStream(context.Background(), in, 5)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for _, p := range pairs {
			in <- p
		}
		close(in)
	}()
	for range out {
	}
	serr := eng.StreamErr()
	if !errors.Is(serr, ErrStreamAborted) || !errors.Is(serr, ErrTransfer) {
		t.Fatalf("transfer fault classification: %v", serr)
	}
}

func TestStreamDeadlineRespectedMidBatch(t *testing.T) {
	// A device stuck in a retry loop must not pin the stream past its
	// deadline: the backoff wait carries a ctx arm.
	rng := rand.New(rand.NewSource(76))
	pairs, _ := makePairs(rng, 500, 100, 5)

	eng, cctx := newFaultStreamEngine(t, 1, 32,
		FaultPolicy{MaxAttempts: 1 << 20, Backoff: 50 * time.Millisecond, MaxBackoff: time.Second})
	cctx.Device(0).InjectFaults(cuda.NewFaultPlan(1).WithRate(cuda.OpLaunch, 1.0))

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	in := make(chan Pair)
	out, err := eng.FilterStream(ctx, in, 5)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		defer close(in)
		for _, p := range pairs {
			select {
			case in <- p:
			case <-ctx.Done():
				return
			}
		}
	}()
	start := time.Now()
	for range out {
	}
	if took := time.Since(start); took > 10*time.Second {
		t.Fatalf("deadline ignored: stream closed after %v", took)
	}
}

func TestFilterPairsClassifiesAndQuarantines(t *testing.T) {
	// FilterPairs carries the engine's one fault contract: a death with a
	// survivor is quarantined and the round re-run, so the call succeeds
	// bit-identically; only a call left without a device fails, classified.
	rng := rand.New(rand.NewSource(77))
	pairs, _ := makePairs(rng, 400, 100, 5)

	ctx := cuda.NewUniformContext(2, cuda.GTX1080Ti())
	eng, err := NewEngine(Config{ReadLen: 100, MaxE: 5, MaxBatchPairs: 256}, ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	want, err := eng.FilterPairs(pairs, 5)
	if err != nil {
		t.Fatal(err)
	}

	ctx.Device(0).InjectFaults(cuda.NewFaultPlan(1).DieAtLaunch(1))
	got, err := eng.FilterPairs(pairs, 5)
	if err != nil {
		t.Fatalf("one-shot death with a survivor: %v", err)
	}
	requireIdentical(t, want, got, "FilterPairs across a device death")
	if q := eng.QuarantinedDevices(); len(q) != 1 || q[0] != 0 {
		t.Fatalf("QuarantinedDevices = %v, want [0]", q)
	}
	if s := eng.Stats(); s.DevicesLost != 1 || s.Redispatches != 1 {
		t.Fatalf("death not counted: %+v, want 1 lost, 1 redispatch", s)
	}
	// The next call runs on the survivor alone and succeeds identically.
	got, err = eng.FilterPairs(pairs, 5)
	if err != nil {
		t.Fatalf("post-quarantine FilterPairs: %v", err)
	}
	requireIdentical(t, want, got, "post-quarantine FilterPairs")

	ctx.Device(1).InjectFaults(cuda.NewFaultPlan(2).Kill())
	before := decisionsOf(eng.Stats())
	_, err = eng.FilterPairs(pairs, 5)
	if !errors.Is(err, ErrStreamAborted) || !errors.Is(err, ErrDeviceLost) {
		t.Fatalf("second death not classified: %v", err)
	}
	var df *DeviceFault
	if !errors.As(err, &df) || df.Device != 1 {
		t.Fatalf("first classified fault not exposed: %v (%+v)", err, df)
	}
	if d := decisionsOf(eng.Stats()); d != before {
		t.Fatalf("failed call committed decisions: %+v vs %+v", d, before)
	}
	if _, err := eng.FilterPairs(pairs, 5); !errors.Is(err, ErrStreamAborted) || !errors.Is(err, ErrDeviceLost) {
		t.Fatalf("all-quarantined FilterPairs: %v", err)
	}
}

func TestNewEngineAllocFaultClassified(t *testing.T) {
	ctx := cuda.NewUniformContext(1, cuda.GTX1080Ti())
	ctx.Device(0).InjectFaults(cuda.NewFaultPlan(1).FailNth(cuda.OpAlloc, 1))
	if _, err := NewEngine(Config{ReadLen: 100, MaxE: 5, MaxBatchPairs: 64}, ctx); !errors.Is(err, ErrAlloc) {
		t.Fatalf("NewEngine alloc fault: %v, want ErrAlloc", err)
	}
}

func TestSetReferenceAllocFaultClassified(t *testing.T) {
	ctx := cuda.NewUniformContext(2, cuda.GTX1080Ti())
	eng, err := NewEngine(Config{ReadLen: 100, MaxE: 5, MaxBatchPairs: 64}, ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	// The plan attaches after the engine's own buffers are allocated, so its
	// first allocation is the reference load — on the second device, after
	// the first has mapped the planes.
	free0, free1 := ctx.Device(0).FreeMem(), ctx.Device(1).FreeMem()
	ctx.Device(1).InjectFaults(cuda.NewFaultPlan(1).FailNth(cuda.OpAlloc, 1))
	if err := eng.SetReference(make([]byte, 4096)); !errors.Is(err, ErrAlloc) {
		t.Fatalf("SetReference alloc fault: %v, want ErrAlloc", err)
	}
	if got0, got1 := ctx.Device(0).FreeMem(), ctx.Device(1).FreeMem(); got0 != free0 || got1 != free1 {
		t.Fatalf("failed SetReference kept memory reserved: device 0 %d of %d, device 1 %d of %d", got0, free0, got1, free1)
	}
	if eng.ref != nil {
		t.Fatal("a failed SetReference left the engine with a reference")
	}
}

func TestCandidateStreamSurvivesDeviceDeath(t *testing.T) {
	// The fault tolerance is the round loop's, whatever the stream type: the
	// index-named candidate stream recovers too.
	rng := rand.New(rand.NewSource(78))
	refSeq := dna.RandomSeq(rng, 8192)

	build := func(pol FaultPolicy) (*Engine, *cuda.Context) {
		ctx := cuda.NewUniformContext(2, cuda.GTX1080Ti())
		eng, err := NewEngine(Config{ReadLen: 100, MaxE: 5, Encoding: EncodeOnHost,
			MaxBatchPairs: 256, StreamBatchPairs: 32, Fault: pol}, ctx)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(eng.Close)
		if err := eng.SetReference(refSeq); err != nil {
			t.Fatal(err)
		}
		return eng, ctx
	}
	cands := make([]StreamCandidate, 800)
	for i := range cands {
		pos := rng.Intn(len(refSeq) - 100)
		cands[i] = StreamCandidate{Read: refSeq[pos : pos+100], Pos: int64(pos)}
	}

	clean, _ := build(FaultPolicy{})
	want := drainCandidateStream(t, clean, cands, 5)
	if err := clean.StreamErr(); err != nil {
		t.Fatal(err)
	}

	eng, cctx := build(FaultPolicy{Backoff: 20 * time.Microsecond})
	cctx.Device(0).InjectFaults(cuda.NewFaultPlan(4).DieAtLaunch(2))
	got := drainCandidateStream(t, eng, cands, 5)
	if err := eng.StreamErr(); err != nil {
		t.Fatalf("candidate stream death with survivor: %v", err)
	}
	requireIdentical(t, want, got, "candidate stream")
	if s := eng.Stats(); s.DevicesLost != 1 {
		t.Fatalf("DevicesLost = %d, want 1", s.DevicesLost)
	}
}

// newFaultCandidateEngine builds a multi-device engine with a loaded
// reference for the one-shot index-named path, small enough batches that a
// few thousand candidates take several rounds (so several launches per
// device), and hands back the cuda context for fault-plan attachment.
func newFaultCandidateEngine(t *testing.T, nDev int, refSeq []byte, pol FaultPolicy) (*Engine, *cuda.Context) {
	t.Helper()
	ctx := cuda.NewUniformContext(nDev, cuda.GTX1080Ti())
	eng, err := NewEngine(Config{ReadLen: 100, MaxE: 5, Encoding: EncodeOnHost,
		MaxBatchPairs: 256, Fault: pol}, ctx)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	if err := eng.SetReference(refSeq); err != nil {
		t.Fatal(err)
	}
	return eng, ctx
}

// faultCandidates draws reads off the reference (some mutated past the
// threshold so both verdicts occur) and n candidate locations for them.
func faultCandidates(rng *rand.Rand, refSeq []byte, nReads, n int) ([][]byte, []Candidate) {
	reads := make([][]byte, nReads)
	home := make([]int, nReads)
	for i := range reads {
		home[i] = rng.Intn(len(refSeq) - 100)
		reads[i] = dna.MutateSubstitutions(rng, refSeq[home[i]:home[i]+100], rng.Intn(12))
	}
	cands := make([]Candidate, n)
	for i := range cands {
		r := rng.Intn(nReads)
		pos := home[r]
		if i%3 == 0 {
			pos = rng.Intn(len(refSeq) - 100)
		}
		cands[i] = Candidate{ReadID: int64(r), Pos: int64(pos)}
	}
	return reads, cands
}

func TestFilterCandidatesRecoversUnderSeededFaults(t *testing.T) {
	// The one-shot index-named path carries the stream's degradation
	// contract: seeded launch and transfer faults on every device plus one
	// device dying mid-call change no result and no decision counter; the
	// damage shows only in Retries/Redispatches/DevicesLost.
	rng := rand.New(rand.NewSource(81))
	refSeq := dna.RandomSeq(rng, 16384)
	reads, cands := faultCandidates(rng, refSeq, 64, 3000)

	for _, nDev := range []int{2, 3} {
		clean, _ := newFaultCandidateEngine(t, nDev, refSeq, FaultPolicy{})
		want, err := clean.FilterCandidates(reads, cands, 5)
		if err != nil {
			t.Fatal(err)
		}
		if d := decisionsOf(clean.Stats()); d.rejected == 0 || d.accepted == 0 {
			t.Fatalf("workload has one-sided verdicts: %+v", d)
		}

		eng, cctx := newFaultCandidateEngine(t, nDev, refSeq, FaultPolicy{Backoff: 20 * time.Microsecond})
		for i := 0; i < nDev; i++ {
			// Seeds under which no device draws MaxAttempts faults in a row
			// (that quarantines too, by policy, and is the next test's case).
			plan := cuda.NewFaultPlan(int64(100*nDev+i)).
				WithRate(cuda.OpLaunch, 0.10).
				WithRate(cuda.OpTransfer, 0.05)
			if i == nDev-1 {
				plan.DieAtLaunch(3)
			}
			cctx.Device(i).InjectFaults(plan)
		}
		got, err := eng.FilterCandidates(reads, cands, 5)
		if err != nil {
			t.Fatalf("%d devices: chaos became terminal with survivors: %v", nDev, err)
		}
		requireIdentical(t, want, got, "faulted FilterCandidates")
		s := eng.Stats()
		if d := decisionsOf(s); d != decisionsOf(clean.Stats()) {
			t.Fatalf("%d devices: decision stats diverged: %+v vs %+v", nDev, d, decisionsOf(clean.Stats()))
		}
		if s.DevicesLost != 1 || s.Retries == 0 || s.Redispatches == 0 {
			t.Fatalf("%d devices: recovery not counted: %+v", nDev, s)
		}
		if q := eng.QuarantinedDevices(); len(q) != 1 || q[0] != nDev-1 {
			t.Fatalf("%d devices: QuarantinedDevices = %v, want [%d]", nDev, q, nDev-1)
		}
		// The quarantine outlives the call: the next one runs on the
		// survivors alone and answers identically.
		again, err := eng.FilterCandidates(reads, cands, 5)
		if err != nil {
			t.Fatalf("%d devices: post-quarantine call: %v", nDev, err)
		}
		requireIdentical(t, want, again, "post-quarantine FilterCandidates")
	}
}

func TestFilterCandidatesQuarantinesRepeatOffender(t *testing.T) {
	// MaxAttempts 1 means no retry: one transient launch fault exhausts the
	// device's attempts, quarantines it, and its share re-runs on the other.
	rng := rand.New(rand.NewSource(82))
	refSeq := dna.RandomSeq(rng, 8192)
	reads, cands := faultCandidates(rng, refSeq, 32, 400)

	clean, _ := newFaultCandidateEngine(t, 2, refSeq, FaultPolicy{})
	want, err := clean.FilterCandidates(reads, cands, 5)
	if err != nil {
		t.Fatal(err)
	}
	eng, cctx := newFaultCandidateEngine(t, 2, refSeq, FaultPolicy{MaxAttempts: 1})
	cctx.Device(0).InjectFaults(cuda.NewFaultPlan(1).FailNth(cuda.OpLaunch, 1))
	got, err := eng.FilterCandidates(reads, cands, 5)
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, want, got, "FilterCandidates after a quarantine")
	s := eng.Stats()
	if s.DevicesLost != 1 || s.Retries != 0 || s.Redispatches != 1 {
		t.Fatalf("transient fault at MaxAttempts 1: %+v, want 1 lost, 0 retries, 1 redispatch", s)
	}
	if q := eng.QuarantinedDevices(); len(q) != 1 || q[0] != 0 {
		t.Fatalf("QuarantinedDevices = %v, want [0]", q)
	}
}

func TestFilterCandidatesAllDevicesDead(t *testing.T) {
	// With no device left the call fails exactly as a dead stream does — the
	// first classified fault under ErrStreamAborted — commits no decisions,
	// and later calls fail fast.
	rng := rand.New(rand.NewSource(83))
	refSeq := dna.RandomSeq(rng, 8192)
	reads, cands := faultCandidates(rng, refSeq, 32, 2000)

	eng, cctx := newFaultCandidateEngine(t, 2, refSeq, FaultPolicy{Backoff: 20 * time.Microsecond})
	cctx.Device(0).InjectFaults(cuda.NewFaultPlan(1).DieAtLaunch(2))
	cctx.Device(1).InjectFaults(cuda.NewFaultPlan(2).DieAtLaunch(3))
	_, err := eng.FilterCandidates(reads, cands, 5)
	if !errors.Is(err, ErrStreamAborted) || !errors.Is(err, ErrDeviceLost) || !errors.Is(err, cuda.ErrDeviceLost) {
		t.Fatalf("terminal error lacks taxonomy: %v", err)
	}
	var df *DeviceFault
	if !errors.As(err, &df) || df.Kind != ErrDeviceLost || df.Device != 0 {
		t.Fatalf("first classified fault not exposed: %v (%+v)", err, df)
	}
	if s := eng.Stats(); s.DevicesLost != 2 || s.Pairs != 0 {
		t.Fatalf("dead call's stats: %+v, want 2 devices lost and no decisions", s)
	}
	_, err = eng.FilterCandidates(reads, cands, 5)
	if !errors.Is(err, ErrStreamAborted) || !errors.Is(err, ErrDeviceLost) {
		t.Fatalf("all-quarantined FilterCandidates: %v", err)
	}
	if s := eng.Stats(); s.DevicesLost != 2 {
		t.Fatalf("fail-fast call counted a quarantine: %+v", s)
	}
}
