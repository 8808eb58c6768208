package gkgpu

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/cuda"
	"repro/internal/dna"
)

// entryPoint is one of the engine's four filtering calls run over the
// contract tests' one input, as materialized pairs or as index-named
// candidates. Streams are fed by a producer that knows nothing of the stream's
// state (plain blocking sends): call returns only once that producer has run
// to its end, so a stream that fails without draining its input fails the
// test by timing out. err is the call's error, or the stream's StreamErr.
type entryPoint struct {
	name string
	call func(t *testing.T, eng *Engine, in *contractInput) (res []Result, err error)
}

type contractInput struct {
	ref    []byte
	reads  [][]byte
	cands  []Candidate
	pairs  []Pair
	scands []StreamCandidate
}

func newContractInput(seed int64, n int) *contractInput {
	rng := rand.New(rand.NewSource(seed))
	in := &contractInput{ref: dna.RandomSeq(rng, 16384)}
	in.reads, in.cands = faultCandidates(rng, in.ref, 64, n)
	for _, c := range in.cands {
		read, win := in.reads[c.ReadID], in.ref[c.Pos:c.Pos+100]
		in.pairs = append(in.pairs, Pair{Read: read, Ref: win})
		in.scands = append(in.scands, StreamCandidate{Read: read, Pos: c.Pos})
	}
	return in
}

// feedStream runs one stream to its end: items go down an unbuffered channel
// from a goroutine of blocking sends, results are collected until the stream
// closes its channel, and the producer must then finish.
func feedStream[T any](t *testing.T, eng *Engine, items []T, e int,
	start func(context.Context, <-chan T, int) (<-chan Result, error)) ([]Result, error) {

	t.Helper()
	in := make(chan T)
	out, err := start(context.Background(), in, e)
	if err != nil {
		t.Fatal(err)
	}
	produced := make(chan struct{})
	go func() {
		defer close(produced)
		defer close(in)
		for _, it := range items {
			in <- it
		}
	}()
	var res []Result
	for r := range out {
		res = append(res, r)
	}
	select {
	case <-produced:
	case <-time.After(30 * time.Second):
		t.Fatal("producer still blocked after the stream closed its results")
	}
	return res, eng.StreamErr()
}

var entryPoints = []entryPoint{
	{"FilterPairs", func(t *testing.T, eng *Engine, in *contractInput) ([]Result, error) {
		return eng.FilterPairs(in.pairs, 5)
	}},
	{"FilterCandidates", func(t *testing.T, eng *Engine, in *contractInput) ([]Result, error) {
		return eng.FilterCandidates(in.reads, in.cands, 5)
	}},
	{"FilterStream", func(t *testing.T, eng *Engine, in *contractInput) ([]Result, error) {
		return feedStream(t, eng, in.pairs, 5, eng.FilterStream)
	}},
	{"FilterCandidateStream", func(t *testing.T, eng *Engine, in *contractInput) ([]Result, error) {
		return feedStream(t, eng, in.scands, 5, eng.FilterCandidateStream)
	}},
}

// newContractEngine builds an nDev-device engine with in's reference loaded
// and batches small enough that the input takes a dozen rounds on any entry
// point. Eight attempts: under a 10 % launch / 5 % transfer plan an attempt
// fails one time in four, so the default three would quarantine a device by
// exhaustion somewhere in a few hundred shares; the scenarios that want a
// quarantine schedule a death instead.
func newContractEngine(t *testing.T, nDev int, in *contractInput) (*Engine, *cuda.Context) {
	t.Helper()
	cctx := cuda.NewUniformContext(nDev, cuda.GTX1080Ti())
	eng, err := NewEngine(Config{ReadLen: 100, MaxE: 5, Encoding: EncodeOnHost,
		MaxBatchPairs: 256, StreamBatchPairs: 64,
		Fault: FaultPolicy{MaxAttempts: 8, Backoff: 10 * time.Microsecond}}, cctx)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	if err := eng.SetReference(in.ref); err != nil {
		t.Fatal(err)
	}
	return eng, cctx
}

// TestFaultContract holds every filtering entry point to the one fault
// contract, on 1, 2 and 3 devices: under seeded transient faults, and with a
// device dying mid-call while another survives, the results are those of the
// fault-free run, in order, with the same decision counters, and the damage is
// counted exactly; with every device dead the call fails as a dead stream does
// — ErrStreamAborted wrapping the first classified fault, the producer drained
// — and the next call fails at once without counting anything.
func TestFaultContract(t *testing.T) {
	in := newContractInput(91, 3000)
	for _, ep := range entryPoints {
		for _, nDev := range []int{1, 2, 3} {
			clean, _ := newContractEngine(t, nDev, in)
			want, err := ep.call(t, clean, in)
			if err != nil {
				t.Fatalf("%s/%d devices: fault-free run: %v", ep.name, nDev, err)
			}
			if d := decisionsOf(clean.Stats()); d.pairs != int64(len(in.cands)) || d.rejected == 0 || d.accepted == 0 {
				t.Fatalf("%s/%d devices: fault-free run is no reference: %+v", ep.name, nDev, d)
			}

			t.Run(fmt.Sprintf("%s/%ddev/transient", ep.name, nDev), func(t *testing.T) {
				eng, cctx := newContractEngine(t, nDev, in)
				for di := 0; di < nDev; di++ {
					cctx.Device(di).InjectFaults(cuda.NewFaultPlan(int64(7*nDev+di)).
						WithRate(cuda.OpLaunch, 0.10).WithRate(cuda.OpTransfer, 0.05))
				}
				got, err := ep.call(t, eng, in)
				if err != nil {
					t.Fatalf("transient faults became terminal: %v", err)
				}
				requireIdentical(t, want, got, "under transient faults")
				s := eng.Stats()
				if d := decisionsOf(s); d != decisionsOf(clean.Stats()) {
					t.Fatalf("decision stats diverged: %+v vs %+v", d, decisionsOf(clean.Stats()))
				}
				if s.Retries == 0 || s.Redispatches != 0 || s.DevicesLost != 0 {
					t.Fatalf("transient faults miscounted: %+v, want retries only", s)
				}
			})

			if nDev > 1 { // with one device, a death is the all-dead row
				t.Run(fmt.Sprintf("%s/%ddev/one-dies", ep.name, nDev), func(t *testing.T) {
					eng, cctx := newContractEngine(t, nDev, in)
					cctx.Device(nDev - 1).InjectFaults(cuda.NewFaultPlan(1).DieAtLaunch(3))
					got, err := ep.call(t, eng, in)
					if err != nil {
						t.Fatalf("a death with a survivor became terminal: %v", err)
					}
					requireIdentical(t, want, got, "across a device death")
					s := eng.Stats()
					if d := decisionsOf(s); d != decisionsOf(clean.Stats()) {
						t.Fatalf("decision stats diverged: %+v vs %+v", d, decisionsOf(clean.Stats()))
					}
					// One share failed, once: the dying launch.
					if s.DevicesLost != 1 || s.Redispatches != 1 || s.Retries != 0 {
						t.Fatalf("death miscounted: %+v, want 1 lost, 1 redispatch, 0 retries", s)
					}
					if q := eng.QuarantinedDevices(); len(q) != 1 || q[0] != nDev-1 {
						t.Fatalf("QuarantinedDevices = %v, want [%d]", q, nDev-1)
					}
					// The quarantine outlives the call.
					again, err := ep.call(t, eng, in)
					if err != nil {
						t.Fatalf("post-quarantine call: %v", err)
					}
					requireIdentical(t, want, again, "after the quarantine")
				})
			}

			t.Run(fmt.Sprintf("%s/%ddev/all-die", ep.name, nDev), func(t *testing.T) {
				eng, cctx := newContractEngine(t, nDev, in)
				for di := 0; di < nDev; di++ {
					cctx.Device(di).InjectFaults(cuda.NewFaultPlan(int64(di)).DieAtLaunch(2 + di))
				}
				got, err := ep.call(t, eng, in)
				if !errors.Is(err, ErrStreamAborted) || !errors.Is(err, ErrDeviceLost) || !errors.Is(err, cuda.ErrDeviceLost) {
					t.Fatalf("terminal error lacks taxonomy: %v", err)
				}
				// Which device's fault comes first is the call's to say, and a
				// stream's call is the batch that found no device left; the
				// one-shot tests pin the device.
				var df *DeviceFault
				if !errors.As(err, &df) || df.Kind != ErrDeviceLost {
					t.Fatalf("first classified fault not exposed: %v (%+v)", err, df)
				}
				// What a stream emitted before it died is a prefix of the answer;
				// a one-shot call returns nothing.
				if len(got) >= len(want) {
					t.Fatalf("dead call returned %d of %d results", len(got), len(want))
				}
				requireIdentical(t, want[:len(got)], got, "before the last device died")
				s := eng.Stats()
				if s.DevicesLost != int64(nDev) || s.Pairs != int64(len(got)) {
					t.Fatalf("dead call's stats: %+v, want %d devices lost and %d decisions", s, nDev, len(got))
				}
				if got, err := ep.call(t, eng, in); len(got) != 0 || !errors.Is(err, ErrStreamAborted) || !errors.Is(err, ErrDeviceLost) {
					t.Fatalf("call on a dead engine: %d results, %v", len(got), err)
				}
				if after := eng.Stats(); after.DevicesLost != s.DevicesLost || after.Pairs != s.Pairs {
					t.Fatalf("fail-fast call counted something: %+v after %+v", after, s)
				}
			})
		}
	}
}

// TestFaultPlanReproducible: every live device takes a share of every round
// (that has an item for it) and a stream's batches are cut from what is ready, so which operation of a
// device meets which draw of its plan does not depend on the scheduler — the
// same plan gives the same Retries / Redispatches / DevicesLost run after run
// at any GOMAXPROCS, on every entry point. Streams are fed pre-filled closed
// channels here: a producer that trickles could still split a batch at the
// linger, which changes no decision but does change the count of launches.
func TestFaultPlanReproducible(t *testing.T) {
	in := newContractInput(92, 1500)
	calls := []entryPoint{
		entryPoints[0],
		entryPoints[1],
		{"FilterStream", func(t *testing.T, eng *Engine, in *contractInput) ([]Result, error) {
			return drainPrefilled(t, eng, in.pairs, eng.FilterStream)
		}},
		{"FilterCandidateStream", func(t *testing.T, eng *Engine, in *contractInput) ([]Result, error) {
			return drainPrefilled(t, eng, in.scands, eng.FilterCandidateStream)
		}},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	type counters struct{ retries, redispatches, lost int64 }
	for _, ep := range calls {
		var want counters
		var wantRes []Result
		for _, procs := range []int{1, 2, 4} {
			runtime.GOMAXPROCS(procs)
			for run := 0; run < 20; run++ {
				eng, cctx := newContractEngine(t, 3, in)
				for di := 0; di < 3; di++ {
					plan := cuda.NewFaultPlan(int64(40+di)).
						WithRate(cuda.OpLaunch, 0.10).WithRate(cuda.OpTransfer, 0.05)
					if di == 2 {
						plan.DieAtLaunch(2)
					}
					cctx.Device(di).InjectFaults(plan)
				}
				res, err := ep.call(t, eng, in)
				if err != nil {
					t.Fatalf("%s: GOMAXPROCS %d run %d: %v", ep.name, procs, run, err)
				}
				s := eng.Stats()
				eng.Close()
				got := counters{s.Retries, s.Redispatches, s.DevicesLost}
				if wantRes == nil {
					want, wantRes = got, res
					if want.retries == 0 || want.redispatches == 0 || want.lost != 1 {
						t.Fatalf("%s: the plan exercised nothing: %+v", ep.name, want)
					}
					continue
				}
				if got != want {
					t.Fatalf("%s: GOMAXPROCS %d run %d: counters %+v, first run %+v", ep.name, procs, run, got, want)
				}
				requireIdentical(t, wantRes, res, ep.name)
			}
		}
	}
}

// drainPrefilled runs a stream over a channel that already holds every item
// and is closed.
func drainPrefilled[T any](t *testing.T, eng *Engine, items []T,
	start func(context.Context, <-chan T, int) (<-chan Result, error)) ([]Result, error) {

	t.Helper()
	in := make(chan T, len(items))
	for _, it := range items {
		in <- it
	}
	close(in)
	out, err := start(context.Background(), in, 5)
	if err != nil {
		t.Fatal(err)
	}
	var res []Result
	for r := range out {
		res = append(res, r)
	}
	return res, eng.StreamErr()
}
