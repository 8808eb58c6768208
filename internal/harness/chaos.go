package harness

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/cuda"
	"repro/internal/gkgpu"
	"repro/internal/metrics"
	"repro/internal/simdata"
)

func init() {
	register(Experiment{
		ID:       "chaos",
		PaperRef: "beyond the paper (fault-tolerant streaming)",
		Title:    "Seeded fault injection: decision identity and degradation under device failures",
		Run:      runChaos,
	})
}

// runChaos sweeps seeded fault injection over the streaming filter — per-op
// fault rates crossed with device counts, plus one device dying mid-stream —
// and proves the degradation contract: as long as one device survives, the
// emitted decisions are bit-identical to the fault-free run (zero loss, zero
// duplication, zero reorder, identical decision counters), with the damage
// visible only in the retry/redispatch telemetry and the modelled filter
// clock. The final scenario kills every device and checks the terminal
// contract instead: a classified taxonomy error and a fully drained producer.
func runChaos(o Options) error {
	profile, err := simdata.Set("set3")
	if err != nil {
		return err
	}
	// Whatever the scale, one pass over the pairs is ~64 batches on the
	// largest grid row — normally enough for every device to reach its
	// scheduled death with work left to redispatch. "Normally" is the
	// scheduler's word, not ours: which device takes which batch is a race
	// between the device workers, so a faulted run repeats the pass until the
	// doomed device has died (run's again) instead of hoping one pass did it.
	n := o.scaled(20_000)
	if n < 4096 {
		n = 4096
	}
	cases := simdata.Generate(profile, o.Seed, n)
	pairs := simdata.ToEnginePairs(cases)
	const e = 5
	const batch = 64

	mk := func(nDev int) (*gkgpu.Engine, *cuda.Context, error) {
		cctx := cuda.NewUniformContext(nDev, cuda.GTX1080Ti())
		eng, err := gkgpu.NewEngine(gkgpu.Config{
			ReadLen: 100, MaxE: e, Encoding: gkgpu.EncodeOnHost,
			MaxBatchPairs: 2048, StreamBatchPairs: batch,
			// Eight attempts, not the default three: a batch's attempts are
			// also charged the transfer faults its device's encode stage draws
			// meanwhile, so at the 10 % row three in a row — quarantining the
			// last survivor — is a matter of interleaving; eight is not.
			Fault: gkgpu.FaultPolicy{MaxAttempts: 8, Backoff: 100 * time.Microsecond},
		}, cctx)
		return eng, cctx, err
	}
	// run streams the pairs through eng, pass after pass while again() asks
	// for another (at most maxPasses), and returns the results with the
	// number of passes fed.
	const maxPasses = 64
	run := func(eng *gkgpu.Engine, again func() bool) ([]gkgpu.Result, int, error) {
		in := make(chan gkgpu.Pair, 64)
		passes := make(chan int, 1) // the producer's one send, read after out closes
		go func() {
			defer close(in)
			n := 0
			for {
				for _, p := range pairs {
					in <- p
				}
				if n++; n == maxPasses || !again() {
					break
				}
			}
			passes <- n
		}()
		out, err := eng.FilterStream(context.Background(), in, e)
		if err != nil {
			return nil, 0, err
		}
		res := make([]gkgpu.Result, 0, len(pairs))
		for r := range out {
			res = append(res, r)
		}
		return res, <-passes, eng.StreamErr()
	}
	once := func() bool { return false }
	// The decision fields of Stats — everything a faulty-but-survived run
	// must leave untouched.
	decisions := func(s gkgpu.Stats) [4]int64 {
		return [4]int64{s.Pairs, s.Accepted, s.Rejected, s.Undefined}
	}

	fmt.Fprintf(o.Out, "%s, %d pairs, e=%d, batch=%d, one device dies mid-stream on every faulted row\n\n",
		profile.Name, len(pairs), e, batch)
	tb := metrics.NewTable("GPUs", "fault rate", "retries", "redispatches", "lost", "filter (s)", "vs clean", "identity")
	for _, nDev := range []int{2, 3} {
		clean, _, err := mk(nDev)
		if err != nil {
			return err
		}
		want, _, err := run(clean, once)
		if err != nil {
			clean.Close()
			return fmt.Errorf("chaos: fault-free baseline: %w", err)
		}
		cleanStats := clean.Stats()
		clean.Close()
		tb.Add(fmt.Sprintf("%d", nDev), "0 (baseline)", "0", "0", "0",
			fmt.Sprintf("%.4f", cleanStats.FilterSeconds), "1.00x", "reference")

		for _, rate := range []float64{0.01, 0.05, 0.10} {
			eng, cctx, err := mk(nDev)
			if err != nil {
				return err
			}
			var doomed *cuda.FaultPlan
			for di := 0; di < nDev; di++ {
				plan := cuda.NewFaultPlan(o.Seed*1000+int64(di)).
					WithRate(cuda.OpLaunch, rate).
					WithRate(cuda.OpTransfer, rate/2)
				if di == nDev-1 {
					// The last device dies a few batches in: the survivors
					// absorb its in-flight and future work.
					doomed = plan.DieAtLaunch(5)
				}
				cctx.Device(di).InjectFaults(plan)
			}
			got, passes, err := run(eng, func() bool { return !doomed.Dead() })
			if err != nil {
				eng.Close()
				return fmt.Errorf("chaos: %d GPUs rate %.2f: stream terminal with a survivor: %w", nDev, rate, err)
			}
			// The fault-free answer to `passes` passes is the one-pass answer
			// that many times over, decision counters included.
			if len(got) != passes*len(want) {
				eng.Close()
				return fmt.Errorf("chaos: %d GPUs rate %.2f: %d results, want %d (loss or duplication)",
					nDev, rate, len(got), passes*len(want))
			}
			for i := range got {
				if got[i] != want[i%len(want)] {
					eng.Close()
					return fmt.Errorf("chaos: %d GPUs rate %.2f: result %d drifted or reordered: %+v vs %+v",
						nDev, rate, i, got[i], want[i%len(want)])
				}
			}
			st := eng.Stats()
			eng.Close()
			wantDecisions := decisions(cleanStats)
			for i := range wantDecisions {
				wantDecisions[i] *= int64(passes)
			}
			if decisions(st) != wantDecisions {
				return fmt.Errorf("chaos: %d GPUs rate %.2f: decision counters drifted: %v vs %v",
					nDev, rate, decisions(st), wantDecisions)
			}
			if st.DevicesLost != 1 {
				return fmt.Errorf("chaos: %d GPUs rate %.2f: DevicesLost = %d, want 1", nDev, rate, st.DevicesLost)
			}
			if st.Redispatches == 0 {
				return fmt.Errorf("chaos: %d GPUs rate %.2f: a device died but nothing redispatched", nDev, rate)
			}
			tb.Add(fmt.Sprintf("%d", nDev), fmt.Sprintf("%.2f", rate),
				fmt.Sprintf("%d", st.Retries), fmt.Sprintf("%d", st.Redispatches),
				fmt.Sprintf("%d", st.DevicesLost),
				fmt.Sprintf("%.4f", st.FilterSeconds),
				fmt.Sprintf("%.2fx", st.FilterSeconds/float64(passes)/cleanStats.FilterSeconds),
				"bit-identical")
		}
	}
	fmt.Fprint(o.Out, tb.String())

	// Terminal scenario: every device dies. The stream must end with the
	// classified taxonomy error and the producer — plain blocking sends, no
	// knowledge of the failure — must run to completion.
	eng, cctx, err := mk(2)
	if err != nil {
		return err
	}
	defer eng.Close()
	cctx.Device(0).InjectFaults(cuda.NewFaultPlan(o.Seed).DieAtLaunch(2))
	cctx.Device(1).InjectFaults(cuda.NewFaultPlan(o.Seed + 1).DieAtLaunch(3))
	in := make(chan gkgpu.Pair)
	out, err := eng.FilterStream(context.Background(), in, e)
	if err != nil {
		return err
	}
	produced := make(chan struct{})
	go func() {
		defer close(produced)
		for _, p := range pairs {
			in <- p
		}
		close(in)
	}()
	for range out {
	}
	select {
	case <-produced:
	case <-time.After(60 * time.Second):
		return fmt.Errorf("chaos: producer still blocked after terminal stream failure")
	}
	serr := eng.StreamErr()
	if !errors.Is(serr, gkgpu.ErrStreamAborted) || !errors.Is(serr, gkgpu.ErrDeviceLost) {
		return fmt.Errorf("chaos: all-dead stream error lacks taxonomy: %v", serr)
	}
	fmt.Fprintln(o.Out, "\nShape checks: on every faulted row the stream emitted exactly the fault-free")
	fmt.Fprintln(o.Out, "decisions in the fault-free order — injected launch/transfer faults and a")
	fmt.Fprintln(o.Out, "mid-stream device death cost only retries, redispatches and filter-clock time.")
	fmt.Fprintf(o.Out, "With every device dead the stream drained its producer and failed with the\nclassified taxonomy error: %v\n", serr)
	return nil
}
