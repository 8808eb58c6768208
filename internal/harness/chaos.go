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
	// largest grid row: every live device takes a share of every batch, so the
	// doomed device meets its scheduled death in the first handful.
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
			// Eight attempts, not the default three. At the 10 % row an
			// attempt fails one time in four (its launch draw, or one of the
			// three transfer draws of its prefetches), so three in a row has
			// probability ~1 % per share, and after the scheduled death the
			// last survivor of the 2-GPU row runs some 300 shares alone: with
			// the default some seed quarantines it by exhaustion and the row,
			// which asks for exactly one lost device, fails. Eight in a row is
			// 1e-5 per share.
			Fault: gkgpu.FaultPolicy{MaxAttempts: 8, Backoff: 100 * time.Microsecond},
		}, cctx)
		return eng, cctx, err
	}
	// run streams the pairs through eng once and returns the results. The
	// channel holds every pair before the stream starts, so the batches are
	// full and the same on every run.
	run := func(eng *gkgpu.Engine) ([]gkgpu.Result, error) {
		in := make(chan gkgpu.Pair, len(pairs))
		for _, p := range pairs {
			in <- p
		}
		close(in)
		out, err := eng.FilterStream(context.Background(), in, e)
		if err != nil {
			return nil, err
		}
		res := make([]gkgpu.Result, 0, len(pairs))
		for r := range out {
			res = append(res, r)
		}
		return res, eng.StreamErr()
	}
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
		want, err := run(clean)
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
			for di := 0; di < nDev; di++ {
				plan := cuda.NewFaultPlan(o.Seed*1000+int64(di)).
					WithRate(cuda.OpLaunch, rate).
					WithRate(cuda.OpTransfer, rate/2)
				if di == nDev-1 {
					// The last device dies a few batches in: the survivors
					// take its share of that batch and of every later one.
					plan.DieAtLaunch(5)
				}
				cctx.Device(di).InjectFaults(plan)
			}
			got, err := run(eng)
			if err != nil {
				eng.Close()
				return fmt.Errorf("chaos: %d GPUs rate %.2f: stream terminal with a survivor: %w", nDev, rate, err)
			}
			if len(got) != len(want) {
				eng.Close()
				return fmt.Errorf("chaos: %d GPUs rate %.2f: %d results, want %d (loss or duplication)",
					nDev, rate, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					eng.Close()
					return fmt.Errorf("chaos: %d GPUs rate %.2f: result %d drifted or reordered: %+v vs %+v",
						nDev, rate, i, got[i], want[i])
				}
			}
			st := eng.Stats()
			eng.Close()
			if decisions(st) != decisions(cleanStats) {
				return fmt.Errorf("chaos: %d GPUs rate %.2f: decision counters drifted: %v vs %v",
					nDev, rate, decisions(st), decisions(cleanStats))
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
				fmt.Sprintf("%.2fx", st.FilterSeconds/cleanStats.FilterSeconds),
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
