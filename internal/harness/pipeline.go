package harness

import (
	"context"
	"fmt"

	"repro/internal/cuda"
	"repro/internal/gkgpu"
	"repro/internal/metrics"
	"repro/internal/simdata"
)

func init() {
	register(Experiment{
		ID:       "pipeline",
		PaperRef: "beyond the paper (Section 3.4 overlap, taken end-to-end)",
		Title:    "One-shot vs double-buffered streaming filtration (modelled filter seconds)",
		Run:      runPipeline,
	})
}

// runPipeline compares the paper's one-shot pipeline (encode, transfer and
// kernel charged sequentially per round) against the stream's clock, which
// charges the double-buffered device: the host-encode pool filling one buffer
// set while the kernel consumes the other. Both paths execute the same real
// filtrations in the same rounds; the decisions are checked identical and the
// modelled filter clocks are compared.
func runPipeline(o Options) error {
	profile, err := simdata.Set("set3")
	if err != nil {
		return err
	}
	cases := simdata.Generate(profile, o.Seed, o.scaled(40_000))
	pairs := simdata.ToEnginePairs(cases)
	const e = 5

	fmt.Fprintf(o.Out, "host-encoded, %s, %d pairs, e=%d\n\n", profile.Name, len(pairs), e)
	tb := metrics.NewTable("GPUs", "one-shot ft(s)", "stream ft(s)", "speedup", "stream kt(s)")
	for _, nDev := range []int{1, 2, 4, 8} {
		mk := func() (*gkgpu.Engine, error) {
			// The stream's batch granularity equals the per-device batch so
			// both paths pay the same launch overhead per pair; the clock
			// difference is then the overlap, not the batching policy.
			return gkgpu.NewEngine(gkgpu.Config{
				ReadLen: 100, MaxE: e, Encoding: gkgpu.EncodeOnHost,
				MaxBatchPairs: 2048, StreamBatchPairs: 2048,
			}, cuda.NewUniformContext(nDev, cuda.GTX1080Ti()))
		}
		oneShot, err := mk()
		if err != nil {
			return err
		}
		want, err := oneShot.FilterPairs(pairs, e)
		if err != nil {
			oneShot.Close()
			return err
		}
		osStats := oneShot.Stats()
		oneShot.Close()

		stream, err := mk()
		if err != nil {
			return err
		}
		in := make(chan gkgpu.Pair, len(pairs))
		for _, p := range pairs {
			in <- p
		}
		close(in)
		out, err := stream.FilterStream(context.Background(), in, e)
		if err != nil {
			stream.Close()
			return err
		}
		i := 0
		for r := range out {
			if r != want[i] {
				stream.Close()
				return fmt.Errorf("pipeline: decision drift at pair %d: stream %+v one-shot %+v", i, r, want[i])
			}
			i++
		}
		ssStats := stream.Stats()
		stream.Close()
		if i != len(want) {
			return fmt.Errorf("pipeline: stream returned %d of %d results", i, len(want))
		}
		// Both paths cut the same rounds, so the stream's clock is below the
		// one-shot's round for round, at any scale.
		if nDev >= 2 && ssStats.FilterSeconds >= osStats.FilterSeconds {
			return fmt.Errorf("pipeline: stream filter time %.6fs not below one-shot %.6fs on %d devices",
				ssStats.FilterSeconds, osStats.FilterSeconds, nDev)
		}
		tb.Add(fmt.Sprintf("%d", nDev),
			fmt.Sprintf("%.4f", osStats.FilterSeconds),
			fmt.Sprintf("%.4f", ssStats.FilterSeconds),
			fmt.Sprintf("%.2fx", osStats.FilterSeconds/ssStats.FilterSeconds),
			fmt.Sprintf("%.4f", ssStats.KernelSeconds))
	}
	fmt.Fprint(o.Out, tb.String())
	fmt.Fprintln(o.Out, "\nShape checks: decisions byte-identical on both paths; the double-buffered")
	fmt.Fprintln(o.Out, "stream beats the one-shot filter clock on every multi-device configuration")
	fmt.Fprintln(o.Out, "because the parallel host encode of batch N+1 hides behind the kernel of batch N.")
	return nil
}
