// Quickstart: filter a handful of read/candidate pairs with GateKeeper-GPU
// and see which would have wasted verification work.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	gatekeeper "repro"
)

func main() {
	// One engine per (read length, max threshold) geometry — these mirror
	// the CUDA build's compile-time constants.
	eng, err := gatekeeper.NewEngine(gatekeeper.EngineConfig{
		ReadLen: 100,
		MaxE:    5,
	}, 1, gatekeeper.GTX1080Ti())
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()

	// A dataset profile from the paper's evaluation: mrFAST candidates for
	// 100bp reads at threshold 5 (Set 3).
	profile, err := gatekeeper.Dataset("set3")
	if err != nil {
		log.Fatal(err)
	}
	pairs := gatekeeper.GeneratePairs(profile, 1, 10)

	results, err := eng.FilterPairs(pairs, 5)
	if err != nil {
		log.Fatal(err)
	}

	// The engine stops a filtration as soon as its decision is sealed, so the
	// estimate column is a sealed bound on the filter's windowed error count:
	// an upper bound (<= 5) on an accept, a lower bound (> 5) on a reject.
	fmt.Println("pair  filter   sealed-bound  exact-distance  verdict")
	for i, r := range results {
		exact := gatekeeper.EditDistance(pairs[i].Read, pairs[i].Ref)
		verdict := "correct reject"
		switch {
		case r.Accept && exact <= 5:
			verdict = "true accept"
		case r.Accept && exact > 5:
			verdict = "false accept (verification will discard)"
		case !r.Accept && exact <= 5:
			verdict = "FALSE REJECT (should never happen)"
		}
		fmt.Printf("%4d  %-7v  %12d  %14d  %s\n", i, r.Accept, r.Estimate, exact, verdict)
	}

	st := eng.Stats()
	fmt.Printf("\n%d pairs: %d rejected before alignment (%.0f%% of the DP work saved)\n",
		st.Pairs, st.Rejected, 100*st.RejectionRate())
	fmt.Printf("modelled kernel time %.2fus, end-to-end filter time %.2fus\n",
		st.KernelSeconds*1e6, st.FilterSeconds*1e6)
}
