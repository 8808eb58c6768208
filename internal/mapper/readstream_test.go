package mapper

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/cuda"
	"repro/internal/gkgpu"
	"repro/internal/simdata"
)

// feedReads pushes a materialized read set through a channel, the way a
// decoder would.
func feedReads(seqs [][]byte) chan Read {
	ch := make(chan Read, 8)
	go func() {
		defer close(ch)
		for i, s := range seqs {
			ch <- Read{Name: fmt.Sprintf("r%d", i), Seq: s}
		}
	}()
	return ch
}

func feedPairs(pairs []ReadPair) chan PairRead {
	ch := make(chan PairRead, 8)
	go func() {
		defer close(ch)
		for i, p := range pairs {
			ch <- PairRead{Name: fmt.Sprintf("p%d", i), R1: p.R1, R2: p.R2}
		}
	}()
	return ch
}

// sameCounters reports whether two runs tallied the same work.
func sameCounters(a, b Stats) bool {
	return a.Reads == b.Reads && a.CandidatePairs == b.CandidatePairs &&
		a.VerificationPairs == b.VerificationPairs && a.RejectedPairs == b.RejectedPairs &&
		a.UndefinedPairs == b.UndefinedPairs && a.Mappings == b.Mappings && a.MappedReads == b.MappedReads &&
		a.ReadPairs == b.ReadPairs && a.ConcordantPairs == b.ConcordantPairs &&
		a.InsertWindowMin == b.InsertWindowMin && a.InsertWindowMax == b.InsertWindowMax
}

// TestChannelFedMatchesSlabbed is the one-core contract: the channel-fed
// entry points are byte-identical to the slice-fed ones, and all four to a
// single-slab serial run, wherever the slab seams fall — a slab per read, a
// slab size that divides nothing, exactly one slab, a slab larger than the
// input — on either strand setting, every filter and any pool width. Read
// ids must survive the seams and a mate pair must never be split across one
// (MaxReadsPerBatch 1 and 7 would both cut through a pair). Run with -race
// in CI: the collector goroutine hands slabs to the core.
func TestChannelFedMatchesSlabbed(t *testing.T) {
	g := testGenome(80_000)
	seqs := simulatedSeqs(t, g, 36)
	simPairs, err := simdata.SimulatePairs(g, simdata.Illumina100, 18, 400, 40, 23)
	if err != nil {
		t.Fatal(err)
	}
	pairs := make([]ReadPair, len(simPairs))
	for i, p := range simPairs {
		pairs[i] = ReadPair{R1: p.R1.Seq, R2: p.R2.Seq}
	}
	win := InsertWindow{Min: 240, Max: 560}
	n := len(seqs) // also the number of mates in pairs

	filters := []struct {
		name string
		mk   func(t *testing.T) PreFilter
	}{
		{"none", func(t *testing.T) PreFilter { return nil }},
		{"cpu", func(t *testing.T) PreFilter {
			cpu, err := gkgpu.NewCPUEngine(100, 5, 4, gkgpu.Setup1(), cuda.DefaultCostModel())
			if err != nil {
				t.Fatal(err)
			}
			return cpu
		}},
		{"gpu", func(t *testing.T) PreFilter {
			eng, err := gkgpu.NewEngine(gkgpu.Config{ReadLen: 100, MaxE: 5, MaxBatchPairs: 2048},
				cuda.NewUniformContext(2, cuda.GTX1080Ti()))
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(eng.Close)
			return eng
		}},
	}
	for _, f := range filters {
		for _, both := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/both=%v", f.name, both), func(t *testing.T) {
				mk := func(batch, workers int) *Mapper {
					m, err := New(g, Config{ReadLen: 100, MaxE: 5, BothStrands: both, Filter: f.mk(t),
						MaxReadsPerBatch: batch, StreamWorkers: workers})
					if err != nil {
						t.Fatal(err)
					}
					return m
				}
				serial := mk(0, 1)
				wantReads, wantReadSt, err := serial.MapReads(seqs, 5)
				if err != nil {
					t.Fatal(err)
				}
				wantPairs, wantPairSt, err := serial.MapPairs(pairs, 5, win)
				if err != nil {
					t.Fatal(err)
				}
				if len(wantReads) == 0 || len(wantPairs) == 0 {
					t.Fatal("nothing mapped; the comparison would be vacuous")
				}
				for _, batch := range []int{1, 7, n, n + 1} {
					for _, workers := range []int{1, 8} {
						label := fmt.Sprintf("batch=%d workers=%d", batch, workers)
						m := mk(batch, workers)
						for _, run := range []struct {
							name string
							do   func() ([]Mapping, Stats, error)
						}{
							{"MapReads", func() ([]Mapping, Stats, error) { return m.MapReads(seqs, 5) }},
							{"MapReadStream", func() ([]Mapping, Stats, error) { return m.MapReadStream(feedReads(seqs), 5) }},
						} {
							got, st, err := run.do()
							if err != nil {
								t.Fatalf("%s %s: %v", run.name, label, err)
							}
							mustEqualMappings(t, got, wantReads, run.name+" "+label)
							mustBeStrictlyOrdered(t, got, run.name+" "+label)
							if !sameCounters(st, wantReadSt) {
								t.Fatalf("%s %s: counters drifted:\n got %+v\nwant %+v", run.name, label, st, wantReadSt)
							}
						}
						for _, run := range []struct {
							name string
							do   func() ([]PairMapping, Stats, error)
						}{
							{"MapPairs", func() ([]PairMapping, Stats, error) { return m.MapPairs(pairs, 5, win) }},
							{"MapPairStream", func() ([]PairMapping, Stats, error) { return m.MapPairStream(feedPairs(pairs), 5, win) }},
						} {
							got, st, err := run.do()
							if err != nil {
								t.Fatalf("%s %s: %v", run.name, label, err)
							}
							if !slices.Equal(got, wantPairs) {
								t.Fatalf("%s %s: resolved pairs drifted:\n got %+v\nwant %+v", run.name, label, got, wantPairs)
							}
							if !sameCounters(st, wantPairSt) {
								t.Fatalf("%s %s: counters drifted:\n got %+v\nwant %+v", run.name, label, st, wantPairSt)
							}
						}
					}
				}
			})
		}
	}
}

func TestMapReadStreamWrongLengthUnblocksProducer(t *testing.T) {
	// A wrong-length record mid-stream is a terminal error that names the
	// record, and the remaining input must be drained so the producer's
	// sends never block.
	g := testGenome(50_000)
	m, err := New(g, Config{ReadLen: 100, MaxE: 3, StreamWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	reads, err := simdata.SimulateReads(g, simdata.Illumina100, 40, 22)
	if err != nil {
		t.Fatal(err)
	}
	ch := make(chan Read) // unbuffered: a stuck consumer would deadlock this test
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer close(ch)
		for i, r := range reads {
			seq := r.Seq
			if i == 7 {
				seq = seq[:60] // the bad record
			}
			ch <- Read{Name: fmt.Sprintf("r%d", i), Seq: seq}
		}
	}()
	_, _, err = m.MapReadStream(ch, 3)
	if err == nil {
		t.Fatal("wrong-length record accepted")
	}
	if !strings.Contains(err.Error(), "read 7") || !strings.Contains(err.Error(), `"r7"`) {
		t.Fatalf("error does not name the record: %v", err)
	}
	<-done // producer finished all 40 sends despite the error at record 7
}

func TestMapPairStreamEarlyErrorUnblocksProducer(t *testing.T) {
	// Errors raised before the pipeline consumes anything — an invalid
	// insert window, a too-high threshold — must still honor the
	// never-block guarantee for a producer already pushing records.
	g := testGenome(50_000)
	m, err := New(g, Config{ReadLen: 100, MaxE: 3})
	if err != nil {
		t.Fatal(err)
	}
	producer := func() (chan PairRead, chan struct{}) {
		ch := make(chan PairRead) // unbuffered: an unconsumed channel deadlocks this test
		done := make(chan struct{})
		go func() {
			defer close(done)
			defer close(ch)
			for i := 0; i < 50; i++ {
				ch <- PairRead{R1: make([]byte, 100), R2: make([]byte, 100)}
			}
		}()
		return ch, done
	}
	ch, done := producer()
	if _, _, err := m.MapPairStream(ch, 3, InsertWindow{Min: 5000, Max: 400}); err == nil {
		t.Fatal("inverted window accepted")
	}
	<-done
	ch, done = producer()
	if _, _, err := m.MapPairStream(ch, 9, InsertWindow{Min: 200, Max: 400}); err == nil {
		t.Fatal("threshold above MaxE accepted")
	}
	<-done
	rch, rdone := make(chan Read), make(chan struct{})
	go func() {
		defer close(rdone)
		defer close(rch)
		for i := 0; i < 50; i++ {
			rch <- Read{Seq: make([]byte, 100)}
		}
	}()
	if _, _, err := m.MapReadStream(rch, 9); err == nil {
		t.Fatal("threshold above MaxE accepted")
	}
	<-rdone
}

func TestMapPairStreamMatchesMapPairs(t *testing.T) {
	g := testGenome(150_000)
	simPairs, err := simdata.SimulatePairs(g, simdata.Illumina100, 60, 400, 40, 23)
	if err != nil {
		t.Fatal(err)
	}
	pairs := make([]ReadPair, len(simPairs))
	for i, p := range simPairs {
		pairs[i] = ReadPair{R1: p.R1.Seq, R2: p.R2.Seq}
	}
	win := InsertWindow{Min: 240, Max: 560}
	mk := func(workers int) *Mapper {
		eng, err := gkgpu.NewEngine(gkgpu.Config{ReadLen: 100, MaxE: 5, MaxBatchPairs: 2048},
			cuda.NewUniformContext(1, cuda.GTX1080Ti()))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(eng.Close)
		m, err := New(g, Config{ReadLen: 100, MaxE: 5, Filter: eng, StreamWorkers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	want, wantStats, err := mk(0).MapPairs(pairs, 5, win)
	if err != nil {
		t.Fatal(err)
	}
	got, gotStats, err := mk(4).MapPairStream(feedPairs(pairs), 5, win)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("channel-fed resolved %d pairs, slice path %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("pair %d drifted: %+v vs %+v", i, got[i], want[i])
		}
	}
	if gotStats.ReadPairs != wantStats.ReadPairs ||
		gotStats.ConcordantPairs != wantStats.ConcordantPairs ||
		gotStats.Reads != wantStats.Reads ||
		gotStats.InsertWindowMin != wantStats.InsertWindowMin ||
		gotStats.InsertWindowMax != wantStats.InsertWindowMax {
		t.Fatalf("paired counters drifted:\nchannel %+v\nslice   %+v", gotStats, wantStats)
	}
}

func TestEstimateInsertWindowRecoversSimulatedLibrary(t *testing.T) {
	// The estimator must recover the library geometry SimulatePairs drew
	// from — mean 400, std 40 — from nothing but single-end mappings of the
	// interleaved mates.
	g := testGenome(200_000)
	const mean, std = 400, 40
	simPairs, err := simdata.SimulatePairs(g, simdata.Illumina100, 300, mean, std, 24)
	if err != nil {
		t.Fatal(err)
	}
	pairs := make([]ReadPair, len(simPairs))
	for i, p := range simPairs {
		pairs[i] = ReadPair{R1: p.R1.Seq, R2: p.R2.Seq}
	}
	m, err := New(g, Config{ReadLen: 100, MaxE: 5})
	if err != nil {
		t.Fatal(err)
	}
	// Zero window: MapPairs estimates internally and records the estimate.
	resolved, st, err := m.MapPairs(pairs, 5, InsertWindow{})
	if err != nil {
		t.Fatal(err)
	}
	if st.InsertSampledPairs < minInsertSample {
		t.Fatalf("estimate rests on %d pairs", st.InsertSampledPairs)
	}
	if math.Abs(st.InsertMean-mean) > 15 {
		t.Fatalf("estimated mean %.1f, library mean %d", st.InsertMean, mean)
	}
	if st.InsertStd < 20 || st.InsertStd > 60 {
		t.Fatalf("estimated std %.1f, library std %d", st.InsertStd, std)
	}
	if st.InsertWindowMin < 100 || st.InsertWindowMax <= st.InsertWindowMin {
		t.Fatalf("estimated window [%d,%d] malformed", st.InsertWindowMin, st.InsertWindowMax)
	}
	if len(resolved) == 0 {
		t.Fatal("no pairs resolved under the estimated window")
	}

	// Acceptance criterion: the estimated window resolves at least as many
	// concordant pairs as the explicit true-parameter window.
	explicit, _, err := m.MapPairs(pairs, 5, InsertWindow{Min: mean - 4*std, Max: mean + 4*std})
	if err != nil {
		t.Fatal(err)
	}
	if len(resolved) < len(explicit) {
		t.Fatalf("estimated window resolved %d pairs, explicit window %d", len(resolved), len(explicit))
	}

	// Channel-fed path with estimation agrees.
	streamed, sst, err := m.MapPairStream(feedPairs(pairs), 5, InsertWindow{})
	if err != nil {
		t.Fatal(err)
	}
	if len(streamed) != len(resolved) || sst.InsertWindowMin != st.InsertWindowMin ||
		sst.InsertWindowMax != st.InsertWindowMax {
		t.Fatalf("MapPairStream estimate drifted: %d pairs window [%d,%d] vs %d pairs window [%d,%d]",
			len(streamed), sst.InsertWindowMin, sst.InsertWindowMax,
			len(resolved), st.InsertWindowMin, st.InsertWindowMax)
	}
}

func TestEstimateInsertWindowNeedsConfidentPairs(t *testing.T) {
	// Too few confident pairs: no window, ok=false, and the zero-window
	// mapping paths surface a clear error instead of guessing.
	if _, est, ok := EstimateInsertWindow(nil, 100, 0); ok || est.SampledPairs != 0 {
		t.Fatalf("estimate from nothing: ok=%v est=%+v", ok, est)
	}
	// A pair with a multi-mapped mate is not confident.
	mappings := []Mapping{
		{ReadID: 0, Pos: 100}, {ReadID: 0, Pos: 900},
		{ReadID: 1, Pos: 400},
	}
	if _, _, ok := EstimateInsertWindow(mappings, 100, 0); ok {
		t.Fatal("multi-mapped mate treated as confident")
	}
	g := testGenome(50_000)
	m, err := New(g, Config{ReadLen: 100, MaxE: 3})
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = m.MapPairs(nil, 3, InsertWindow{})
	if err == nil || !strings.Contains(err.Error(), "estimate") {
		t.Fatalf("zero-window MapPairs over no data: %v", err)
	}
}

func TestEstimateInsertWindowTrimsOutliers(t *testing.T) {
	// A handful of wild fragments (unique mis-mappings) must not blow the
	// window open: synthetic mappings with 40 tight pairs at insert 400 and
	// 2 at 30,000.
	var mappings []Mapping
	id := 0
	add := func(pos1, pos2 int) {
		mappings = append(mappings,
			Mapping{ReadID: 2 * id, Pos: pos1},
			Mapping{ReadID: 2*id + 1, Pos: pos2})
		id++
	}
	for i := 0; i < 40; i++ {
		start := 1000 + 37*i
		add(start, start+300+i%7) // inserts 400..406
	}
	add(500, 30_400)
	add(600, 30_500)
	win, est, ok := EstimateInsertWindow(mappings, 100, 0)
	if !ok {
		t.Fatalf("estimate failed: %+v", est)
	}
	if est.SampledPairs != 40 {
		t.Fatalf("outliers kept: estimate over %d pairs", est.SampledPairs)
	}
	if win.Max > 1000 {
		t.Fatalf("window [%d,%d] blown open by outliers (mean %.1f std %.1f)",
			win.Min, win.Max, est.Mean, est.Std)
	}
	if win.Min > 400 || win.Max < 406 {
		t.Fatalf("window [%d,%d] does not cover the library", win.Min, win.Max)
	}
}
