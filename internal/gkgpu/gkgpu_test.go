package gkgpu

import (
	"math/rand"
	"testing"

	"repro/internal/align"
	"repro/internal/cuda"
	"repro/internal/dna"
	"repro/internal/filter"
)

func makePairs(rng *rand.Rand, n, L, e int) ([]Pair, []bool) {
	pairs := make([]Pair, n)
	within := make([]bool, n)
	for i := range pairs {
		read := dna.RandomSeq(rng, L)
		var ref []byte
		switch i % 3 {
		case 0: // similar pair within threshold
			ref = dna.MutateSubstitutions(rng, read, rng.Intn(e+1))
		case 1: // borderline
			ref = dna.MutateSubstitutions(rng, read, e+1+rng.Intn(5))
		default: // dissimilar
			ref = dna.RandomSeq(rng, L)
		}
		pairs[i] = Pair{Read: read, Ref: ref}
		within[i] = align.Distance(read, ref) <= e
	}
	return pairs, within
}

func newTestEngine(t *testing.T, encoding EncodingActor, nDev int) *Engine {
	t.Helper()
	cfg := Config{ReadLen: 100, MaxE: 5, Encoding: encoding, MaxBatchPairs: 256}
	ctx := cuda.NewUniformContext(nDev, cuda.GTX1080Ti())
	e, err := NewEngine(cfg, ctx)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	return e
}

func TestEngineMatchesKernelDecisions(t *testing.T) {
	// Whatever the batching, device count, or encoding actor, the engine
	// must produce exactly the decisions of a plain sequential kernel.
	rng := rand.New(rand.NewSource(1))
	pairs, _ := makePairs(rng, 700, 100, 5)
	kern := filter.NewKernel(filter.ModeGPU, 100, 5)
	want := make([]Result, len(pairs))
	for i, p := range pairs {
		d := kern.Filter(p.Read, p.Ref, 5)
		want[i] = Result{Accept: d.Accept, Undefined: d.Undefined, Estimate: uint16(d.Estimate)}
	}
	for _, enc := range []EncodingActor{EncodeOnDevice, EncodeOnHost} {
		for _, nDev := range []int{1, 3} {
			eng := newTestEngine(t, enc, nDev)
			got, err := eng.FilterPairs(pairs, 5)
			if err != nil {
				t.Fatal(err)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("enc=%v nDev=%d pair %d: got %+v want %+v", enc, nDev, i, got[i], want[i])
				}
			}
		}
	}
}

func TestEngineNoFalseRejects(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	pairs, within := makePairs(rng, 600, 100, 5)
	eng := newTestEngine(t, EncodeOnDevice, 2)
	got, err := eng.FilterPairs(pairs, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if within[i] && !got[i].Accept {
			t.Fatalf("false reject at pair %d", i)
		}
	}
}

func TestEngineUndefinedPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	read := dna.RandomSeq(rng, 100)
	refN := append([]byte(nil), read...)
	refN[10] = 'N'
	pairs := []Pair{{Read: read, Ref: refN}, {Read: read, Ref: dna.RandomSeq(rng, 100)}}
	for _, enc := range []EncodingActor{EncodeOnDevice, EncodeOnHost} {
		eng := newTestEngine(t, enc, 1)
		got, err := eng.FilterPairs(pairs, 5)
		if err != nil {
			t.Fatal(err)
		}
		if !got[0].Accept || !got[0].Undefined {
			t.Fatalf("enc=%v: undefined pair not passed through: %+v", enc, got[0])
		}
		if got[1].Undefined {
			t.Fatalf("enc=%v: defined pair marked undefined", enc)
		}
		st := eng.Stats()
		if st.Undefined != 1 {
			t.Fatalf("enc=%v: stats.Undefined = %d", enc, st.Undefined)
		}
	}
}

func TestEngineStatsAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	pairs, _ := makePairs(rng, 500, 100, 5)
	eng := newTestEngine(t, EncodeOnDevice, 1)
	res, err := eng.FilterPairs(pairs, 5)
	if err != nil {
		t.Fatal(err)
	}
	st := eng.Stats()
	if st.Pairs != 500 {
		t.Fatalf("Pairs = %d", st.Pairs)
	}
	if st.Accepted+st.Rejected != 500 {
		t.Fatalf("accept+reject = %d", st.Accepted+st.Rejected)
	}
	var accepts int64
	for _, r := range res {
		if r.Accept {
			accepts++
		}
	}
	if accepts != st.Accepted {
		t.Fatalf("stats accepted %d, results accepted %d", st.Accepted, accepts)
	}
	// MaxBatchPairs=256 forces two rounds of batching.
	if st.Batches != 2 {
		t.Fatalf("Batches = %d, want 2", st.Batches)
	}
	if st.KernelSeconds <= 0 || st.FilterSeconds <= st.KernelSeconds {
		t.Fatalf("modelled times implausible: kt=%v ft=%v", st.KernelSeconds, st.FilterSeconds)
	}
	if st.WallSeconds <= 0 {
		t.Fatal("wall time not recorded")
	}
	if st.RejectionRate() <= 0 || st.RejectionRate() >= 1 {
		t.Fatalf("rejection rate %v implausible for the mixed dataset", st.RejectionRate())
	}
	eng.ResetStats()
	if eng.Stats().Pairs != 0 {
		t.Fatal("ResetStats did not clear")
	}
}

func TestEngineGeometryValidation(t *testing.T) {
	ctx := cuda.NewUniformContext(1, cuda.GTX1080Ti())
	if _, err := NewEngine(Config{ReadLen: 0, MaxE: 1}, ctx); err == nil {
		t.Fatal("zero read length accepted")
	}
	if _, err := NewEngine(Config{ReadLen: 100, MaxE: 200}, ctx); err == nil {
		t.Fatal("e > L accepted")
	}
	if _, err := NewEngine(Config{ReadLen: 100, MaxE: 5}, cuda.NewContext()); err == nil {
		t.Fatal("empty context accepted")
	}
	if _, err := NewEngine(Config{ReadLen: 100, MaxE: 5}, cuda.NewUniformContext(-1, cuda.GTX1080Ti())); err == nil {
		t.Fatal("negative device count accepted")
	}
	eng := newTestEngine(t, EncodeOnDevice, 1)
	if _, err := eng.FilterPairs([]Pair{{Read: make([]byte, 50), Ref: make([]byte, 100)}}, 5); err == nil {
		t.Fatal("mismatched pair length accepted")
	}
	if _, err := eng.FilterPairs(nil, 6); err == nil {
		t.Fatal("threshold above compiled MaxE accepted")
	}
}

func TestEngineEmptyInput(t *testing.T) {
	eng := newTestEngine(t, EncodeOnDevice, 1)
	res, err := eng.FilterPairs(nil, 5)
	if err != nil || len(res) != 0 {
		t.Fatalf("empty input: %v, %d results", err, len(res))
	}
}

func TestSystemConfiguration(t *testing.T) {
	sys := Configure(cuda.GTX1080Ti(), 100, 5, EncodeOnDevice, 1024, 48, 0)
	if sys.BatchPairs <= 0 {
		t.Fatal("batch must be positive")
	}
	if sys.Launch.ThreadsPerBlock != 1024 || sys.Launch.RegsPerThread != 48 {
		t.Fatalf("launch geometry %+v", sys.Launch)
	}
	if sys.Launch.Blocks*1024 < sys.BatchPairs {
		t.Fatal("geometry cannot cover the batch")
	}
	// Device-encoded buffers are larger per pair than host-encoded ones.
	sysHost := Configure(cuda.GTX1080Ti(), 100, 5, EncodeOnHost, 1024, 48, 0)
	if sysHost.BufferBytesPerPair >= sys.BufferBytesPerPair {
		t.Fatalf("host-encoded per-pair bytes %d should be below device-encoded %d",
			sysHost.BufferBytesPerPair, sys.BufferBytesPerPair)
	}
	// So the same memory sustains a larger host-encoded batch.
	if sysHost.BatchPairs <= sys.BatchPairs {
		t.Fatal("host-encoded batch should be larger")
	}
	// Kepler: smaller memory, smaller batch.
	sysK := Configure(cuda.TeslaK20X(), 100, 5, EncodeOnDevice, 1024, 48, 0)
	if sysK.BatchPairs >= sys.BatchPairs {
		t.Fatal("K20X (5 GB) batch should be below 1080 Ti (10 GB) batch")
	}
	// Cap applies.
	sysCap := Configure(cuda.GTX1080Ti(), 100, 5, EncodeOnDevice, 1024, 48, 1000)
	if sysCap.BatchPairs != 1000 {
		t.Fatalf("cap ignored: %d", sysCap.BatchPairs)
	}
}

func TestEngineModelledTimeShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pairs, _ := makePairs(rng, 400, 100, 5)

	run := func(enc EncodingActor) Stats {
		eng := newTestEngine(t, enc, 1)
		if _, err := eng.FilterPairs(pairs, 5); err != nil {
			t.Fatal(err)
		}
		return eng.Stats()
	}
	dev := run(EncodeOnDevice)
	host := run(EncodeOnHost)
	// Figure 6: host-encoded kernel faster, device-encoded filter faster.
	if host.KernelSeconds >= dev.KernelSeconds {
		t.Errorf("host-encoded kernel %.3g should beat device-encoded %.3g",
			host.KernelSeconds, dev.KernelSeconds)
	}
	if host.FilterSeconds <= dev.FilterSeconds {
		t.Errorf("device-encoded filter %.3g should beat host-encoded %.3g",
			dev.FilterSeconds, host.FilterSeconds)
	}
}

func TestEngineMultiGPUKernelScaling(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	pairs, _ := makePairs(rng, 1024, 100, 5)
	kt := map[int]float64{}
	// Zero the per-launch overhead so the small test workload isolates the
	// multi-GPU split (at paper scale compute dominates the launch cost).
	model := cuda.DefaultCostModel()
	model.PerLaunchSeconds = 0
	model.PerBatchHostSeconds = 0
	for _, n := range []int{1, 4} {
		cfg := Config{ReadLen: 100, MaxE: 5, Encoding: EncodeOnHost, MaxBatchPairs: 2048, Model: model}
		eng, err := NewEngine(cfg, cuda.NewUniformContext(n, cuda.GTX1080Ti()))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.FilterPairs(pairs, 5); err != nil {
			t.Fatal(err)
		}
		kt[n] = eng.Stats().KernelSeconds
		eng.Close()
	}
	speedup := kt[1] / kt[4]
	if speedup < 2.5 || speedup > 4.0 {
		t.Errorf("4-GPU kernel speedup %.2fx outside the expected near-linear band", speedup)
	}
}

func TestSetup2SlowerThanSetup1Modelled(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pairs, _ := makePairs(rng, 300, 100, 5)

	pascal := newTestEngine(t, EncodeOnDevice, 1)
	if _, err := pascal.FilterPairs(pairs, 5); err != nil {
		t.Fatal(err)
	}

	cfg := Config{ReadLen: 100, MaxE: 5, Encoding: EncodeOnDevice, Setup: Setup2(), MaxBatchPairs: 256}
	kepler, err := NewEngine(cfg, cuda.NewUniformContext(1, cuda.TeslaK20X()))
	if err != nil {
		t.Fatal(err)
	}
	defer kepler.Close()
	if _, err := kepler.FilterPairs(pairs, 5); err != nil {
		t.Fatal(err)
	}
	// Setup 2 — no prefetch, on-demand paging, PCIe 2 — must be slower end to
	// end on the modelled clock (Section 5.2).
	if kepler.Stats().FilterSeconds <= pascal.Stats().FilterSeconds {
		t.Error("Setup 2 filter time should exceed Setup 1")
	}
}

func TestCPUEngineDecisionsMatchGPU(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	pairs, _ := makePairs(rng, 300, 100, 5)
	gpu := newTestEngine(t, EncodeOnDevice, 1)
	gres, err := gpu.FilterPairs(pairs, 5)
	if err != nil {
		t.Fatal(err)
	}
	cpu, err := NewCPUEngine(100, 5, 12, Setup1(), cuda.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	cres, err := cpu.FilterPairs(pairs, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := range gres {
		if gres[i] != cres[i] {
			t.Fatalf("pair %d: gpu %+v cpu %+v", i, gres[i], cres[i])
		}
	}
}

func TestCPUEngineTimeGrowsWithThreshold(t *testing.T) {
	cpu, err := NewCPUEngine(100, 10, 12, Setup1(), cuda.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	pairs, _ := makePairs(rng, 200, 100, 10)
	if _, err := cpu.FilterPairs(pairs, 2); err != nil {
		t.Fatal(err)
	}
	t2 := cpu.Stats().KernelSeconds
	cpu.ResetStats()
	if _, err := cpu.FilterPairs(pairs, 10); err != nil {
		t.Fatal(err)
	}
	t10 := cpu.Stats().KernelSeconds
	if t10 < 1.5*t2 {
		t.Errorf("CPU kernel time should grow ~linearly with e: t(10)=%.3g vs t(2)=%.3g", t10, t2)
	}
}

func TestCPUEngineValidation(t *testing.T) {
	if _, err := NewCPUEngine(0, 5, 12, Setup1(), cuda.DefaultCostModel()); err == nil {
		t.Fatal("zero read length accepted")
	}
	if _, err := NewCPUEngine(100, 5, 0, Setup1(), cuda.DefaultCostModel()); err == nil {
		t.Fatal("zero cores accepted")
	}
	cpu, _ := NewCPUEngine(100, 5, 4, Setup{}, cuda.CostModel{})
	if _, err := cpu.FilterPairs(nil, 7); err == nil {
		t.Fatal("threshold beyond maxE accepted")
	}
}

func TestEncodingActorString(t *testing.T) {
	if EncodeOnDevice.String() != "device" || EncodeOnHost.String() != "host" {
		t.Fatal("EncodingActor.String broken")
	}
}

func TestSetups(t *testing.T) {
	s1, s2 := Setup1(), Setup2()
	if s1.Name == s2.Name {
		t.Fatal("setups must differ")
	}
	if s2.HostFactor <= s1.HostFactor {
		t.Fatal("Setup 2 host should be slower")
	}
}
