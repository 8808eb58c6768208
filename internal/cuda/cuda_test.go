package cuda

import (
	"errors"
	"math"
	"sync/atomic"
	"testing"
)

func TestDeviceCatalog(t *testing.T) {
	p := GTX1080Ti()
	if p.Cores() != 3584 {
		t.Errorf("GTX 1080 Ti cores = %d, want 3584", p.Cores())
	}
	if !p.SupportsPrefetch() {
		t.Error("Pascal cc 6.1 must support prefetch")
	}
	k := TeslaK20X()
	if k.Cores() != 2688 {
		t.Errorf("K20X cores = %d, want 2688", k.Cores())
	}
	if k.SupportsPrefetch() {
		t.Error("Kepler cc 3.5 must not support prefetch")
	}
	if p.PCIeBandwidth() <= k.PCIeBandwidth() {
		t.Error("PCIe gen3 must outrun gen2")
	}
	if p.String() == "" || k.String() == "" {
		t.Error("empty device descriptions")
	}
}

func TestContextConstruction(t *testing.T) {
	ctx := NewUniformContext(8, GTX1080Ti())
	if ctx.NumDevices() != 8 {
		t.Fatalf("NumDevices = %d", ctx.NumDevices())
	}
	if ctx.Device(3).ID != 3 {
		t.Fatalf("device 3 has ID %d", ctx.Device(3).ID)
	}
	if ctx.Device(0).FreeMem() != GTX1080Ti().GlobalMemBytes {
		t.Fatal("fresh device should have all memory free")
	}
}

func TestUnifiedMemoryAllocation(t *testing.T) {
	d := NewDevice(0, GTX1080Ti())
	buf, err := d.AllocUnified(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 1<<20 {
		t.Fatalf("Len = %d", buf.Len())
	}
	if d.FreeMem() != GTX1080Ti().GlobalMemBytes-1<<20 {
		t.Fatal("allocation did not charge global memory")
	}
	buf.Free()
	if d.FreeMem() != GTX1080Ti().GlobalMemBytes {
		t.Fatal("free did not release global memory")
	}
	if _, err := d.AllocUnified(0); err == nil {
		t.Fatal("zero-size allocation accepted")
	}
	if _, err := d.AllocUnified(int(d.FreeMem() + 1)); err == nil {
		t.Fatal("over-allocation accepted")
	}
}

func TestUnifiedMemoryDoubleFree(t *testing.T) {
	d := NewDevice(0, GTX1080Ti())
	buf, err := d.AllocUnified(64 << 10)
	if err != nil {
		t.Fatal(err)
	}
	buf.Free()
	free := d.FreeMem()
	buf.Free() // must be a no-op, not a double release
	if d.FreeMem() != free {
		t.Fatal("double Free released memory twice")
	}
}

func TestMapUnifiedSharesStorage(t *testing.T) {
	// One allocation mapped by two devices: each reserves its bytes, both see
	// the same words, and freeing one mapping releases that device only.
	words := make([]uint64, 1<<10)
	d0, d1 := NewDevice(0, GTX1080Ti()), NewDevice(1, TeslaK20X())
	free0, free1 := d0.FreeMem(), d1.FreeMem()
	b0, err := d0.MapUnified(words)
	if err != nil {
		t.Fatal(err)
	}
	b1, err := d1.MapUnified(words)
	if err != nil {
		t.Fatal(err)
	}
	if b0.Len() != 8<<10 || d0.FreeMem() != free0-8<<10 || d1.FreeMem() != free1-8<<10 {
		t.Fatalf("mapping %d bytes: free fell by %d and %d", b0.Len(), free0-d0.FreeMem(), free1-d1.FreeMem())
	}
	b0.Words()[7] = 42
	if b1.Words()[7] != 42 || words[7] != 42 || b1.Bytes()[7*8] != 42 {
		t.Fatal("mappings of one allocation do not share its storage")
	}
	b0.Free()
	if d0.FreeMem() != free0 || d1.FreeMem() != free1-8<<10 {
		t.Fatal("freeing one mapping must release that device's reservation only")
	}
	if _, err := d0.MapUnified(nil); err == nil {
		t.Fatal("empty mapping accepted")
	}
	d0.InjectFaults(NewFaultPlan(1).FailNth(OpAlloc, 1))
	if _, err := d0.MapUnified(words); !errors.Is(err, ErrInjectedAlloc) || d0.FreeMem() != free0 {
		t.Fatalf("mapping under an allocation fault: %v, free %d of %d", err, d0.FreeMem(), free0)
	}
}

func TestLaunchExecutesEveryThread(t *testing.T) {
	d := NewDevice(0, GTX1080Ti())
	const n = 10_000
	var hits [n]int32
	lc := LaunchConfig{Blocks: (n + 1023) / 1024, ThreadsPerBlock: 1024, RegsPerThread: 48}
	var badWorker atomic.Bool
	err := d.Launch(lc, n, func(worker, lo, hi int) {
		if worker < 0 || worker >= MaxWorkers(n) {
			badWorker.Store(true)
		}
		for tid := lo; tid < hi; tid++ {
			atomic.AddInt32(&hits[tid], 1)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if badWorker.Load() {
		t.Fatalf("a worker index fell outside [0,%d)", MaxWorkers(n))
	}
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("thread %d executed %d times", i, h)
		}
	}
}

func TestLaunchValidation(t *testing.T) {
	d := NewDevice(0, GTX1080Ti())
	noop := func(int, int, int) {}
	if err := d.Launch(LaunchConfig{Blocks: 1, ThreadsPerBlock: 2048}, 10, KernelFunc(noop)); err == nil {
		t.Fatal("block size beyond device limit accepted")
	}
	if err := d.Launch(LaunchConfig{Blocks: 1, ThreadsPerBlock: 32}, 64, KernelFunc(noop)); err == nil {
		t.Fatal("undersized geometry accepted")
	}
	if err := d.Launch(LaunchConfig{Blocks: 1, ThreadsPerBlock: 32}, 0, KernelFunc(noop)); err == nil {
		t.Fatal("zero threads accepted")
	}
	if err := d.Launch(LaunchConfig{Blocks: 0, ThreadsPerBlock: 32}, 1, KernelFunc(noop)); err == nil {
		t.Fatal("zero blocks accepted")
	}
}

func TestMaxWorkers(t *testing.T) {
	if MaxWorkers(0) != 1 {
		t.Fatal("MaxWorkers(0) must be at least 1")
	}
	if MaxWorkers(1) != 1 {
		t.Fatal("MaxWorkers(1) = 1 expected")
	}
	if MaxWorkers(1<<20) < 1 {
		t.Fatal("MaxWorkers must be positive")
	}
}

func TestOccupancyPaperNumbers(t *testing.T) {
	spec := GTX1080Ti()
	// 48 registers, 1024-thread blocks: 1 block/SM, 32 warps -> 50%.
	occ := TheoreticalOccupancy(spec, LaunchConfig{Blocks: 1, ThreadsPerBlock: 1024, RegsPerThread: 48})
	if occ.Theoretical != 0.5 {
		t.Errorf("48 regs x 1024 threads: occupancy %.2f, want 0.50", occ.Theoretical)
	}
	if occ.LimitedBy != "registers" {
		t.Errorf("limited by %s, want registers", occ.LimitedBy)
	}
	// 48 registers, 256-thread blocks: 5 blocks/SM, 40 warps -> 62.5% ("63%").
	occ = TheoreticalOccupancy(spec, LaunchConfig{Blocks: 1, ThreadsPerBlock: 256, RegsPerThread: 48})
	if math.Abs(occ.Theoretical-0.625) > 1e-9 {
		t.Errorf("48 regs x 256 threads: occupancy %.3f, want 0.625", occ.Theoretical)
	}
	// 32 registers, 1024-thread blocks: threads limit -> 100%.
	occ = TheoreticalOccupancy(spec, LaunchConfig{Blocks: 1, ThreadsPerBlock: 1024, RegsPerThread: 32})
	if occ.Theoretical != 1.0 {
		t.Errorf("32 regs: occupancy %.2f, want 1.00", occ.Theoretical)
	}
	// Degenerate config.
	occ = TheoreticalOccupancy(spec, LaunchConfig{})
	if occ.Theoretical != 0 {
		t.Error("invalid config must yield zero occupancy")
	}
}

func TestAchievedOccupancyNearTheoretical(t *testing.T) {
	lc := LaunchConfig{Blocks: 1, ThreadsPerBlock: 1024, RegsPerThread: 48}
	for _, spec := range []DeviceSpec{GTX1080Ti(), TeslaK20X()} {
		for _, hostEnc := range []bool{false, true} {
			for _, L := range []int{100, 250} {
				got := AchievedOccupancy(spec, lc, hostEnc, L)
				if got < 0.43 || got >= 0.50 {
					t.Errorf("%s hostEnc=%v L=%d: achieved %.3f outside paper band [0.44, 0.50)",
						spec.Name, hostEnc, L, got)
				}
			}
		}
	}
	// Ordering: device-encoded >= host-encoded (paper Section 5.4.1).
	d := AchievedOccupancy(GTX1080Ti(), lc, false, 100)
	h := AchievedOccupancy(GTX1080Ti(), lc, true, 100)
	if d <= h {
		t.Errorf("device-encoded occupancy %.3f should exceed host-encoded %.3f", d, h)
	}
}

func TestWarpAndSMEfficiency(t *testing.T) {
	if e := WarpExecutionEfficiency(GTX1080Ti(), false, 250); e < 0.98 {
		t.Errorf("250bp warp efficiency %.3f, paper says >98%%", e)
	}
	e100 := WarpExecutionEfficiency(GTX1080Ti(), false, 100)
	if e100 < 0.70 || e100 > 0.85 {
		t.Errorf("100bp warp efficiency %.3f outside paper band", e100)
	}
	if WarpExecutionEfficiency(GTX1080Ti(), true, 100) >= e100 {
		t.Error("host-encoded warp efficiency should be lower at 100bp")
	}
	for _, spec := range []DeviceSpec{GTX1080Ti(), TeslaK20X()} {
		if SMEfficiency(spec) < 0.95 {
			t.Errorf("%s SM efficiency below the paper's 95%% floor", spec.Name)
		}
	}
}

func TestCostModelShapes(t *testing.T) {
	m := DefaultCostModel()
	pascal := GTX1080Ti()
	kepler := TeslaK20X()
	base := Workload{Pairs: 30_000_000, ReadLen: 100, E: 2, DeviceEncoded: true}

	// Host-encoded kernels are faster (no in-kernel encoding)...
	hostEnc := base
	hostEnc.DeviceEncoded = false
	if m.KernelSeconds(pascal, hostEnc) >= m.KernelSeconds(pascal, base) {
		t.Error("host-encoded kernel should be faster than device-encoded")
	}
	// ...but host-encoded end-to-end filter time is slower (CPU packing).
	if m.FilterSeconds(pascal, hostEnc, 1.0) <= m.FilterSeconds(pascal, base, 1.0) {
		t.Error("host-encoded filter time should exceed device-encoded (Fig 6 crossover)")
	}

	// Kernel time grows with e; filter time stays nearly constant
	// (Table S.16: <1% change across e=0..10 for the GPU).
	e10 := base
	e10.E = 10
	if m.KernelSeconds(pascal, e10) <= m.KernelSeconds(pascal, base) {
		t.Error("kernel time must grow with error threshold")
	}
	ftRatio := m.FilterSeconds(pascal, e10, 1.0) / m.FilterSeconds(pascal, base, 1.0)
	if ftRatio > 1.25 {
		t.Errorf("GPU filter time grew %.2fx from e=2 to e=10; paper shows near-constant", ftRatio)
	}
	// CPU filter time grows almost linearly in e.
	cpuRatio := m.CPUFilterSeconds(e10, 12, 1.0) / m.CPUFilterSeconds(base, 12, 1.0)
	if cpuRatio < 1.8 {
		t.Errorf("CPU filter time grew only %.2fx from e=2 to e=10; paper shows ~linear growth", cpuRatio)
	}

	// Longer reads filter slower end to end (Figure 7).
	long := base
	long.ReadLen = 250
	if m.FilterSeconds(pascal, long, 1.0) <= m.FilterSeconds(pascal, base, 1.0) {
		t.Error("250bp filter time should exceed 100bp")
	}

	// Setup 2 (Kepler, no prefetch, PCIe 2) is slower than Setup 1.
	if m.FilterSeconds(kepler, base, 1.2) <= m.FilterSeconds(pascal, base, 1.0) {
		t.Error("Kepler setup should be slower than Pascal setup")
	}
	if m.KernelSeconds(kepler, base) <= m.KernelSeconds(pascal, base) {
		t.Error("Kepler kernel should be slower than Pascal kernel")
	}
}

func TestCostModelCalibrationAgainstPaper(t *testing.T) {
	// Spot-check modelled times against Sup. Table S.13 (Setup 1, 30M 100bp
	// pairs): allow loose tolerance — we reproduce shape, not exact hours.
	m := DefaultCostModel()
	pascal := GTX1080Ti()
	check := func(name string, got, paper, tol float64) {
		t.Helper()
		if got < paper/tol || got > paper*tol {
			t.Errorf("%s: modelled %.2fs vs paper %.2fs (tolerance %.1fx)", name, got, paper, tol)
		}
	}
	devE2 := Workload{Pairs: 30_000_000, ReadLen: 100, E: 2, DeviceEncoded: true}
	hostE2 := Workload{Pairs: 30_000_000, ReadLen: 100, E: 2, DeviceEncoded: false}
	devE5 := devE2
	devE5.E = 5
	hostE5 := hostE2
	hostE5.E = 5
	check("kt dev e=2", m.KernelSeconds(pascal, devE2), 0.29, 2.0)
	check("kt host e=2", m.KernelSeconds(pascal, hostE2), 0.15, 2.0)
	check("kt dev e=5", m.KernelSeconds(pascal, devE5), 0.48, 2.0)
	check("kt host e=5", m.KernelSeconds(pascal, hostE5), 0.29, 2.0)
	check("ft dev e=2", m.FilterSeconds(pascal, devE2, 1.0), 9.40, 1.6)
	check("ft host e=2", m.FilterSeconds(pascal, hostE2, 1.0), 24.36, 1.6)
	// CPU single core and 12 cores (Table S.13).
	check("cpu kt 1c e=2", m.CPUKernelSeconds(devE2, 1, 1.0), 102.52, 1.5)
	check("cpu kt 12c e=2", m.CPUKernelSeconds(devE2, 12, 1.0), 10.04, 1.5)
	check("cpu kt 1c e=5", m.CPUKernelSeconds(devE5, 1, 1.0), 194.13, 1.5)
}

func TestMultiGPUScaling(t *testing.T) {
	m := DefaultCostModel()
	pascal := GTX1080Ti()
	w := Workload{Pairs: 30_000_000, ReadLen: 100, E: 2, DeviceEncoded: false}
	t1 := m.MultiGPUKernelSeconds(pascal, w, 1)
	t8 := m.MultiGPUKernelSeconds(pascal, w, 8)
	speedup := t1 / t8
	if speedup < 5.0 || speedup > 8.0 {
		t.Errorf("8-GPU host-encoded kernel speedup %.1fx outside the paper's ~6.7x band", speedup)
	}
	wd := w
	wd.DeviceEncoded = true
	sd := m.MultiGPUKernelSeconds(pascal, wd, 1) / m.MultiGPUKernelSeconds(pascal, wd, 8)
	if sd >= speedup {
		t.Errorf("device-encoded multi-GPU kernel scaling (%.1fx) should trail host-encoded (%.1fx)", sd, speedup)
	}
	ft1 := m.MultiGPUFilterSeconds(pascal, w, 1, 1.0)
	ft8 := m.MultiGPUFilterSeconds(pascal, w, 8, 1.0)
	if ft1/ft8 < 4.0 {
		t.Errorf("8-GPU filter speedup %.1fx too low", ft1/ft8)
	}
}

func TestPowerTracePaperBands(t *testing.T) {
	m := DefaultCostModel()
	for _, tc := range []struct {
		spec                 DeviceSpec
		readLen              int
		deviceEnc            bool
		wantAvgLo, wantAvgHi float64
	}{
		{GTX1080Ti(), 100, true, 45, 80},  // paper: 61.9 W
		{GTX1080Ti(), 250, true, 70, 110}, // paper: 89.0 W
		{GTX1080Ti(), 250, false, 60, 95}, // paper: 77.1 W
		{TeslaK20X(), 100, true, 60, 95},  // paper: 77.7 W
		{TeslaK20X(), 250, true, 70, 100}, // paper: 85.5 W
	} {
		d := NewDevice(0, tc.spec)
		w := Workload{Pairs: 1_000_000, ReadLen: tc.readLen, E: 4, DeviceEncoded: tc.deviceEnc}
		util := m.Utilization(tc.spec, w)
		for i := 0; i < 5; i++ {
			d.RecordKernel(m.KernelSeconds(tc.spec, w), util)
		}
		p := d.Power()
		if p.AvgWatts() < tc.wantAvgLo || p.AvgWatts() > tc.wantAvgHi {
			t.Errorf("%s L=%d dev=%v: avg %.1f W outside [%v, %v]",
				tc.spec.Name, tc.readLen, tc.deviceEnc, p.AvgWatts(), tc.wantAvgLo, tc.wantAvgHi)
		}
		if p.MinWatts() > p.AvgWatts() || p.AvgWatts() > p.MaxWatts() {
			t.Errorf("power ordering violated: min=%.1f avg=%.1f max=%.1f",
				p.MinWatts(), p.AvgWatts(), p.MaxWatts())
		}
		if p.Samples() != 5 {
			t.Errorf("samples = %d", p.Samples())
		}
	}
	// Longer reads draw more power on average (Section 5.4.2).
	d100 := NewDevice(0, GTX1080Ti())
	d250 := NewDevice(1, GTX1080Ti())
	w100 := Workload{Pairs: 1e6, ReadLen: 100, E: 4, DeviceEncoded: true}
	w250 := Workload{Pairs: 1e6, ReadLen: 250, E: 10, DeviceEncoded: true}
	d100.RecordKernel(1, m.Utilization(GTX1080Ti(), w100))
	d250.RecordKernel(1, m.Utilization(GTX1080Ti(), w250))
	if d250.Power().AvgWatts() <= d100.Power().AvgWatts() {
		t.Error("250bp should draw more average power than 100bp")
	}
}

func TestKernelTelemetry(t *testing.T) {
	d := NewDevice(0, GTX1080Ti())
	d.RecordKernel(0.5, 0.3)
	d.RecordKernel(0.25, 0.3)
	if got := d.TotalKernelSeconds(); math.Abs(got-0.75) > 1e-12 {
		t.Fatalf("TotalKernelSeconds = %v", got)
	}
	if d.KernelLaunches() != 2 {
		t.Fatalf("KernelLaunches = %d", d.KernelLaunches())
	}
}

func TestWorkloadHelpers(t *testing.T) {
	w := Workload{Pairs: 10, ReadLen: 100, E: 5, DeviceEncoded: true}
	if w.Words() != 7 {
		t.Fatalf("Words = %d", w.Words())
	}
	if w.Masks() != 11 {
		t.Fatalf("Masks = %d", w.Masks())
	}
	if w.TransferBytes() != 208 {
		t.Fatalf("device-encoded TransferBytes = %d", w.TransferBytes())
	}
	w.DeviceEncoded = false
	if w.TransferBytes() != 64 {
		t.Fatalf("host-encoded TransferBytes = %d", w.TransferBytes())
	}
}
