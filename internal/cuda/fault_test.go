package cuda

import (
	"errors"
	"math"
	"testing"
)

func launchN(t *testing.T, d *Device, n int) []error {
	t.Helper()
	lc := LaunchConfig{Blocks: 1, ThreadsPerBlock: 32}
	errs := make([]error, n)
	for i := range errs {
		errs[i] = d.Launch(lc, 32, func(worker, lo, hi int) {})
	}
	return errs
}

func TestFaultPlanDeterministic(t *testing.T) {
	schedule := func(seed int64) []bool {
		d := NewDevice(0, GTX1080Ti())
		d.InjectFaults(NewFaultPlan(seed).WithRate(OpLaunch, 0.3))
		fails := make([]bool, 200)
		for i, err := range launchN(t, d, 200) {
			fails[i] = err != nil
		}
		return fails
	}
	a, b := schedule(42), schedule(42)
	nFail := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at launch %d", i)
		}
		if a[i] {
			nFail++
		}
	}
	if nFail == 0 || nFail == len(a) {
		t.Fatalf("rate 0.3 over %d launches produced %d failures", len(a), nFail)
	}
	c := schedule(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical schedules")
	}
}

func TestFaultPlanNilAndZeroRateAreClean(t *testing.T) {
	d := NewDevice(0, GTX1080Ti())
	for _, err := range launchN(t, d, 50) {
		if err != nil {
			t.Fatalf("no plan attached but launch failed: %v", err)
		}
	}
	d.InjectFaults(NewFaultPlan(1))
	for _, err := range launchN(t, d, 50) {
		if err != nil {
			t.Fatalf("empty plan but launch failed: %v", err)
		}
	}
}

func TestFaultPlanOneShot(t *testing.T) {
	d := NewDevice(0, GTX1080Ti())
	d.InjectFaults(NewFaultPlan(7).FailNth(OpLaunch, 3))
	errs := launchN(t, d, 5)
	for i, err := range errs {
		want := i == 2
		if got := err != nil; got != want {
			t.Fatalf("launch %d: err=%v, want failure=%v", i+1, err, want)
		}
	}
	if !errors.Is(errs[2], ErrInjectedLaunch) {
		t.Fatalf("one-shot fault not ErrInjectedLaunch: %v", errs[2])
	}
}

func TestFaultPlanDieAtLaunch(t *testing.T) {
	d := NewDevice(0, GTX1080Ti())
	plan := NewFaultPlan(7).DieAtLaunch(4)
	d.InjectFaults(plan)
	errs := launchN(t, d, 8)
	for i := 0; i < 3; i++ {
		if errs[i] != nil {
			t.Fatalf("launch %d before death failed: %v", i+1, errs[i])
		}
	}
	for i := 3; i < 8; i++ {
		if !errors.Is(errs[i], ErrDeviceLost) {
			t.Fatalf("launch %d after death: %v, want ErrDeviceLost", i+1, errs[i])
		}
	}
	if !plan.Dead() {
		t.Fatal("plan not marked dead")
	}
	if _, err := d.AllocUnified(64); !errors.Is(err, ErrDeviceLost) {
		t.Fatalf("alloc on dead device: %v, want ErrDeviceLost", err)
	}
}

func TestFaultPlanAlloc(t *testing.T) {
	d := NewDevice(0, GTX1080Ti())
	d.InjectFaults(NewFaultPlan(9).FailNth(OpAlloc, 2))
	if _, err := d.AllocUnified(64); err != nil {
		t.Fatalf("alloc 1: %v", err)
	}
	if _, err := d.AllocUnified(64); !errors.Is(err, ErrInjectedAlloc) {
		t.Fatalf("alloc 2: %v, want ErrInjectedAlloc", err)
	}
	if _, err := d.AllocUnified(64); err != nil {
		t.Fatalf("alloc 3: %v", err)
	}
}

func TestFaultPlanTransferSurfacesAtLaunch(t *testing.T) {
	// Transfer faults are asynchronous: the faulting transfer itself does not
	// report, the next launch (the synchronization point) does.
	d := NewDevice(0, GTX1080Ti())
	d.InjectFaults(NewFaultPlan(11).FailNth(OpTransfer, 1))
	buf, err := d.AllocUnified(64 << 10)
	if err != nil {
		t.Fatal(err)
	}
	defer buf.Free()
	buf.Transfer()
	errs := launchN(t, d, 2)
	if !errors.Is(errs[0], ErrInjectedTransfer) {
		t.Fatalf("sync point after faulted transfer: %v, want ErrInjectedTransfer", errs[0])
	}
	if errs[1] != nil {
		t.Fatalf("pending fault not cleared: %v", errs[1])
	}
}

func TestFaultPlanKill(t *testing.T) {
	d := NewDevice(0, GTX1080Ti())
	d.InjectFaults(NewFaultPlan(1).Kill())
	if err := launchN(t, d, 1)[0]; !errors.Is(err, ErrDeviceLost) {
		t.Fatalf("killed device launched: %v", err)
	}
}

// TestContextInjectFaultsRefusesNoSchedule: a rate outside [0, 1] (NaN
// included) or a negative death launch is an error that attaches nothing; the
// bounds themselves are schedules.
func TestContextInjectFaultsRefusesNoSchedule(t *testing.T) {
	nan := math.NaN()
	for _, tc := range []struct {
		rate  float64
		dieAt int
		ok    bool
	}{
		{0, 0, true}, {1, 0, true}, {0.05, 3, true}, {0, 2, true},
		{2, 0, false}, {-1, 0, false}, {nan, 0, false}, {0.05, -1, false}, {0, -1, false},
	} {
		c := NewUniformContext(2, GTX1080Ti())
		err := c.InjectFaults(7, tc.rate, tc.dieAt)
		if (err == nil) != tc.ok {
			t.Errorf("InjectFaults(rate %v, dieAt %d): err %v, want ok=%v", tc.rate, tc.dieAt, err, tc.ok)
		}
		if err != nil && c.Device(0).FaultPlan() != nil {
			t.Errorf("InjectFaults(rate %v, dieAt %d) refused the schedule but attached a plan", tc.rate, tc.dieAt)
		}
	}
}
