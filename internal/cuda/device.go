// Package cuda is a software stand-in for the CUDA runtime that
// GateKeeper-GPU targets. No GPU hardware is assumed: kernels execute on
// goroutines, while a calibrated analytic cost model supplies the quantities
// the paper measures on real devices — kernel time, transfer time, power,
// occupancy, warp efficiency. The devices of both experimental setups
// (8x GTX 1080 Ti / Pascal and 4x Tesla K20X / Kepler) are catalogued with
// their true geometry so the configuration logic of Section 3.1 (thread
// load, batch size, blocks and threads per kernel) runs unchanged.
//
// Unified memory is one pointer here too: a UMBuffer is storage both sides
// read and write in place, charged to the device's global memory. The driver's
// side of it — memory advice, prefetch streams, page migration and the double
// buffering that overlaps them with the kernel — is not acted out on the host;
// CostModel charges it (TransferSeconds, KernelSeconds,
// PipelinedFilterSeconds), and a fault plan draws its failures.
//
// The split matters for what the reproduction can claim: every accept/reject
// decision is computed for real by the kernel function, so the accuracy
// experiments are exact; the timing/power experiments reproduce the paper's
// *shape* (orderings, crossovers, scaling curves) through the model rather
// than its absolute wall-clock numbers.
package cuda

import "fmt"

// Arch identifies a GPU microarchitecture generation.
type Arch string

// Architectures appearing in the paper's two setups.
const (
	Kepler Arch = "Kepler"
	Pascal Arch = "Pascal"
)

// DeviceSpec is the static description of a GPU model.
type DeviceSpec struct {
	Name         string
	Architecture Arch
	// ComputeMajor.ComputeMinor is the CUDA compute capability; memory
	// advice and asynchronous prefetching require 6.x or later (Section 3.4).
	ComputeMajor, ComputeMinor int

	SMCount    int     // streaming multiprocessors
	CoresPerSM int     // CUDA cores per SM
	ClockGHz   float64 // boost clock

	GlobalMemBytes int64   // usable global memory
	MemBandwidth   float64 // GB/s

	PCIeGen   int // host link generation
	PCIeLanes int

	// Per-SM scheduling limits used by the occupancy calculator.
	RegistersPerSM     int
	MaxThreadsPerBlock int
	MaxThreadsPerSM    int
	MaxWarpsPerSM      int
	MaxBlocksPerSM     int

	// Power envelope for the nvprof-style power model.
	IdleWatts float64
	TDPWatts  float64

	// EffFactor scales achievable arithmetic throughput relative to Pascal
	// (Kepler schedules the GateKeeper instruction mix less efficiently).
	EffFactor float64
}

// WarpSize is the number of threads per warp on every CUDA architecture the
// paper uses.
const WarpSize = 32

// GTX1080Ti returns the Setup 1 device: NVIDIA GeForce GTX 1080 Ti, Pascal,
// compute capability 6.1, PCIe 3.0 x16. The paper reports 10 GB usable
// global memory per card.
func GTX1080Ti() DeviceSpec {
	return DeviceSpec{
		Name:               "NVIDIA GeForce GTX 1080 Ti",
		Architecture:       Pascal,
		ComputeMajor:       6,
		ComputeMinor:       1,
		SMCount:            28,
		CoresPerSM:         128, // 3584 CUDA cores total
		ClockGHz:           1.582,
		GlobalMemBytes:     10 << 30,
		MemBandwidth:       484,
		PCIeGen:            3,
		PCIeLanes:          16,
		RegistersPerSM:     65536,
		MaxThreadsPerBlock: 1024,
		MaxThreadsPerSM:    2048,
		MaxWarpsPerSM:      64,
		MaxBlocksPerSM:     32,
		IdleWatts:          8.9,
		TDPWatts:           250,
		EffFactor:          1.0,
	}
}

// TeslaK20X returns the Setup 2 device: NVIDIA Tesla K20X, Kepler, compute
// capability 3.5, PCIe 2.0 x16, 5 GB usable global memory. Kepler predates
// unified-memory prefetching, which Section 5.2 identifies as a main cause
// of Setup 2's lower throughput.
func TeslaK20X() DeviceSpec {
	return DeviceSpec{
		Name:               "NVIDIA Tesla K20X",
		Architecture:       Kepler,
		ComputeMajor:       3,
		ComputeMinor:       5,
		SMCount:            14,
		CoresPerSM:         192, // 2688 CUDA cores total
		ClockGHz:           0.732,
		GlobalMemBytes:     5 << 30,
		MemBandwidth:       250,
		PCIeGen:            2,
		PCIeLanes:          16,
		RegistersPerSM:     65536,
		MaxThreadsPerBlock: 1024,
		MaxThreadsPerSM:    2048,
		MaxWarpsPerSM:      64,
		MaxBlocksPerSM:     16,
		IdleWatts:          30.1,
		TDPWatts:           235,
		EffFactor:          0.68,
	}
}

// Cores returns the total CUDA core count.
//
//gk:noalloc
func (s DeviceSpec) Cores() int { return s.SMCount * s.CoresPerSM }

// SupportsPrefetch reports whether the device supports cudaMemAdvise and
// cudaMemPrefetchAsync (compute capability 6.x or later with CUDA 8).
//
//gk:noalloc
func (s DeviceSpec) SupportsPrefetch() bool { return s.ComputeMajor >= 6 }

// PCIeBandwidth returns the effective host-device bandwidth in bytes/second,
// assuming ~75% of the raw per-lane rate is achievable for bulk copies.
//
//gk:noalloc
func (s DeviceSpec) PCIeBandwidth() float64 {
	var perLaneGBs float64
	switch s.PCIeGen {
	case 1:
		perLaneGBs = 0.25
	case 2:
		perLaneGBs = 0.5
	case 3:
		perLaneGBs = 0.985
	default:
		perLaneGBs = 1.969 // gen4+
	}
	return perLaneGBs * float64(s.PCIeLanes) * 0.75 * 1e9
}

// String implements fmt.Stringer for diagnostics and harness banners.
func (s DeviceSpec) String() string {
	return fmt.Sprintf("%s (%s, cc %d.%d, %d SMs x %d cores @ %.3f GHz, %d GiB)",
		s.Name, s.Architecture, s.ComputeMajor, s.ComputeMinor,
		s.SMCount, s.CoresPerSM, s.ClockGHz, s.GlobalMemBytes>>30)
}

// Device is one simulated GPU: a spec plus runtime state (free memory,
// accumulated kernel-time and power telemetry).
type Device struct {
	Spec DeviceSpec
	ID   int

	freeMem int64
	events  []float64 // modelled kernel durations, seconds
	power   PowerTrace
	faults  *FaultPlan // nil outside fault-injection runs
}

// NewDevice instantiates a device with its full global memory free.
func NewDevice(id int, spec DeviceSpec) *Device {
	return &Device{Spec: spec, ID: id, freeMem: spec.GlobalMemBytes}
}

// FreeMem returns the bytes of global memory not yet allocated. The system
// configuration step queries this to size batches (Section 3.1).
func (d *Device) FreeMem() int64 { return d.freeMem }

// reserve claims n bytes of global memory, failing when the device is full.
func (d *Device) reserve(n int64) error {
	if n < 0 {
		return fmt.Errorf("cuda: negative allocation %d", n)
	}
	if n > d.freeMem {
		return fmt.Errorf("cuda: out of memory on %s: want %d, free %d", d.Spec.Name, n, d.freeMem)
	}
	d.freeMem -= n
	return nil
}

// release returns n bytes of global memory.
func (d *Device) release(n int64) { d.freeMem += n }

// recordKernel logs a modelled kernel duration and feeds the power trace.
func (d *Device) recordKernel(seconds float64, utilization float64) {
	d.events = append(d.events, seconds)
	d.power.sample(d.Spec, seconds, utilization)
}

// TotalKernelSeconds returns the sum of modelled kernel durations — the
// "kernel time" measurement of Section 4.3 (CUDA Event API equivalent).
func (d *Device) TotalKernelSeconds() float64 {
	sum := 0.0
	for _, e := range d.events {
		sum += e
	}
	return sum
}

// KernelLaunches returns how many kernels the device has executed.
func (d *Device) KernelLaunches() int { return len(d.events) }

// Power returns the accumulated nvprof-style power trace.
func (d *Device) Power() PowerTrace { return d.power }

// Context owns a set of simulated devices, mirroring a multi-GPU host.
type Context struct {
	devices []*Device
}

// NewContext creates a context with one device per spec, in order.
func NewContext(specs ...DeviceSpec) *Context {
	ctx := &Context{}
	for i, s := range specs {
		ctx.devices = append(ctx.devices, NewDevice(i, s))
	}
	return ctx
}

// NewUniformContext creates a context with n identical devices, like the
// paper's 8x GTX 1080 Ti or 4x Tesla K20X hosts. A count of zero or less
// gives a context with no devices, which no engine accepts.
func NewUniformContext(n int, spec DeviceSpec) *Context {
	specs := make([]DeviceSpec, max(n, 0))
	for i := range specs {
		specs[i] = spec
	}
	return NewContext(specs...)
}

// Devices returns the context's devices.
func (c *Context) Devices() []*Device { return c.devices }

// Device returns device i.
func (c *Context) Device(i int) *Device { return c.devices[i] }

// NumDevices returns the device count.
func (c *Context) NumDevices() int { return len(c.devices) }
