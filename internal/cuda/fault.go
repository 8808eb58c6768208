package cuda

import (
	"errors"
	"fmt"
	"sync"
)

// Fault injection: a seeded, deterministic failure schedule attachable to a
// Device. Real GPU deployments of this filter family run for hours across
// heterogeneous cards where transient launch failures, allocation failures,
// and transfer errors are routine; the simulated runtime reproduces them on
// demand so the engine's fault-tolerance paths are testable. A device with no
// plan attached pays one nil check per operation and nothing else.
//
// Faults follow the CUDA error model: Launch, AllocUnified and MapUnified fail
// synchronously, while transfer faults (UMBuffer.Transfer: a prefetch or a
// first touch, asynchronous in the real runtime) are recorded and surface at
// the next synchronization point — the next Launch on the device — exactly as
// an async CUDA error surfaces at the next cudaDeviceSynchronize.

// FaultOp identifies an operation class a FaultPlan can target.
type FaultOp uint8

// Operation classes.
const (
	OpLaunch FaultOp = iota
	OpAlloc
	OpTransfer
	numFaultOps
)

func (op FaultOp) String() string {
	switch op {
	case OpLaunch:
		return "launch"
	case OpAlloc:
		return "alloc"
	case OpTransfer:
		return "transfer"
	}
	return "unknown"
}

// Sentinel errors of the injection layer. ErrDeviceLost is permanent: once a
// device dies every subsequent operation on it fails with it.
var (
	ErrInjectedLaunch   = errors.New("cuda: injected launch fault")
	ErrInjectedAlloc    = errors.New("cuda: injected allocation fault")
	ErrInjectedTransfer = errors.New("cuda: injected transfer fault")
	ErrDeviceLost       = errors.New("cuda: device lost")
)

// FaultPlan is a deterministic failure schedule: per-op-class probabilities
// drawn from a seeded hash of the op ordinal (so a schedule replays
// identically however goroutines interleave, because ordinals within a class
// are serialized by the plan's lock and each draw depends only on seed, class,
// and ordinal), one-shot failures at chosen ordinals, and a permanent
// device-death mode. Attach with Device.InjectFaults. All methods are safe
// for concurrent use; the With*/Fail*/DieAt* configurators return the plan
// for chaining and are meant to run before the plan is attached.
type FaultPlan struct {
	mu      sync.Mutex
	seed    uint64
	rates   [numFaultOps]float64
	oneShot [numFaultOps]map[uint64]bool
	counts  [numFaultOps]uint64
	dieAt   uint64 // launch ordinal at which the device dies; 0 = never
	dead    bool
	pending error // async transfer fault awaiting the next sync point
}

// NewFaultPlan returns an empty plan (injects nothing) with the given seed.
func NewFaultPlan(seed int64) *FaultPlan {
	return &FaultPlan{seed: uint64(seed)}
}

// WithRate sets the failure probability for one op class; each operation of
// that class draws independently (but deterministically) against it.
func (p *FaultPlan) WithRate(op FaultOp, prob float64) *FaultPlan {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.rates[op] = prob
	return p
}

// FailNth makes the nth (1-based) operation of the class fail once.
func (p *FaultPlan) FailNth(op FaultOp, nth int) *FaultPlan {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.oneShot[op] == nil {
		p.oneShot[op] = make(map[uint64]bool)
	}
	p.oneShot[op][uint64(nth)] = true
	return p
}

// DieAtLaunch kills the device permanently at its nth (1-based) launch: that
// launch and every operation after it fail with ErrDeviceLost.
func (p *FaultPlan) DieAtLaunch(nth int) *FaultPlan {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.dieAt = uint64(nth)
	return p
}

// Kill marks the device dead immediately.
func (p *FaultPlan) Kill() *FaultPlan {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.dead = true
	return p
}

// Dead reports whether the device has died.
func (p *FaultPlan) Dead() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.dead
}

// shouldFail draws the deterministic failure decision for the nth op of a
// class: a scheduled one-shot, or a seeded hash draw against the class rate.
func (p *FaultPlan) shouldFail(op FaultOp, n uint64) bool {
	if p.oneShot[op][n] {
		delete(p.oneShot[op], n)
		return true
	}
	return p.rates[op] > 0 && hash01(p.seed, op, n) < p.rates[op]
}

// checkLaunch gates one kernel launch: device death, then any pending async
// transfer fault (the launch is the synchronization point that surfaces it),
// then the launch's own scheduled or drawn fault.
func (p *FaultPlan) checkLaunch() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.dead {
		return ErrDeviceLost
	}
	if err := p.pending; err != nil {
		p.pending = nil
		return err
	}
	p.counts[OpLaunch]++
	n := p.counts[OpLaunch]
	if p.dieAt > 0 && n >= p.dieAt {
		p.dead = true
		return fmt.Errorf("%w (died at launch %d)", ErrDeviceLost, n)
	}
	if p.shouldFail(OpLaunch, n) {
		return fmt.Errorf("%w (launch %d)", ErrInjectedLaunch, n)
	}
	return nil
}

// checkAlloc gates one unified-memory allocation.
func (p *FaultPlan) checkAlloc() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.dead {
		return ErrDeviceLost
	}
	p.counts[OpAlloc]++
	if n := p.counts[OpAlloc]; p.shouldFail(OpAlloc, n) {
		return fmt.Errorf("%w (allocation %d)", ErrInjectedAlloc, n)
	}
	return nil
}

// noteTransfer draws one transfer operation's fault. Transfers are
// asynchronous, so a fault is not returned here: it is held and surfaced by
// the device's next launch.
func (p *FaultPlan) noteTransfer() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.dead || p.pending != nil {
		return
	}
	p.counts[OpTransfer]++
	if n := p.counts[OpTransfer]; p.shouldFail(OpTransfer, n) {
		p.pending = fmt.Errorf("%w (transfer %d)", ErrInjectedTransfer, n)
	}
}

// hash01 maps (seed, op, ordinal) to [0,1) with a splitmix64-style finalizer,
// so fault draws are reproducible independent of scheduling.
func hash01(seed uint64, op FaultOp, n uint64) float64 {
	x := seed ^ (uint64(op)+1)*0x9E3779B97F4A7C15 ^ n*0xBF58476D1CE4E5B9
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return float64(x>>11) / float64(1<<53)
}

// InjectFaults attaches a failure schedule to the device; nil detaches it.
// Attach before handing the device to an engine.
func (d *Device) InjectFaults(p *FaultPlan) { d.faults = p }

// FaultPlan returns the attached schedule, nil when none.
func (d *Device) FaultPlan() *FaultPlan { return d.faults }

// InjectFaults attaches a seeded chaos schedule to every device of the
// context — the one the commands' -fault-* flags describe: launch faults at
// the per-operation rate and transfer faults at half of it on all devices
// (device i draws from seed+i), plus device 0 dying at its dieAt'th launch.
// A rate and a dieAt that are both zero attach nothing. A rate outside [0, 1]
// or a negative dieAt describes no schedule and is refused: a rate of 2 would
// fail every operation as if the devices were broken, and a negative one
// would run fault-free without saying so.
func (c *Context) InjectFaults(seed int64, rate float64, dieAt int) error {
	if !(rate >= 0 && rate <= 1) {
		return fmt.Errorf("cuda: fault rate %v outside [0, 1]", rate)
	}
	if dieAt < 0 {
		return fmt.Errorf("cuda: fault die-at launch %d is negative", dieAt)
	}
	if rate == 0 && dieAt == 0 {
		return nil
	}
	for i, d := range c.devices {
		plan := NewFaultPlan(seed+int64(i)).
			WithRate(OpLaunch, rate).
			WithRate(OpTransfer, rate/2)
		if dieAt > 0 && i == 0 {
			plan.DieAtLaunch(dieAt)
		}
		d.InjectFaults(plan)
	}
	return nil
}
