package gkgpu

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/cuda"
)

// Sentinel error taxonomy of the fault-tolerant engine. Every device-layer
// failure the engine surfaces is wrapped in a DeviceFault carrying one of
// these kinds plus device and batch context, so callers can branch with
// errors.Is and still read the cause chain. A call or stream left with no
// device wraps its first classified fault in ErrStreamAborted; errors.Is then
// matches both the abort and the underlying kind.
var (
	// ErrLaunch is a kernel launch failure (including async faults the
	// launch surfaced as the batch's synchronization point).
	ErrLaunch = errors.New("gkgpu: kernel launch failed")
	// ErrAlloc is a device memory allocation failure.
	ErrAlloc = errors.New("gkgpu: device allocation failed")
	// ErrTransfer is a host-device transfer failure.
	ErrTransfer = errors.New("gkgpu: host-device transfer failed")
	// ErrDeviceLost is a permanent device failure; the engine quarantines
	// the device and redispatches its work to survivors.
	ErrDeviceLost = errors.New("gkgpu: device lost")
	// ErrStreamAborted marks a filtering call — a stream, or since every
	// entry point shares the stream's fault contract a one-shot call — that
	// ended before answering every input; the wrapped cause is the first
	// classified fault.
	ErrStreamAborted = errors.New("gkgpu: stream aborted")
)

// DeviceFault is one classified device-layer failure: the taxonomy kind, the
// device and stream batch it struck (Batch is -1 on one-shot and setup
// paths), how many attempts the engine made, and the underlying cause.
type DeviceFault struct {
	Kind     error // one of the sentinel taxonomy errors above
	Device   int   // cuda device ID
	Batch    int   // stream batch sequence number, -1 outside streams
	Attempts int   // attempts made before giving up
	Err      error // underlying cuda-layer cause
}

// Error implements error.
func (f *DeviceFault) Error() string {
	where := "one-shot call"
	if f.Batch >= 0 {
		where = fmt.Sprintf("batch %d", f.Batch)
	}
	return fmt.Sprintf("%v (device %d, %s, %d attempt(s)): %v",
		f.Kind, f.Device, where, f.Attempts, f.Err)
}

// Unwrap exposes both the taxonomy kind and the cause, so errors.Is matches
// either (e.g. gkgpu.ErrDeviceLost and cuda.ErrDeviceLost).
func (f *DeviceFault) Unwrap() []error { return []error{f.Kind, f.Err} }

// classifyFault wraps a raw device-layer error in its taxonomy kind.
func classifyFault(device, batch, attempts int, err error) *DeviceFault {
	kind := ErrLaunch
	switch {
	case errors.Is(err, cuda.ErrDeviceLost):
		kind = ErrDeviceLost
	case errors.Is(err, cuda.ErrInjectedTransfer):
		kind = ErrTransfer
	case errors.Is(err, cuda.ErrInjectedAlloc):
		kind = ErrAlloc
	}
	return &DeviceFault{Kind: kind, Device: device, Batch: batch, Attempts: attempts, Err: err}
}

// allocFault wraps an allocation failure from engine setup or reference
// loading in the taxonomy.
func allocFault(dev *cuda.Device, err error) *DeviceFault {
	return &DeviceFault{Kind: ErrAlloc, Device: dev.ID, Batch: -1, Attempts: 1, Err: err}
}

// errAllQuarantined is the round-level terminal condition: no live device
// remains to take work.
func errAllQuarantined() error {
	return fmt.Errorf("%w: every device is quarantined", ErrDeviceLost)
}

// abortedBy wraps the cause that ended a filtering call early — the fault
// that left it no device to run on, or its context's cancellation:
// errors.Is matches ErrStreamAborted and the fault's kind, errors.As recovers
// the DeviceFault.
func abortedBy(fault error) error {
	return fmt.Errorf("%w: %w", ErrStreamAborted, fault)
}

// FaultPolicy tunes how the engine reacts to device failures.
// The zero value takes the defaults below.
type FaultPolicy struct {
	// MaxAttempts is how many times a device's share of one round is tried
	// before the device is quarantined for repeated failures. ErrDeviceLost
	// quarantines immediately regardless. Minimum (and thus default-applied
	// floor) is 1 — a single attempt, no retry.
	MaxAttempts int
	// Backoff is the wait before the first retry; it doubles per retry up
	// to MaxBackoff. The wait always carries a ctx.Done arm, so a deadline
	// cuts it short mid-batch.
	Backoff time.Duration
	// MaxBackoff caps the doubling.
	MaxBackoff time.Duration
}

// Fault-policy defaults: three attempts per share per device with a short
// doubling backoff. The backoff is deliberately small — the simulated
// runtime's transient faults clear instantly, and real CUDA launch retries
// are cheap next to the batch they repeat.
const (
	defaultFaultAttempts   = 3
	defaultFaultBackoff    = 200 * time.Microsecond
	defaultFaultMaxBackoff = 10 * time.Millisecond
)

func (p *FaultPolicy) applyDefaults() {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = defaultFaultAttempts
	}
	if p.Backoff <= 0 {
		p.Backoff = defaultFaultBackoff
	}
	if p.MaxBackoff < p.Backoff {
		p.MaxBackoff = defaultFaultMaxBackoff
		if p.MaxBackoff < p.Backoff {
			p.MaxBackoff = p.Backoff
		}
	}
}

// liveStates counts devices not quarantined.
func (e *Engine) liveStates() int {
	n := 0
	for _, st := range e.states {
		if !st.down.Load() {
			n++
		}
	}
	return n
}

// QuarantinedDevices returns the IDs of devices the engine has quarantined
// after repeated or permanent failures, in device order. A quarantined
// device receives no further work from any engine entry point; its share is
// re-weighted onto the survivors.
func (e *Engine) QuarantinedDevices() []int {
	var ids []int
	for _, st := range e.states {
		if st.down.Load() {
			ids = append(ids, st.dev.ID)
		}
	}
	return ids
}
