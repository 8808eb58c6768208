package cuda

import (
	"fmt"
	"unsafe"
)

// PageSize is the unified-memory page granularity (64 KiB, the CUDA driver's
// migration unit on the paper's platforms).
const PageSize = 64 << 10

// Residency describes where a unified-memory page currently lives.
type Residency uint8

// Page locations.
const (
	OnHost Residency = iota
	OnDevice
)

// Advice mirrors cudaMemAdvise preferred-location hints (Section 2.2): the
// processor favors the advised placement when deciding migrations.
type Advice uint8

// Memory advice values.
const (
	AdviseNone Advice = iota
	AdvisePreferredHost
	AdvisePreferredDevice
	AdviseReadMostly
)

// UMBuffer is a unified-memory allocation: one block of storage the host and
// the simulated device share through one pointer — viewed as bytes (Bytes) or
// as 64-bit words (Words) — with per-page residency tracking. Touching
// device-resident state from the host (or vice versa) does not fault for
// real — instead the buffer records the migrations the CUDA driver would
// perform, and the cost model charges for them at either the bulk-prefetch
// rate or the page-fault rate.
type UMBuffer struct {
	dev    *Device
	data   []byte   // the n bytes asked for, over the storage of words
	words  []uint64 // the allocation itself: word-aligned by construction
	pages  []Residency
	advice Advice

	// Telemetry consumed by the cost model.
	faultMigrations    int64 // bytes moved on-demand (page-fault path)
	prefetchMigrations int64 // bytes moved by explicit prefetch (bulk path)
}

// AllocUnified allocates n bytes of unified memory resident on the host, as
// cudaMallocManaged does, charging the device's global memory.
func (d *Device) AllocUnified(n int) (*UMBuffer, error) {
	if n <= 0 {
		return nil, fmt.Errorf("cuda: invalid unified allocation size %d", n)
	}
	if d.faults != nil {
		if err := d.faults.checkAlloc(); err != nil {
			return nil, err
		}
	}
	if err := d.reserve(int64(n)); err != nil {
		return nil, err
	}
	pages := (n + PageSize - 1) / PageSize
	words := make([]uint64, (n+7)/8)
	return &UMBuffer{
		dev:   d,
		data:  unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(words))), n),
		words: words,
		pages: make([]Residency, pages),
	}, nil
}

// Free releases the buffer's global memory reservation.
func (b *UMBuffer) Free() {
	if b.data != nil {
		b.dev.release(int64(len(b.data)))
		b.data, b.words = nil, nil
	}
}

// Bytes exposes the shared storage; host code reads and writes it directly,
// which is the whole point of unified memory ("a virtual space, which GPU
// and CPU have access with a single pointer").
func (b *UMBuffer) Bytes() []byte { return b.data }

// Words exposes the same storage as 64-bit words in the machine's byte
// order, so a kernel reads packed words in place instead of assembling each
// from eight bytes. The two views agree on byte order only on a little-endian
// machine: data written through Words is read through Words.
func (b *UMBuffer) Words() []uint64 { return b.words }

// Len returns the buffer length in bytes.
func (b *UMBuffer) Len() int { return len(b.data) }

// Advise records a cudaMemAdvise hint. On devices without prefetch support
// (compute capability < 6.x) the call is a no-op, matching GateKeeper-GPU's
// behaviour of skipping these actions on Kepler.
func (b *UMBuffer) Advise(a Advice) {
	if !b.dev.Spec.SupportsPrefetch() {
		return
	}
	b.advice = a
}

// Advice returns the recorded hint (AdviseNone on non-supporting devices).
func (b *UMBuffer) Advice() Advice { return b.advice }

// HostWrite marks the byte range [off, off+n) as written by the host:
// device-resident pages in the range migrate back (on-demand, fault path).
func (b *UMBuffer) HostWrite(off, n int) {
	b.migrate(off, n, OnHost, false)
}

// PrefetchAsync migrates the whole buffer to the device ahead of a kernel,
// as cudaMemPrefetchAsync on a stream would; bytes moved this way are
// charged at the bulk PCIe rate instead of the page-fault rate. On devices
// without support it is a no-op and the subsequent kernel access pays the
// fault path, reproducing the Setup 1 vs Setup 2 gap.
func (b *UMBuffer) PrefetchAsync(_ *Stream) {
	if !b.dev.Spec.SupportsPrefetch() {
		return
	}
	if b.dev.faults != nil {
		b.dev.faults.noteTransfer()
	}
	b.migrate(0, len(b.data), OnDevice, true)
}

// DeviceTouch marks the byte range as accessed by a kernel: host-resident
// pages migrate to the device on demand (fault path). Engines call this when
// a kernel reads a buffer that was not prefetched.
func (b *UMBuffer) DeviceTouch(off, n int) {
	if b.dev.faults != nil {
		b.dev.faults.noteTransfer()
	}
	b.migrate(off, n, OnDevice, false)
}

// migrate moves the pages covering [off, off+n) to the target residency and
// returns the bytes moved.
func (b *UMBuffer) migrate(off, n int, target Residency, prefetch bool) int64 {
	if n <= 0 || off < 0 || off >= len(b.data) {
		return 0
	}
	end := off + n
	if end > len(b.data) {
		end = len(b.data)
	}
	var moved int64
	for p := off / PageSize; p <= (end-1)/PageSize; p++ {
		if b.pages[p] == target {
			continue
		}
		b.pages[p] = target
		moved += PageSize
	}
	if prefetch {
		b.prefetchMigrations += moved
	} else {
		b.faultMigrations += moved
	}
	return moved
}

// ResidentOnDevice returns the fraction of pages currently device-resident.
func (b *UMBuffer) ResidentOnDevice() float64 {
	if len(b.pages) == 0 {
		return 0
	}
	n := 0
	for _, p := range b.pages {
		if p == OnDevice {
			n++
		}
	}
	return float64(n) / float64(len(b.pages))
}

// MigrationStats returns cumulative migrated byte counts: on-demand (page
// fault) and prefetched (bulk).
func (b *UMBuffer) MigrationStats() (faultBytes, prefetchBytes int64) {
	return b.faultMigrations, b.prefetchMigrations
}
