package cuda

import (
	"fmt"
	"unsafe"
)

// UMBuffer is a device's hold on a unified-memory allocation: storage the
// host and the simulated device share through one pointer — viewed as bytes
// (Bytes) or as 64-bit words (Words) — reserved against the device's global
// memory, and the device's fault plan consulted when it is allocated and
// each time it is moved (Transfer). Nothing migrates for real and no page is
// tracked: what the CUDA driver would do with the pages — advice, bulk
// prefetch on Pascal, on-demand paging on Kepler — is the cost model's
// (CostModel.TransferSeconds and KernelSeconds branch on
// DeviceSpec.SupportsPrefetch).
type UMBuffer struct {
	dev   *Device
	data  []byte   // the n bytes asked for, over the storage of words
	words []uint64 // the storage itself: word-aligned by construction
}

// AllocUnified allocates n bytes of unified memory, as cudaMallocManaged
// does, charging the device's global memory.
func (d *Device) AllocUnified(n int) (*UMBuffer, error) {
	if n <= 0 {
		return nil, fmt.Errorf("cuda: invalid unified allocation size %d", n)
	}
	return d.hold(make([]uint64, (n+7)/8), n)
}

// MapUnified makes words — an allocation the host already holds, and other
// devices may have mapped — a unified-memory buffer of this device without
// copying it: one pointer for every processor. The device reserves the bytes
// and draws its allocation fault as AllocUnified does, so a read-mostly
// allocation is accounted for on, and can fault on, every device that reads
// it; Free drops this device's reservation only.
func (d *Device) MapUnified(words []uint64) (*UMBuffer, error) {
	if len(words) == 0 {
		return nil, fmt.Errorf("cuda: empty unified mapping")
	}
	return d.hold(words, len(words)*8)
}

// hold draws the allocation fault and reserves n bytes for words.
func (d *Device) hold(words []uint64, n int) (*UMBuffer, error) {
	if d.faults != nil {
		if err := d.faults.checkAlloc(); err != nil {
			return nil, err
		}
	}
	if err := d.reserve(int64(n)); err != nil {
		return nil, err
	}
	return &UMBuffer{
		dev:   d,
		data:  unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(words))), n),
		words: words,
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

// Transfer draws the fault of moving the buffer to the device once — a
// cudaMemPrefetchAsync or a kernel's first touch; which of the two a device
// does, and what it costs, is the caller's and the cost model's to know.
// Either is asynchronous, so a fault drawn here surfaces at the device's
// next Launch.
func (b *UMBuffer) Transfer() {
	if b.dev.faults != nil {
		b.dev.faults.noteTransfer()
	}
}
