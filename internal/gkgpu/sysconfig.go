package gkgpu

import (
	"repro/internal/bitvec"
	"repro/internal/cuda"
)

// SystemConfig is the output of the configuration stage (Section 3.1):
// GateKeeper-GPU "recognizes system specifications beforehand to allocate
// memory wisely", computing the approximate memory load of one filtration
// on a thread and the number of filtrations per kernel call that fully
// utilizes the GPU while keeping host-device transfers minimal.
type SystemConfig struct {
	// ThreadLoadBytes approximates one filtration's working set: the
	// per-thread stack frame (bitmask arrays) plus its slice of the input
	// and result buffers.
	ThreadLoadBytes int
	// BufferBytesPerPair is the unified-memory footprint per filtration.
	BufferBytesPerPair int
	// BatchPairs is the number of filtrations per kernel call per device.
	BatchPairs int
	// Launch is the kernel geometry for a full batch.
	Launch cuda.LaunchConfig
}

// Configure runs the system-configuration stage for one device and
// geometry. readLen and maxE are the compile-time constants; encoding
// selects the buffer layout (raw bytes for device encoding, packed words
// for host encoding).
func Configure(spec cuda.DeviceSpec, readLen, maxE int, encoding EncodingActor,
	threadsPerBlock, regsPerThread, maxBatchPairs int) SystemConfig {

	encWords := bitvec.EncodedWords(readLen)
	maskWords := bitvec.MaskWords(readLen)

	// Stack frame: the read's and the reference window's encoding (as bit
	// planes, the same two bits per base as the interleaved words counted
	// here) plus the accumulated final mask, approximating filter.Kernel's
	// allocation — the kernel carries the per-mask intermediate state in
	// registers, so there are no shift/XOR/amendment scratch slices (64-bit
	// words, 8 bytes each).
	threadLoad := 2*encWords*8 + maskWords*8

	var perPair int
	if encoding == EncodeOnDevice {
		perPair = 2*readLen + 2 + resultStride // raw read+ref, flags, result
	} else {
		perPair = 2*encWords*8 + 2 + resultStride // packed read+ref, flags, result
	}
	threadLoad += perPair

	// Batch size: fill 80% of free global memory with pair buffers, leaving
	// headroom for the driver and per-thread stacks; halve it, because the
	// modelled device is double-buffered (a stream's clock overlaps the encode
	// of one batch with the kernel of the last, which takes two buffer sets
	// on a real card; the simulation holds one); cap to the caller's
	// simulation bound; round down to a whole number of blocks so the last
	// block is the only ragged one.
	budget := int64(float64(spec.GlobalMemBytes) * 0.8 / 2)
	batch := int(budget / int64(perPair))
	if maxBatchPairs > 0 && batch > maxBatchPairs {
		batch = maxBatchPairs
	}
	if batch < 1 {
		batch = 1
	}
	blocks := (batch + threadsPerBlock - 1) / threadsPerBlock

	return SystemConfig{
		ThreadLoadBytes:    threadLoad,
		BufferBytesPerPair: perPair,
		BatchPairs:         batch,
		Launch: cuda.LaunchConfig{
			Blocks:          blocks,
			ThreadsPerBlock: threadsPerBlock,
			RegsPerThread:   regsPerThread,
		},
	}
}
