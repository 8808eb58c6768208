package mapper

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"io"
	"os"
	"unsafe"
)

// On-disk index format ("GKIX", version 1): a fixed little-endian header,
// the index's three arrays as raw little-endian slabs, and a trailing CRC.
//
//	header (96 bytes):
//	  [0:4)   magic "GKIX"
//	  [4:8)   format version (uint32, = 1)
//	  [8:16)  byte-order marker 0x0102030405060708 — reads back as itself
//	          only when file and host agree on little-endian
//	  [16:24) k (seed length)
//	  [24:32) step (seed step)
//	  [32:40) shift (key -> bucket shift)
//	  [40:48) nBuckets (offsets array holds nBuckets+1 entries)
//	  [48:56) nEntries (keys/pos length)
//	  [56:64) distinct k-mer count
//	  [64:72) reference length (concatenated bases)
//	  [72:80) reference contig count
//	  [80:88) reference fingerprint (see refFingerprint)
//	  [88:96) reserved, zero
//	payload (8-byte aligned, raw little-endian slabs):
//	  offsets  (nBuckets+1) × uint64
//	  keys     nEntries × uint32, zero-padded to a multiple of 8 bytes
//	  pos      nEntries × int64
//	trailer (8 bytes):
//	  CRC-64/ECMA of the payload bytes
//
// The slab layout is what makes load mmap-style cheap: the whole payload is
// one aligned allocation filled by one io.ReadFull, and the three arrays
// are zero-copy reslices into it — no per-element decode, no second copy.
const (
	indexMagic       = "GKIX"
	indexVersion     = 1
	indexOrderMarker = 0x0102030405060708
	indexHeaderLen   = 96
)

// Named serialization failures, matched with errors.Is. Every corruption or
// misuse path fails loudly with one of these.
var (
	// ErrIndexMagic: the file does not start with the GKIX magic, or its
	// byte-order marker disagrees with little-endian.
	ErrIndexMagic = errors.New("mapper: not a GKIX index file")
	// ErrIndexVersion: a GKIX file from an unknown format version.
	ErrIndexVersion = errors.New("mapper: unsupported GKIX index version")
	// ErrIndexTruncated: the file ends before the declared arrays do.
	ErrIndexTruncated = errors.New("mapper: truncated GKIX index file")
	// ErrIndexChecksum: the payload bytes do not match the stored CRC.
	ErrIndexChecksum = errors.New("mapper: GKIX index checksum mismatch")
	// ErrIndexGeometry: the header declares an impossible index geometry
	// (k, step, or bucket/shift combination no build could produce), or the
	// arrays are not the CSR it declares (see Index.validate).
	ErrIndexGeometry = errors.New("mapper: corrupt GKIX index geometry")
	// ErrIndexMismatch: a well-formed index that does not belong to the
	// reference (or configuration) it is being loaded against.
	ErrIndexMismatch = errors.New("mapper: GKIX index does not match")
	// ErrIndexByteOrder: this host is not little-endian; the zero-copy
	// slab layout only runs on little-endian hosts.
	ErrIndexByteOrder = errors.New("mapper: GKIX serialization requires a little-endian host")
)

var crcTable = crc64.MakeTable(crc64.ECMA)

// hostIsLittleEndian reports the native byte order. The slab format is
// defined little-endian and both Serialize and LoadIndex move array memory
// without per-element swabbing, so a big-endian host must refuse rather
// than silently write or read swapped words.
func hostIsLittleEndian() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}

// refFingerprint is the identity check binding an index file to the
// reference it was built from: a CRC-64 over the contig table (names and
// lengths), the total length, and up to 64 sampled 256-byte windows spread
// evenly across the concatenated sequence. Sampling keeps the check
// milliseconds even on >2^31-base references (a full-sequence hash would
// cost a multi-second pass on every start, defeating the point of loading);
// it still catches wrong-reference, reordered-contig, and
// edited-in-sampled-window mistakes. The index arrays themselves are fully
// covered by the payload CRC.
func refFingerprint(r *Reference) uint64 {
	var meta []byte
	meta = binary.LittleEndian.AppendUint64(meta, uint64(r.Len()))
	meta = binary.LittleEndian.AppendUint64(meta, uint64(r.NumContigs()))
	for _, c := range r.Contigs() {
		meta = append(meta, c.Name...)
		meta = append(meta, 0)
		meta = binary.LittleEndian.AppendUint64(meta, uint64(c.Len))
	}
	sum := crc64.Checksum(meta, crcTable)
	seq := r.Seq()
	const windows, window = 64, 256
	if len(seq) <= windows*window {
		return crc64.Update(sum, crcTable, seq)
	}
	stride := (len(seq) - window) / (windows - 1)
	for w := 0; w < windows; w++ {
		off := w * stride
		sum = crc64.Update(sum, crcTable, seq[off:off+window])
	}
	return sum
}

// byteView reinterprets a slice of fixed-width integers as its raw bytes.
// Only valid on little-endian hosts (the only hosts Serialize/LoadIndex
// accept), where the in-memory image already is the file image.
func byteView[T uint64 | uint32 | int64](s []T, width int) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*width)
}

// keysPadBytes returns how many zero bytes pad the keys slab to an 8-byte
// boundary so the pos slab stays aligned.
func keysPadBytes(nEntries uint64) uint64 { return (nEntries % 2) * 4 }

// payloadBytes returns the payload slab size for a geometry.
func payloadBytes(nBuckets, nEntries uint64) uint64 {
	return (nBuckets+1)*8 + nEntries*4 + keysPadBytes(nEntries) + nEntries*8
}

// Serialize writes the index in the GKIX on-disk format. The arrays stream
// out as raw slabs (no per-element encode), so serialization runs at I/O
// speed; wrap w in a bufio.Writer when it is an unbuffered file.
func (x *Index) Serialize(w io.Writer) error {
	if !hostIsLittleEndian() {
		return ErrIndexByteOrder
	}
	nBuckets := uint64(len(x.offsets) - 1)
	nEntries := uint64(len(x.pos))

	var hdr [indexHeaderLen]byte
	copy(hdr[0:4], indexMagic)
	binary.LittleEndian.PutUint32(hdr[4:8], indexVersion)
	binary.LittleEndian.PutUint64(hdr[8:16], indexOrderMarker)
	binary.LittleEndian.PutUint64(hdr[16:24], uint64(x.k))
	binary.LittleEndian.PutUint64(hdr[24:32], uint64(x.step))
	binary.LittleEndian.PutUint64(hdr[32:40], uint64(x.shift))
	binary.LittleEndian.PutUint64(hdr[40:48], nBuckets)
	binary.LittleEndian.PutUint64(hdr[48:56], nEntries)
	binary.LittleEndian.PutUint64(hdr[56:64], uint64(x.distinct))
	binary.LittleEndian.PutUint64(hdr[64:72], uint64(x.ref.Len()))
	binary.LittleEndian.PutUint64(hdr[72:80], uint64(x.ref.NumContigs()))
	binary.LittleEndian.PutUint64(hdr[80:88], refFingerprint(x.ref))
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("mapper: writing index header: %w", err)
	}

	var crc uint64
	var pad [8]byte
	for _, slab := range [][]byte{
		byteView(x.offsets, 8),
		byteView(x.keys, 4),
		pad[:keysPadBytes(nEntries)],
		byteView(x.pos, 8),
	} {
		if len(slab) == 0 {
			continue
		}
		crc = crc64.Update(crc, crcTable, slab)
		if _, err := w.Write(slab); err != nil {
			return fmt.Errorf("mapper: writing index arrays: %w", err)
		}
	}
	var trailer [8]byte
	binary.LittleEndian.PutUint64(trailer[:], crc)
	if _, err := w.Write(trailer[:]); err != nil {
		return fmt.Errorf("mapper: writing index checksum: %w", err)
	}
	return nil
}

// SerializeToFile writes the index to path via Serialize, fsync-free but
// atomic against partial writes being mistaken for an index (a failed write
// removes the file).
func (x *Index) SerializeToFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	err = x.Serialize(bw)
	if ferr := bw.Flush(); err == nil {
		err = ferr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		_ = os.Remove(path) //gk:allow errcheck: best-effort cleanup of a partial file
		return err
	}
	return nil
}

// LoadIndex reads a GKIX index serialized by Serialize and binds it to ref,
// which must be the reference the index was built from. The load is one
// header read plus a single ReadFull into one aligned allocation; the
// offsets/keys/pos arrays are zero-copy reslices of that buffer. Corruption
// and mismatch fail loudly: ErrIndexMagic, ErrIndexVersion,
// ErrIndexTruncated, ErrIndexChecksum, ErrIndexGeometry, ErrIndexMismatch.
func LoadIndex(r io.Reader, ref *Reference) (*Index, error) {
	if !hostIsLittleEndian() {
		return nil, ErrIndexByteOrder
	}
	var hdr [indexHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: header: %v", ErrIndexTruncated, err)
	}
	if string(hdr[0:4]) != indexMagic {
		return nil, fmt.Errorf("%w (magic %q)", ErrIndexMagic, hdr[0:4])
	}
	if order := binary.LittleEndian.Uint64(hdr[8:16]); order != indexOrderMarker {
		return nil, fmt.Errorf("%w (byte-order marker %#x)", ErrIndexMagic, order)
	}
	if v := binary.LittleEndian.Uint32(hdr[4:8]); v != indexVersion {
		return nil, fmt.Errorf("%w (file version %d, supported %d)", ErrIndexVersion, v, indexVersion)
	}

	k := binary.LittleEndian.Uint64(hdr[16:24])
	step := binary.LittleEndian.Uint64(hdr[24:32])
	shift := binary.LittleEndian.Uint64(hdr[32:40])
	nBuckets := binary.LittleEndian.Uint64(hdr[40:48])
	nEntries := binary.LittleEndian.Uint64(hdr[48:56])
	distinct := binary.LittleEndian.Uint64(hdr[56:64])
	refLen := binary.LittleEndian.Uint64(hdr[64:72])
	nContigs := binary.LittleEndian.Uint64(hdr[72:80])
	fingerprint := binary.LittleEndian.Uint64(hdr[80:88])

	// Geometry sanity: exactly the shapes buildReferenceIndex can produce.
	switch {
	case k < 8 || k > 16,
		step < 1 || step > MaxSeedStep,
		nBuckets == 0 || nBuckets&(nBuckets-1) != 0, // power of two
		nBuckets > 1<<26 || nBuckets > 1<<(2*k),     // build caps bucket bits at 26
		shift != 2*k-uint64(trailingBits(nBuckets)),
		nEntries > refLen,
		distinct > nEntries:
		return nil, fmt.Errorf("%w (k=%d step=%d shift=%d buckets=%d entries=%d)",
			ErrIndexGeometry, k, step, shift, nBuckets, nEntries)
	}

	// Reference identity before the (potentially large) payload read.
	if uint64(ref.Len()) != refLen || uint64(ref.NumContigs()) != nContigs {
		return nil, fmt.Errorf("%w: file indexes %d bases in %d contigs, reference has %d in %d",
			ErrIndexMismatch, refLen, nContigs, ref.Len(), ref.NumContigs())
	}
	if fp := refFingerprint(ref); fp != fingerprint {
		return nil, fmt.Errorf("%w: reference fingerprint %#x, file built from %#x",
			ErrIndexMismatch, fp, fingerprint)
	}

	payload := payloadBytes(nBuckets, nEntries)
	buf := make([]uint64, payload/8)
	raw := byteView(buf, 8)
	if _, err := io.ReadFull(r, raw); err != nil {
		return nil, fmt.Errorf("%w: arrays: %v", ErrIndexTruncated, err)
	}
	var trailer [8]byte
	if _, err := io.ReadFull(r, trailer[:]); err != nil {
		return nil, fmt.Errorf("%w: checksum: %v", ErrIndexTruncated, err)
	}
	if got, want := crc64.Checksum(raw, crcTable), binary.LittleEndian.Uint64(trailer[:]); got != want {
		return nil, fmt.Errorf("%w (computed %#x, stored %#x)", ErrIndexChecksum, got, want)
	}

	// Zero-copy reslices into the aligned buffer. The keys slab starts on
	// an 8-byte boundary (offsets are whole uint64s) and pos starts after
	// the zero-padded keys slab, so every array keeps natural alignment.
	x := &Index{
		ref:      ref,
		seq:      ref.Seq(),
		k:        int(k),
		step:     int(step),
		shift:    uint(shift),
		distinct: int(distinct),
	}
	x.offsets = buf[:nBuckets+1]
	if nEntries > 0 {
		keyWords := buf[nBuckets+1 : nBuckets+1+(nEntries*4+keysPadBytes(nEntries))/8]
		x.keys = unsafe.Slice((*uint32)(unsafe.Pointer(&keyWords[0])), nEntries)
		posWords := buf[uint64(len(buf))-nEntries:]
		x.pos = unsafe.Slice((*int64)(unsafe.Pointer(&posWords[0])), nEntries)
	}

	// What the CRC cannot express — a payload that is intact but was never a
	// CSR: every probe indexes keys and pos by these values unchecked.
	if err := x.validate(); err != nil {
		return nil, err
	}
	return x, nil
}

// validate holds a loaded index's arrays to what every probe assumes: offsets
// is a monotone prefix from 0 to the entry count; every entry lies in the
// bucket its key names; inside a bucket keys do not descend, and equal keys'
// positions ascend; every position's k-window lies inside the reference. A
// violation is ErrIndexGeometry. Buckets are the keys' high bits laid out in
// order, so the key-order clauses together say the keys ascend over the
// whole array — which lets both passes run straight down their arrays with
// no per-bucket loop (half the buckets are empty: a loop over each one's
// entries is a mispredicted branch per bucket, and measured twice this).
func (x *Index) validate() error {
	nEntries := uint64(len(x.pos))
	nBuckets := uint64(len(x.offsets) - 1)
	if x.offsets[0] != 0 || x.offsets[nBuckets] != nEntries {
		return fmt.Errorf("%w (offsets span [%d,%d], entries %d)",
			ErrIndexGeometry, x.offsets[0], x.offsets[nBuckets], nEntries)
	}
	for b, lo := range x.offsets[:nBuckets] {
		if hi := x.offsets[b+1]; lo > hi {
			return fmt.Errorf("%w (bucket %d spans [%d,%d))", ErrIndexGeometry, b, lo, hi)
		}
	}
	maxPos := int64(len(x.seq) - x.k)
	var prevKey uint32
	var prevPos int64
	for i, key := range x.keys {
		pos := x.pos[i]
		b := uint64(key >> x.shift)
		if b >= nBuckets || uint64(i) < x.offsets[b] || uint64(i) >= x.offsets[b+1] {
			return fmt.Errorf("%w (entry %d: key %#x outside its bucket)", ErrIndexGeometry, i, key)
		}
		if i > 0 && (key < prevKey || key == prevKey && pos <= prevPos) {
			return fmt.Errorf("%w (entry %d out of order)", ErrIndexGeometry, i)
		}
		if pos < 0 || pos > maxPos {
			return fmt.Errorf("%w (entry %d: position %d outside [0,%d])", ErrIndexGeometry, i, pos, maxPos)
		}
		prevKey, prevPos = key, pos
	}
	return nil
}

// trailingBits returns log2 of a power of two.
func trailingBits(v uint64) int {
	n := 0
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}

// LoadIndexFile is LoadIndex over a file path.
func LoadIndexFile(path string, ref *Reference) (*Index, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer func() { _ = f.Close() }() //gk:allow errcheck: read-only input; read errors surface via LoadIndex
	x, err := LoadIndex(f, ref)
	if err != nil {
		return nil, fmt.Errorf("loading index %s: %w", path, err)
	}
	return x, nil
}
