package mapper

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/dna"
)

// serializeToBytes round-trips the index through an in-memory buffer.
func serializeToBytes(t *testing.T, x *Index) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := x.Serialize(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestIndexSerializeRoundTrip pins the load to bit-identical arrays: every
// slab of the loaded index equals the built one, across steps and across
// an index whose keys slab needs padding (odd entry count).
func TestIndexSerializeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	r := testReference(t, rng, 3, 8_009)
	for _, step := range []int{1, 4} {
		built, err := NewSteppedReferenceIndex(r, 11, step)
		if err != nil {
			t.Fatal(err)
		}
		data := serializeToBytes(t, built)
		loaded, err := LoadIndex(bytes.NewReader(data), r)
		if err != nil {
			t.Fatalf("step=%d: %v", step, err)
		}
		if loaded.K() != built.K() || loaded.Step() != built.Step() ||
			loaded.shift != built.shift || loaded.distinct != built.distinct {
			t.Fatalf("step=%d: scalar fields differ after round trip", step)
		}
		if !reflect.DeepEqual(built.offsets, loaded.offsets) {
			t.Fatalf("step=%d: offsets differ after round trip", step)
		}
		if len(built.keys) != len(loaded.keys) || len(built.pos) != len(loaded.pos) {
			t.Fatalf("step=%d: entry count differs after round trip", step)
		}
		for i := range built.keys {
			if built.keys[i] != loaded.keys[i] || built.pos[i] != loaded.pos[i] {
				t.Fatalf("step=%d: entry %d differs after round trip", step, i)
			}
		}
		// Behavior, not just representation: every reference window looks up
		// identically in both.
		seq := r.Seq()
		for i := 0; i+11 <= len(seq); i += 13 {
			a, b := built.Lookup(seq[i:i+11]), loaded.Lookup(seq[i:i+11])
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("step=%d: Lookup@%d differs after round trip", step, i)
			}
		}
	}
}

// TestIndexSerializeEmpty pins the zero-entry edge: a reference of only
// undefined bases serializes and loads with no entries and nil lookups.
func TestIndexSerializeEmpty(t *testing.T) {
	seq := bytes.Repeat([]byte{'N'}, 500)
	copy(seq, "ACGTACGTACG") // 11 defined bases < k=13: still zero indexable windows
	r := SingleContig("chrN", seq)
	built, err := NewSteppedReferenceIndex(r, 13, 1)
	if err != nil {
		t.Fatal(err)
	}
	if built.Entries() != 0 {
		t.Fatalf("expected an empty index, got %d entries", built.Entries())
	}
	loaded, err := LoadIndex(bytes.NewReader(serializeToBytes(t, built)), r)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Entries() != 0 || loaded.DistinctKmers() != 0 {
		t.Fatalf("loaded empty index has %d entries", loaded.Entries())
	}
	if got := loaded.Lookup([]byte("ACGTACGTACGTA")); got != nil {
		t.Fatalf("empty index returned %d hits", len(got))
	}
}

// TestIndexFileRoundTripMappingIdentity is the differential oracle the
// tentpole demands: build → serialize → load → map must produce SAM output
// byte-for-byte identical to build → map, through the full pipeline
// (NewFromSerializedIndex, with the config adopting the file's geometry).
func TestIndexFileRoundTripMappingIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	r := testReference(t, rng, 4, 6_007)
	for _, step := range []int{1, 3} {
		idx, err := NewSteppedReferenceIndex(r, 11, step)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "ref.gkix")
		if err := idx.SerializeToFile(path); err != nil {
			t.Fatal(err)
		}

		const L = 72
		var reads [][]byte
		var names []string
		for i := 0; i < 300; i++ {
			ci := rng.Intn(r.NumContigs())
			cs := r.ContigSeq(ci)
			p := rng.Intn(len(cs) - L)
			read := append([]byte(nil), cs[p:p+L]...)
			// Sprinkle a few substitutions so verification works too.
			for e := 0; e < rng.Intn(3); e++ {
				read[rng.Intn(L)] = "ACGT"[rng.Intn(4)]
			}
			reads = append(reads, read)
			names = append(names, fmt.Sprintf("r%d", i))
		}

		cfg := Config{ReadLen: L, MaxE: 3, SeedLen: 11, SeedStep: step, Traceback: true}
		mem, err := NewFromReference(r, cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Adopt geometry from the file: zero SeedLen/SeedStep.
		disk, err := NewFromSerializedIndex(r, path, Config{ReadLen: L, MaxE: 3, Traceback: true})
		if err != nil {
			t.Fatal(err)
		}
		if disk.Index().K() != 11 || disk.Index().Step() != step {
			t.Fatalf("adopted geometry k=%d step=%d, want 11/%d", disk.Index().K(), disk.Index().Step(), step)
		}

		memMaps, _, err := mem.MapReads(reads, 2)
		if err != nil {
			t.Fatal(err)
		}
		diskMaps, _, err := disk.MapReads(reads, 2)
		if err != nil {
			t.Fatal(err)
		}
		var memSAM, diskSAM bytes.Buffer
		if err := WriteSAM(&memSAM, r, names, reads, memMaps); err != nil {
			t.Fatal(err)
		}
		if err := WriteSAM(&diskSAM, r, names, reads, diskMaps); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(memSAM.Bytes(), diskSAM.Bytes()) {
			t.Fatalf("step=%d: SAM output differs between in-memory and loaded index", step)
		}
		if memSAM.Len() == 0 {
			t.Fatal("differential oracle vacuous: no SAM output")
		}
	}
}

// TestNewFromSerializedIndexGeometryMismatch: a non-zero config geometry
// that disagrees with the file is an error, never a silent rebuild.
func TestNewFromSerializedIndexGeometryMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	r := testReference(t, rng, 2, 4_001)
	idx, err := NewSteppedReferenceIndex(r, 12, 3)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ref.gkix")
	if err := idx.SerializeToFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := NewFromSerializedIndex(r, path, Config{ReadLen: 100, MaxE: 2, SeedLen: 13}); !errors.Is(err, ErrIndexMismatch) {
		t.Fatalf("SeedLen mismatch: got %v, want ErrIndexMismatch", err)
	}
	if _, err := NewFromSerializedIndex(r, path, Config{ReadLen: 100, MaxE: 2, SeedStep: 2}); !errors.Is(err, ErrIndexMismatch) {
		t.Fatalf("SeedStep mismatch: got %v, want ErrIndexMismatch", err)
	}
	if _, err := NewFromSerializedIndex(r, path, Config{ReadLen: 100, MaxE: 2, SeedLen: 12, SeedStep: 3}); err != nil {
		t.Fatalf("matching explicit geometry rejected: %v", err)
	}
}

// TestLoadIndexCorruption drives every named failure path with errors.Is.
func TestLoadIndexCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	r := testReference(t, rng, 2, 5_003)
	idx, err := NewSteppedReferenceIndex(r, 11, 2)
	if err != nil {
		t.Fatal(err)
	}
	good := serializeToBytes(t, idx)

	load := func(data []byte) error {
		_, err := LoadIndex(bytes.NewReader(data), r)
		return err
	}
	if err := load(good); err != nil {
		t.Fatalf("pristine file failed to load: %v", err)
	}

	// Truncation at several depths: inside the header, inside the arrays,
	// inside the trailer.
	for _, n := range []int{0, 10, indexHeaderLen - 1, indexHeaderLen + 5, len(good) / 2, len(good) - 9, len(good) - 1} {
		if err := load(good[:n]); !errors.Is(err, ErrIndexTruncated) {
			t.Errorf("truncated at %d of %d: got %v, want ErrIndexTruncated", n, len(good), err)
		}
	}

	corrupt := func(off int, b byte) []byte {
		c := append([]byte(nil), good...)
		c[off] ^= b
		return c
	}
	if err := load(corrupt(0, 0xff)); !errors.Is(err, ErrIndexMagic) {
		t.Errorf("bad magic: got %v, want ErrIndexMagic", err)
	}
	if err := load(corrupt(8, 0xff)); !errors.Is(err, ErrIndexMagic) {
		t.Errorf("bad byte-order marker: got %v, want ErrIndexMagic", err)
	}
	if err := load(corrupt(4, 0x02)); !errors.Is(err, ErrIndexVersion) {
		t.Errorf("bad version: got %v, want ErrIndexVersion", err)
	}
	if err := load(corrupt(16, 0xff)); !errors.Is(err, ErrIndexGeometry) {
		t.Errorf("absurd k: got %v, want ErrIndexGeometry", err)
	}
	if err := load(corrupt(40, 0x01)); !errors.Is(err, ErrIndexGeometry) {
		t.Errorf("non-power-of-two bucket count: got %v, want ErrIndexGeometry", err)
	}
	if err := load(corrupt(64, 0x01)); !errors.Is(err, ErrIndexMismatch) {
		t.Errorf("wrong reference length: got %v, want ErrIndexMismatch", err)
	}
	if err := load(corrupt(80, 0x01)); !errors.Is(err, ErrIndexMismatch) {
		t.Errorf("wrong reference fingerprint: got %v, want ErrIndexMismatch", err)
	}
	// One flipped bit anywhere in the payload must fail the checksum.
	for _, off := range []int{indexHeaderLen, indexHeaderLen + 8*len(idx.offsets), len(good) - 9} {
		if err := load(corrupt(off, 0x10)); !errors.Is(err, ErrIndexChecksum) {
			t.Errorf("payload flip at %d: got %v, want ErrIndexChecksum", off, err)
		}
	}
	// A flipped trailer byte is also a checksum mismatch (stored != computed).
	if err := load(corrupt(len(good)-1, 0x10)); !errors.Is(err, ErrIndexChecksum) {
		t.Errorf("trailer flip: got %v, want ErrIndexChecksum", err)
	}

	// Re-sealed corruption: the payload's CRC is recomputed after the edit, so
	// only the structural pass stands between these arrays and a probe that
	// indexes by them. One case per clause of Index.validate.
	im := imageOf(good)
	n := uint64(len(idx.pos))
	twoKeys, twoEntries := -1, -1 // a bucket with two distinct keys, one with two entries
	for b := 0; b+1 < len(idx.offsets); b++ {
		lo, hi := idx.offsets[b], idx.offsets[b+1]
		if hi-lo >= 2 {
			twoEntries = b
			if idx.keys[lo] != idx.keys[hi-1] {
				twoKeys = b
			}
		}
	}
	if twoKeys < 0 || twoEntries < 0 {
		t.Fatal("test index has no bucket with two distinct keys")
	}
	resealed := []struct {
		name string
		edit func(im gkixImage)
	}{
		{"interior offsets past the entry count", func(im gkixImage) {
			for b := uint64(1); b < im.nBuckets; b += 2 {
				im.setOffset(b, n+1_000_000)
			}
		}},
		{"descending offsets", func(im gkixImage) {
			b := uint64(twoEntries)
			lo, hi := im.offset(b), im.offset(b+1)
			im.setOffset(b, hi)
			im.setOffset(b+1, lo)
		}},
		{"first offset not zero", func(im gkixImage) { im.setOffset(0, 1) }},
		{"key of another bucket", func(im gkixImage) {
			i := idx.offsets[twoEntries]
			im.setKey(i, im.key(i)^1<<idx.shift)
		}},
		{"keys descending inside a bucket", func(im gkixImage) {
			lo, hi := idx.offsets[twoKeys], idx.offsets[twoKeys+1]-1
			a, b := im.key(lo), im.key(hi)
			im.setKey(lo, b)
			im.setKey(hi, a)
		}},
		{"equal keys, positions not ascending", func(im gkixImage) {
			i := idx.offsets[twoEntries]
			im.setKey(i+1, im.key(i))
			im.setPos(i+1, im.pos(i))
		}},
		{"position past the last k-window", func(im gkixImage) { im.setPos(n/2, int64(r.Len()-idx.k+1)) }},
		{"negative position", func(im gkixImage) { im.setPos(n/3, -1) }},
	}
	for _, c := range resealed {
		bad := imageOf(append([]byte(nil), good...))
		c.edit(bad)
		if bytes.Equal(bad.data, good) {
			t.Fatalf("%s: the edit changed nothing", c.name)
		}
		if err := load(bad.data); !errors.Is(err, ErrIndexChecksum) {
			t.Errorf("%s, not re-sealed: got %v, want ErrIndexChecksum", c.name, err)
		}
		bad.reseal()
		if err := load(bad.data); !errors.Is(err, ErrIndexGeometry) {
			t.Errorf("%s, re-sealed: got %v, want ErrIndexGeometry", c.name, err)
		}
	}
	im.reseal()
	if err := load(im.data); err != nil {
		t.Fatalf("re-sealing an unedited image broke it: %v", err)
	}

	// Wrong reference entirely.
	other := testReference(t, rand.New(rand.NewSource(35)), 2, 5_003)
	if _, err := LoadIndex(bytes.NewReader(good), other); !errors.Is(err, ErrIndexMismatch) {
		t.Errorf("wrong reference: got %v, want ErrIndexMismatch", err)
	}
	// Same sequence, renamed contig: the fingerprint covers names too.
	renamed := []dna.Record{}
	for i, c := range r.Contigs() {
		name := c.Name
		if i == 0 {
			name = "renamed"
		}
		renamed = append(renamed, dna.Record{Name: name, Seq: r.ContigSeq(i)})
	}
	rr, err := NewReference(renamed)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LoadIndex(bytes.NewReader(good), rr); !errors.Is(err, ErrIndexMismatch) {
		t.Errorf("renamed contig: got %v, want ErrIndexMismatch", err)
	}
}

// gkixImage addresses the arrays of a serialized index in place, for tests
// that corrupt one element and put the checksum right again.
type gkixImage struct {
	data               []byte
	nBuckets, nEntries uint64
}

func imageOf(data []byte) gkixImage {
	return gkixImage{data: data,
		nBuckets: binary.LittleEndian.Uint64(data[40:48]),
		nEntries: binary.LittleEndian.Uint64(data[48:56])}
}

func (im gkixImage) offsetAt(b uint64) []byte { return im.data[indexHeaderLen+8*b:][:8] }
func (im gkixImage) keyAt(i uint64) []byte {
	return im.data[indexHeaderLen+8*(im.nBuckets+1)+4*i:][:4]
}
func (im gkixImage) posAt(i uint64) []byte {
	return im.data[uint64(len(im.data))-8-8*im.nEntries+8*i:][:8]
}

func (im gkixImage) offset(b uint64) uint64       { return binary.LittleEndian.Uint64(im.offsetAt(b)) }
func (im gkixImage) setOffset(b uint64, v uint64) { binary.LittleEndian.PutUint64(im.offsetAt(b), v) }
func (im gkixImage) key(i uint64) uint32          { return binary.LittleEndian.Uint32(im.keyAt(i)) }
func (im gkixImage) setKey(i uint64, v uint32)    { binary.LittleEndian.PutUint32(im.keyAt(i), v) }
func (im gkixImage) pos(i uint64) int64           { return int64(binary.LittleEndian.Uint64(im.posAt(i))) }
func (im gkixImage) setPos(i uint64, v int64)     { binary.LittleEndian.PutUint64(im.posAt(i), uint64(v)) }

// reseal recomputes the trailer over the payload as it now stands.
func (im gkixImage) reseal() {
	payload := im.data[indexHeaderLen : len(im.data)-8]
	binary.LittleEndian.PutUint64(im.data[len(im.data)-8:], crc64.Checksum(payload, crcTable))
}

// FuzzLoadIndex edits a good index file — header fields and elements of all
// three arrays — re-seals it, and loads it. LoadIndex must answer with one of
// its classified errors or with an index every probe is safe on: every k-mer
// of the reference looks up without a panic and every hit's k-window lies
// inside the reference.
func FuzzLoadIndex(f *testing.F) {
	rng := rand.New(rand.NewSource(36))
	r := testReference(f, rng, 3, 701)
	const k = 8
	idx, err := NewSteppedReferenceIndex(r, k, 2)
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := idx.Serialize(&buf); err != nil {
		f.Fatal(err)
	}
	good := buf.Bytes()
	classified := []error{ErrIndexMagic, ErrIndexVersion, ErrIndexTruncated, ErrIndexChecksum,
		ErrIndexGeometry, ErrIndexMismatch}

	// An edit is 8 bytes: what to edit (0-8 a header field, then offsets,
	// keys, pos), which element (3 bytes, modulo the array), and a signed
	// 32-bit amount added to it.
	edit := func(what byte, elem uint32, delta int32) []byte {
		e := []byte{what, byte(elem), byte(elem >> 8), byte(elem >> 16)}
		return binary.LittleEndian.AppendUint32(e, uint32(delta))
	}
	f.Add([]byte{})
	f.Add(edit(9, 1, 1_000_000))                            // an interior offset past the entries
	f.Add(append(edit(9, 5, 3), edit(9, 6, -2)...))         // offsets out of order
	f.Add(edit(10, 7, 1<<uint(idx.shift)))                  // a key moved to the next bucket
	f.Add(edit(10, 0, -1))                                  // a key below its bucket
	f.Add(edit(11, 3, int32(r.Len())))                      // a position past the reference
	f.Add(edit(11, 0, -5000))                               // a negative position
	f.Add(edit(6, 0, -1))                                   // fewer entries than the arrays hold
	f.Add(append(edit(2, 0, 1), edit(4, 0, 2)...))          // k and shift disagree
	f.Add(append(edit(5, 0, int32(len(idx.offsets)-1)), 0)) // twice the buckets, ragged tail

	f.Fuzz(func(t *testing.T, edits []byte) {
		im := imageOf(append([]byte(nil), good...))
		for ; len(edits) >= 8; edits = edits[8:] {
			elem := uint64(edits[1]) | uint64(edits[2])<<8 | uint64(edits[3])<<16
			delta := int64(int32(binary.LittleEndian.Uint32(edits[4:8])))
			switch what := edits[0] % 12; {
			case what < 9: // header fields k … fingerprint, 8 bytes each from byte 16
				field := im.data[16+8*int(what):][:8]
				binary.LittleEndian.PutUint64(field, binary.LittleEndian.Uint64(field)+uint64(delta))
			case what == 9:
				b := elem % (im.nBuckets + 1)
				im.setOffset(b, im.offset(b)+uint64(delta))
			case what == 10:
				i := elem % im.nEntries
				im.setKey(i, im.key(i)+uint32(delta))
			default:
				i := elem % im.nEntries
				im.setPos(i, im.pos(i)+delta)
			}
		}
		im.reseal()
		// LoadIndex allocates what the header declares before it can know the
		// file is shorter; keep the fuzzer's own memory small.
		if binary.LittleEndian.Uint64(im.data[40:48]) > 1<<20 {
			t.Skip()
		}
		x, err := LoadIndex(bytes.NewReader(im.data), r)
		if err != nil {
			for _, want := range classified {
				if errors.Is(err, want) {
					return
				}
			}
			t.Fatalf("unclassified error: %v", err)
		}
		seq := r.Seq()
		for i := 0; i+x.K() <= len(seq); i++ {
			for _, hit := range x.Lookup(seq[i : i+x.K()]) {
				if hit < 0 || int(hit)+x.K() > len(seq) {
					t.Fatalf("Lookup@%d returned position %d outside the %d-base reference", i, hit, len(seq))
				}
			}
		}
	})
}
