package bitvec

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/dna"
)

// refMaskFromString builds a mask from a '0'/'1' string, position 0 first.
func refMaskFromString(s string) []uint64 {
	mask := make([]uint64, MaskWords(len(s)))
	for i, c := range s {
		if c == '1' {
			mask[i/64] |= 1 << uint(i%64)
		}
	}
	return mask
}

func TestWordsHelpers(t *testing.T) {
	if EncodedWords(100) != 4 {
		t.Fatalf("EncodedWords(100) = %d, want 4", EncodedWords(100))
	}
	if MaskWords(100) != 2 {
		t.Fatalf("MaskWords(100) = %d, want 2", MaskWords(100))
	}
	if EncodedWords(250) != 8 || MaskWords(250) != 4 {
		t.Fatalf("250bp sizing: enc=%d mask=%d", EncodedWords(250), MaskWords(250))
	}
	if MaskWords(0) != 0 || EncodedWords(0) != 0 {
		t.Fatal("zero-length sizing wrong")
	}
}

// paddedPlanes encodes seq as resident planes: a zero word, the plane words,
// a zero word.
func paddedPlanes(t *testing.T, seq []byte) (lo, hi []uint64) {
	t.Helper()
	n := MaskWords(len(seq))
	lo, hi = make([]uint64, n+2), make([]uint64, n+2)
	if i := dna.TryEncodePlanes(lo[1:], hi[1:], seq); i >= 0 {
		t.Fatalf("unexpected unknown base at %d", i)
	}
	return lo, hi
}

// windowMatches decodes the 64 columns Window/WindowZero returned for the two
// planes; columns outside seq must have read as 0/0.
func windowMatches(seq []byte, start int, lo, hi uint64) bool {
	for c := 0; c < 64; c++ {
		code := lo>>uint(c)&1 | hi>>uint(c)&1<<1
		var want uint64
		if i := start + c; i >= 0 && i < len(seq) {
			b, _ := dna.Code(seq[i])
			want = uint64(b)
		}
		if code != want {
			return false
		}
	}
	return true
}

func TestWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	ref := dna.RandomSeq(rng, 500)
	lo, hi := paddedPlanes(t, ref)
	// Every start the pads allow: 64 columns before base 0 through a window
	// whose second word is the trailing pad.
	for start := -64; start < len(lo)*64-128; start++ {
		off := start + CharsPerMaskWord
		if !windowMatches(ref, start, Window(lo, off), Window(hi, off)) {
			t.Fatalf("Window at base %d does not decode to the reference", start)
		}
	}
}

func TestWindowZero(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, n := range []int{1, 63, 64, 65, 100, 300} {
		seq := dna.RandomSeq(rng, n)
		lo, hi := make([]uint64, MaskWords(n)), make([]uint64, MaskWords(n))
		dna.TryEncodePlanes(lo, hi, seq)
		for start := -n - 200; start <= n+200; start++ {
			if !windowMatches(seq, start, WindowZero(lo, start), WindowZero(hi, start)) {
				t.Fatalf("n=%d: WindowZero at %d leaked or lost columns", n, start)
			}
		}
	}
	if WindowZero(nil, 0) != 0 || WindowZero(nil, -1) != 0 {
		t.Fatal("WindowZero of an empty plane is not zero")
	}
}

func TestWindowQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	ref := dna.RandomSeq(rng, 300)
	lo, hi := paddedPlanes(t, ref)
	f := func(startRaw uint16) bool {
		start := int(startRaw) % 300
		off := start + CharsPerMaskWord
		return windowMatches(ref, start, Window(lo, off), Window(hi, off)) &&
			Window(lo, off) == WindowZero(lo, off) && Window(hi, off) == WindowZero(hi, off)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestDeinterleaveMatchesPlaneEncoding: splitting the interleaved encoding
// gives exactly the planes the plane encoder writes.
func TestDeinterleaveMatchesPlaneEncoding(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, n := range []int{1, 31, 32, 33, 63, 64, 65, 96, 97, 100, 128, 129, 300} {
		seq := dna.RandomSeq(rng, n)
		enc, err := dna.Encode(seq)
		if err != nil {
			t.Fatal(err)
		}
		wantLo, wantHi := make([]uint64, MaskWords(n)), make([]uint64, MaskWords(n))
		dna.TryEncodePlanes(wantLo, wantHi, seq)
		lo, hi := make([]uint64, MaskWords(n)), make([]uint64, MaskWords(n))
		for i := range lo {
			lo[i], hi[i] = ^uint64(0), ^uint64(0) // stale scratch must be overwritten
		}
		Deinterleave(lo, hi, enc)
		for i := range lo {
			if lo[i] != wantLo[i] || hi[i] != wantHi[i] {
				t.Fatalf("n=%d word %d: deinterleaved %#x/%#x, encoded %#x/%#x", n, i, lo[i], hi[i], wantLo[i], wantHi[i])
			}
		}
	}
}

func refCountRuns(s string) int {
	count := 0
	prev := byte('0')
	for i := 0; i < len(s); i++ {
		if s[i] == '1' && prev == '0' {
			count++
		}
		prev = s[i]
	}
	return count
}

func TestCountRunsKnown(t *testing.T) {
	cases := map[string]int{
		"":            0,
		"0":           0,
		"1":           1,
		"101":         2,
		"111":         1,
		"0110":        1,
		"10101":       3,
		"1111111":     1,
		"00100100100": 3,
	}
	for s, want := range cases {
		mask := refMaskFromString(s)
		if got := CountRuns(mask, len(s)); got != want {
			t.Errorf("CountRuns(%q) = %d, want %d", s, got, want)
		}
		if got := CountRunsLUT(mask, len(s)); got != want {
			t.Errorf("CountRunsLUT(%q) = %d, want %d", s, got, want)
		}
	}
}

func TestCountRunsLUTAgreesWithBitTrick(t *testing.T) {
	f := func(raw []byte, nRaw uint8) bool {
		n := int(nRaw)%200 + 1
		mask := make([]uint64, MaskWords(n))
		for i := 0; i < n; i++ {
			if i < len(raw) && raw[i]%2 == 1 {
				mask[i/64] |= 1 << uint(i%64)
			}
		}
		return CountRuns(mask, n) == CountRunsLUT(mask, n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestCountRunsAcrossWordBoundary(t *testing.T) {
	// One run spanning bits 62..66 must count once.
	mask := make([]uint64, 2)
	for i := 62; i <= 66; i++ {
		mask[i/64] |= 1 << uint(i%64)
	}
	if got := CountRuns(mask, 128); got != 1 {
		t.Fatalf("spanning run counted %d times", got)
	}
	if got := CountRunsLUT(mask, 128); got != 1 {
		t.Fatalf("LUT spanning run counted %d times", got)
	}
}

// refCountWindows is the per-character reference for the windowed counter.
func refCountWindows(s string) int {
	count := 0
	for i := 0; i < len(s); i += 4 {
		hi := i + 4
		if hi > len(s) {
			hi = len(s)
		}
		if strings.Contains(s[i:hi], "1") {
			count++
		}
	}
	return count
}

func TestCountWindowsAgainstReference(t *testing.T) {
	f := func(raw []byte, nRaw uint8) bool {
		n := int(nRaw)%200 + 1
		var sb strings.Builder
		for i := 0; i < n; i++ {
			if i < len(raw) && raw[i]%2 == 1 {
				sb.WriteByte('1')
			} else {
				sb.WriteByte('0')
			}
		}
		s := sb.String()
		mask := refMaskFromString(s)
		got := 0
		for _, w := range mask {
			got += CountWindowsWord(w)
		}
		return got == refCountWindows(s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

// refLongestZeroRun is the bit-by-bit oracle the word-at-a-time scan must
// reproduce exactly (same start on ties: first longest wins).
func refLongestZeroRun(mask []uint64, lo, hi int) (start, length int) {
	bestStart, bestLen := lo, 0
	curStart, curLen := lo, 0
	for i := lo; i < hi; i++ {
		if mask[i/64]>>(uint(i%64))&1 == 0 {
			if curLen == 0 {
				curStart = i
			}
			curLen++
			if curLen > bestLen {
				bestStart, bestLen = curStart, curLen
			}
		} else {
			curLen = 0
		}
	}
	return bestStart, bestLen
}

func TestLongestZeroRun(t *testing.T) {
	mask := refMaskFromString("1100011110000001")
	start, length := LongestZeroRun(mask, 0, 16)
	if start != 9 || length != 6 {
		t.Fatalf("LongestZeroRun = (%d,%d), want (9,6)", start, length)
	}
	start, length = LongestZeroRun(mask, 0, 7)
	if start != 2 || length != 3 {
		t.Fatalf("LongestZeroRun prefix = (%d,%d), want (2,3)", start, length)
	}
	_, length = LongestZeroRun(refMaskFromString("1111"), 0, 4)
	if length != 0 {
		t.Fatalf("all-ones should have zero-length run, got %d", length)
	}
	if s, l := LongestZeroRun(mask, 5, 5); s != 5 || l != 0 {
		t.Fatalf("empty interval = (%d,%d), want (5,0)", s, l)
	}
}

func TestLongestZeroRunQuickAgainstBitScan(t *testing.T) {
	f := func(raw []byte, loRaw, hiRaw uint8, dense bool) bool {
		n := 200
		mask := make([]uint64, MaskWords(n))
		for i := 0; i < n; i++ {
			if i < len(raw)*8 {
				bit := raw[i/8] >> uint(i%8) & 1
				if (bit == 1) == dense {
					mask[i/64] |= 1 << uint(i%64)
				}
			}
		}
		lo := int(loRaw) % n
		hi := lo + int(hiRaw)%(n-lo+1)
		gs, gl := LongestZeroRun(mask, lo, hi)
		ws, wl := refLongestZeroRun(mask, lo, hi)
		return gs == ws && gl == wl
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestLongestZeroRunCrossesWordBoundaries(t *testing.T) {
	// A 100-zero run spanning two word boundaries must be stitched whole.
	s := strings.Repeat("1", 30) + strings.Repeat("0", 100) + strings.Repeat("1", 20)
	mask := refMaskFromString(s)
	start, length := LongestZeroRun(mask, 0, len(s))
	if start != 30 || length != 100 {
		t.Fatalf("spanning zero run = (%d,%d), want (30,100)", start, length)
	}
}
