package align

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/dna"
	"repro/internal/lint"
)

// checkContract holds a prepared verifier to the (d, ok) contract against
// the quadratic DP's distance want: ok ⇔ want ≤ e, and d == want when ok.
func checkContract(t *testing.T, v *Verifier, a, b []byte, e, want int) {
	t.Helper()
	d, ok := v.Distance(b, e)
	switch {
	case ok != (want <= e):
		t.Fatalf("Distance(|a|=%d, |b|=%d, e=%d) ok=%v, DP distance %d\na=%q\nb=%q", len(a), len(b), e, ok, want, a, b)
	case ok && d != want:
		t.Fatalf("Distance(|a|=%d, |b|=%d, e=%d) = %d, DP distance %d\na=%q\nb=%q", len(a), len(b), e, d, want, a, b)
	case !ok && d != 0:
		t.Fatalf("Distance(|a|=%d, |b|=%d, e=%d) = (%d, false), want (0, false)", len(a), len(b), e, d)
	}
}

// sweepThresholds covers e = 0, both sides of the one- and two-word band
// widths (2e+1 = 63, 65, 81), and odd/even slack.
var sweepThresholds = []int{0, 1, 2, 3, 4, 5, 8, 15, 16, 31, 32, 33, 40}

// sprinkle overwrites a few positions of seq with 'N' and arbitrary
// non-ACGT bytes (0x00 and 0xff included): every byte is its own symbol.
func sprinkle(rng *rand.Rand, seq []byte) {
	odd := []byte{'N', 'n', 'a', 0x00, 0xff, '-', 'N'}
	for k := rng.Intn(4); k > 0 && len(seq) > 0; k-- {
		seq[rng.Intn(len(seq))] = odd[rng.Intn(len(odd))]
	}
}

func TestVerifierMatchesDPSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	lengths := []int{31, 32, 33, 50, 63, 64, 65, 100, 127, 128, 129, 150, 191, 192, 193, 250, 257, 300, 320}
	for m := 1; m <= 24; m++ {
		lengths = append(lengths, m)
	}
	var v Verifier
	for _, m := range lengths {
		for trial := 0; trial < 12; trial++ {
			a := dna.RandomSeq(rng, m)
			if trial%3 == 0 {
				sprinkle(rng, a)
			}
			var b []byte
			switch trial % 4 {
			case 0: // substitutions only: equal lengths
				b = dna.MutateSubstitutions(rng, a, rng.Intn(45))
			case 1, 2: // indel-rich: lengths drift apart, up to and past e
				b = dna.ApplyEdits(a, dna.RandomEdits(rng, m, rng.Intn(min(m, 45)), 0.6))
			case 3: // unrelated, length off by up to 45 either way
				b = dna.RandomSeq(rng, max(0, m+rng.Intn(91)-45))
			}
			if trial%5 == 0 {
				sprinkle(rng, b)
			}
			want := DistanceDP(a, b)
			v.Prepare(a)
			for _, e := range sweepThresholds {
				checkContract(t, &v, a, b, e, want)
			}
			// The thresholds around the true distance are where the cut-off
			// and the band are tightest.
			for e := max(0, want-1); e <= want+1; e++ {
				checkContract(t, &v, a, b, e, want)
			}
		}
	}
}

// TestVerifierLengthGap walks the window length across m-e-1 .. m+e+1 so the
// band's asymmetric form (lo ≠ -hi) and the length-gap rejection are hit at
// every offset.
func TestVerifierLengthGap(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	var v Verifier
	for _, m := range []int{1, 7, 64, 65, 130} {
		a := dna.RandomSeq(rng, m)
		v.Prepare(a)
		for _, e := range []int{0, 1, 4, 9, 40} {
			for n := max(0, m-e-1); n <= m+e+1; n++ {
				// b shares a's prefix and gains or loses a random tail.
				b := append([]byte(nil), a[:min(m, n)]...)
				b = append(b, dna.RandomSeq(rng, n-len(b))...)
				checkContract(t, &v, a, b, e, DistanceDP(a, b))
			}
		}
	}
}

func TestVerifierEmptyAndNegative(t *testing.T) {
	var v Verifier
	// The zero value behaves as prepared with an empty read.
	if d, ok := v.Distance(nil, 0); !ok || d != 0 {
		t.Fatalf("zero verifier, empty window: (%d,%v)", d, ok)
	}
	if d, ok := v.Distance([]byte("ACG"), 3); !ok || d != 3 {
		t.Fatalf("empty read vs ACG at e=3: (%d,%v)", d, ok)
	}
	if _, ok := v.Distance([]byte("ACG"), 2); ok {
		t.Fatal("empty read vs ACG accepted at e=2")
	}
	v.Prepare([]byte("ACGT"))
	if d, ok := v.Distance(nil, 4); !ok || d != 4 {
		t.Fatalf("ACGT vs empty window at e=4: (%d,%v)", d, ok)
	}
	if _, ok := v.Distance(nil, 3); ok {
		t.Fatal("ACGT vs empty window accepted at e=3")
	}
	if _, ok := v.Distance([]byte("ACGT"), -1); ok {
		t.Fatal("negative budget accepted")
	}
	if _, ok := v.Align([]byte("ACGT"), -1); ok {
		t.Fatal("Align accepted a negative budget")
	}
	v.Prepare(nil)
	if d, ok := v.Distance(nil, 0); !ok || d != 0 {
		t.Fatalf("re-prepared empty read: (%d,%v)", d, ok)
	}
}

// TestVerifierPrepareReuse: a long read, then a short one, then a different
// alphabet must leave no stale mask bits — every answer equals a fresh
// verifier's and the DP's.
func TestVerifierPrepareReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	long := dna.RandomSeq(rng, 300)
	short := long[:40] // same bytes at the same rows as the long read's head
	other := bytes.Repeat([]byte("NXnx\x00\xff"), 20)
	windows := [][]byte{long, short, other, dna.RandomSeq(rng, 45), long[:120], other[:118]}
	var v Verifier
	for round, read := range [][]byte{long, short, other, short, long, nil, other} {
		v.Prepare(read)
		var fresh Verifier
		fresh.Prepare(read)
		for _, w := range windows {
			want := DistanceDP(read, w)
			for _, e := range []int{0, 5, 40, 300} {
				checkContract(t, &v, read, w, e, want)
				d, ok := v.Distance(w, e)
				fd, fok := fresh.Distance(w, e)
				if d != fd || ok != fok {
					t.Fatalf("round %d: reused verifier (%d,%v), fresh (%d,%v)", round, d, ok, fd, fok)
				}
			}
		}
	}
	// After the last Prepare only other's six symbols may have mask bits.
	for blk := range v.peq {
		for c, bits := range v.peq[blk] {
			if bits != 0 && bytes.IndexByte(other, byte(c)) < 0 {
				t.Fatalf("stale mask bits for byte %#x in block %d: %#x", c, blk, bits)
			}
		}
	}
}

// TestVerifierPrepareCopies: the caller may reuse the read's buffer after
// Prepare without disturbing later answers or the next Prepare's clearing.
func TestVerifierPrepareCopies(t *testing.T) {
	read := []byte("ACGTACGTAC")
	window := []byte("ACGTACGTAC")
	var v Verifier
	v.Prepare(read)
	copy(read, "TTTTTTTTTT")
	if d, ok := v.Distance(window, 0); !ok || d != 0 {
		t.Fatalf("after the caller overwrote its buffer: (%d,%v), want (0,true)", d, ok)
	}
	v.Prepare([]byte("GG"))
	if d, ok := v.Distance([]byte("AC"), 2); !ok || d != 2 {
		t.Fatalf("stale masks survived the buffer overwrite: (%d,%v), want (2,true)", d, ok)
	}
}

// refAlign is the pre-bit-vector Align, kept verbatim as the traceback
// oracle: a (2·maxDist+1)-wide row DP and the diagonal / insertion /
// deletion tie-break. Verifier.Align walks the bit vectors its one pass
// recorded and must still emit the same operations.
func refAlign(a, b []byte, maxDist int) (Alignment, bool) {
	m, n := len(a), len(b)
	if maxDist < 0 || abs(m-n) > maxDist {
		return Alignment{}, false
	}
	const inf = int(^uint(0) >> 2)
	width := 2*maxDist + 1
	rows := make([][]int, m+1)
	for i := range rows {
		rows[i] = make([]int, width)
		for k := range rows[i] {
			rows[i][k] = inf
		}
	}
	for k := 0; k < width; k++ {
		if j := k - maxDist; j >= 0 && j <= n && j <= maxDist {
			rows[0][k] = j
		}
	}
	for i := 1; i <= m; i++ {
		rowMin := inf
		for k := 0; k < width; k++ {
			j := i + k - maxDist
			if j < 0 || j > n {
				continue
			}
			best := inf
			if j == 0 {
				best = i
			} else {
				if rows[i-1][k] != inf {
					cost := 1
					if a[i-1] == b[j-1] {
						cost = 0
					}
					best = rows[i-1][k] + cost
				}
				if k+1 < width && rows[i-1][k+1] != inf && rows[i-1][k+1]+1 < best {
					best = rows[i-1][k+1] + 1
				}
				if k-1 >= 0 && rows[i][k-1] != inf && rows[i][k-1]+1 < best {
					best = rows[i][k-1] + 1
				}
			}
			rows[i][k] = best
			if best < rowMin {
				rowMin = best
			}
		}
		if rowMin > maxDist {
			return Alignment{}, false
		}
	}
	endK := n - m + maxDist
	if endK < 0 || endK >= width || rows[m][endK] > maxDist {
		return Alignment{}, false
	}
	var ops []Op
	i, k := m, endK
	for {
		j := i + k - maxDist
		if i == 0 && j == 0 {
			break
		}
		cur := rows[i][k]
		switch {
		case i > 0 && j > 0 && rows[i-1][k] != inf &&
			((a[i-1] == b[j-1] && rows[i-1][k] == cur) ||
				(a[i-1] != b[j-1] && rows[i-1][k]+1 == cur)):
			if a[i-1] == b[j-1] {
				ops = append(ops, OpMatch)
			} else {
				ops = append(ops, OpMismatch)
			}
			i--
		case i > 0 && k+1 < width && rows[i-1][k+1] != inf && rows[i-1][k+1]+1 == cur:
			ops = append(ops, OpIns)
			i--
			k++
		case j > 0 && k-1 >= 0 && rows[i][k-1] != inf && rows[i][k-1]+1 == cur:
			ops = append(ops, OpDel)
			k--
		case j == 0:
			ops = append(ops, OpIns)
			i--
			k++
		default:
			return Alignment{}, false
		}
	}
	for lo, hi := 0, len(ops)-1; lo < hi; lo, hi = lo+1, hi-1 {
		ops[lo], ops[hi] = ops[hi], ops[lo]
	}
	return Alignment{Distance: rows[m][endK], Ops: ops}, true
}

// TestAlignMatchesOldTraceback pins CIGARs byte-identical to the old
// full-width band: same ok, same distance, same operation string, across
// reads of one to seven blocks, thresholds well above the distance (where
// the pass advances blocks no optimal path enters) and indel-rich pairs
// (where ties are common).
func TestAlignMatchesOldTraceback(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	var v Verifier
	for trial := 0; trial < 600; trial++ {
		m := 1 + rng.Intn(220)
		if trial%3 == 0 { // five blocks and more
			m = 257 + rng.Intn(144)
		}
		a := dna.RandomSeq(rng, m)
		if trial%7 == 0 { // low-complexity reads make tied paths the rule
			a = bytes.Repeat([]byte("AC"), m)[:m]
		}
		edits := rng.Intn(min(m, 14))
		if trial%5 == 0 {
			edits = rng.Intn(min(m, 71))
		}
		b := dna.ApplyEdits(a, dna.RandomEdits(rng, m, edits, 0.6))
		if trial%11 == 0 {
			sprinkle(rng, b)
		}
		v.Prepare(a)
		for _, e := range []int{0, 2, 5, 15, 40, 70} {
			want, wantOK := refAlign(a, b, e)
			got, ok := v.Align(b, e)
			if ok != wantOK {
				t.Fatalf("trial %d e=%d: ok=%v, old Align ok=%v", trial, e, ok, wantOK)
			}
			if !ok {
				continue
			}
			if got.Distance != want.Distance || string(got.Ops) != string(want.Ops) {
				t.Fatalf("trial %d e=%d: (%d, %s), old Align (%d, %s)\na=%q\nb=%q",
					trial, e, got.Distance, got.CIGAR(), want.Distance, want.CIGAR(), a, b)
			}
			if wrapped, wok := Align(a, b, e); !wok || string(wrapped.Ops) != string(got.Ops) {
				t.Fatalf("trial %d e=%d: package Align disagrees with Verifier.Align", trial, e)
			}
		}
	}
}

// TestAlignOpsLifetime: Verifier.Align's Ops are the verifier's scratch,
// good until its next Align or Prepare; the package-level Align returns a
// copy, because its verifier goes back to a pool.
func TestAlignOpsLifetime(t *testing.T) {
	a, b := []byte("ACGTACGTAC"), []byte("ACGTTCGTAC")
	kept, ok := Align(a, b, 2)
	if !ok || kept.CIGAR() != "4=1X5=" {
		t.Fatalf("Align = (%s, %v)", kept.CIGAR(), ok)
	}
	for i := 0; i < 4; i++ { // whichever pooled verifier served kept, reuse it
		if al, ok := Align([]byte("TTTTTTTTTTTT"), []byte("TTTTTT"), 6); !ok || al.CIGAR() != "6I6=" {
			t.Fatalf("Align = (%s, %v)", al.CIGAR(), ok)
		}
	}
	if got := kept.CIGAR(); got != "4=1X5=" {
		t.Fatalf("a later Align rewrote a returned alignment: %s", got)
	}
}

// replayOps applies ops to a and reports the sequence they produce, the
// number of non-match operations, and whether every operation was legal
// ('=' over equal bytes, 'X' over unequal ones, nothing run past an end).
func replayOps(a, b []byte, ops []Op) (out []byte, edits int, legal bool) {
	ai, bi := 0, 0
	for _, op := range ops {
		switch op {
		case OpMatch, OpMismatch:
			if ai >= len(a) || bi >= len(b) || (a[ai] == b[bi]) != (op == OpMatch) {
				return nil, 0, false
			}
			out = append(out, b[bi])
			ai++
			bi++
		case OpIns:
			if ai >= len(a) {
				return nil, 0, false
			}
			ai++
		case OpDel:
			if bi >= len(b) {
				return nil, 0, false
			}
			out = append(out, b[bi])
			bi++
		default:
			return nil, 0, false
		}
		if op != OpMatch {
			edits++
		}
	}
	return out, edits, ai == len(a) && bi == len(b)
}

// fuzzBudget folds an arbitrary fuzzed int into [-1, 48]: past 2e+1 > 64
// and including the negative budget.
func fuzzBudget(e int) int {
	if e < 0 {
		e = -(e + 1)
	}
	return e%50 - 1
}

const fuzzMaxLen = 400

func FuzzVerifierDistance(f *testing.F) {
	f.Add([]byte("ACGT"), []byte("ACGA"), 2)
	f.Fuzz(func(t *testing.T, a, b []byte, e int) {
		if len(a) > fuzzMaxLen || len(b) > fuzzMaxLen {
			t.Skip()
		}
		e = fuzzBudget(e)
		want := DistanceDP(a, b)
		var v Verifier
		v.Prepare(b) // a dirty verifier: at e ≥ m the column pass builds b's masks,
		v.Distance(a, len(a)+len(b))
		v.Prepare(a) // and a's first hand-over must clear them
		checkContract(t, &v, a, b, e, want)
		if d, ok := DistanceBanded(a, b, e); ok != (want <= e) || (ok && d != want) {
			t.Fatalf("DistanceBanded = (%d,%v), DP distance %d, e=%d", d, ok, want, e)
		}
	})
}

func FuzzAlignTraceback(f *testing.F) {
	f.Add([]byte("ACGTACGT"), []byte("ACGACGTT"), 3)
	f.Fuzz(func(t *testing.T, a, b []byte, e int) {
		if len(a) > fuzzMaxLen || len(b) > fuzzMaxLen {
			t.Skip()
		}
		e = fuzzBudget(e)
		want := DistanceDP(a, b)
		var v Verifier
		v.Prepare(a)
		al, ok := v.Align(b, e)
		if ok != (want <= e) {
			t.Fatalf("Align ok=%v, DP distance %d, e=%d", ok, want, e)
		}
		// Replaying to the DP distance proves the path optimal; only the old
		// traceback's operations prove the tie-break did not drift.
		old, oldOK := refAlign(a, b, e)
		if ok != oldOK || al.Distance != old.Distance || string(al.Ops) != string(old.Ops) {
			t.Fatalf("Align = (%d, %s, %v), old Align (%d, %s, %v)\na=%q\nb=%q",
				al.Distance, al.CIGAR(), ok, old.Distance, old.CIGAR(), oldOK, a, b)
		}
		if !ok {
			return
		}
		out, edits, legal := replayOps(a, b, al.Ops)
		if !legal || !bytes.Equal(out, b) {
			t.Fatalf("ops %s do not replay a into b\na=%q\nb=%q", al.CIGAR(), a, b)
		}
		d, _ := v.Distance(b, e)
		if edits != want || al.Distance != want || d != want {
			t.Fatalf("ops imply %d edits, Align says %d, Distance says %d, DP says %d", edits, al.Distance, d, want)
		}
	})
}

// TestVerifierZeroAllocs is the verification hot-path guard: once a verifier
// has seen its longest read, Prepare, Distance and Align allocate nothing,
// however the reads alternate and whichever stage settles the pair — a hit
// and a miss finished on the wavefront, a pair handed over to the column pass,
// the hand-over that builds a read's masks after Prepares that built none, a
// length gap. The mapper runs one of the two once per surviving candidate.
func TestVerifierZeroAllocs(t *testing.T) {
	for _, fn := range []string{"Verifier.Distance", "Verifier.wavefront", "matchLen", "load64", "wavefrontWidth",
		"Verifier.buildMasks", "Verifier.columns", "Verifier.record", "blockStep", "abs"} {
		if !lint.IsNoAlloc("repro/internal/align", fn) {
			t.Fatalf("%s is not in lint.NoAllocRegistry; static and runtime guards have drifted", fn)
		}
	}
	if raceEnabled {
		t.Skip("race instrumentation allocates; run without -race")
	}
	rng := rand.New(rand.NewSource(16))
	for _, tc := range []struct{ L, e int }{{100, 5}, {300, 15}, {50, 1}, {64, 40}} {
		t.Run(fmt.Sprintf("L%d-e%d", tc.L, tc.e), func(t *testing.T) {
			L, e := tc.L, tc.e
			read := dna.RandomSeq(rng, L)
			other := dna.RandomSeq(rng, L/2)
			windows := []struct {
				w    []byte
				want string
			}{
				{substituted(read, L/2), wantHit},
				{cat(read[:L-e-1], bytes.Repeat([]byte("x"), e+1)), wantMiss},
				{substituted(read, 0), wantOver0},
				{dna.ApplyEdits(read, dna.RandomEdits(rng, L, e/2, 0.5)), ""}, // whichever stage
				{dna.RandomSeq(rng, L), ""},
				{read[:L-e-1], wantLengths},
			}
			var v Verifier
			for _, traceback := range []bool{false, true} {
				verify := func(w []byte) bool {
					if traceback {
						_, ok := v.Align(w, e)
						return ok
					}
					_, ok := v.Distance(w, e)
					return ok
				}
				// The first round sizes the scratch and checks that the
				// windows are what they are named.
				for _, win := range windows {
					v.Prepare(read)
					finished, handed := v.Finished, v.HandedOver
					ok := verify(win.w)
					if got := leftBy(&v, finished, handed, read, win.w, e, ok); win.want != "" && got != win.want {
						t.Fatalf("traceback=%v: window is %s, want %s", traceback, got, win.want)
					}
				}
				if allocs := testing.AllocsPerRun(200, func() {
					// Two reads whose masks are never built, then one whose
					// first window is handed over.
					v.Prepare(other)
					verify(other)
					v.Prepare(read)
					verify(windows[0].w)
					v.Prepare(read)
					for i := len(windows) - 1; i >= 0; i-- {
						verify(windows[i].w)
					}
					verify(windows[2].w)
				}); allocs != 0 {
					t.Fatalf("traceback=%v: Prepare and verify allocated %.1f allocs/op, want 0", traceback, allocs)
				}
			}
		})
	}
}

// BenchmarkDistanceBanded100bp and BenchmarkDistanceBanded300bp are the
// verify-layer micro-benchmarks at the rig's two read shapes. "wrapper" is
// what a caller without a Verifier pays (masks rebuilt per pair); "prepared"
// is the mapper's steady state, one Prepare per read; "prepared-reject" is an
// unrelated window, settled by the cut-off.
func BenchmarkDistanceBanded100bp(b *testing.B) { benchmarkVerify(b, 100, 5) }
func BenchmarkDistanceBanded300bp(b *testing.B) { benchmarkVerify(b, 300, 15) }

func benchmarkVerify(b *testing.B, L, e int) {
	rng := rand.New(rand.NewSource(8))
	x := dna.RandomSeq(rng, L)
	y := dna.MutateSubstitutions(rng, x, e)
	z := dna.RandomSeq(rng, L)
	var v Verifier
	v.Prepare(x)
	b.Run("wrapper", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			DistanceBanded(x, y, e)
		}
	})
	b.Run("prepared", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			v.Distance(y, e)
		}
	})
	b.Run("prepared-reject", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			v.Distance(z, e)
		}
	})
	b.Run("prepare", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			v.Prepare(x)
		}
	})
	b.Run("traceback", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			v.Align(y, e)
		}
	})
}
