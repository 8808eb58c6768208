package align

import (
	"math/bits"
	"sync"
)

// Verifier is the mapper's verification kernel — the
// computationally-expensive stage the pre-alignment filter protects. It
// answers "is the global edit distance between the prepared read and this
// window at most e, and if so what is it" in two stages over scratch it owns.
// A pair is first tried on a wavefront of furthest-reaching diagonals
// (Ukkonen / Myers O(ND)): O(d²) cells and a byte compare of what matches,
// no masks, so a read with few edits costs a fraction of a column pass. A
// pair that falls behind the pace rule (see wavefront) is handed over, from
// scratch, to the blocked Myers/Hyyrö bit-vector recurrence restricted to an
// Ukkonen band, whose cost does not depend on the distance. Prepare copies
// the read, the pattern masks are built at that read's first hand-over, and
// Distance — or Align, the same two stages keeping what the walk back into
// the alignment's operations reads — then costs no allocation however many
// candidate windows the read has. Every byte is its own symbol (Edlib's NW
// semantics: 'N' matches only 'N').
//
// A Verifier is not safe for concurrent use; the mapper keeps one per worker.
// The zero value is ready for Prepare.
type Verifier struct {
	// Finished counts the pairs the wavefront settled, hit or miss, and
	// HandedOver the pairs that went through the column pass; a pair settled
	// by its lengths or an empty side counts in neither.
	Finished, HandedOver int

	pat    []byte        // private copy of the prepared read
	masked []byte        // the read peq holds the masks of: pat once masksBuilt
	peq    [][256]uint64 // peq[blk][c] has bit i set when masked[blk*64+i] == c
	pv, mv []uint64      // vertical +1 / -1 delta vectors, one word per block
	wf     []int32       // the wavefront's rows: two for Distance, a table for Align
	rec    []blockDeltas // Align's record of a handed-over pair, one entry per block per column
	ops    []Op          // Align's operations, written from the back

	masksBuilt bool
}

// Prepare makes read the pattern of the following Distance and Align calls.
// It copies the read (the caller may reuse its buffer) and sizes what
// Distance needs for a read of this length — the mask blocks and the two
// wavefront rows of any e < len(read) — so it allocates only when read is
// longer than any read before it. The masks themselves wait for the read's
// first hand-over (buildMasks): a read whose every window the wavefront
// settles never pays for them.
func (v *Verifier) Prepare(read []byte) {
	m := len(read)
	if blocks := (m + wordBits - 1) / wordBits; blocks > len(v.peq) {
		v.peq = append(v.peq, make([][256]uint64, blocks-len(v.peq))...)
		v.pv = make([]uint64, blocks)
		v.mv = make([]uint64, blocks)
	}
	if cap(v.masked) < m {
		v.masked = append(make([]byte, 0, m), v.masked...)
	}
	if need := 2 * wavefrontWidth(m-1); need > len(v.wf) {
		v.wf = make([]int32, need)
	}
	v.pat = append(v.pat[:0], read...)
	v.masksBuilt = false
}

// buildMasks makes peq the masks of the prepared read. The masks remember
// which read set them — masked, not the previous Prepare's read, which may
// never have been handed over — and only that read's entries are cleared, so
// the cost is linear in the two read lengths. Prepare has sized everything.
//
//gk:noalloc
func (v *Verifier) buildMasks() {
	for i, c := range v.masked {
		v.peq[i/wordBits][c] = 0
	}
	v.masked = v.masked[:len(v.pat)]
	copy(v.masked, v.pat)
	for i, c := range v.pat {
		v.peq[i/wordBits][c] |= 1 << (i % wordBits)
	}
	v.masksBuilt = true
}

// Distance returns (d, true) when the global edit distance d between the
// prepared read and window is at most e, and (0, false) otherwise: the
// wavefront's answer when the pair keeps pace, the column pass's otherwise.
// The wavefront's rows are sized by Prepare for e < len(read), every mapper
// call; a larger e goes straight to the column pass.
//
//gk:noalloc
func (v *Verifier) Distance(window []byte, e int) (int, bool) {
	m, n := len(v.pat), len(window)
	gap := abs(m - n)
	if e < 0 || gap > e {
		return 0, false
	}
	if m == 0 || n == 0 {
		return gap, true
	}
	if e < m {
		if d, out := v.wavefront(window, e, 2); out != handOver {
			v.Finished++
			return d, out == hit
		}
	}
	v.HandedOver++
	if !v.masksBuilt {
		v.buildMasks()
	}
	return v.columns(window, e)
}

// outcome is how a pair left the wavefront.
type outcome int

const (
	handOver outcome = iota // fell behind the pace rule: the column pass decides
	hit                     // reached the end cell at the returned score
	miss                    // score e exhausted short of the end cell
)

// unreached marks a diagonal a wavefront does not hold: far enough below
// zero that e steps of +1 leave it below every row.
const unreached = -1 << 30

// wavefrontWidth is the length of one wavefront row at threshold e: the
// 2e+1 diagonals a path of cost ≤ e can touch and two unreached cells at
// either end, which is as far as the next score's reads stray.
//
//gk:noalloc
func wavefrontWidth(e int) int { return 2*e + 5 }

// wavefront tries the pair by furthest-reaching diagonals. The read runs
// down the rows, the window along the columns, diagonal k = j-i. For score
// s = 0, 1, …, e, F[s][k] is the furthest row i on diagonal k with
// D[i][i+k] ≤ s: the best of a mismatch (F[s-1][k]+1), a deletion from the
// read (F[s-1][k-1], the same row one column on) and an insertion
// (F[s-1][k+1]+1), clamped to the matrix and extended while the bytes match.
// Only diagonals that a path of cost ≤ e through them can be on are kept:
// |k| ≤ s, and s + |k-(n-m)| ≤ e to still reach the end cell's diagonal.
// Pruning lowers no F that an optimal path of cost ≤ e passes, so the pair is
// a hit with d = s at the first s with F[s][n-m] = m, and a miss when score e
// ends short of it.
//
// Score s lives in v.wf at row s mod rows: Distance rolls two rows; Align
// passes e+1 and keeps them all, because D[i][j] is the least s with
// F[s][j-i] ≥ i — the table holds every value the traceback's tie-break
// tests. On a hit, row s is left unfinished; nothing reads it.
//
// Hand-over is the pace rule, after each score's wavefront with reach its
// furthest row. A read of m bases with at most e edits has e+1 error-free
// stretches; were they equal, each would be m/(e+1) long and score s would
// end (s+1)·m/(e+1) rows in. The pair stays while it is at least half a
// stretch ahead of where that read was one score earlier:
// reach ≥ (s+½)·m/(e+1). A true hit with evenly spread edits keeps that pace,
// an unrelated window gains a row or two per score and falls behind at once,
// and what it spent here — a few cells — is what a hand-over wastes. The pair
// then goes to the column pass from scratch.
//
//gk:noalloc
func (v *Verifier) wavefront(window []byte, e, rows int) (int, outcome) {
	pat := v.pat
	m, n := len(pat), len(window)
	delta := n - m
	reach := matchLen(pat, window) // score 0 holds diagonal 0 alone: the common prefix
	if reach == m && delta == 0 {
		return 0, hit
	}
	w, off := wavefrontWidth(e), e+2 // diagonal k is at index k+off
	row, cur := 0, v.wf[:w]
	cur[off-2], cur[off-1], cur[off], cur[off+1], cur[off+2] = unreached, unreached, int32(reach), unreached, unreached
	for s := 0; s < e; s++ {
		if 2*reach*(e+1) < (2*s+1)*m {
			return 0, handOver
		}
		t := s + 1 // the score this round computes, from score s
		prev := cur
		if row++; row == rows {
			row = 0
		}
		cur = v.wf[row*w:][:w]
		lo, hi := max(-t, delta-(e-t)), min(t, delta+(e-t))
		cur[lo-2+off], cur[lo-1+off], cur[hi+1+off], cur[hi+2+off] = unreached, unreached, unreached, unreached
		reach = 0
		for k := lo; k <= hi; k++ {
			i := int(max(prev[k+off]+1, prev[k-1+off], prev[k+1+off]+1))
			// Most runs end inside their first eight bytes: compared here,
			// their length reaches i with no call and no branch on a byte.
			if end := min(m, n-k); i+8 <= end {
				if x := load64(pat[i:]) ^ load64(window[i+k:]); x != 0 {
					i += bits.TrailingZeros64(x) / 8
				} else {
					i += 8 + matchLen(pat[i+8:end], window[i+k+8:])
				}
			} else if i < end {
				i += matchLen(pat[i:end], window[i+k:])
			} else {
				i = end
			}
			if i == m && k == delta {
				return t, hit
			}
			cur[k+off] = int32(i)
			reach = max(reach, i)
		}
	}
	return 0, miss
}

// matchLen returns how many leading bytes of a and b are equal, eight at a
// time: the first set bit of the XOR of two little-endian loads is in the
// first byte that differs.
//
//gk:noalloc
func matchLen(a, b []byte) int {
	n := min(len(a), len(b))
	i := 0
	for ; i+8 <= n; i += 8 {
		if x := load64(a[i:]) ^ load64(b[i:]); x != 0 {
			return i + bits.TrailingZeros64(x)/8
		}
	}
	for i < n && a[i] == b[i] {
		i++
	}
	return i
}

// load64 is the little-endian load of b's first eight bytes, spelled so the
// compiler emits one load.
//
//gk:noalloc
func load64(b []byte) uint64 {
	_ = b[7]
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

// columns is the column pass: the blocked Myers/Hyyrö recurrence over the
// prepared read's masks, thresholded at e. Its caller has settled the
// lengths: both sides non-empty, |m-n| ≤ e.
//
// A cell (i, j) lies on a path of cost ≤ e only if |i-j| + |(m-n)-(i-j)| ≤ e,
// so each column advances only the 64-row blocks that band meets; the row
// above the first block and the column left of a block entering the band are
// taken as one more than their neighbour, an upper bound that leaves every
// in-band path its exact cost. The running score follows the diagonal that
// ends in the bottom-right cell: it moves by 1 minus Hyyrö's D0 bit per
// column and never falls, so the first column that lifts it past e settles
// the answer.
//
//gk:noalloc
func (v *Verifier) columns(window []byte, e int) (int, bool) {
	m := len(v.pat)
	delta := m - len(window)
	score := abs(delta)
	blocks := (m + wordBits - 1) / wordBits
	peq, pv, mv := v.peq[:blocks], v.pv[:blocks], v.mv[:blocks]
	for b := range pv {
		pv[b], mv[b] = ^uint64(0), 0 // column 0: D[i][0] = i
	}
	slack := (e - score) / 2
	lo, hi := min(0, delta)-slack, max(0, delta)+slack // in-band i-j, as 0-based rows j+lo..j+hi
	for j, c := range window {
		first, last := max(j+lo, 0)/wordBits, min(j+hi, m-1)/wordBits
		diag := j + delta // row of this column's cell on the scored diagonal
		var d0 uint64
		hp, hn := uint64(1), uint64(0) // horizontal delta entering from above: +1
		for b := first; b <= last; b++ {
			eq, p, q := peq[b][c], pv[b], mv[b]
			var xh uint64
			xh, _, pv[b], mv[b], hp, hn = blockStep(eq, p, q, hp, hn)
			if b == diag/wordBits {
				d0 = xh | q
			}
		}
		if diag >= 0 {
			score += 1 - int(d0>>(uint(diag)%wordBits)&1)
			if score > e {
				return 0, false
			}
		}
	}
	return score, true
}

// blockStep advances one 64-row block by one column: Hyyrö's update of the
// vertical deltas (p, q) = (+1, -1) under the column's match mask eq, with
// the horizontal delta (hp, hn) entering at the block's top row and leaving
// at its bottom one. Besides the new state it returns xh, whose union with q
// is D0 (bit i set: the cell equals its diagonal neighbour) and whose
// intersection with p is the cells one less than their left neighbour, and ph
// before the shift (bit i set: the cell is one more than its left neighbour);
// Align records D0 and ph, and the full-matrix distances read the two
// horizontal deltas at the read's last row. It is the package's only copy of
// the recurrence, and it stays within the inliner's budget only because the
// callers form xh|q themselves.
//
//gk:noalloc
func blockStep(eq, p, q, hp, hn uint64) (xh, ph, pv, mv, hpOut, hnOut uint64) {
	xv := eq | q
	eq |= hn
	xh = (((eq & p) + p) ^ p) | eq
	ph = q | ^(xh | p)
	mh := p & xh
	hpOut, hnOut = ph>>(wordBits-1), mh>>(wordBits-1)
	php := ph<<1 | hp
	mh = mh<<1 | hn
	return xh, ph, mh | ^(xv | php), php & xv, hpOut, hnOut
}

// blockDeltas is what Align's walk needs of one block in one column, a bit per
// cell: d0 set when the cell equals its diagonal neighbour, pv set when it is
// one more than the cell above, ph set when it is one more than the cell to
// its left.
type blockDeltas struct{ d0, pv, ph uint64 }

// record is the column pass keeping what it computes: block b's deltas in
// column j go to v.rec[j*blocks+b], for every block the column advances. The
// columns, band and cut-off are columns', so the two answer alike; the store
// is kept out of columns' loop because a flag tested per block costs the
// distance-only callers a fifth of their time. Align, its one caller, has
// sized v.rec, built the masks and settled the length gap: |m-n| ≤ e.
//
//gk:noalloc
func (v *Verifier) record(window []byte, e int) (int, bool) {
	m, n := len(v.pat), len(window)
	delta := m - n
	score := abs(delta)
	if m == 0 || n == 0 {
		return score, true
	}
	blocks := (m + wordBits - 1) / wordBits
	peq, pv, mv := v.peq[:blocks], v.pv[:blocks], v.mv[:blocks]
	for b := range pv {
		pv[b], mv[b] = ^uint64(0), 0
	}
	slack := (e - score) / 2
	lo, hi := min(0, delta)-slack, max(0, delta)+slack
	for j, c := range window {
		first, last := max(j+lo, 0)/wordBits, min(j+hi, m-1)/wordBits
		col := v.rec[j*blocks:][:blocks]
		hp, hn := uint64(1), uint64(0)
		for b := first; b <= last; b++ {
			eq, p, q := peq[b][c], pv[b], mv[b]
			var xh, ph uint64
			xh, ph, pv[b], mv[b], hp, hn = blockStep(eq, p, q, hp, hn)
			col[b] = blockDeltas{d0: xh | q, pv: pv[b], ph: ph}
		}
		if diag := j + delta; diag >= 0 {
			score += 1 - int(col[diag/wordBits].d0>>(uint(diag)%wordBits)&1)
			if score > e {
				return 0, false
			}
		}
	}
	return score, true
}

// verifiers recycles the scratch behind the DistanceBanded and Align
// wrappers, so a caller without a Verifier of its own still allocates
// nothing per pair once the pool is warm.
var verifiers = sync.Pool{New: func() any { return new(Verifier) }}

// DistanceBanded computes the global edit distance between a and b if it
// does not exceed maxDist: (distance, true) when distance ≤ maxDist and
// (0, false) otherwise. It prepares a pooled Verifier for a on every call; a
// caller comparing one read against many windows should hold a Verifier and
// Prepare once.
func DistanceBanded(a, b []byte, maxDist int) (int, bool) {
	v := verifiers.Get().(*Verifier)
	v.Prepare(a)
	d, ok := v.Distance(b, maxDist)
	verifiers.Put(v)
	return d, ok
}
