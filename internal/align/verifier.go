package align

import "sync"

// Verifier is the mapper's verification kernel — the
// computationally-expensive stage the pre-alignment filter protects. It
// answers "is the global edit distance between the prepared read and this
// window at most e, and if so what is it" with the blocked Myers/Hyyrö
// bit-vector recurrence restricted to an Ukkonen band, over scratch it owns:
// Prepare builds the pattern masks once per read, and Distance — or Align,
// the same pass with its deltas recorded and walked back into the alignment's
// operations — then costs no allocation however many candidate windows the
// read has. Every byte is its own symbol (Edlib's NW semantics: 'N' matches
// only 'N').
//
// A Verifier is not safe for concurrent use; the mapper keeps one per worker.
// The zero value is ready for Prepare.
type Verifier struct {
	pat    []byte        // private copy of the prepared read
	peq    [][256]uint64 // peq[blk][c] has bit i set when pat[blk*64+i] == c
	pv, mv []uint64      // vertical +1 / -1 delta vectors, one word per block
	rec    []blockDeltas // Align's record, one entry per block per column
	ops    []Op          // Align's operations, written from the back
}

// Prepare makes read the pattern of the following Distance and Align calls.
// It clears only the mask entries the previous pattern set, so its cost is
// linear in the two read lengths, and it allocates only when read needs more
// 64-row blocks than any read before it. The read is copied; the caller may
// reuse its buffer.
func (v *Verifier) Prepare(read []byte) {
	for i, c := range v.pat {
		v.peq[i/wordBits][c] = 0
	}
	if blocks := (len(read) + wordBits - 1) / wordBits; blocks > len(v.peq) {
		v.peq = append(v.peq, make([][256]uint64, blocks-len(v.peq))...)
		v.pv = make([]uint64, blocks)
		v.mv = make([]uint64, blocks)
	}
	v.pat = append(v.pat[:0], read...)
	for i, c := range read {
		v.peq[i/wordBits][c] |= 1 << (i % wordBits)
	}
}

// Distance returns (d, true) when the global edit distance d between the
// prepared read and window is at most e, and (0, false) otherwise.
//
// The read runs down the rows, the window along the columns. A cell (i, j)
// lies on a path of cost ≤ e only if |i-j| + |(m-n)-(i-j)| ≤ e, so each
// column advances only the 64-row blocks that band meets; the row above the
// first block and the column left of a block entering the band are taken as
// one more than their neighbour, an upper bound that leaves every in-band
// path its exact cost. The running score follows the diagonal that ends in
// the bottom-right cell: it moves by 1 minus Hyyrö's D0 bit per column and
// never falls, so the first column that lifts it past e settles the answer.
//
//gk:noalloc
func (v *Verifier) Distance(window []byte, e int) (int, bool) {
	m, n := len(v.pat), len(window)
	delta := m - n
	score := abs(delta)
	if e < 0 || score > e {
		return 0, false
	}
	if m == 0 || n == 0 {
		return score, true
	}
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
// is D0 (bit i set: the cell equals its diagonal neighbour), and ph before
// the shift (bit i set: the cell is one more than its left neighbour); Align
// records both. It is the verifier's only copy of the recurrence, and it stays
// within the inliner's budget only because the callers form xh|q themselves.
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

// record is Distance keeping what it computes: block b's deltas in column j
// go to v.rec[j*blocks+b], for every block the column advances. The
// columns, band and cut-off are Distance's, so the two answer alike; the
// store is kept out of Distance's loop because a flag tested per block costs
// the distance-only callers a fifth of their time. Align, its one caller,
// has sized v.rec and settled the length gap: |m-n| ≤ e.
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
