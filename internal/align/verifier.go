package align

import "sync"

// Verifier is the mapper's verification kernel — the
// computationally-expensive stage the pre-alignment filter protects. It
// answers "is the global edit distance between the prepared read and this
// window at most e, and if so what is it" with the blocked Myers/Hyyrö
// bit-vector recurrence restricted to an Ukkonen band, over scratch it owns:
// Prepare builds the pattern masks once per read, and Distance then costs no
// allocation however many candidate windows the read has. Every byte is its
// own symbol (Edlib's NW semantics: 'N' matches only 'N').
//
// A Verifier is not safe for concurrent use; the mapper keeps one per worker.
// The zero value is ready for Prepare.
type Verifier struct {
	pat    []byte        // private copy of the prepared read
	peq    [][256]uint64 // peq[blk][c] has bit i set when pat[blk*64+i] == c
	pv, mv []uint64      // vertical +1 / -1 delta vectors, one word per block
	band   []int32       // Align's traceback band, (len(pat)+1) × (2d+1)
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
			xv := eq | q
			eq |= hn
			xh := (((eq & p) + p) ^ p) | eq
			ph := q | ^(xh | p)
			mh := p & xh
			if b == diag/wordBits {
				d0 = xh | q
			}
			hpOut, hnOut := ph>>(wordBits-1), mh>>(wordBits-1)
			ph = ph<<1 | hp
			mh = mh<<1 | hn
			pv[b] = mh | ^(xv | ph)
			mv[b] = ph & xv
			hp, hn = hpOut, hnOut
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
