// Package align provides exact edit-distance computation for the
// reproduction. The paper uses Edlib's global alignment as ground truth for
// every accuracy experiment; Edlib is an implementation of Myers' 1999
// bit-vector algorithm, which this package reimplements (blocked variant for
// sequences longer than one machine word, per Hyyrö 2003). Verifier, the
// same recurrence thresholded at e inside an Ukkonen band over reusable
// scratch, is the mapper's verification kernel, and a plain quadratic DP acts
// as the reference implementation in tests.
package align

const (
	wordBits = 64
	highBit  = uint64(1) << (wordBits - 1)
)

// Distance returns the global (Needleman-Wunsch / Levenshtein) edit distance
// between a and b using the blocked Myers bit-vector algorithm. It matches
// Edlib's NW mode: every character is an ordinary symbol, so 'N' matches only
// 'N'.
func Distance(a, b []byte) int {
	m, n := len(a), len(b)
	if m == 0 {
		return n
	}
	if n == 0 {
		return m
	}
	// Myers' algorithm treats `a` as the pattern (rows). Keeping the pattern
	// as the shorter string minimizes the block count.
	if m > n {
		a, b = b, a
		m, n = n, m
	}
	blocks := (m + wordBits - 1) / wordBits
	peq := buildPeq(a, blocks)
	zero := make([]uint64, blocks)

	pv := make([]uint64, blocks)
	mv := make([]uint64, blocks)
	for i := range pv {
		pv[i] = ^uint64(0)
	}
	lastBit := uint((m - 1) % wordBits)
	score := m
	for j := 0; j < n; j++ {
		eqAll := peq[b[j]]
		if eqAll == nil {
			eqAll = zero
		}
		hin := 1 // global mode: the first DP row is 0,1,2,...
		for blk := 0; blk < blocks; blk++ {
			var hout int
			pv[blk], mv[blk], hout = advanceBlock(pv[blk], mv[blk], eqAll[blk], hin,
				blk == blocks-1, lastBit)
			hin = hout
		}
		score += hin
	}
	return score
}

// advanceBlock performs one column step of Hyyrö's blocked Myers algorithm on
// a single 64-row block. hin is the horizontal delta entering the block from
// above (-1, 0, +1); the returned hout is the horizontal delta at the block's
// last row — or, when last is set, at lastBit (the final pattern row, which
// may fall inside a partially used block).
func advanceBlock(pv, mv, eq uint64, hin int, last bool, lastBit uint) (pvOut, mvOut uint64, hout int) {
	var hinIsNeg, hinIsPos uint64
	if hin < 0 {
		hinIsNeg = 1
	} else if hin > 0 {
		hinIsPos = 1
	}
	xv := eq | mv
	eq |= hinIsNeg
	xh := (((eq & pv) + pv) ^ pv) | eq
	ph := mv | ^(xh | pv)
	mh := pv & xh

	outBit := uint(wordBits - 1)
	if last {
		outBit = lastBit
	}
	hout = int((ph>>outBit)&1) - int((mh>>outBit)&1)

	ph = ph<<1 | hinIsPos
	mh = mh<<1 | hinIsNeg
	pvOut = mh | ^(xv | ph)
	mvOut = ph & xv
	return pvOut, mvOut, hout
}

// buildPeq precomputes the match bitvectors: peq[c][blk] has bit i set when
// pattern row blk*64+i equals byte c. Characters absent from the pattern map
// to nil (treated as an all-zero row set).
func buildPeq(pattern []byte, blocks int) [256][]uint64 {
	var peq [256][]uint64
	for i, c := range pattern {
		if peq[c] == nil {
			peq[c] = make([]uint64, blocks)
		}
		peq[c][i/wordBits] |= uint64(1) << uint(i%wordBits)
	}
	return peq
}

// DistanceDP is the plain quadratic Levenshtein DP. It exists as the
// unambiguous reference implementation for property tests and worked
// examples; production paths use Distance or a Verifier.
func DistanceDP(a, b []byte) int {
	m, n := len(a), len(b)
	prev := make([]int, n+1)
	cur := make([]int, n+1)
	for j := 0; j <= n; j++ {
		prev[j] = j
	}
	for i := 1; i <= m; i++ {
		cur[0] = i
		for j := 1; j <= n; j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			best := prev[j-1] + cost
			if prev[j]+1 < best {
				best = prev[j] + 1
			}
			if cur[j-1]+1 < best {
				best = cur[j-1] + 1
			}
			cur[j] = best
		}
		prev, cur = cur, prev
	}
	return prev[n]
}

// HammingDistance counts positional mismatches between equal-length slices;
// it panics if lengths differ (callers validate first).
func HammingDistance(a, b []byte) int {
	if len(a) != len(b) {
		panic("align: HammingDistance on unequal lengths")
	}
	d := 0
	for i := range a {
		if a[i] != b[i] {
			d++
		}
	}
	return d
}

//gk:noalloc
func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
