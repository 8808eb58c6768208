// Package align provides exact edit-distance computation for the
// reproduction. The paper uses Edlib's global alignment as ground truth for
// every accuracy experiment; Edlib is an implementation of Myers' 1999
// bit-vector algorithm, which this package reimplements (blocked variant for
// sequences longer than one machine word, per Hyyrö 2003): Distance runs it
// over the whole matrix. Verifier, the mapper's
// verification kernel, answers "at most e, and how many" over reusable
// scratch: a wavefront of furthest-reaching diagonals (Ukkonen / Myers O(ND))
// settles the pairs that keep pace with a read of at most e edits, and the
// same bit-vector recurrence, thresholded at e inside an Ukkonen band, takes
// the rest. A plain quadratic DP acts as the reference implementation in
// tests.
package align

const wordBits = 64

// Distance returns the global (Needleman-Wunsch / Levenshtein) edit distance
// between a and b using the blocked Myers bit-vector algorithm. It matches
// Edlib's NW mode: every character is an ordinary symbol, so 'N' matches only
// 'N'.
func Distance(a, b []byte) int {
	// lastRow takes its first argument as the pattern (rows). Keeping the
	// pattern as the shorter string minimizes the block count.
	if len(a) > len(b) {
		a, b = b, a
	}
	if len(a) == 0 {
		return len(b)
	}
	return lastRow(a, b)
}

// lastRow runs the blocked Myers/Hyyrö recurrence over the whole matrix of a
// non-empty pattern (rows) against text (columns) in global mode — the first
// DP row is 0, 1, 2, …, so the horizontal delta entering the top block is +1 —
// following the pattern's last row, and returns that row's value in the final
// column.
func lastRow(pattern, text []byte) int {
	m := len(pattern)
	blocks := (m + wordBits - 1) / wordBits
	peq := buildPeq(pattern, blocks)
	zero := make([]uint64, blocks)

	pv := make([]uint64, blocks)
	mv := make([]uint64, blocks)
	for i := range pv {
		pv[i] = ^uint64(0)
	}
	lastBit := uint((m - 1) % wordBits) // the final pattern row may fall inside a partially used block
	score := m
	for _, c := range text {
		eqAll := peq[c]
		if eqAll == nil {
			eqAll = zero
		}
		var p, xh, ph uint64
		hp, hn := uint64(1), uint64(0)
		for blk := range pv {
			p = pv[blk]
			xh, ph, pv[blk], mv[blk], hp, hn = blockStep(eqAll[blk], p, mv[blk], hp, hn)
		}
		// The last row's horizontal delta: ph is its +1 bits, p&xh its -1 bits.
		score += int(ph>>lastBit&1) - int(p&xh>>lastBit&1)
	}
	return score
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
