package align

// DistanceSemiGlobal returns the minimum edit distance between the pattern
// and any infix of the text — Edlib's HW mode, where gaps before and after
// the pattern's placement in the text are free. It runs the blocked Myers
// algorithm with a zero first row and takes the minimum of the last DP row
// across columns. mrFAST-style verification against an extended window (read
// length + 2e) uses exactly this mode.
func DistanceSemiGlobal(pattern, text []byte) int {
	if len(pattern) == 0 {
		return 0
	}
	_, best := lastRow(pattern, text, 0)
	return best
}

// DistancePrefix returns the minimum edit distance between the pattern and
// any prefix of the text — Edlib's SHW mode, where only the gap after the
// pattern is free: leading text must be consumed (first row 0..n).
func DistancePrefix(pattern, text []byte) int {
	if len(pattern) == 0 {
		return 0
	}
	_, best := lastRow(pattern, text, 1)
	return best
}

// refSemiGlobalDP is the quadratic reference for DistanceSemiGlobal,
// exported to the tests via the package (kept here so the mode definitions
// sit next to their oracle).
func refSemiGlobalDP(pattern, text []byte, freeStart bool) int {
	m, n := len(pattern), len(text)
	prev := make([]int, n+1)
	cur := make([]int, n+1)
	for j := 0; j <= n; j++ {
		if freeStart {
			prev[j] = 0
		} else {
			prev[j] = j
		}
	}
	for i := 1; i <= m; i++ {
		cur[0] = i
		for j := 1; j <= n; j++ {
			cost := 1
			if pattern[i-1] == text[j-1] {
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
	best := prev[0]
	for j := 1; j <= n; j++ {
		if prev[j] < best {
			best = prev[j]
		}
	}
	return best
}
